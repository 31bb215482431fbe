"""The four-particle worked example, end to end.

Four particles sit on the leaves of the binary depth-3 tree at
(1.1.1, 1.2.1, 2.1.1, 2.1.2).  Their join points are the root, vertex 1,
and vertex 2.1 -- one per level 0, 1, 2.  The orbit under root-fixing
automorphisms holds 64 ordered tuples, and with unit weights and a unit
vertex function the orbit energy is exactly 64.

Two constants bound the energy by the product of level power sums: the
displayed product 8 * 8^(1/p1) * 4^(1/p2) * 2^(1/p3), and the sharp
2^-(n-1) = 1/8.  At the symmetric point only the sharp one is tight.

Run:  python3 demos/01_worked_example.py
"""

from joinforge import (
    LevelFunction,
    WeightAssignment,
    extract_shape,
    interaction_value,
    orbit_energy_bruteforce,
    orbit_energy_factorized,
    orbit_size,
    reproduce_example,
    worked_example_configuration,
)

config = worked_example_configuration()
tree = config.tree

print("configuration:", config.to_text())
print("join multiset:", {v.to_text() or "root": r for v, r in config.join_multiset().items()})
print("orbit size   :", orbit_size(config))
print("canonical shape:", extract_shape(config).serialized)

# the interaction value multiplies f over the join points
f_example = LevelFunction.by_level(tree, [2.0, 3.0, 5.0, 1.0])
print("\ninteraction value with f-levels (2, 3, 5):",
      interaction_value(f_example, config))

# unit data: every orbit member contributes 1, so both evaluators give 64
weights = WeightAssignment.constant(tree, 1.0)
unit_f = LevelFunction.constant(tree, 1.0)
print("\nbrute-force orbit energy :", orbit_energy_bruteforce(config, weights, unit_f).value)
print("factorized orbit energy  :", orbit_energy_factorized(config, weights, unit_f).value)

# both bounding constants, and which one is tight at the symmetric point
report = reproduce_example()
print("\ndisplayed constant:", report.displayed_constant)
print("  ratio LHS/RHS   :", report.report_displayed.ratio)
print("sharp constant 1/8:")
print("  ratio LHS/RHS   :", report.report_binary_optimal.ratio)
print("tight regime      :", report.tight_regime)
print("flags             :", list(report.flags))
