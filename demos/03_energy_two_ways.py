"""Orbit energy two ways: enumeration against the factorized evaluator.

The brute-force evaluator walks every ordered tuple in the orbit; the
factorized one goes over the shape's join nodes, children first, summing
descents over same-level vertices and injective branch-to-child
assignments at each join point.  They agree to floating-point reassociation, while the factorized
path also handles orbits far beyond any enumeration guard.

Run:  python3 demos/03_energy_two_ways.py
"""

import random
import time

from joinforge import (
    Configuration,
    EnumerationGuardError,
    LevelFunction,
    ROOT,
    TreeParams,
    Vertex,
    WeightAssignment,
    orbit_energy_bruteforce,
    orbit_energy_factorized,
    orbit_size,
)

rng = random.Random(1)

print("=== agreement at enumerable scale ===")
tree = TreeParams(3, 2)
leaves = list(tree.leaves())
for trial in range(5):
    n = rng.randint(2, 4)
    config = Configuration(tree, ROOT, tuple(rng.sample(leaves, n)))
    # per-vertex data as arrays in word-rank order, the order in which
    # tree.leaves() and tree.vertices() visit the vertices; f is root first
    weights = WeightAssignment(tree, [rng.uniform(0.1, 3.0) for _ in leaves])
    f = LevelFunction(tree, [rng.uniform(0.2, 2.0) for _ in tree.vertices()])
    brute = orbit_energy_bruteforce(config, weights, f)
    fact = orbit_energy_factorized(config, weights, f)
    rel = abs(fact.value - brute.value) / brute.value
    print(
        f"  {config.to_text():38s} orbit {brute.terms:4d}"
        f"  brute {brute.value:14.6f}  factorized {fact.value:14.6f}  rel {rel:.1e}"
    )

print("\n=== beyond the guard ===")
big = TreeParams(3, 6)  # 729 leaves
particles = tuple(Vertex(w) for w in [(1,) * 6, (2,) + (1,) * 5, (3,) + (1,) * 5,
                                      (1, 2) + (1,) * 4, (2, 2) + (1,) * 4, (3, 3) + (1,) * 4])
config = Configuration(big, ROOT, particles)
print("orbit size:", orbit_size(config))
try:
    orbit_energy_bruteforce(config, WeightAssignment.constant(big), LevelFunction.constant(big))
except EnumerationGuardError as err:
    print("brute force refused:", err)

start = time.perf_counter()
result = orbit_energy_factorized(
    config, WeightAssignment.constant(big), LevelFunction.constant(big)
)
elapsed = time.perf_counter() - start
print(f"factorized value {result.value:.6g} over {result.terms} members in {elapsed:.2f}s")
assert result.value == float(result.terms)  # unit data: energy counts the orbit
