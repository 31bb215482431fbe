"""The constant regimes side by side.

For a handful of random instances, compare the general factorial-product
constant, the sharp binary constant (when its halves condition holds), and
the constant accumulated by the proof recursion, whose per-node ledger is
printed for one instance.

Run:  python3 demos/04_bound_regimes.py
"""

from joinforge import (
    InstanceRanges,
    check_inequality,
    k_inductive,
    random_instance,
    regime_constant,
)

print(f"{'seed':>5} {'m':>2} {'n':>2} {'K general':>10} {'K binary':>10} "
      f"{'K recursion':>12} {'ratio(general)':>15}")
for seed in range(8):
    inst = random_instance(seed, InstanceRanges(arities=(2,), max_depth=3, max_particles=5))
    kg, _ = regime_constant(inst.shape, inst.exponents, 2, "general")
    kb, kb_flags = regime_constant(inst.shape, inst.exponents, 2, "binary_optimal")
    ki, _ = regime_constant(inst.shape, inst.exponents, 2, "inductive")
    report = check_inequality(inst)
    kb_text = "  (cond!)" if "halves-condition-failure" in kb_flags else f"{kb:.6f}"
    print(
        f"{seed:>5} {inst.tree.arity:>2} {inst.config.n:>2} {kg:>10.4f} "
        f"{kb_text:>10} {ki:>12.6f} {report.ratio:>15.3e}"
    )

print("\n=== recursion ledger for one binary-optimal instance ===")
inst = random_instance(3, InstanceRanges(arities=(2,), regime="binary_optimal"))
result = k_inductive(inst.shape, inst.exponents, 2)
print("shape:", inst.shape.serialized)
print("accumulated K:", result.value, " (2^-(n-1) =", 2.0 ** (-(inst.config.n - 1)), ")")
for entry in result.ledger:
    print(
        f"  node path {str(entry.node_path):10s} level {entry.level_offset}"
        f"  1/alpha {tuple(round(a, 4) for a in entry.alpha_inv)}"
        f"  1/beta {entry.beta_inv:.4f}  case {entry.muirhead_case}"
        f"  factor {entry.factor:.6f}"
    )

print("\n=== ternary roots: lone branches are exact, a subtree branch is estimated ===")
from joinforge import Configuration, ExponentAssignment, ROOT, TreeParams, Vertex, extract_shape

for title, depth, words, p in [
    ("two particles", 1, [(1,), (2,)], (1.0,)),
    ("a pair beside a lone particle", 2, [(1, 1), (1, 2), (2, 1)], (2.0, 2.0)),
]:
    tree = TreeParams(3, depth)
    shape = extract_shape(Configuration(tree, ROOT, tuple(Vertex(w) for w in words)))
    pa = ExponentAssignment(p)
    result = k_inductive(shape, pa, 3)
    print(f"{title}: value {result.value:.6f}  estimated: {result.estimated}"
          f"  node cases {[entry.muirhead_case for entry in result.ledger]}"
          f"  (general constant would be {regime_constant(shape, pa, 3, 'general')[0]})")
