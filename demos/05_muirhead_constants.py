"""Symmetric-sum constants: closed forms, brackets, and the numeric maximizer.

K(m; a) is the least constant bounding the permutation sum of monomials
x_sigma(1)^a_1 ... by (sum x)^s.  Closed forms exist when s <= 1 (case i),
when the exponents are well spread (iii), for two variables with
(a1-a2)^2 <= s (iv), and when the nonzero exponents all equal one c <= 1
(v, the vector of a join node whose branches are lone particles); the rest
(ii) only bracket the constant, and one pass over a simplex grid narrows it
to an interval: the grid maximum below, and a certified upper end from the
grid's modulus of continuity above.  This demo prints all regimes and sketches the
two-variable landscape where the maximizer jumps off the symmetric point.

Run:  python3 demos/05_muirhead_constants.py
"""

import numpy as np

from joinforge import MuirheadSpec, muirhead_closed_form, muirhead_numeric, symmetric_sum

cases = [
    (1.0, 1.0),
    (1 / 3, 1 / 3, 1 / 3),
    (0.4, 0.3, 0.2, 0.1),
    (1.2, 0.9, 0.9),
    (1.0, 1.0, 0.0),
    (1.6, 0.4),
    (3.0, 0.0),
    (2.5, 0.3),
    (1.4, 0.7, 0.0),
]

print(f"{'a':>28} {'case':>5} {'closed / bracket':>22} {'grid max':>12} {'certified':>12} {'at':>22}")
for a in cases:
    spec = MuirheadSpec(a)
    closed = muirhead_closed_form(spec)
    estimate = muirhead_numeric(spec)
    if closed.exact:
        closed_text = f"{closed.value:.9f}"
    else:
        closed_text = f"[{closed.lower:.4f}, {closed.upper:.4f}]"
    at = tuple(round(x, 4) for x in estimate.maximizer)
    print(
        f"{str(a):>28} {closed.case:>5} {closed_text:>22} {estimate.value:>12.9f} "
        f"{estimate.upper:>12.9f} {str(at):>22}"
    )

print("""
Two-variable landscape: fix s = a1 + a2 = 3 and sweep the imbalance
delta = a1 - a2.  While delta^2 <= 3 the maximum sits at x1 = x2 and the
constant is 2^(1-s) = 0.25; past that threshold the maximizer migrates
toward a corner and the constant climbs to the bracket's ceiling.
""")
s = 3.0
print(f"{'delta':>7} {'grid max':>12} {'certified':>12} {'maximizer x1':>13}")
for delta in np.linspace(0.0, 3.0, 13):
    spec = MuirheadSpec(((s + delta) / 2.0, (s - delta) / 2.0))
    estimate = muirhead_numeric(spec)
    print(
        f"{delta:>7.2f} {estimate.value:>12.6f} {estimate.upper:>12.6f} "
        f"{max(estimate.maximizer):>13.4f}"
    )

# the defining inequality with the certified constant, spot-checked at random points
rng = np.random.default_rng(0)
spec = MuirheadSpec((2.5, 0.3))
k = muirhead_numeric(spec).upper
worst = 0.0
for _ in range(2000):
    x = rng.uniform(0.0, 4.0, size=2)
    worst = max(worst, symmetric_sum(x, spec) / (k * float(x.sum()) ** spec.s))
print(f"\nsup of symmetric_sum / (K (sum x)^s) over 2000 random points: {worst:.9f}")
