"""A gallery of orbits on a small tree.

Group every ordered tuple of distinct leaves of the ternary depth-2 tree
by its canonical join shape.  The shapes are a complete orbit invariant:
each group is one orbit, its size matches the closed-form product over the
shape, and the shape's serialization makes a stable label for reports.

Run:  python3 demos/02_orbit_gallery.py
"""

import itertools
from collections import defaultdict

from joinforge import (
    Configuration,
    ROOT,
    TreeParams,
    equivalent,
    extract_shape,
    orbit_enumerate,
    shape_orbit_size,
)

tree = TreeParams(3, 2)
leaves = list(tree.leaves())

for n in (2, 3):
    groups = defaultdict(list)
    for tup in itertools.permutations(leaves, n):
        config = Configuration(tree, ROOT, tup)
        groups[extract_shape(config)].append(config)

    print(f"\n=== n = {n}: {len(groups)} orbits over {sum(map(len, groups.values()))} tuples ===")
    for shape, members in sorted(groups.items(), key=lambda kv: kv[0].serialized):
        predicted = shape_orbit_size(shape, tree.arity)
        print(
            f"  shape {shape.serialized:24s}  size {len(members):4d}"
            f"  (formula {predicted})  e.g. {members[0].to_text()}"
        )
        assert predicted == len(members)

# equivalence agrees with shape identity, and enumeration replays the orbit
a = Configuration(tree, ROOT, (leaves[0], leaves[1], leaves[3]))
b = Configuration(tree, ROOT, (leaves[1], leaves[0], leaves[6]))
print("\nequivalent(a, b):", equivalent(a, b))
print("same shape      :", extract_shape(a) == extract_shape(b))
print("orbit of a replays", sum(1 for _ in orbit_enumerate(a)), "members")
