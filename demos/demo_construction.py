"""Build the cube generating sets and check generation at desk scale.

The points form a d-dimensional cube of side K = 2^(3s) - 1.  Each axis
carries an embedding of the same product group, and the union of the
involution set's images is the generating set of interest.
"""

import math

from altgen import build_Fn, build_SN, group_order
from altgen.cli import desk_base

print("== the involution generating set at desk sizes ==")
for s, d in [(1, 2), (1, 6), (7, 6)]:
    genset = build_SN(s, d)
    K = genset.model.K
    print(f"s={s} d={d}: side {K}, {genset.model.N} points, "
          f"{len(genset)} generators, regime {genset.regime}")

print()
print("== exact generation check on the 7x7 grid ==")
genset = build_SN(1, 2)
perms = genset.permutations()
print("all generators even:", genset.all_even())
order = group_order(perms)
expected = math.factorial(49) // 2
print(f"generated group order = {order}")
print(f"half of 49!           = {expected}")
print("equal:", order == expected)
print("window set on 1000 points: order = 1000!/2:",
      group_order(build_Fn(1000, desk_base(49), 49)[0]) == math.factorial(1000) // 2)

print()
print("== a closer look at one generator ==")
label, axis, provenance = list(genset.describe())[10]
p = genset.materialize(10)
print(f"label {label}: axis {axis}, provenance: {provenance}")
print("cycle type:", p.cycle_type()[:10], "... (fixed points suppressed)")
print("is involution:", (p * p).is_identity())
