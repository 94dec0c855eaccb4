"""Factor group elements into short products of generalized elementary matrices.

A generalized elementary matrix is the identity plus a single off-diagonal
row or column pattern; in characteristic 2 every such matrix is an
involution.  Any element of the 3x3 elementary group over the product ring
factors into at most 17 of them.
"""

import numpy as np

from altgen import gem_factor
from altgen.ring import el3_involutions, random_el3

rng = np.random.default_rng(2024)

print("== random elements at small ring sizes ==")
for s, m in [(1, 1), (1, 2), (2, 1), (2, 2)]:
    # the 50 elements as one stack, element e on copies [e*m, (e+1)*m);
    # part_lengths gives the length of each element's own word
    stack = random_el3(s, m, rng, length=24, count=50)
    word = gem_factor(stack)
    assert word.verify()
    lengths = word.part_lengths(50)
    print(f"s={s} m={m}: 50 elements, word lengths "
          f"min {min(lengths)} / mean {np.mean(lengths):.1f} / max {max(lengths)}")

print()
print("== the word of a single product of involution generators ==")
gens = list(el3_involutions(2, 2))
g = gens[3] * gens[11] * gens[7]
word = gem_factor(g)
print(f"letters: {len(word)}; multiply-back equals input: {word.verify()}")
for i, letter in enumerate(word.letters):
    nonzero = [(r + 1, c + 1) for r in range(3) for c in range(3)
               if r != c and not letter.blocks[r][c].is_zero()]
    print(f"  letter {i}: off-diagonal support at {nonzero}")
