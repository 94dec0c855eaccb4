"""Short words in the line groups: routing the face and conjugating cycles.

Each letter shifts every line along one axis independently.  Three letters
realize any prescribed within-line moves on the face; a palindrome of 4d-5
letters realizes any face permutation; 47 letters reproduce any cycle of the
standard length exactly.
"""

import numpy as np

from altgen import (CubeGeometry, Permutation, conjugacy_word47, cycle_word,
                    grid_route, standard_cycle_length, tosquare_word)

model = CubeGeometry(1, 6)
rng = np.random.default_rng(7)
L_face = 7**5

print("== routing a random face permutation ==")
sigma = rng.permutation(L_face).astype(np.int64)
word = grid_route(model, sigma)
print("letters:", len(word), "axes:", word.axes())
restriction = word.images(np.arange(L_face) * 7)
print("restriction to the face matches:", bool((restriction // 7 == sigma).all()))

print()
print("== moving a random point set into the face with two letters ==")
points = rng.choice(model.N, size=2875, replace=False)
result = tosquare_word(model, points)
if result is None:
    print("the greedy line scan failed for this sample (resample at desk scale)")
else:
    g, h = result
    final = h.materialize().table[g.materialize().table[np.sort(points)]]
    print("all points landed on the face:",
          bool((model.line_coords(final, 1)[1] == 0).all()))

print()
print("== the standard face cycle and a full conjugation word ==")
L, a = standard_cycle_length(7, 6)
print(f"standard cycle length {L} from {a} tree lines")
c0 = cycle_word(model, a)
print("cycle word letters:", len(c0), "cycle length:",
      c0.product().cycle_type()[0])

pts = rng.choice(model.N, size=L, replace=False)
order = rng.permutation(L)
target = Permutation.from_cycles(model.N, [[int(pts[i]) for i in order]])
word = conjugacy_word47(model, target)
if word is None:
    print("face-moving failed for this cycle (expected sometimes at side 7)")
else:
    print(f"conjugation word: {len(word)} letters; "
          f"exact on all {model.N} points: {word.product() == target}")
