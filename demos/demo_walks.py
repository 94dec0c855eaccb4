"""Random-walk analysis: exact averaging identities and sampled bounds."""

import numpy as np

from altgen import CubeGeometry, ExactDistribution, full_sweep
from altgen.walks import (binomial_sigma, doeblin_contraction_check,
                          point_walk_batch, tuple_walk, urn_bound, urn_mc)

model = CubeGeometry(1, 6)

print("== one full sweep of axis averages uniformizes exactly ==")
d = full_sweep(ExactDistribution.point_mass(model, 31415))
print("total variation to uniform (exact rational):", d.tv_to_uniform())

print()
print("== the averaging contraction, in exact arithmetic ==")
rep = doeblin_contraction_check(7, 9)
print("per-entry lower bound factor:", rep.entry_lower_bound())
print("contraction used downstream:", rep.contraction)
print("stated operator-norm reading:", rep.stated_norm_bound)
print("product inequality holds:", rep.inequality_holds)
print("tuple space size:", rep.tuple_space_size)

print()
print("== sampled block fractions ==")
start = [model.index((0, 0, 0, i % 7, i // 7, 0)) for i in range(9)]
b1 = tuple_walk(model, np.array(start), seed=1, samples=4000)
bound = 1 - 81 / 686
print(f"fraction with distinct leading coordinates: {b1:.4f} "
      f"(analytic lower bound {bound:.4f})")

print()
print("== single-point hitting probability ==")
pts = point_walk_batch(model, seed=2, samples=10**6, start_point=5,
                       axes=[3, 2, 1, 6, 5, 4])
freq = float((pts == 77777).mean())
print(f"empirical {freq:.2e} vs uniform {1 / model.N:.2e} "
      f"(sigma {binomial_sigma(1 / model.N, 10**6):.1e})")

print()
print("== the urn tail bound ==")
b = urn_bound(10, 10, 10, 3)
f = urn_mc(10, 10, 10, 3, 4000, seed=3)
print(f"exact bound {b} = {float(b):.5f}, empirical {f:.5f}")
