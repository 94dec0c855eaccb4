"""Spectral gaps and Kazhdan brackets of the constructed action graphs."""

import math

import numpy as np

from altgen import ActionGraph, Permutation, build_SN, cayley_graph, schreier_graph
from altgen.spectral import spectral_gap

print("== the 49-point action graph ==")
small = schreier_graph(build_SN(1, 2))
rep = spectral_gap(small, method="dense")
print(f"vertices {small.n}, degree {small.degree}")
print(f"gap {rep.gap:.6f}, sweep conductance upper bound {rep.cheeger_upper:.6f} "
      f"(exactly {rep.cheeger_exact}, over all {small.n - 1} sweep cuts)")
print(f"kazhdan bracket for this action: "
      f"[{rep.kazhdan_lower:.6f}, {rep.kazhdan_upper:.6f}]")

print()
print("== the 117649-point action graph (axis-block sparse form) ==")
big = schreier_graph(build_SN(1, 6))
rep42 = spectral_gap(big, seed=42)
rep7 = spectral_gap(big, seed=7)
print(f"gap {rep42.gap:.9f} (Lanczos, {rep42.iterations} T applications)")
print(f"seed independence: |difference| = {abs(rep42.gap - rep7.gap):.2e}")
print(f"sweep conductance upper bound {rep42.cheeger_exact} = "
      f"{rep42.cheeger_upper:.7f}, over all {big.n - 1} sweep cuts")

print()
print("== a Cayley graph and the full-set bound ==")
a = Permutation.from_cycles(5, [(0, 1, 2)])
b = Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])
alt5 = cayley_graph([a, b])
rep = spectral_gap(alt5, method="dense")
print(f"alternating group on 5 points: {alt5.n} vertices, gap {rep.gap:.6f}")

cyc = [Permutation(np.array([(i + k) % 12 for i in range(12)])) for k in range(12)]
rep = spectral_gap(ActionGraph(cyc), method="dense")
print(f"full generating set: gap {rep.gap:.6f}, "
      f"lower bracket {rep.kazhdan_lower:.6f} (= sqrt 2: "
      f"{abs(rep.kazhdan_lower - math.sqrt(2)) < 1e-12})")
