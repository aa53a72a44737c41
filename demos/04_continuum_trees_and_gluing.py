"""Continuum random trees, metric gluing, and reconstruction.

Simulates the Poissonian branch-point construction (rate theta0^2 planar
part plus one branch atom per positive theta_i), glues cut-point pairs
into a pseudo-metric graph with an importance weight, and closes the loop
by rebuilding the tree from its leaf distance matrix alone.
"""

import numpy as np

import surpluslab as sl
from surpluslab.continuum import (GluedSpace, core_measure, sample_icrt,
                                  sample_icrg_weighted)
from surpluslab.reconstruct import core_measure_from_matrix, reconstruct

rng = np.random.default_rng(4)
theta = sl.ThetaVector(theta0=1.0)  # Brownian case

# First-cut law: P(Y1 > y) = exp(-y^2/2).
draws = np.array([sample_icrt(theta, rng, n_points=1).points[0][0]
                  for _ in range(20000)])
for y in (0.5, 1.0, 2.0):
    print(f"P(first cut > {y}): {np.mean(draws > y):.4f} "
          f"(exact {np.exp(-y * y / 2):.4f})")

# A realization, its tree, and the glued space.
real = sample_icrt(theta, rng, n_points=8)
tree = real.tree()
print(f"\n8 cuts, total length {tree.total_length():.3f}")
print(f"core length of pair 1: {core_measure(tree, 1):.3f}; "
      f"pairs 1-2: {core_measure(tree, 2):.3f}")

glued = GluedSpace(tree, [(1, 2), (3, 4)])
m_tree = np.array(tree.mark_distance_matrix(range(1, 9)))
m_glued = np.array(glued.mark_distance_matrix(range(1, 9)))
print("gluing never increases a distance:",
      bool((m_glued <= m_tree + 1e-12).all()))

ws = sample_icrg_weighted(theta, 1, rng, n_points=8)
print(f"importance weight of a glued sample: {ws.weight:.4f}")

# Reconstruction from distances alone.
rebuilt = reconstruct(m_tree.tolist())
m_back = np.array(rebuilt.mark_distance_matrix(range(1, 9)))
print(f"reconstruction max error: {np.abs(m_back - m_tree).max():.2e}")
print(f"matrix-only core length agrees: "
      f"{abs(core_measure_from_matrix([r[:4] for r in m_tree[:4].tolist()]) - core_measure(tree, 2)):.2e}")
