"""Uniform trees with a fixed degree sequence.

Walks the branching construction on a worked 12-vertex example, checks the
degree and leaf-count invariants, and compares a million sampled trees
against the exhaustive enumeration oracle (Pruefer decoding) to confirm
uniformity.
"""

import numpy as np

import surpluslab as sl
from surpluslab.labels import internal as V
from surpluslab.trees import enumerate_d_tree_keys, sample_d_tree_keys

# Vertex Vi has degree d_i + 1; a tree needs sum(d) = s - 2.
D = sl.validate([1, 2, 1, 3, 3, 0, 0, 0, 0, 0, 0, 0], "tree")
print(f"s = {D.s},  leaves = {D.N + 2},  sigma^2 = {D.sigma ** 2:.0f},"
      f"  lambda = {D.lam:.4f}")

# A fixed tuple gives a deterministic tree: every repeat hangs the next
# unused leaf label off the previous tuple entry.
tup = (V(4), V(5), V(2), V(5), V(3), V(4), V(5), V(4), V(1), V(2))
tree = sl.stick_break_tree(D, tup)
print("degrees of V1..V5:", [tree.degree(V(i)) for i in range(1, 6)])
print("leaf labels:", tree.star_leaves())

# Uniformity against the enumeration oracle on a small sequence.
small = sl.validate([2, 1, 1, 1, 1, 0, 0, 0], "tree")
keys = list(enumerate_d_tree_keys(small))
print(f"\nsmall sequence has exactly {len(keys)} trees "
      f"(formula gives {sl.tree_count(small)})")

rng = np.random.default_rng(0)
n = 10 ** 6
counts = sample_d_tree_keys(small, n, rng)
tv = 0.5 * sum(abs(counts.get(k, 0) / n - 1 / len(keys)) for k in keys)
print(f"total-variation gap to uniform over {len(keys)} trees "
      f"at {n} samples: {tv:.4f}")
