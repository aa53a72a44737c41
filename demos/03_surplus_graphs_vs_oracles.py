"""Uniform connected multigraphs with fixed degrees and surplus.

A uniform tree for the degree sequence with 2k extra leaf slots, weighted
by its bias and glued at those leaves, is a uniform surplus-k graph.  The
sequences here have few enough tuples (at most 30,000) for a table: every
tuple's bias is summed per glued graph as an exact fraction, and the draws
pick graphs from that law, with no rejection.  Larger sequences stream:
propose, accept with probability bias/2^k, glue.  The ground truth is
independent: enumerate all half-edge matchings of the configuration
model, bias by the symmetry factor, condition on connectivity.  The two
laws agree in total variation.
"""

from fractions import Fraction

import surpluslab as sl
from surpluslab.experiments import rng_stream
from surpluslab.samplers import (cm_conditioned_oracle, pk_law_oracle,
                                 sample_dk_graph_keys, sample_pk_graph_prefix)

for half_degrees, k in [((3, 3), 2), ((3, 2, 2, 1), 1), ((2, 2, 2, 2), 1)]:
    half = sl.validate(list(half_degrees), "half-edge")
    oracle = cm_conditioned_oracle(half, k)
    n = 10 ** 5
    counts = sample_dk_graph_keys(half.shifted_down(k), n, rng_stream(3, k))
    keys = set(oracle) | set(counts)
    tv = 0.5 * sum(abs(counts.get(key, 0) / n - float(oracle.get(key, 0)))
                   for key in keys)
    print(f"degrees {half_degrees}, surplus {k}: "
          f"{len(oracle)} distinct graphs, TV = {tv:.4f}")

# The probability-vector version: graph weight is prod p_v^degree(v).
pvec_exact = sl.PVector((Fraction(2, 3), Fraction(1, 3)))
law = pk_law_oracle(pvec_exact, 1)
print("\ntwo-atom law, surplus 1:")
for key, prob in sorted(law.items(), key=lambda kv: str(kv[0])):
    print(f"  {prob}   {key[1]}")

rng = rng_stream(3, 99)
n = 20000
from collections import Counter
counts = Counter(sample_pk_graph_prefix(sl.PVector((2 / 3, 1 / 3)), 1, 64,
                                        rng).key() for _ in range(n))
tv = 0.5 * sum(abs(counts.get(key, 0) / n - float(law.get(key, 0)))
               for key in set(law) | set(counts))
print(f"prefix sampler vs exact law: TV = {tv:.4f} at {n} samples")
