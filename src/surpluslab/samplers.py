"""Exact samplers for connected multigraphs with fixed degrees and surplus,
the configuration model, multiplicative (multi)graphs and (P,k)-graph
prefixes, with small-instance enumeration oracles.

The surplus-k sampler draws a uniform tree for the degree sequence with 2k
extra zeros, designates 2k of its exchangeable leaf labels as S1..S2k by a
fixed relabelling, biases it by bias = circ / prod(squares), and glues the
pairs.  A sequence with at most 30,000 tuples is decided once: its table
sums every tuple's bias per glued graph as an exact Fraction, and each
draw picks one graph from that law, with no rejection.  A larger one
streams: the first glued pair's factor depends only on where the walk
first repeats, so that index and the entries before it are drawn from
their biased law, and only pairs 2..k are left to a rejection step.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterable, List, Sequence

from .errors import OddSum, TooLarge, ValidationError
from .labels import _labels, internal, star
from .multigraph import Multigraph, _LazyMultigraph, bias_bound
from .params import (KIND_HALF_EDGE, KIND_SURPLUS, DegreeSequence,
                     PVector, as_fraction)
from .trees import (PTreeGrowth, _base_multiset, _check_draw_cap, _climb,
                    _decoded, _walk, _walk_base, _walk_on,
                    multiset_arrangements, tree_count)

# the walk _glued_graph keeps for [0, 0]'s empty tuple, whose tree is the
# edge S0 - S1: S0 is the root and S1 hangs one hop below it
_EMPTY_WALK = ({star(0): None}, {star(0): 0}, (), ((1, star(0)),))

# ---------------------------------------------------------------------------
# bias evaluation from the walk's parent pointers


def _bias_core(parent, depth, fathers):
    """(circ, partial-gluing squares) for glue fathers, both in integers;
    the bias is circ / prod(squares).

    fathers[2i], fathers[2i+1] attach the i-th glued leaf pair; its tree
    path is the climb between them, each edge named by its lower end.
    Matches multigraph.bias exactly: the square after gluing pairs 1..i is
    |union of father paths| + i, and the symmetry factor, 2^m m! for m
    loops or (e+m)! for m copies beside e tree edges, grows by one factor
    per copy, at most 2 square_i (multigraph.bias_bound).
    """
    union = set()
    squares = []
    copies = {}
    circ = 1
    for i in range(len(fathers) // 2):
        a, b = fathers[2 * i], fathers[2 * i + 1]
        pair = (a, b) if a <= b else (b, a)  # as _glued_graph orders it
        m = copies[pair] = copies.get(pair, 0) + 1
        path = _climb(parent, depth, a, b)
        union.update(path)
        squares.append(len(union) + i + 1)
        c = 2 * m if not path else (len(path) == 1) + m
        assert c <= 2 * squares[-1], "bias bound violated"
        circ *= c
    return circ, squares


def _accepts(rng: np.random.Generator, bound: int, circ: int, prod: int) -> bool:
    """rng.random() * bound < circ / prod, decided exactly in integers."""
    num, den = (rng.random() * bound).as_integer_ratio()
    return num * prod < circ * den


def _glue_bias(entries, k: int, first: int = 0):
    """(circ, prod(squares)) of the walk glued at leaves first..first+2k-1."""
    parent, depth, fathers = _walk(entries, first + 2 * k)
    circ, squares = _bias_core(parent, depth, fathers[first:first + 2 * k])
    return circ, math.prod(squares)


def _glued_graph(parent, depth, glued, kept, name=None) -> Multigraph:
    """A walk's tree with leaf pairs glued, as a _LazyMultigraph that
    keeps the walk and builds its multiplicity map in one pass on first
    read (_glued_map): experiments reads its mark matrices off the walk
    alone.  A table graph is shared, so nothing may change it."""
    if not parent:  # the empty tuple of the sequence [0, 0]: one edge S0-S1
        edge = _labels(star, 2)
        return _LazyMultigraph(_EMPTY_WALK, lambda *_: ({edge: 1}, frozenset(edge)))
    return _LazyMultigraph((parent, depth, glued, kept),
                           lambda *walk: _glued_map(*walk, name))


def _glued_map(parent, depth, glued, kept, name=None):
    """(mult, vertices) of a walk's tree with leaf pairs glued.

    glued[2i], glued[2i+1] are the fathers of the i-th glued pair, kept
    lists (j, father) for each leaf S_j that stays, and name[a] labels walk
    entry a (V_a by default); labels come from cached tuples.  Edges come
    in walk order: tree edges by discovery, the kept leaves, then one edge
    per glued pair.  Walk entries (ints, or the labels of a P-tree record)
    order like their labels, so each pair is ordered as multigraph._pair
    orders it by comparing the entries; S_j sorts before every V and Vinf.
    Tree and kept edges are distinct; only a glued pair can double an edge
    or be a loop."""
    names = _labels(internal, max(parent) + 1) if name is None else name
    stars = _labels(star, len(glued) + len(kept))
    mult = {(names[p], names[a]) if p < a else (names[a], names[p]): 1
            for a, p in parent.items() if p is not None}
    for j, f in kept:
        mult[stars[j], names[f]] = 1
    for a, b in zip(glued[::2], glued[1::2]):
        pair = (names[a], names[b]) if a <= b else (names[b], names[a])
        mult[pair] = mult.get(pair, 0) + 1
    return mult, frozenset([*map(names.__getitem__, parent),
                            *(stars[j] for j, _ in kept)])


def _designated(fathers: list, k: int):
    """(glued, kept) of a tuple walk's leaf fathers, with S0..S2k-1 renamed
    S1..S2k and glued, and S2k renamed S0: leaf labels are exchangeable
    under the uniform tree law, so this fixed shift keeps uniformity."""
    return fathers[:2 * k], [(j if j > 2 * k else 0, f)
                             for j, f in enumerate(fathers) if j >= 2 * k]


def _dk_graph(entries: Iterable[int], k: int) -> Multigraph:
    """A tuple's tree with leaves S0..S2k-1 renamed S1..S2k, glued, read
    once: entries is walked only as far as a reader of the graph asks
    (_LazyMultigraph._walk_to), and to its end by any read of the map."""
    entries = iter(entries)
    parent, depth, fathers = _walk(entries, 1)  # the root alone
    if not parent:
        return _glued_graph(parent, depth, *_designated(fathers, k))
    prev = fathers[0]

    def resume(n_leaves):
        nonlocal prev
        if len(fathers) < n_leaves:
            prev = _walk_on(parent, depth, fathers, prev, entries, n_leaves)
        return (parent, depth, *_designated(fathers, k)), prev is None
    return _LazyMultigraph(None, _glued_map, resume)


def _pk_graph(record, k: int, leaves: bool = True) -> Multigraph:
    """A draw record's P-tree with (S1,S2)..(S2k-1,S2k) glued; a P-tree
    has no closing leaf, so the walk's last father is dropped."""
    parent, depth, fathers = _walk(record, len(record) + 1)
    kept = ([(j, f) for j, f in enumerate(fathers[:-1]) if not 0 < j <= 2 * k]
            if leaves else [])
    return _glued_graph(parent, depth, fathers[1:2 * k + 1], kept,
                        dict(zip(parent, parent)))


# ---------------------------------------------------------------------------
# (D,k)-graph sampling

_TABLE_CAP = 30000
_PROPOSAL_CAP = 10 ** 7  # per accepted graph, in both rejection loops


@dataclass
class DkTable:
    """The exact law of a small (D,k) sequence: per distinct glued graph,
    in first-tuple order, the graph, the Fraction sum of its tuples'
    biases and its probability w / sum(weights) as a float."""
    graphs: list
    weights: list
    p: np.ndarray


def build_dk_table(seq: DegreeSequence) -> DkTable:
    """Every tuple's bias summed per glued graph, for a surplus sequence;
    _dk_path calls it once per sequence of at most _TABLE_CAP tuples.
    A graph keeps its first tuple's walk and its circs summed per
    prod(squares); it is built, and its Fractions made, after the loop."""
    import numpy as np  # deferred: keeps CLI start-up light
    k, tree_seq = seq.k, seq.to_tree_kind()
    m = len(tree_seq.degrees) + 1  # above every rank
    law: Dict[tuple, tuple] = {}  # graph key -> (walk, {prod: summed circ})
    for arrangement in multiset_arrangements(_base_multiset(tree_seq)):
        parent, depth, fathers = _walk(arrangement, len(arrangement) + 1)
        circ, squares = _bias_core(parent, depth, fathers[:2 * k])
        # Multigraph.key() in ints (all tuples share their vertices), edge
        # (a, b), a <= b, as a * m + b: a glued edge can double a tree edge,
        # so both go into one sorted list; kept leaves come in leaf order
        edges = [a * m + p if a < p else p * m + a
                 for a, p in parent.items() if p is not None]
        edges += [a * m + b if a < b else b * m + a
                  for a, b in zip(fathers[:2 * k:2], fathers[1:2 * k:2])]
        edges.sort()
        key = (tuple(edges), tuple(fathers[2 * k:]))
        entry = law.get(key)
        if entry is None:
            entry = law[key] = ((parent, depth, fathers), {})
        sums, q = entry[1], math.prod(squares)
        sums[q] = sums.get(q, 0) + circ
    graphs = [_glued_graph(parent, depth, *_designated(fathers, k))
              for (parent, depth, fathers), _ in law.values()]
    weights = [sum(Fraction(c, q) for q, c in sums.items())
               for _, sums in law.values()]
    total = sum(weights)
    return DkTable(graphs, weights,
                   np.array([float(w / total) for w in weights]))


def _first_factor(t: int):
    """(c_1, square_1) of a walk whose entry t + 1 is its first repeat (or
    whose t entries are all distinct): the first glued pair joins entries 1
    and t, t - 1 tree edges apart, as a loop, a double edge or a t-cycle.
    Its factor c_1 / square_1 is 2, 1 or 1/t."""
    return (2, 1) if t == 1 else (2, 2) if t == 2 else (1, t)


# the last T kept is the one before the bound on P(T >= t) falls below
# 1e-300: weights that small cannot move the float cumulative sum
_LOG_TINY = math.log(1e-300)


def _log_convolve(a, b, size: int):
    """The first size coefficients of the product of two power series, each
    given by the logs of its coefficients (-inf for 0): one shifted
    logaddexp per nonzero coefficient of the sparser series."""
    import numpy as np
    nonzero = [np.flatnonzero(np.isfinite(x[:size])) for x in (a, b)]
    if len(nonzero[0]) > len(nonzero[1]):
        a, b, nonzero = b, a, nonzero[::-1]
    out = np.full(size, -np.inf)
    for i in nonzero[0].tolist():
        part = out[i:i + len(b)]
        np.logaddexp(part, a[i] + b[:len(part)], out=part)
    return out


def _pick(rng: np.random.Generator, logits) -> int:
    """An index drawn with probability proportional to exp(logits)."""
    import numpy as np
    cum = np.cumsum(np.exp(logits - logits.max()))
    return int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))


class _FirstPair:
    """The streaming proposal of one tree sequence: its walk base, and the
    law of T, the index of the walk's last entry before its first repeat,
    and of the entries 1..T + 1, biased by the first glued pair's factor
    f(T) = c_1 / square_1.

    With N stubs, P(T = t) = t! W_t / (N)_(t+1), where W_t sums
    prod_S d * sum_S (d - 1) over the t-sets S of positive-degree vertices.
    The vertices are grouped by degree, group j holding n_j of degree d_j.
    F[j] is the power series of prod_{g<j} (1 + d_g x)^(n_g), whose x^r
    coefficient sums prod_S d over the r-sets of groups < j; Q[j] sums
    prod_S d * sum_S (d - 1) over the same sets, so W_t is Q[G]'s x^t
    coefficient.  _tables[j] holds A_j = (1 + d_j x)^(n_j), B_j (A_j's
    x^m term times m (d_j - 1)), F[j] and Q[j], all as logs of floats, up
    to the last T whose P(T >= t) can exceed 1e-300 by Maclaurin's bound
    e_t <= C(s, t) (N / s)^t on F[G]'s coefficients.  p_t[t - 1] is
    P(T = t), unbiased; it is None when every degree is 1, since then no
    entry repeats and T = N, and without law, for k = 0, which glues no
    pair and draws nothing from it.
    """

    def __init__(self, seq: DegreeSequence, law: bool = True):
        import numpy as np
        self.base = _walk_base(seq)
        n_stubs = len(self.base)
        self._counts = np.array((0,) + seq.degrees)  # stubs per rank
        self._ranks = np.arange(len(self._counts))
        groups: Dict[int, list] = {}
        for rank, d in enumerate(seq.degrees, 1):
            if d:
                groups.setdefault(d, []).append(rank)
        self._groups = [(d, np.array(r)) for d, r in sorted(groups.items())]
        self._tables, self.p_t = [], None
        if not law or all(d == 1 for d in groups):
            return
        s = sum(len(r) for r in groups.values())
        lf = np.array([math.lgamma(i + 1) for i in range(n_stubs + 1)])
        t = np.arange(s + 1)
        bound = (lf[s] - lf[t] - lf[s - t] + t * math.log(n_stubs / s)
                 - lf[n_stubs] + lf[t] + lf[n_stubs - t])
        size = int(np.argmax(bound < _LOG_TINY)) or s + 1
        log_f, log_q = np.full(size, -np.inf), np.full(size, -np.inf)
        log_f[0] = 0.0
        for d, ranks in self._groups:
            m = np.arange(min(len(ranks), size - 1) + 1)
            log_a = lf[len(ranks)] - lf[m] - lf[len(ranks) - m] + m * math.log(d)
            with np.errstate(divide="ignore"):  # log 0 for m = 0 or d = 1
                log_b = log_a + np.log(m * (d - 1))
            self._tables.append((log_a, log_b, log_f, log_q))
            log_f, log_q = (_log_convolve(log_f, log_a, size),
                            np.logaddexp(_log_convolve(log_q, log_a, size),
                                         _log_convolve(log_f, log_b, size)))
        t = np.arange(1, size)
        self.p_t = np.exp(lf[t] + log_q[1:] - lf[n_stubs] + lf[n_stubs - t - 1])
        f = [c / square for c, square in map(_first_factor, t.tolist())]
        self._cum = np.cumsum(self.p_t * f)

    def draw(self, rng: np.random.Generator):
        """(T, entries 1..T + 1): T from its law biased by f(T); then the
        group sizes and the group of the repeated entry u, group by group
        from the last, each weighed against the prefix series F or Q of the
        groups before it; then uniform vertices within each group, u
        uniform among its group's, and a uniform order.  With every degree
        1, (N, []): the whole tuple is left to the completion."""
        import numpy as np
        if self.p_t is None:
            return len(self.base), []
        t = int(np.searchsorted(self._cum, rng.random() * self._cum[-1],
                                side="right")) + 1
        r, u_group, sizes = t, None, [0] * len(self._groups)
        for j in range(len(self._groups) - 1, 0, -1):
            log_a, log_b, log_f, log_q = self._tables[j]
            top = min(len(log_a) - 1, r)
            rest_f = log_f[r - top:r + 1][::-1]  # F[j] at r - m, m = 0..top
            if u_group is None:  # u in group j, or in a group before it
                i = _pick(rng, np.concatenate((
                    log_b[:top + 1] + rest_f,
                    log_a[:top + 1] + log_q[r - top:r + 1][::-1])))
                if i <= top:
                    u_group = j
                else:
                    i -= top + 1
            else:
                i = _pick(rng, log_a[:top + 1] + rest_f)
            sizes[j] = i
            r -= i
        sizes[0] = r
        u_group = 0 if u_group is None else u_group
        picks = [rng.choice(ranks, n, replace=False, shuffle=False)
                 if n else ranks[:0] for (_, ranks), n in zip(self._groups, sizes)]
        u = int(picks[u_group][rng.integers(sizes[u_group])])
        prefix = np.concatenate(picks)
        rng.shuffle(prefix)
        return t, prefix.tolist() + [u]

    def rest(self, prefix: list) -> np.ndarray:
        """The stubs a prefix leaves, as ranks in increasing order."""
        import numpy as np
        if not prefix:
            return self.base
        counts = self._counts - np.bincount(prefix, minlength=len(self._counts))
        return np.repeat(self._ranks, counts)


@lru_cache(maxsize=128)
def _dk_path(seq: DegreeSequence):
    """The sequence's DkTable, or above _TABLE_CAP tuples the _FirstPair of
    its tree kind, with its law only at k >= 1: the kind is checked, the
    tuples counted and the path chosen once per sequence."""
    if seq.kind != KIND_SURPLUS:
        raise ValidationError("(D,k) sampling needs a surplus-kind sequence")
    tree_seq = seq.to_tree_kind()
    if tree_count(tree_seq) > _TABLE_CAP:
        return _FirstPair(tree_seq, law=seq.k > 0)
    return build_dk_table(seq)


def dk_table(seq: DegreeSequence) -> DkTable:
    path = _dk_path(seq)
    if not isinstance(path, DkTable):
        raise TooLarge(f"{tree_count(seq.to_tree_kind())} tuples exceeds "
                       f"the table cap {_TABLE_CAP}")
    return path


def _sample_dk_streaming(k: int, first: _FirstPair, rng: np.random.Generator):
    """Each proposal draws its first glued pair's prefix from the biased
    law (none at k = 0), then completes it with one rng.permutation of the
    stubs left.  The prefix carries the factor f(T), so at k <= 1 every
    proposal is accepted; at k >= 2 the walk goes on to leaf 2k and the
    proposal passes with probability (bias / f(T)) / 2^(k-1), which is at
    most 1.  The bias, and the graph as it is read, decode the completion
    only as far as their walks read it."""
    for _ in range(_PROPOSAL_CAP):
        t, prefix = first.draw(rng) if k else (0, [])
        rest = first.rest(prefix)
        perm = rng.permutation(len(rest))
        if k > 1:
            circ, prod = _glue_bias(
                itertools.chain(prefix, _decoded(rest, perm)), k)
            c, square = _first_factor(t)
            if not _accepts(rng, bias_bound(k - 1), circ * square, prod * c):
                continue
        return _dk_graph(itertools.chain(prefix, _decoded(rest, perm)), k)
    raise TooLarge(f"nothing accepted in {_PROPOSAL_CAP} proposals")


def sample_dk_graph(seq: DegreeSequence, rng: np.random.Generator) -> Multigraph:
    """Uniform connected multigraph with degrees d_i+1 and surplus k.

    The sequence's zero entries survive as star leaves labeled S0,
    S_{2k+1}, ... (the glued labels S1..S2k are consumed).  Sequences
    with at most 30000 tuples draw one graph from the table's exact law;
    larger ones stream: the first glued pair is drawn from its biased law,
    so a k = 1 draw makes one proposal, and at k >= 2 a proposal is
    accepted with probability (bias / f(T)) / 2^(k-1).
    """
    path = _dk_path(seq)
    if not isinstance(path, DkTable):
        return _sample_dk_streaming(seq.k, path, rng)
    return path.graphs[rng.choice(len(path.graphs), p=path.p)]


def sample_dk_graph_keys(seq: DegreeSequence, n_samples: int,
                         rng: np.random.Generator) -> Counter:
    """Leaf-canonical keys of n_samples (D,k)-graph table draws, made in
    one rng.choice."""
    if n_samples < 0:
        raise ValidationError("n_samples must be >= 0")
    import numpy as np
    table = dk_table(seq)
    counts = np.bincount(rng.choice(len(table.graphs), size=n_samples,
                                    p=table.p), minlength=len(table.graphs))
    keys: Counter = Counter()
    for g, c in zip(table.graphs, counts.tolist()):
        if c:
            keys[g.leaf_canonical_key()] += c
    return keys


# ---------------------------------------------------------------------------
# configuration model and its conditioned oracle


@lru_cache(maxsize=16)
def _stubs(seq: DegreeSequence) -> np.ndarray:
    """Rank i + 1 once per half-edge of V_{i+1}, as a read-only array built
    once per sequence."""
    import numpy as np
    stubs = np.repeat(np.arange(1, seq.s + 1), seq.degrees)
    stubs.flags.writeable = False
    return stubs


def sample_configuration_model(seq: DegreeSequence,
                               rng: np.random.Generator) -> Multigraph:
    """Multigraph of a uniform perfect matching of labeled half-edges:
    stubs 2i and 2i + 1 of the permuted stub array are paired.  np.unique
    gives each (lo, hi) pair once, ordered and counted, so the map goes
    straight to Multigraph._of."""
    if seq.kind != KIND_HALF_EDGE:
        raise ValidationError("configuration model needs a half-edge sequence")
    if seq.total % 2 != 0:
        raise OddSum("half-edge count must be even")
    import numpy as np
    names = _labels(internal, seq.s + 1)
    ends = _stubs(seq)[rng.permutation(seq.total)]
    lo, hi = np.minimum(ends[::2], ends[1::2]), np.maximum(ends[::2], ends[1::2])
    pairs, mult = np.unique(lo * len(names) + hi, return_counts=True)
    lo, hi = np.divmod(pairs, len(names))
    return Multigraph._of({(names[u], names[v]): m for u, v, m in
                           zip(lo.tolist(), hi.tolist(), mult.tolist())},
                          frozenset(names[1:]))


def _connected_law(weighted, key) -> Dict[tuple, Fraction]:
    """The exact law of the connected graphs among (Multigraph, weight)
    pairs: the weights summed per key(g), over their total."""
    law = {}
    for g, w in weighted:
        if g.is_connected():
            k = key(g)
            law[k] = law.get(k, 0) + w
    total = sum(law.values())
    if total == 0:
        raise ValidationError("no connected configuration exists")
    return {k: Fraction(w) / total for k, w in law.items()}


def _multiplicity_maps(degrees) -> List[tuple]:
    """Every multiplicity map a perfect matching of the stubs can give,
    once each, as a sorted edge tuple.

    Each step pairs the first free stub of the lowest vertex u with a free
    stub of a vertex v >= u; paths reaching the same partial edge tuple
    are merged on the way.  Each layer is a dict, not a set, so the maps
    come in first-reached order, the order of the oracle's keys.
    """
    layer = {(tuple(degrees), ()): None}
    for _ in range(sum(degrees) // 2):
        nxt = {}
        for r, edges in layer:
            u = next(i for i, x in enumerate(r) if x)
            for v in range(u, len(r)):
                if r[v] > (v == u):
                    nxt[(tuple(x - (i == u) - (i == v) for i, x in enumerate(r)),
                         tuple(sorted(edges + ((u + 1, v + 1),))))] = None
        layer = nxt
    return [edges for _, edges in layer]


_CM_CAP_SUM = 14


def cm_conditioned_oracle(seq: DegreeSequence, k: int) -> Dict[tuple, Fraction]:
    """Exact law of the configuration model biased by its symmetry factor
    and conditioned on connectivity, keyed by leaf-canonical form.

    With sum(d) = 2s + 2k - 2 this is the uniform law on connected
    multigraphs with degrees d_i (surplus k), i.e. the ground truth for
    sample_dk_graph on the shifted sequence.  A multiplicity map m comes
    from prod d_v! / circ(m) stub matchings, so its biased weight is the
    constant prod d_v!: each connected map weighs 1.
    """
    if seq.kind != KIND_HALF_EDGE or not seq.s:
        raise ValidationError("oracle needs a non-empty half-edge sequence")
    if seq.total > _CM_CAP_SUM:
        raise TooLarge(f"sum {seq.total} exceeds enumeration cap {_CM_CAP_SUM}")
    two_k = seq.total - 2 * seq.s + 2
    if two_k % 2 != 0 or two_k < 0:
        raise ValidationError("sequence cannot yield a connected multigraph")
    if two_k != 2 * k:
        raise ValidationError(
            f"sum {seq.total} corresponds to surplus {two_k // 2}, not {k}")
    names = _labels(internal, seq.s + 1)
    return _connected_law(
        ((Multigraph([(names[u], names[v]) for u, v in edges],
                     vertices=names[1:]), 1)
         for edges in _multiplicity_maps(seq.degrees)),
        Multigraph.leaf_canonical_key)


# ---------------------------------------------------------------------------
# multiplicative graphs


def sample_multiplicative_graph(lam: float, weights: Sequence[float],
                                rng: np.random.Generator) -> Multigraph:
    """Simple graph; edge {i,j} present with probability 1-exp(-lam w_i w_j)."""
    if not 0 <= lam < math.inf or not all(0 < w < math.inf for w in weights):
        raise ValidationError("lambda must be finite and >= 0, weights finite and > 0")
    s = len(weights)
    edges = []
    for i in range(s):
        for j in range(i + 1, s):
            if rng.random() < -math.expm1(-lam * weights[i] * weights[j]):
                edges.append((internal(i + 1), internal(j + 1)))
    return Multigraph(edges, vertices=[internal(i + 1) for i in range(s)])


def sample_multiplicative_multigraph(lam: float, weights: Sequence[float],
                                     rng: np.random.Generator) -> Multigraph:
    """Poisson multiplicities: mean lam w_i w_j off-diagonal, lam w_i^2/2 loops."""
    if not 0 <= lam < math.inf or not all(0 < w < math.inf for w in weights):
        raise ValidationError("lambda must be finite and >= 0, weights finite and > 0")
    s = len(weights)
    edges = []
    for i in range(s):
        for j in range(i, s):
            mean = lam * weights[i] * weights[j] * (0.5 if i == j else 1.0)
            try:
                m = int(rng.poisson(mean))
            except ValueError:  # numpy refuses means above about 9.2e18
                raise ValidationError(f"Poisson mean {mean} is too large") from None
            if m:
                edges.append((internal(i + 1), internal(j + 1), m))
    return Multigraph(edges, vertices=[internal(i + 1) for i in range(s)])


# ---------------------------------------------------------------------------
# (P,k)-graph prefix sampler and its exact law


def pk_law_oracle(pvec: PVector, k: int, cap: int = 200000) -> Dict[tuple, Fraction]:
    """Exact law of the (P,k)-graph on a finite-support P: probability of a
    connected multigraph G on V1..Vs with surplus k is proportional to
    prod_v p_v^deg(v), keyed by Multigraph.key()."""
    if pvec.p_inf != 0:
        raise ValidationError("exact law needs p_inf = 0")
    if k < 1:
        raise ValidationError("oracle covers surplus k >= 1")
    s = pvec.s
    n_edges = s + k - 1
    names = _labels(internal, s + 1)[1:]
    slots = [(u, v) for i, u in enumerate(names) for v in names[i:]]
    n_outcomes = math.comb(n_edges + len(slots) - 1, len(slots) - 1)
    if n_outcomes > cap:
        raise TooLarge(f"{n_outcomes} multiplicity patterns exceeds cap {cap}")
    p = [as_fraction(x) for x in pvec.p]
    # every V_v is listed, so one of degree 0 leaves a graph disconnected
    graphs = (Multigraph([(u, v, m) for (u, v), m in Counter(pairs).items()],
                         vertices=names)
              for pairs in itertools.combinations_with_replacement(slots, n_edges))
    return _connected_law(
        ((g, math.prod(x ** g.degree(v) for x, v in zip(p, names)))
         for g in graphs), Multigraph.key)


def _sample_pk_glued(pvec: PVector, k: int, n_steps: int,
                     rng: np.random.Generator, min_stars: int = 0,
                     leaves: bool = True) -> Multigraph:
    """Accepted, glued (P,k) prefix; its surviving leaf labels stay if leaves."""
    if k < 0:
        raise ValidationError("surplus k must be >= 0")
    if n_steps < 0 or not (n_steps or k or min_stars):  # else an empty record
        raise ValidationError(f"n_steps must be >= {0 if k or min_stars else 1}")
    _check_draw_cap(n_steps)  # before the first proposal, not once accepted
    bound = bias_bound(k)
    for _ in range(_PROPOSAL_CAP):
        growth = PTreeGrowth(pvec, rng)
        growth.grow(0, 2 * k)
        if _accepts(rng, bound, *_glue_bias(growth.record, k, first=1)):
            growth.grow(n_steps, min_stars)
            return _pk_graph(growth.record, k, leaves)
    raise TooLarge(f"nothing accepted in {_PROPOSAL_CAP} proposals")


def sample_pk_graph_prefix(pvec: PVector, k: int, n_steps: int,
                           rng: np.random.Generator) -> Multigraph:
    """Rejection sampler for the (P,k)-graph restricted to n_steps draws.

    Grows the tree until 2k leaf labels exist (the bias is constant from
    then on), accepts with probability bias/2^k, keeps growing to n_steps,
    glues (S1,S2)..(S2k-1,S2k), and drops every leaf label.
    """
    return _sample_pk_glued(pvec, k, n_steps, rng, leaves=False)
