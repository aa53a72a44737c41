"""Exact samplers for connected multigraphs with fixed degrees and surplus,
the configuration model, multiplicative (multi)graphs, and the edgepoint
transforms, each paired with a small-instance enumeration oracle.

The surplus-k sampler draws a uniform tree for the degree sequence with 2k
extra zeros, designates 2k of its exchangeable leaf labels as S1..S2k by a
fixed relabelling, accepts with probability bias/2^k, and glues the
pairs.  A sequence with at most 30,000 tuples is decided once: its table
sums every tuple's bias per glued graph as an exact Fraction, and each
draw picks one graph from that law, with no rejection.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from .errors import (OddSum, TooLarge, ValidationError, VertexCollision)
from .labels import Vertex, _labels, internal, star
from .multigraph import Multigraph, bias_bound
from .params import (KIND_HALF_EDGE, KIND_SURPLUS, DegreeSequence,
                     PVector, as_fraction)
from .trees import (LabeledTree, PTreeGrowth, _base_multiset,
                    _check_draw_cap, _climb, _decoded, _walk, _walk_base,
                    multiset_arrangements, tree_count)

# ---------------------------------------------------------------------------
# bias evaluation from the walk's parent pointers


def _bias_core(parent, depth, fathers):
    """(circ, partial-gluing squares, leaf pair distances) for glue fathers,
    all integers; the bias is circ / prod(squares).

    fathers[2i], fathers[2i+1] attach the i-th glued leaf pair; its tree
    path is the climb between them, each edge named by its lower end.
    Matches multigraph.bias exactly: the square after gluing pairs 1..i is
    |union of father paths| + i, and the symmetry factor, 2^m m! for m
    loops or (e+m)! for m copies beside e tree edges, grows by one factor
    per copy, at most 2 square_i (multigraph.bias_bound).
    """
    union = set()
    squares, dists = [], []
    copies = {}
    circ = 1
    for i in range(len(fathers) // 2):
        a, b = fathers[2 * i], fathers[2 * i + 1]
        pair = frozenset((a, b))
        m = copies[pair] = copies.get(pair, 0) + 1
        path = _climb(parent, depth, a, b)
        union.update(path)
        length = len(path)
        squares.append(len(union) + i + 1)
        c = 2 * m if length == 0 else (length == 1) + m
        assert c <= 2 * squares[-1], "bias bound violated"
        circ *= c
        dists.append(length + 2)
    return circ, squares, dists


def _accepts(rng: np.random.Generator, bound: int, circ: int, prod: int) -> bool:
    """rng.random() * bound < circ / prod, decided exactly in integers."""
    num, den = (rng.random() * bound).as_integer_ratio()
    return num * prod < circ * den


def _glue_bias(entries, k: int, first: int = 0):
    """(circ, prod(squares)) of the walk glued at leaves first..first+2k-1."""
    parent, depth, fathers = _walk(entries, first + 2 * k)
    circ, squares, _ = _bias_core(parent, depth, fathers[first:first + 2 * k])
    return circ, math.prod(squares)


def _glued_graph(parent, depth, glued, kept, name=None) -> Multigraph:
    """A walk's tree with leaf pairs glued, its multiplicity map built in
    one pass.

    glued[2i], glued[2i+1] are the fathers of the i-th glued pair, kept
    lists (j, father) for each leaf S_j that stays, and name[a] labels walk
    entry a (V_a by default); labels come from cached tuples.  Edges come
    in walk order: tree edges by discovery, the kept leaves, then one edge
    per glued pair.  Walk entries (ints, or the labels of a P-tree record)
    order like their labels, so each pair is ordered as multigraph._pair
    orders it by comparing the entries; S_j sorts before every V and Vinf.
    Tree and kept edges are distinct; only a glued pair can double an edge
    or be a loop.  The graph keeps its walk, which experiments reads its
    mark matrices from; a table graph is shared, so nothing may change it."""
    if not parent:  # the empty tuple of the sequence [0, 0]: one edge S0-S1
        return Multigraph([(star(0), star(1))])
    if name is None:
        name = _labels(internal, max(parent) + 1)
    stars = _labels(star, len(glued) + len(kept))
    mult = {(name[p], name[a]) if p < a else (name[a], name[p]): 1
            for a, p in parent.items() if p is not None}
    for j, f in kept:
        mult[stars[j], name[f]] = 1
    for a, b in zip(glued[::2], glued[1::2]):
        pair = (name[a], name[b]) if a <= b else (name[b], name[a])
        mult[pair] = mult.get(pair, 0) + 1
    vertices = frozenset([*map(name.__getitem__, parent),
                          *(stars[j] for j, _ in kept)])
    return Multigraph._of(mult, vertices, (parent, depth, glued, kept))


def _designated(fathers: list, k: int):
    """(glued, kept) of a tuple walk's leaf fathers, with S0..S2k-1 renamed
    S1..S2k and glued, and S2k renamed S0: leaf labels are exchangeable
    under the uniform tree law, so this fixed shift keeps uniformity."""
    return fathers[:2 * k], [(j if j > 2 * k else 0, f)
                             for j, f in enumerate(fathers) if j >= 2 * k]


def _dk_graph(entries: Sequence[int], k: int) -> Multigraph:
    """A tuple's tree with leaves S0..S2k-1 renamed S1..S2k, glued."""
    parent, depth, fathers = _walk(entries, len(entries) + 1)  # the whole walk
    return _glued_graph(parent, depth, *_designated(fathers, k))


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
        circ, squares, _ = _bias_core(parent, depth, fathers[:2 * k])
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


@lru_cache(maxsize=128)
def _dk_path(seq: DegreeSequence):
    """The sequence's DkTable, or above _TABLE_CAP tuples the walk base of
    its tree kind: the kind is checked, the tuples counted and the path
    chosen once per sequence."""
    if seq.kind != KIND_SURPLUS:
        raise ValidationError("(D,k) sampling needs a surplus-kind sequence")
    tree_seq = seq.to_tree_kind()
    if tree_count(tree_seq) > _TABLE_CAP:
        return _walk_base(tree_seq)
    return build_dk_table(seq)


def dk_table(seq: DegreeSequence) -> DkTable:
    path = _dk_path(seq)
    if not isinstance(path, DkTable):
        raise TooLarge(f"{tree_count(seq.to_tree_kind())} tuples exceeds "
                       f"the table cap {_TABLE_CAP}")
    return path


def _sample_dk_streaming(k: int, base: np.ndarray, rng: np.random.Generator):
    """Walks each proposal only up to its 2k glued leaves until one passes;
    the whole shuffled tuple is decoded only for the accepted one."""
    bound = bias_bound(k)
    for _ in range(_PROPOSAL_CAP):
        perm = rng.permutation(len(base))
        if _accepts(rng, bound, *_glue_bias(_decoded(base, perm), k)):
            return _dk_graph(base[perm].tolist(), k)
    raise TooLarge(f"nothing accepted in {_PROPOSAL_CAP} proposals")


def sample_dk_graph(seq: DegreeSequence, rng: np.random.Generator) -> Multigraph:
    """Uniform connected multigraph with degrees d_i+1 and surplus k.

    The sequence's zero entries survive as star leaves labeled S0,
    S_{2k+1}, ... (the glued labels S1..S2k are consumed).  Sequences
    with at most 30000 tuples draw one graph from the table's exact law;
    larger ones stream.
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
    stubs 2i and 2i + 1 of the permuted stub array are paired."""
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
    return Multigraph([(names[u], names[v], m) for u, v, m in
                       zip(lo.tolist(), hi.tolist(), mult.tolist())],
                      vertices=names[1:])


def _cm_surplus(seq: DegreeSequence) -> int:
    two_k = seq.total - 2 * seq.s + 2
    if two_k % 2 != 0 or two_k < 0:
        raise ValidationError("sequence cannot yield a connected multigraph")
    return two_k // 2


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
    if seq.kind != KIND_HALF_EDGE:
        raise ValidationError("oracle needs a half-edge sequence")
    if seq.total > _CM_CAP_SUM:
        raise TooLarge(f"sum {seq.total} exceeds enumeration cap {_CM_CAP_SUM}")
    if _cm_surplus(seq) != k:
        raise ValidationError(
            f"sum {seq.total} corresponds to surplus {_cm_surplus(seq)}, not {k}")
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


def sample_multiplicative_coupled(lam, weights, rng):
    """(simple, multi) coupled so an edge is present iff its count is >= 1."""
    multi = sample_multiplicative_multigraph(lam, weights, rng)
    edges = [(u, v) for (u, v), m in multi.edge_items() if u != v and m >= 1]
    simple = Multigraph(edges, vertices=multi.vertices)
    return simple, multi


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


# ---------------------------------------------------------------------------
# edgepoint transforms and ordered partitions


def shortcut_edgepoints(tree: LabeledTree) -> LabeledTree:
    """Contract every degree-2 vertex; degrees of survivors are unchanged."""
    keep = {v for v in tree.vertices() if tree.degree(v) != 2}
    edges = set()
    for u in keep:
        for n in tree.neighbors(u):
            prev, cur = u, n
            while tree.degree(cur) == 2:
                nxt = next(w for w in tree.neighbors(cur) if w != prev)
                prev, cur = cur, nxt
            edges.add((u, cur) if u < cur else (cur, u))
    return LabeledTree(sorted(edges))


def canonical_oriented_edges(tree: LabeledTree) -> List[Tuple[Vertex, Vertex]]:
    """Fixed orientation used by insert_edgepoints: sorted (smaller, larger)."""
    return sorted(tree.edges())


def insert_edgepoints(tree: LabeledTree,
                      partition: Sequence[Sequence[Vertex]]) -> LabeledTree:
    """Subdivide edge i with partition[i]'s vertices, in order."""
    oriented = canonical_oriented_edges(tree)
    if len(partition) != len(oriented):
        raise ValidationError("partition must have one slot per edge")
    new_vertices = [w for slot in partition for w in slot]
    if len(set(new_vertices)) != len(new_vertices):
        raise VertexCollision("inserted vertices must be distinct")
    for w in new_vertices:
        if w in tree:
            raise VertexCollision(f"{w} already in tree")
    edges = []
    for (u, v), slot in zip(oriented, partition):
        chain = [u] + list(slot) + [v]
        edges.extend(zip(chain, chain[1:]))
    return LabeledTree(edges)


def sample_ordered_partition(items: Sequence, n_slots: int,
                             rng: np.random.Generator) -> List[list]:
    """Uniform assignment of the items into n_slots ordered lists.

    A uniform shuffle of items plus n_slots-1 identical dividers hits every
    ordered partition exactly once, so slot sizes follow the uniform
    composition law.
    """
    if n_slots < 1:
        raise ValidationError("need at least one slot")
    arr = list(items) + [None] * (n_slots - 1)
    perm = rng.permutation(len(arr)) if arr else []
    out = [[]]
    for idx in perm:
        x = arr[idx]
        if x is None:
            out.append([])
        else:
            out[-1].append(x)
    return out
