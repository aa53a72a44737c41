"""Exact samplers for connected multigraphs with fixed degrees and surplus,
the configuration model, multiplicative (multi)graphs, and the edgepoint
transforms, each paired with a small-instance enumeration oracle.

The surplus-k sampler draws a uniform tree for the degree sequence with 2k
extra zeros, designates 2k of its exchangeable leaf labels as S1..S2k by a
fixed relabelling, accepts with probability bias/((k+1)! 2^k), and glues
the pairs.  For sequences whose tuple support is small the per-tuple
(bias, glued graph) values are memoized once and tuples are drawn as
uniform arrangement indices, which is the same law as shuffling.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (OddSum, TooLarge, ValidationError, VertexCollision)
from .labels import Vertex, internal, star
from .multigraph import Multigraph, bias_bound
from .params import (KIND_HALF_EDGE, KIND_SURPLUS, DegreeSequence,
                     PVector, as_fraction)
from .trees import (LabeledTree, PTreeGrowth, _base_multiset, _climb,
                    _decoded, _walk, _walk_base, multiset_arrangements,
                    tree_count)

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
    per copy.
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
        circ *= 2 * m if length == 0 else (length == 1) + m
        squares.append(len(union) + i + 1)
        dists.append(length + 2)
    assert circ <= bias_bound(len(squares)) * math.prod(squares), \
        "bias bound violated"
    return circ, squares, dists


def _accepts(rng: np.random.Generator, bound: int, circ: int, prod: int) -> bool:
    """rng.random() * bound < circ / prod, decided exactly in integers."""
    num, den = (rng.random() * bound).as_integer_ratio()
    return num * prod < circ * den


def _glued_graph(parent, glued, kept, vertex=internal) -> Multigraph:
    """A walk's tree with leaf pairs glued, made by one constructor call.

    glued[2i], glued[2i+1] are the fathers of the i-th glued pair, kept
    lists (j, father) for each leaf S_j that stays, and vertex decodes
    walk entries.  Edges come in walk order: tree edges by discovery, the
    kept leaves, then one edge per glued pair."""
    if not parent:  # the empty tuple of the sequence [0, 0]: one edge S0-S1
        return Multigraph([(star(0), star(1))])
    name = {a: vertex(a) for a in parent}
    edges = [(name[p], name[a]) for a, p in parent.items() if p is not None]
    edges += [(star(j), name[f]) for j, f in kept]
    edges += [(name[a], name[b]) for a, b in zip(glued[::2], glued[1::2])]
    return Multigraph(edges, vertices=name.values())


def _designated(fathers: list, k: int):
    """(glued, kept) of a tuple walk's leaf fathers, with S0..S2k-1 renamed
    S1..S2k and glued, and S2k renamed S0: leaf labels are exchangeable
    under the uniform tree law, so this fixed shift keeps uniformity."""
    return fathers[:2 * k], [(j if j > 2 * k else 0, f)
                             for j, f in enumerate(fathers) if j >= 2 * k]


def _dk_graph(entries: Sequence[int], k: int) -> Multigraph:
    """A tuple's tree with leaves S0..S2k-1 renamed S1..S2k, glued."""
    parent, _, fathers = _walk(entries, len(entries) + 1)  # the whole walk
    return _glued_graph(parent, *_designated(fathers, k))


def _pk_graph(record, k: int, leaves: bool = True) -> Multigraph:
    """A draw record's P-tree with (S1,S2)..(S2k-1,S2k) glued; a P-tree
    has no closing leaf, so the walk's last father is dropped."""
    parent, _, fathers = _walk(record, len(record) + 1)
    kept = [(j, f) for j, f in enumerate(fathers[:-1]) if not 0 < j <= 2 * k]
    return _glued_graph(parent, fathers[1:2 * k + 1], kept if leaves else [],
                        lambda v: v)


# ---------------------------------------------------------------------------
# (D,k)-graph sampling

_TABLE_CAP = 30000


@dataclass
class DkTable:
    """Memoized per-tuple outcomes for one surplus-k degree sequence."""
    accept: list
    bias: list
    squares: list
    dists: list
    graphs: list
    key_ids: np.ndarray
    keys: list

    @property
    def n_tuples(self) -> int:
        return len(self.bias)


def _check_surplus_kind(seq: DegreeSequence) -> int:
    if seq.kind != KIND_SURPLUS:
        raise ValidationError("sample_dk_graph needs a surplus-kind sequence")
    return seq.k


def build_dk_table(seq: DegreeSequence, cap: int = _TABLE_CAP) -> DkTable:
    k = _check_surplus_kind(seq)
    tree_seq = seq.to_tree_kind()
    count = tree_count(tree_seq)
    if count > cap:
        raise TooLarge(f"{count} tuples exceeds the table cap {cap}")
    bound = bias_bound(k)
    accept, biases, squares_all, dists_all, graphs, key_ids = \
        [], [], [], [], [], []
    key_index: Dict[tuple, int] = {}
    # tuples whose glued graphs are equal share one object and its key id
    shared: Dict[tuple, tuple] = {}
    for arrangement in multiset_arrangements(_base_multiset(tree_seq)):
        parent, depth, fathers = _walk(arrangement, len(arrangement) + 1)
        circ, squares, dists = _bias_core(parent, depth, fathers[:2 * k])
        b = Fraction(circ, math.prod(squares))
        glued = _glued_graph(parent, *_designated(fathers, k))
        label = glued.key()
        if label not in shared:
            key = glued.leaf_canonical_key()
            shared[label] = (glued, key_index.setdefault(key, len(key_index)))
        glued, key_id = shared[label]
        accept.append(float(b) / bound)
        biases.append(b)
        squares_all.append(squares)
        dists_all.append(dists)
        graphs.append(glued)
        key_ids.append(key_id)
    return DkTable(accept, biases, squares_all, dists_all, graphs,
                   np.array(key_ids, dtype=np.int64), list(key_index))


@lru_cache(maxsize=128)
def _cached_dk_table(seq: DegreeSequence, cap: int) -> Optional[DkTable]:
    """The table, or None above cap tuples; worked out once per sequence."""
    if tree_count(seq.to_tree_kind()) > cap:
        return None
    return build_dk_table(seq, cap)


def dk_table(seq: DegreeSequence, cap: int = _TABLE_CAP) -> DkTable:
    _check_surplus_kind(seq)
    table = _cached_dk_table(seq, cap)
    if table is None:
        raise TooLarge(f"{tree_count(seq.to_tree_kind())} tuples exceeds "
                       f"the table cap {cap}")
    return table


@lru_cache(maxsize=32)
def _streaming_base(seq: DegreeSequence) -> np.ndarray:
    """The walk base of a surplus sequence, converted to tree kind once."""
    return _walk_base(seq.to_tree_kind())


def _sample_dk_streaming(seq: DegreeSequence, rng: np.random.Generator):
    """Walks each proposal only up to its 2k glued leaves until one passes;
    the whole shuffled tuple is decoded only for the accepted one."""
    k = seq.k
    base = _streaming_base(seq)
    bound = bias_bound(k)
    while True:
        perm = rng.permutation(len(base))
        parent, depth, fathers = _walk(_decoded(base, perm), 2 * k)
        circ, squares, _ = _bias_core(parent, depth, fathers[:2 * k])
        if _accepts(rng, bound, circ, math.prod(squares)):
            return _dk_graph(base[perm].tolist(), k)


def sample_dk_graph(seq: DegreeSequence, rng: np.random.Generator) -> Multigraph:
    """Uniform connected multigraph with degrees d_i+1 and surplus k.

    The sequence's zero entries survive as star leaves labeled S0,
    S_{2k+1}, ... (the glued labels S1..S2k are consumed).  Sequences
    with at most 30000 tuples draw from the memoized table; larger ones
    stream.
    """
    _check_surplus_kind(seq)
    table = _cached_dk_table(seq, _TABLE_CAP)
    if table is None:
        return _sample_dk_streaming(seq, rng)
    n_tuples, accept, graphs = table.n_tuples, table.accept, table.graphs
    while True:
        idx = int(rng.integers(n_tuples))
        if rng.random() < accept[idx]:
            return graphs[idx]


def sample_dk_graph_keys(seq: DegreeSequence, n_samples: int,
                         rng: np.random.Generator) -> Counter:
    """Bulk leaf-canonical keys of n_samples (D,k)-graph draws, proposed
    200000 tuples at a time."""
    batch = 200000
    table = dk_table(seq)
    accept = np.array(table.accept)
    counts = np.zeros(len(table.keys), dtype=np.int64)
    got = 0
    while got < n_samples:
        idx = rng.integers(table.n_tuples, size=batch)
        u = rng.random(batch)
        hit = idx[u < accept[idx]]
        if got + len(hit) > n_samples:
            hit = hit[:n_samples - got]
        got += len(hit)
        counts += np.bincount(table.key_ids[hit], minlength=len(table.keys))
    return Counter({table.keys[i]: int(c) for i, c in enumerate(counts) if c})


# ---------------------------------------------------------------------------
# configuration model and its conditioned oracle


def sample_configuration_model(seq: DegreeSequence,
                               rng: np.random.Generator) -> Multigraph:
    """Multigraph of a uniform perfect matching of labeled half-edges."""
    if seq.kind != KIND_HALF_EDGE:
        raise ValidationError("configuration model needs a half-edge sequence")
    if seq.total % 2 != 0:
        raise OddSum("half-edge count must be even")
    names = [internal(i + 1) for i in range(seq.s)]  # one label per vertex
    stubs = [i for i, d in enumerate(seq.degrees) for _ in range(d)]
    perm = rng.permutation(len(stubs)).tolist()
    mult = Counter()
    for a in range(0, len(stubs), 2):
        u, v = stubs[perm[a]], stubs[perm[a + 1]]
        mult[(min(u, v), max(u, v))] += 1
    return Multigraph([(names[u], names[v], m) for (u, v), m in mult.items()],
                      vertices=names)


def _cm_surplus(seq: DegreeSequence) -> int:
    two_k = seq.total - 2 * seq.s + 2
    if two_k % 2 != 0 or two_k < 0:
        raise ValidationError("sequence cannot yield a connected multigraph")
    return two_k // 2


class _UnionFind:
    def __init__(self, n):
        self.p = list(range(n))

    def find(self, x):
        p = self.p
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.p[ra] = rb


def _matching_counts(degrees) -> Dict[tuple, int]:
    """Perfect matchings of the stubs, counted per sorted edge tuple.

    Each step pairs the first free stub of the lowest vertex u with one of
    the r_v free stubs of a vertex v > u, or of the r_u - 1 others of u;
    paths reaching the same partial edge tuple are merged on the way.
    """
    layer = {(tuple(degrees), ()): 1}
    for _ in range(sum(degrees) // 2):
        nxt: Dict[tuple, int] = {}
        for (r, edges), count in layer.items():
            u = next(i for i, x in enumerate(r) if x)
            for v in range(u, len(r)):
                ways = r[v] - (v == u)
                if ways > 0:
                    state = (tuple(x - (i == u) - (i == v) for i, x in enumerate(r)),
                             tuple(sorted(edges + ((u + 1, v + 1),))))
                    nxt[state] = nxt.get(state, 0) + count * ways
        layer = nxt
    return {edges: count for (_, edges), count in layer.items()}


_CM_CAP_SUM = 14


def cm_conditioned_oracle(seq: DegreeSequence, k: int) -> Dict[tuple, Fraction]:
    """Exact law of the configuration model biased by its symmetry factor
    and conditioned on connectivity, keyed by leaf-canonical form.

    With sum(d) = 2s + 2k - 2 this is the uniform law on connected
    multigraphs with degrees d_i (surplus k), i.e. the ground truth for
    sample_dk_graph on the shifted sequence.
    """
    if seq.kind != KIND_HALF_EDGE:
        raise ValidationError("oracle needs a half-edge sequence")
    if seq.total > _CM_CAP_SUM:
        raise TooLarge(f"sum {seq.total} exceeds enumeration cap {_CM_CAP_SUM}")
    if _cm_surplus(seq) != k:
        raise ValidationError(
            f"sum {seq.total} corresponds to surplus {_cm_surplus(seq)}, not {k}")
    s = seq.s
    names = [internal(v) for v in range(1, s + 1)]
    weights: Dict[tuple, int] = {}
    total = 0
    for edges, count in _matching_counts(seq.degrees).items():
        uf = _UnionFind(s + 1)
        for u, v in edges:
            uf.union(u, v)
        root = uf.find(1)
        if any(uf.find(v) != root for v in range(2, s + 1)):
            continue
        mult = Counter(edges)
        w = count
        for (u, v), m in mult.items():
            w *= (2 ** m if u == v else 1) * math.factorial(m)
        key = Multigraph([(names[u - 1], names[v - 1], m)
                          for (u, v), m in mult.items()],
                         vertices=names).leaf_canonical_key()
        weights[key] = weights.get(key, 0) + w
        total += w
    if total == 0:
        raise ValidationError("no connected configuration exists")
    return {key: Fraction(w, total) for key, w in weights.items()}


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
    slots = [(i, j) for i in range(1, s + 1) for j in range(i, s + 1)]
    n_outcomes = math.comb(n_edges + len(slots) - 1, len(slots) - 1)
    if n_outcomes > cap:
        raise TooLarge(f"{n_outcomes} multiplicity patterns exceeds cap {cap}")
    p = [as_fraction(x) for x in pvec.p]
    law: Dict[tuple, Fraction] = {}
    total = Fraction(0)
    for counts in itertools.combinations_with_replacement(range(len(slots)),
                                                          n_edges):
        mult = Counter(counts)
        uf = _UnionFind(s + 1)
        edges = []
        for slot_id, m in mult.items():
            i, j = slots[slot_id]
            uf.union(i, j)
            edges.append((internal(i), internal(j), m))
        g = Multigraph(edges, vertices=[internal(v) for v in range(1, s + 1)])
        root = uf.find(1)
        if any(g.degree(internal(v)) == 0 or uf.find(v) != root
               for v in range(1, s + 1)):
            continue
        w = Fraction(1)
        for v in range(1, s + 1):
            w *= p[v - 1] ** g.degree(internal(v))
        key = g.key()
        law[key] = law.get(key, Fraction(0)) + w
        total += w
    return {key: w / total for key, w in law.items()}


def _sample_pk_glued(pvec: PVector, k: int, n_steps: int,
                     rng: np.random.Generator, min_stars: int = 0,
                     leaves: bool = True) -> Multigraph:
    """Accepted, glued (P,k) prefix; its surviving leaf labels stay if leaves."""
    bound = bias_bound(k)
    while True:
        growth = PTreeGrowth(pvec, rng)
        growth.grow_until_stars(2 * k)
        parent, depth, fathers = _walk(growth.record, 2 * k + 1)
        circ, squares, _ = _bias_core(parent, depth, fathers[1:2 * k + 1])
        if _accepts(rng, bound, circ, math.prod(squares)):
            while len(growth.record) < n_steps:
                growth.step()
            growth.grow_until_stars(min_stars)
            if not growth.record:
                raise ValidationError("a (P,0) prefix needs n_steps >= 1")
            return _pk_graph(growth.record, k, leaves)


def sample_pk_graph_prefix(pvec: PVector, k: int, n_steps: int,
                           rng: np.random.Generator) -> Multigraph:
    """Rejection sampler for the (P,k)-graph restricted to n_steps draws.

    Grows the tree until 2k leaf labels exist (the bias is constant from
    then on), accepts with probability bias/((k+1)! 2^k), keeps growing to
    n_steps, glues (S1,S2)..(S2k-1,S2k), and drops every leaf label.
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
