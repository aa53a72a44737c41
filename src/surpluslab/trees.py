"""Finite labeled trees with fixed degrees, and their exact samplers.

The sampler draws a uniform arrangement of the multiset {Vi x d_i} and
folds it into a tree by the sequential branching rule: walk the tuple,
opening a new edge to each unseen vertex and attaching the next unused
leaf label Sj whenever a vertex repeats; one final leaf closes the walk.
The enumeration oracle is independent of that construction: it decodes
every distinct arrangement as a Pruefer code, which is a bijection onto
the same set of trees.

Internally vertices are small ints (internal rank i -> +i, leaf Sj ->
-(j+1)); the public API speaks Vertex labels.
"""

from __future__ import annotations

from bisect import bisect_right
import heapq
import math
from collections import Counter
from functools import lru_cache
from typing import Iterable, Iterator, List, Sequence, Tuple

from .errors import TooLarge, TupleMismatch, UnknownVertex, ValidationError
from .labels import Vertex, _labels, internal, is_star, overflow, parse_vertex, star
from .params import KIND_TREE, DegreeSequence, PVector


class LabeledTree:
    """Immutable tree over Vertex labels, stored as an adjacency map."""

    __slots__ = ("_adj",)

    def __init__(self, edges: Sequence[Tuple[Vertex, Vertex]]):
        adj = {}
        for u, v in edges:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        if len(adj) != len(edges) + 1:
            raise ValidationError("edge list does not describe a tree")
        if len(_search(adj, next(iter(adj)))[0]) != len(adj):
            raise ValidationError("edge list does not describe a connected tree")
        self._adj = {v: tuple(ns) for v, ns in adj.items()}

    def vertices(self):
        return self._adj.keys()

    def __contains__(self, v):
        return v in self._adj

    def neighbors(self, v: Vertex):
        return self._adj[v]

    def degree(self, v: Vertex) -> int:
        return len(self._adj[v])

    def star_leaves(self):
        return sorted(v for v in self._adj if is_star(v))

    def father(self, leaf: Vertex) -> Vertex:
        ns = self._adj[leaf]
        if len(ns) != 1:
            raise ValidationError(f"{leaf} is not a leaf")
        return ns[0]

    def edges(self):
        out = []
        for u, ns in self._adj.items():
            for v in ns:
                if u < v:
                    out.append((u, v))
        return out

    def edge_key(self):
        return tuple(sorted(self.edges()))

    def __eq__(self, other):
        return isinstance(other, LabeledTree) and self.edge_key() == other.edge_key()

    def __hash__(self):
        return hash(self.edge_key())

    def __len__(self):
        return len(self._adj)

    def __repr__(self):
        return f"LabeledTree({len(self._adj)} vertices)"

    def distances_from(self, source: Vertex) -> dict:
        if source not in self._adj:
            raise UnknownVertex(f"{source} not in tree")
        return _search(self._adj, source)[1]

    def distance(self, a: Vertex, b: Vertex) -> int:
        dist = self.distances_from(a)
        if b not in dist:
            raise UnknownVertex(f"{b} not in tree")
        return dist[b]

    def relabel(self, mapping) -> "LabeledTree":
        return LabeledTree([(mapping.get(u, u), mapping.get(v, v))
                            for u, v in self.edges()])

    def to_json(self) -> str:
        import json
        edges = sorted([u.label(), v.label()] for u, v in self.edges())
        return json.dumps({"edges": edges}, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "LabeledTree":
        import json
        obj = json.loads(text)
        return LabeledTree([(parse_vertex(a), parse_vertex(b))
                            for a, b in obj["edges"]])


def tree_distance_matrix(tree: LabeledTree, marks: Sequence[Vertex]) -> np.ndarray:
    """Edge-count distances between the marked vertices: one search from
    the first mark, then a climb per pair."""
    import numpy as np  # deferred: keeps CLI start-up light
    for m in marks:
        if m not in tree:
            raise UnknownVertex(f"{m} not in tree")
    parent, hops = _search(tree._adj, marks[0]) if len(marks) else ({}, {})
    rows = _climb_matrix(parent, hops, marks)
    return np.array(rows, dtype=np.int64).reshape(len(marks), len(marks))


# ---------------------------------------------------------------------------
# int-encoded kernels


def _int_to_vertex(x: int) -> Vertex:
    return internal(x) if x > 0 else star(-x - 1)


def _base_multiset(seq: DegreeSequence) -> List[int]:
    """The multiset every walk shuffles: rank i + 1 repeated d_i times."""
    if seq.kind != KIND_TREE:
        raise ValidationError("the walk runs on tree-kind degree sequences")
    return [i + 1 for i, d in enumerate(seq.degrees) for _ in range(d)]


def _stick_break_int_edges(entries: Sequence) -> list:
    """Edges of the whole tree _walk folds a tuple of entries into
    (internal-vertex ints, or the Vertex labels of a P-tree record): one
    (min, max) edge per parent pointer, then leaf S_j, the int -(j + 1),
    on fathers[j], the closing leaf last."""
    if not entries:
        return [(-2, -1)]
    parent, _, fathers = _walk(entries, len(entries) + 1)
    edges = [(u, a) if u < a else (a, u)
             for a, u in parent.items() if u is not None]
    return edges + [(-(j + 1), f) for j, f in enumerate(fathers)]


def _stick_break_key(entries: Sequence[int]) -> tuple:
    return tuple(sorted(_stick_break_int_edges(entries)))


def _search(adj, source):
    """(parent, hops) of a breadth-first search over an adjacency mapping.
    parent lists the reached nodes in discovery order, the source first
    (mapped to None), so len(parent) == len(adj) iff the graph is connected."""
    parent, hops = {source: None}, {source: 0}
    frontier, h = [source], 0
    while frontier:
        h += 1
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in parent:
                    parent[w] = u
                    hops[w] = h
                    nxt.append(w)
        frontier = nxt
    return parent, hops


def _climb(parent, depth, a, b) -> list:
    """Lower ends of the edges on the a-b path of a tree given by parent
    and depth pointers: the deeper side climbs by the depth difference,
    then both sides step together, taking turns to go first (the order of
    a one-edge-at-a-time climb, which continuum's float sums follow).
    Each edge is named by its lower end x, i.e. the edge (x, parent[x])."""
    if depth[a] < depth[b]:
        a, b = b, a
    ends = []
    for _ in range(depth[a] - depth[b]):
        ends.append(a)
        a = parent[a]
    while a != b:
        ends += (a, b)
        a, b = parent[b], parent[a]
    return ends


def _climb_matrix(parent, depth, nodes: Sequence, weight=None) -> list:
    """The one pair loop behind every mark matrix: each pair climbed as by
    _climb, counting steps or folding d + weight[x] from int 0 (as sum() does
    up to Python 3.11; later sum()s compensate floats, this keeps the bits)."""
    rows = [[0] * len(nodes) for _ in nodes]
    for i, a in enumerate(nodes):
        for j in range(i + 1, len(nodes)):
            x, y, d = a, nodes[j], 0
            if depth[x] < depth[y]:
                x, y = y, x
            for _ in range(depth[x] - depth[y]):
                d = d + 1 if weight is None else d + weight[x]
                x = parent[x]
            while x != y:
                d = d + 2 if weight is None else d + weight[x] + weight[y]
                x, y = parent[y], parent[x]
            rows[i][j] = rows[j][i] = d
    return rows


def _walk(entries: Iterable, n_leaves: int):
    """(parent, depth, fathers) of the branching walk, stopped once n_leaves
    leaves are placed; entries is read in one pass, no further than that.
    Each new entry hangs below the entry before it (the first is the root);
    fathers[j] is the father of S_j, so fathers[0] is the first entry, and
    a tuple that runs out first places its closing leaf on its last entry."""
    entries = iter(entries)
    prev = next(entries, None)
    if prev is None:  # the empty tuple: its closing leaf has no father
        return {}, {}, [None]
    parent, depth, fathers = {prev: None}, {prev: 0}, [prev]
    if n_leaves <= 1:
        return parent, depth, fathers
    for a in entries:
        if a in parent:
            fathers.append(prev)
            if len(fathers) >= n_leaves:
                return parent, depth, fathers
        else:
            parent[a] = prev
            depth[a] = depth[prev] + 1
        prev = a
    fathers.append(prev)
    return parent, depth, fathers


@lru_cache(maxsize=32)
def _walk_base(seq: DegreeSequence) -> np.ndarray:
    """_base_multiset of a tree sequence as a read-only array, built once
    per sequence."""
    import numpy as np
    base = np.array(_base_multiset(seq), dtype=np.int64)
    base.flags.writeable = False
    return base


# a ladder walk glued at k = 1 (n = 512) reads about 58 entries
_DECODE_BLOCK = 64


def _decoded(base: np.ndarray, perm: np.ndarray):
    """The entries of base[perm], decoded one block at a time: a walk that
    stops early reads only a prefix of the shuffled tuple."""
    for start in range(0, len(perm), _DECODE_BLOCK):
        yield from base[perm[start:start + _DECODE_BLOCK]].tolist()


def sample_d_tuple(seq: DegreeSequence, rng: np.random.Generator) -> Tuple[Vertex, ...]:
    """Uniform arrangement of the multiset {Vi with multiplicity d_i}."""
    base = _base_multiset(seq)
    perm = rng.permutation(len(base))
    return tuple(internal(base[j]) for j in perm)


def stick_break_tree(seq: DegreeSequence, tup: Sequence[Vertex]) -> LabeledTree:
    """Deterministic tree of a tuple; raises TupleMismatch on bad
    multiplicities.  tup is read once, so any iterable will do."""
    tup = tuple(tup)
    if Counter(tup) != Counter(map(internal, _base_multiset(seq))):
        raise TupleMismatch("tuple multiplicities disagree with the degree sequence")
    edges = _stick_break_int_edges([v.index for v in tup])
    return LabeledTree([(_int_to_vertex(u), _int_to_vertex(v)) for u, v in edges])


def sample_d_tree(seq: DegreeSequence, rng: np.random.Generator) -> LabeledTree:
    return stick_break_tree(seq, sample_d_tuple(seq, rng))


def sample_d_tree_keys(seq: DegreeSequence, n_samples: int,
                       rng: np.random.Generator) -> Counter:
    """Bulk sampler: canonical edge keys of n_samples trees.

    Same tuple law and branching kernel as sample_d_tree, with the
    shuffles vectorized 20000 at a time and each distinct arrangement of a
    batch keyed once; used by the large uniformity checks.
    """
    import numpy as np
    base = _walk_base(seq)
    # a row of ranks 1..s as one mixed-radix integer, where that fits int64
    place = ((seq.s + 1) ** np.arange(len(base))
             if (seq.s + 1) ** len(base) < 2 ** 63 else None)
    counts = Counter()
    left = n_samples
    while left > 0:
        b = min(20000, left)
        left -= b
        rows = rng.permuted(np.broadcast_to(base, (b, len(base))), axis=1)
        _, first, count = np.unique(rows if place is None else rows @ place,
                                    axis=0, return_index=True,
                                    return_counts=True)
        for i in np.argsort(first):  # keys in first-draw order, as row by row
            counts[_stick_break_key(rows[first[i]].tolist())] += int(count[i])
    return counts


def tree_from_key(key) -> LabeledTree:
    return LabeledTree([(_int_to_vertex(u), _int_to_vertex(v)) for u, v in key])


# ---------------------------------------------------------------------------
# enumeration oracle (Pruefer decoding of multiset arrangements)


def tree_count(seq: DegreeSequence) -> int:
    """(s-2)! / prod(d_i!) distinct trees, as one exact quotient with the
    equal degrees grouped."""
    return math.factorial(seq.s - 2) // math.prod(
        math.factorial(d) ** m for d, m in Counter(seq.degrees).items())


def multiset_arrangements(items: Sequence[int]) -> Iterator[Tuple[int, ...]]:
    """All distinct arrangements of a multiset, lexicographic order: the
    sorted items, then each next permutation until the order is reversed."""
    a = sorted(items)
    while True:
        yield tuple(a)
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = reversed(a[i + 1:])


def _prufer_decode(code: Sequence[int], vertices: Sequence[int]):
    degree = {v: 1 for v in vertices}
    for c in code:
        degree[c] += 1
    leaves = [v for v in vertices if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for c in code:
        u = heapq.heappop(leaves)
        edges.append((u, c) if u < c else (c, u))
        degree[c] -= 1
        if degree[c] == 1:
            heapq.heappush(leaves, c)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v) if u < v else (v, u))
    return edges


def _vertex_ints(seq: DegreeSequence) -> List[int]:
    internals = [i + 1 for i, d in enumerate(seq.degrees) if d > 0]
    stars = [-(j + 1) for j in range(seq.n_zero)]
    return internals + stars


def enumerate_d_tree_keys(seq: DegreeSequence, cap: int = 250000) -> Iterator[tuple]:
    if seq.kind != KIND_TREE:
        raise ValidationError("enumeration needs a tree-kind sequence")
    count = tree_count(seq)
    if count > cap:
        raise TooLarge(f"{count} trees exceeds the enumeration cap {cap}")
    vertices = _vertex_ints(seq)
    for code in multiset_arrangements(_base_multiset(seq)):
        yield tuple(sorted(_prufer_decode(code, vertices)))


def enumerate_d_trees(seq: DegreeSequence, cap: int = 250000) -> Iterator[LabeledTree]:
    """Every tree with the given degrees exactly once (Pruefer bijection)."""
    for key in enumerate_d_tree_keys(seq, cap):
        yield tree_from_key(key)


# ---------------------------------------------------------------------------
# trees grown from a probability vector


# grow refuses a step count, or gives up a star quota, past this many draws
_DRAW_CAP = 10 ** 7
# most doubles per rng.random call in grow
_DRAW_BLOCK = 1024


def _check_draw_cap(n_steps: int):
    if n_steps > _DRAW_CAP:
        raise TooLarge(f"{n_steps} draws exceeds the draw cap {_DRAW_CAP}")


@lru_cache(maxsize=32)
def _atom_table(pvec: PVector):
    """(cumulative atom masses, labels V0..Vs) of a P; shared, so only read."""
    import numpy as np
    cum = tuple(np.cumsum(np.asarray(pvec.p, dtype=float)).tolist())
    return cum, _labels(internal, len(cum) + 1)


class PTreeGrowth:
    """Incremental branching walk driven by i.i.d. draws from a PVector.

    Draws landing in the p_inf remainder create fresh overflow vertices,
    so they never repeat.  The instance records the raw draw sequence,
    each repeat of which places a leaf label: _repeats of them in all.
    Only the atoms drawn so far are kept besides, at most len(p) of them.
    tree() folds the record with _walk.
    """

    def __init__(self, pvec: PVector, rng: np.random.Generator):
        self.rng = rng
        self._cum, self._names = _atom_table(pvec)
        self.record: List[Vertex] = []
        self._seen = set()  # atom indices drawn so far
        self._repeats = 0

    def grow(self, n_steps: int, n_stars: int = 0):
        """Draw until the record holds n_steps draws and n_stars repeats.
        A draw adds at most one repeat, so each round makes the draws
        max(n_steps - len(record), n_stars - repeats) that one-at-a-time
        drawing would make in any case, as one rng.random(b): a Generator
        gives the same doubles and state as b scalar calls."""
        _check_draw_cap(n_steps)
        if n_stars > self._repeats and not self._cum:
            raise ValidationError("with p_inf = 1 no draw repeats, so no "
                                  "leaf label besides S0 is ever placed")
        cum, names, seen, record = self._cum, self._names, self._seen, self.record
        while (need := max(n_steps - len(record), n_stars - self._repeats)) > 0:
            if len(record) >= _DRAW_CAP:
                raise TooLarge(f"star quota not reached within {_DRAW_CAP} draws")
            u = self.rng.random(min(need, _DRAW_BLOCK, _DRAW_CAP - len(record)))
            for i, x in enumerate(u.tolist(), len(record) + 1):
                j = bisect_right(cum, x)
                if j < len(cum):
                    record.append(names[j + 1])
                    self._repeats += j in seen
                    seen.add(j)
                else:
                    record.append(overflow(i))

    def tree(self) -> LabeledTree:
        # leaf S_j is the fold's int -(j + 1); a P-tree has no closing leaf
        edges = _stick_break_int_edges(self.record)[:-1]
        return LabeledTree([tuple(star(-x - 1) if isinstance(x, int) else x
                                  for x in e) for e in edges])


def sample_p_tree_prefix(pvec: PVector, n_steps: int, rng: np.random.Generator):
    """Tree after n_steps draws, plus the raw draw record."""
    if n_steps < 1:
        raise ValidationError("n_steps must be >= 1")
    growth = PTreeGrowth(pvec, rng)
    growth.grow(n_steps)
    return growth.tree(), tuple(growth.record)
