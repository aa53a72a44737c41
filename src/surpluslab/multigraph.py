"""Multigraph algebra: surplus, removable edges, symmetry factor, leaf
gluing, cycle-breaking, and the bias functional.

Cycle-breaking repeatedly removes a uniform *oriented* removable edge and
leaves two fresh leaf labels behind; gluing the label pairs
(S1,S2),...,(S2k-1,S2k) inverts it exactly.  The i-th removed oriented
edge (u,v) attaches S_{2k-2i+2} to u and S_{2k-2i+1} to v, so pair
(S_{2j-1},S_{2j}) always repairs the edge broken at step k-j+1.

All counting (removable-edge products, symmetry factors, hitting
probabilities) is exact integer/rational arithmetic.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .errors import (Disconnected, DuplicateLabel, NotALeaf, ShapeMismatch,
                     SurplusMismatch, UnknownVertex, ValidationError)
from .labels import Vertex, parse_vertex, star
from .trees import LabeledTree, _search


def _pair(u, v):
    return (u, v) if u <= v else (v, u)


def _forest_path(parent, hops, a, b):
    """Lower ends x of the forest edges (x, parent[x]) between a and b.
    Not trees._climb: samplers._bias_core climbs with _climb, and bias
    below is its independent oracle, so the two share no climb."""
    while a != b:
        if hops[a] < hops[b]:
            a, b = b, a
        yield a
        a = parent[a]


class Multigraph:
    """Vertex set plus an edge multiset (loops allowed), immutable.  The
    constructor validates and merges an edge list; _of only assigns slots;
    a _LazyMultigraph leaves _mult and _vertices unset until first read."""

    # _build, a _LazyMultigraph's builder, comes last: pickle and copy read
    # the slots in order, and reading _mult first builds and drops it
    __slots__ = ("_mult", "_vertices", "_adj_map", "_cyc", "_build")

    def __init__(self, edges=(), vertices=()):
        mult: Dict[tuple, int] = {}
        vs = set(vertices)
        for e in edges:
            if len(e) == 3:
                u, v, m = e
            else:
                u, v = e
                m = 1
            if m < 0:
                raise ValidationError("edge multiplicity must be >= 0")
            if m:
                p = _pair(u, v)
                mult[p] = mult.get(p, 0) + m
            vs.add(u)
            vs.add(v)
        self._mult = mult
        self._vertices = frozenset(vs)
        self._adj_map = None  # lazy, like _cyc; instances are immutable
        self._cyc = None

    @classmethod
    def _of(cls, mult: Dict[tuple, int], vertices: frozenset):
        """The graph of a valid map, unchecked: every key of mult is ordered
        as _pair orders it, every multiplicity is at least 1, and vertices
        holds every endpoint.  No exact oracle builds through this."""
        g = cls.__new__(cls)
        g._mult, g._vertices = mult, vertices
        g._adj_map = g._cyc = None
        return g

    @property
    def _adj(self) -> Dict[Vertex, Dict[Vertex, int]]:
        """Neighbour -> multiplicity map of each vertex, built on first use;
        each vertex's neighbours come in edge insertion order."""
        if self._adj_map is None:
            adj: Dict[Vertex, Dict[Vertex, int]] = {v: {} for v in self._vertices}
            for (u, v), m in self._mult.items():
                adj[u][v] = adj[u].get(v, 0) + m
                if u != v:
                    adj[v][u] = adj[v].get(u, 0) + m
            self._adj_map = adj
        return self._adj_map

    @property
    def vertices(self) -> frozenset:
        return self._vertices

    def multiplicity(self, u, v) -> int:
        return self._mult.get(_pair(u, v), 0)

    def edge_items(self):
        return self._mult.items()

    def num_edges(self) -> int:
        return sum(self._mult.values())

    def degree(self, v) -> int:
        deg = 0
        for w, m in self._adj[v].items():
            deg += 2 * m if w == v else m
        return deg

    def is_connected(self) -> bool:
        if not self._vertices:
            return True
        return len(_search(self._adj, next(iter(self._vertices)))[0]) == len(self._adj)

    def distances_from(self, source) -> dict:
        """Hop counts from source (multiplicities and loops are irrelevant)."""
        if source not in self._adj:
            raise UnknownVertex(f"{source} not in graph")
        return _search(self._adj, source)[1]

    def surplus(self) -> int:
        if not self.is_connected():
            raise Disconnected("surplus is defined for connected multigraphs")
        return self.num_edges() - len(self._vertices) + 1

    def bridges(self) -> set:
        """Cut pairs: multiplicity-1 non-loop edges whose removal disconnects.
        They are the edges of a search forest on no fundamental cycle: each
        edge copy outside the forest (a loop, a second copy, a pair the
        search reached another way) marks the forest path between its ends."""
        parent, hops = {}, {}
        for root in self._vertices:
            if root not in parent:
                tree_parent, tree_hops = _search(self._adj, root)
                parent.update(tree_parent)
                hops.update(tree_hops)
        marked = set()
        for (u, v), m in self._mult.items():
            if m >= 2 or (parent[u] != v and parent[v] != u):
                marked.update(_forest_path(parent, hops, u, v))
        return {_pair(x, parent[x]) for x in parent
                if parent[x] is not None and x not in marked}

    def cyc_items(self) -> List[Tuple[tuple, int]]:
        """(pair, removable copy count) with copies counted separately."""
        if self._cyc is not None:
            return self._cyc
        if not self.is_connected():
            raise Disconnected("cyc is defined for connected multigraphs")
        bridges = self.bridges()  # each a lone non-loop copy
        self._cyc = [(p, m) for p, m in self._mult.items() if p not in bridges]
        return self._cyc

    def square(self) -> int:
        return sum(r for _, r in self.cyc_items())

    def circ(self) -> int:
        out = 1
        for (u, v), m in self._mult.items():
            if u == v:
                out *= 2 ** m * math.factorial(m)
            else:
                out *= math.factorial(m)
        return out

    def remove_copy(self, u, v) -> "Multigraph":
        p = _pair(u, v)
        if self._mult.get(p, 0) < 1:
            raise ValidationError(f"no copy of edge {p} to remove")
        mult = {q: m for q, m in self._mult.items() if q != p}
        if self._mult[p] > 1:  # the pair moves last, as a rebuild puts it
            mult[p] = self._mult[p] - 1
        return Multigraph._of(mult, self._vertices)

    def father(self, leaf) -> Vertex:
        if self.degree(leaf) != 1:
            raise NotALeaf(f"{leaf} is not a leaf")
        return next(iter(self._adj[leaf]))

    def key(self) -> tuple:
        return (tuple(sorted(self._vertices)),
                tuple(sorted((p, m) for p, m in self._mult.items())))

    def leaf_canonical_key(self) -> tuple:
        """Labeled key with degree-1 vertices made exchangeable.

        Leaves are summarized by a per-father count, so laws that only
        differ in how interchangeable leaf labels are spelled compare
        equal.  A leaf joined to another leaf (only the two-vertex single
        edge, in the connected case) is kept as core.
        """
        leaves = {v for v in self._vertices if self.degree(v) == 1}
        for (u, v), m in self._mult.items():
            if u in leaves and v in leaves:
                leaves -= {u, v}
        core_edges = []
        pendant = Counter()
        for (u, v), m in self._mult.items():
            lu, lv = u in leaves, v in leaves
            if lu:
                pendant[v] += m
            elif lv:
                pendant[u] += m
            else:
                core_edges.append(((u, v), m))
        core_vertices = tuple(sorted(self._vertices - leaves))
        return (core_vertices, tuple(sorted(core_edges)),
                tuple(sorted(pendant.items())), len(leaves))

    def __eq__(self, other):
        return isinstance(other, Multigraph) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"Multigraph({len(self._vertices)} vertices, {self.num_edges()} edges)"

    def to_json(self) -> str:
        obj = {"vertices": sorted(v.label() for v in self._vertices),
               "edges": sorted(({"u": u.label(), "v": v.label(), "mult": m}
                                for (u, v), m in self._mult.items()),
                               key=lambda e: (e["u"], e["v"]))}
        return json.dumps(obj, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "Multigraph":
        obj = json.loads(text)
        return Multigraph(
            [(parse_vertex(e["u"]), parse_vertex(e["v"]), e["mult"])
             for e in obj["edges"]],
            vertices=[parse_vertex(x) for x in obj["vertices"]])


class _LazyMultigraph(Multigraph):
    """A sampled glued graph: its walk (parent, depth, glued, kept), and a
    build(*walk) of (mult, vertices) as Multigraph._of takes them,
    unchecked, run on first read; no exact oracle builds through this.  A
    streaming (D,k) graph's resume(n_leaves) walks on only as far as a read
    asks, returning (walk so far, ended); reading _walk or the map ends it.
    A subclass: CPython specializes no attribute read of a __getattr__ class."""
    # _walk before _resume: pickle and copy read the slots in order, and
    # reading _walk first ends the walk and drops resume and its iterator
    __slots__ = ("_walk", "_resume")

    def __init__(self, walk, build, resume=None):
        if resume is None:
            self._walk = walk
        self._build, self._resume = build, resume
        self._adj_map = self._cyc = None

    def _walk_to(self, n_leaves):
        """The walk as far as its first n_leaves leaves, or whole."""
        if self._resume is None:
            return self._walk
        walk, ended = self._resume(n_leaves)
        if ended:
            self._walk, self._resume = walk, None
        return walk

    def __getattr__(self, name):  # reached only for an unset attribute
        if name == "_walk":
            return self._walk_to(math.inf)
        if name not in ("_mult", "_vertices"):
            raise AttributeError(name)
        # _build is read first: a graph being unpickled has no walk either
        self._mult, self._vertices = self._build(*self._walk)
        del self._build
        return getattr(self, name)


def glue_leaves(g: Multigraph, pairs: Sequence[Tuple[Vertex, Vertex]]) -> Multigraph:
    """Fuse each pair of pendant edges into one edge between the fathers."""
    flat = [v for p in pairs for v in p]
    if len(set(flat)) != len(flat):
        raise DuplicateLabel("glued labels must be distinct")
    for v in flat:
        if v not in g.vertices:
            raise NotALeaf(f"{v} not in graph")
        if g.degree(v) != 1:
            raise NotALeaf(f"{v} is not a leaf")
    drop = set(flat)
    edges = []
    for (u, v), m in g.edge_items():
        if u in drop or v in drop:
            continue
        edges.append((u, v, m))
    for a, b in pairs:
        edges.append((g.father(a), g.father(b), 1))
    return Multigraph(edges, vertices=g.vertices - drop)


def glue_tree_leaves(tree: LabeledTree, pairs) -> Multigraph:
    return glue_leaves(Multigraph(tree.edges()), pairs)


def _oriented_choices(g: Multigraph) -> List[Tuple[Vertex, Vertex]]:
    choices = []
    for (u, v), r in g.cyc_items():
        if u == v:
            choices.extend([(u, u)] * (2 * r))
        else:
            choices.extend([(u, v)] * r)
            choices.extend([(v, u)] * r)
    return choices


def cycle_break(g: Multigraph, k: int, rng: np.random.Generator):
    """Remove k uniform oriented removable edges, leaving 2k fresh leaves.

    Returns the resulting tree and the ordered oriented removal trace.
    """
    if g.surplus() != k:
        raise SurplusMismatch(f"graph has surplus {g.surplus()}, expected {k}")
    for j in range(1, 2 * k + 1):
        if star(j) in g.vertices:
            raise ValidationError(f"label {star(j)} already present")
    current = g
    trace = []
    star_edges = []
    for i in range(1, k + 1):
        choices = _oriented_choices(current)
        u, v = choices[int(rng.integers(len(choices)))]
        trace.append((u, v))
        current = current.remove_copy(u, v)
        star_edges.append((u, star(2 * k - 2 * i + 2)))
        star_edges.append((v, star(2 * k - 2 * i + 1)))
    edges = []
    for (u, v), m in current.edge_items():
        if m != 1 or u == v:
            raise AssertionError("cycle-breaking left a non-tree edge")
        edges.append((u, v))
    return LabeledTree(edges + star_edges), trace


def cb_probability(g: Multigraph, tree: LabeledTree) -> Fraction:
    """Exact hitting probability of `tree` under cycle-breaking of `g`.

    Requires the tree to carry g's vertices plus leaves S1..S2k with g's
    degrees preserved (ShapeMismatch otherwise); returns 0 for trees of
    the right shape that cycle-breaking cannot reach.
    """
    k = g.surplus()
    new_stars = {star(j) for j in range(1, 2 * k + 1)}
    tree_vertices = set(tree.vertices())
    if tree_vertices != set(g.vertices) | new_stars:
        raise ShapeMismatch("tree vertex set must be the graph's plus S1..S2k")
    for s in new_stars:
        if tree.degree(s) != 1:
            raise ShapeMismatch(f"{s} must be a leaf")
    for v in g.vertices:
        if tree.degree(v) != g.degree(v):
            raise ShapeMismatch(f"degree of {v} changed")
    current = g
    denom = 1
    for i in range(1, k + 1):
        # step i removed the edge the leaves S_{2k-2i+2}, S_{2k-2i+1} hang from
        u = tree.father(star(2 * k - 2 * i + 2))
        v = tree.father(star(2 * k - 2 * i + 1))
        if dict(current.cyc_items()).get(_pair(u, v), 0) < 1:
            return Fraction(0)
        denom *= current.square()
        current = current.remove_copy(u, v)
    # k removable copies gone leave a connected surplus-0 graph: a tree
    rest = [p for p, _ in current.edge_items()]
    star_edges = [(tree.father(s), s) for s in new_stars]
    if LabeledTree(rest + star_edges) != tree:
        return Fraction(0)
    return Fraction(g.circ(), 2 ** k * denom)


def bias_components(tree: LabeledTree, k: int):
    """(circ of the fully glued graph, [square after gluing pairs 1..i])."""
    pairs = [(star(2 * i - 1), star(2 * i)) for i in range(1, k + 1)]
    for a, b in pairs:
        if a not in tree or b not in tree:
            raise NotALeaf(f"missing glue label {a} or {b}")
    g = Multigraph(tree.edges())
    squares = []
    for i in range(1, k + 1):
        squares.append(glue_leaves(g, pairs[:i]).square())
    return glue_leaves(g, pairs).circ(), squares


def bias(tree: LabeledTree, k: int) -> Fraction:
    """Tree weight circ(fully glued) / prod of partial-gluing squares; at
    k = 0 it is 1, since a tree's circ is 1 and so is a product of no
    squares."""
    c, squares = bias_components(tree, k)
    return Fraction(c, math.prod(squares))


def bias_bound(k: int) -> int:
    """2^k >= bias for every tuple, attained by k loops on one vertex.

    circ multiplies one factor c_i per glued pair i, and c_i <= 2 square_i
    for each, where square_i = |union of father paths 1..i| + i and pair i
    is the m-th copy of its fathers, m <= i: a loop has c_i = 2m, adjacent
    fathers c_i = 1 + m <= |union| + i, and fathers farther apart c_i = m.
    """
    return 2 ** k
