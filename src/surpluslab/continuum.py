"""Finite truncations of stick-breaking real trees, the Poissonian
branch-point construction, metric gluing, and the core-length measure.

A realization is a list of (cut, anchor) pairs: segment (y_i, y_{i+1}]
hangs from the point at position z_i, with (y_0, z_0) = (0, 0).  The
public oracle is a node/segment complex (sb_build, MetricTree, GluedSpace,
core_measure) in which every cut tip and anchor is a node, so distances,
geodesics and core lengths are plain graph walks.  Sampling reads the same
bits off parent pointers over the first n segments (_segment_tree).  Edge
lengths may be floats or Fractions; nothing coerces them.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Optional, Sequence

from .errors import (AnchorOutOfRange, CutsNotIncreasing, InsufficientMarks,
                     UnknownMark, ValidationError)
from .params import ThetaVector
from .trees import _climb, _climb_matrix, _search


def _edge_list(adj) -> list:
    """(u, v, length) once per edge of a loopless symmetric adjacency map,
    listed where the map first reaches it: at u, with v later in the map."""
    rank = {u: i for i, u in enumerate(adj)}
    return [(u, v, w) for u, nbrs in adj.items() for v, w in nbrs.items()
            if rank[u] < rank[v]]


class MetricTree:
    """Edge-weighted tree over hashable node ids, with named marks."""

    __slots__ = ("_adj", "marks")

    def __init__(self, edges: Sequence[tuple], marks: Optional[dict] = None):
        adj: Dict[object, Dict[object, object]] = {}
        for u, v, w in edges:
            if u == v:
                raise ValidationError("metric tree edges join distinct nodes")
            if w < 0:
                raise ValidationError("edge lengths must be >= 0")
            adj.setdefault(u, {})[v] = w
            adj.setdefault(v, {})[u] = w
        self.marks = dict(marks or {})
        if not edges:  # a tree with no edges is the one node its marks name
            adj = {node: {} for node in self.marks.values()}
        if not adj:
            raise ValidationError("metric tree needs at least one edge or node")
        if len(adj) != len(edges) + 1:
            raise ValidationError("edge list does not describe a tree")
        if len(_search(adj, next(iter(adj)))[0]) != len(adj):
            raise ValidationError("edge list does not describe a connected tree")
        self._adj = adj
        for label, node in self.marks.items():
            if node not in adj:
                raise UnknownMark(f"mark {label!r} points at unknown node {node!r}")

    def nodes(self):
        return self._adj.keys()

    def degree(self, node) -> int:
        return len(self._adj[node])

    def edges(self):
        return _edge_list(self._adj)

    def total_length(self):
        return sum(w for _, _, w in self.edges())

    def node_of(self, label):
        if label not in self.marks:
            raise UnknownMark(f"no mark {label!r}")
        return self.marks[label]

    def _known(self, *nodes):
        for node in nodes:
            if node not in self._adj:
                raise UnknownMark(f"unknown node {node!r}")

    def distances_from(self, node) -> dict:
        self._known(node)
        parent, _ = _search(self._adj, node)
        dist = {}
        for v, u in parent.items():
            dist[v] = 0 if u is None else dist[u] + self._adj[u][v]
        return dist

    def distance(self, a, b):
        self._known(b)
        return self.distances_from(a)[b]

    def path_edges(self, a, b) -> set:
        """Edge set (frozenset pairs) of the unique a-b geodesic."""
        self._known(a, b)
        parent, hops = _search(self._adj, a)
        return {frozenset((x, parent[x])) for x in _climb(parent, hops, a, b)}

    def mark_distance_matrix(self, labels: Sequence) -> list:
        return self._node_matrix([self.node_of(l) for l in labels])

    def _rooted(self, root):
        """(parent, hops, weight[x] = length of edge (x, parent[x])) from root."""
        parent, hops = _search(self._adj, root)
        return parent, hops, {x: self._adj[x][u] for x, u in parent.items()
                              if u is not None}

    def _node_matrix(self, nodes: Sequence) -> list:
        """One search from the first node, then a climb per pair."""
        parent, hops, weight = self._rooted(nodes[0]) if nodes else ({}, {}, {})
        return _climb_matrix(parent, hops, nodes, weight)


def _check_cut_anchor(cuts, anchors):
    m = len(cuts)
    if m == 0:
        raise ValidationError("need at least one cut")
    if any(not cuts[i] < cuts[i + 1] for i in range(m - 1)) or cuts[0] <= 0:
        raise CutsNotIncreasing("cuts must be strictly increasing and positive")
    if len(anchors) == m:
        anchors = anchors[:-1]
    if len(anchors) != m - 1:
        raise ValidationError("need one anchor per segment after the first")
    for i, z in enumerate(anchors):
        if z < 0 or z > cuts[i]:
            raise AnchorOutOfRange(f"anchor z_{i + 1}={z} outside [0, y_{i + 1}]")
    return list(cuts), list(anchors)


def sb_build(cuts: Sequence, anchors: Sequence = ()) -> MetricTree:
    """Stick-breaking tree of the cut/anchor lists.

    Segment (y_i, y_{i+1}] is attached at position z_i, the first segment
    at the origin.  Anchors may repeat (hub nodes) or hit segment tips.
    Marks: 0 at the origin, i at cut y_i.
    """
    parent, length, node = _segment_tree(cuts, anchors, len(cuts))
    edges = [(u, c, length[c]) for c, u in parent.items() if u is not None]
    return MetricTree(edges, dict(enumerate(node)))


def _segment_tree(cuts: Sequence, anchors: Sequence, n: int):
    """Origin-rooted parent pointers, edge lengths and node[i] of mark i over
    the first n segments, split at every node coordinate, as sb_build splits."""
    cuts, anchors = _check_cut_anchor(cuts, anchors)
    node = [0 * cuts[0]] + cuts[:n]
    coords = sorted(set(node[:1] + cuts + anchors))
    hang = dict(zip(node, node[:1] + anchors))  # segment start -> its anchor
    parent, length = {node[0]: None}, {}
    for pos, c in zip(coords, coords[1:bisect.bisect_right(coords, node[-1])]):
        parent[c], length[c] = hang.get(pos, pos), c - pos
    return parent, length, node


def _rooted(parent, length, root):
    """MetricTree._rooted(root) of the segment tree: root's path to the
    origin turns round; a parent precedes its child in parent."""
    par, weight, hops, x = {**parent, root: None}, dict(length), {root: 0}, root
    while parent[x] is not None:
        x, low = parent[x], x
        par[x], weight[x], hops[x] = low, length[low], hops[low] + 1
    for x in parent:
        if x not in hops:
            hops[x] = hops[par[x]] + 1
    return par, hops, weight


@dataclass
class IcrtRealization:
    """Branch times and Poisson cut/anchor points for one theta realization."""
    theta: ThetaVector
    atoms: tuple            # (atom index i, X_i) for every theta_i > 0
    points: list            # (y, z) sorted by y; (Y_0, Z_0)=(0,0) implicit
    y_max: float
    mu_infinite: bool

    @property
    def cuts(self):
        return [y for y, _ in self.points]

    @property
    def anchors(self):
        return [z for _, z in self.points]

    def tree(self) -> MetricTree:
        return sb_build(self.cuts, self.anchors)

    def to_json(self) -> str:
        return json.dumps({
            "cuts": self.cuts,
            "anchors": self.anchors,
            "atoms": [{"i": i, "X": x} for i, x in self.atoms],
            "theta0": self.theta.theta0,
            "mu_infinite": self.mu_infinite,
        }, sort_keys=True)


def _window_points(theta: ThetaVector, atoms, lo: float, hi: float,
                   rng: np.random.Generator) -> list:
    """Poisson points of intensity dy x dmu restricted to lo < y <= hi."""
    import numpy as np
    pts = []
    rate0 = theta.theta0 ** 2
    if rate0 > 0:
        area = rate0 * (hi * hi - lo * lo) / 2.0
        n = int(rng.poisson(area))
        if n:
            ys = np.sqrt(lo * lo + rng.random(n) * (hi * hi - lo * lo))
            zs = rng.random(n) * ys
            pts.extend(zip(ys.tolist(), zs.tolist()))
    for i, x in atoms:
        rate = theta.theta[i - 1]
        a = max(x, lo)
        if a < hi and rate > 0:
            n = int(rng.poisson(rate * (hi - a)))
            if n:
                ys = a + rng.random(n) * (hi - a)
                pts.extend((float(y), float(x)) for y in ys)
    pts.sort()
    return pts


def sample_icrt(theta: ThetaVector, rng: np.random.Generator,
                n_points: Optional[int] = None,
                y_max: Optional[float] = None) -> IcrtRealization:
    """Exponential branch times plus the Poisson point process, windowed.

    Exactly one of n_points / y_max fixes the horizon; with n_points the
    window doubles until enough cuts exist (an exact lazy extension).
    """
    if (n_points is None) == (y_max is None):
        raise ValidationError("give exactly one of n_points or y_max")
    atoms = tuple((i + 1, float(rng.exponential(1.0 / t)))
                  for i, t in enumerate(theta.theta) if t > 0)
    real = IcrtRealization(theta, atoms, [], 0.0, theta.mu_infinite)
    if y_max is not None:
        extend_icrt(real, y_max, rng)
    else:
        ensure_cut_points(real, n_points, rng)
    return real


def extend_icrt(real: IcrtRealization, new_y_max: float,
                rng: np.random.Generator):
    if new_y_max > real.y_max:
        real.points.extend(
            _window_points(real.theta, real.atoms, real.y_max, new_y_max, rng))
        real.y_max = new_y_max


def ensure_cut_points(real: IcrtRealization, n: int, rng: np.random.Generator):
    target = real.y_max if real.y_max > 0 else 1.0
    while len(real.points) < n:
        target *= 2.0
        extend_icrt(real, target, rng)


class GluedSpace:
    """Pseudo-metric quotient of a metric tree by point identifications.

    Each pair names two marks or tree nodes; a mark label takes precedence
    over an equal node id.  Distances are the tree metric on the requested
    nodes and the glued points, with the two-point gluing formula applied
    once per pair.
    """

    def __init__(self, base: MetricTree, pairs: Sequence[tuple]):
        self.base = base
        self.pairs = list(pairs)
        self._ends = [base.node_of(x) if x in base.marks else x
                      for a, b in self.pairs for x in (a, b)]
        if any(x not in base._adj for x in self._ends):
            raise UnknownMark("glued points must be tree nodes or marks")

    def _node_matrix(self, nodes: Sequence) -> list:
        return _glued(self.base._node_matrix(list(nodes) + self._ends),
                      len(nodes))

    def distance(self, a, b):
        self.base._known(a, b)
        return self._node_matrix([a, b])[0][1]

    def mark_distance_matrix(self, labels: Sequence) -> list:
        return self._node_matrix([self.base.node_of(l) for l in labels])


def metric_glue(tree: MetricTree, pairs: Sequence[tuple]) -> GluedSpace:
    return GluedSpace(tree, pairs)


def _glued(rows: list, n: int, length=0) -> list:
    """The first n rows and columns, after joining the later nodes in pairs
    by shortcuts of the given length (0 glues each pair to one point)."""
    while len(rows) > n:
        keep = [*range(n), *range(n + 2, len(rows))]
        rows = two_point_glue_matrix(rows, n, n + 1, keep, length)
    return rows


def two_point_glue_matrix(matrix: Sequence[Sequence], i: int, j: int,
                          keep=None, length=0) -> list:
    """One application of the gluing formula to a distance matrix, over
    the rows and columns in keep (all of them by default): i and j are
    joined by a shortcut of the given length, 0 identifying them."""
    keep = range(len(matrix)) if keep is None else keep
    rows = [(matrix[a], matrix[a][i] + length, matrix[a][j] + length)
            for a in keep]
    return [[min(row[b], ai + matrix[b][j], aj + matrix[b][i]) for b in keep]
            for row, ai, aj in rows]


def core_measure(tree: MetricTree, n_pairs: int):
    """Length of the union of the geodesics between marks (1,2),...,(2c-1,2c)."""
    for m in range(1, 2 * n_pairs + 1):
        if m not in tree.marks:
            raise InsufficientMarks(f"mark {m} missing (need 1..{2 * n_pairs})")
    ends = [tree.node_of(m) for m in range(1, 2 * n_pairs + 1)]
    return _core_length(*tree._rooted(tree.node_of(1)), ends)


def _core_length(parent, depth, weight, ends: Sequence):
    """Length of the union of the geodesics between ends (0, 1), (2, 3), ..."""
    union = {}  # lower ends of the union's edges, in a reproducible order
    for a, b in zip(ends[::2], ends[1::2]):
        union.update(dict.fromkeys(_climb(parent, depth, a, b)))
    return sum(weight[x] for x in union)


def _mark_matrix(segments: tuple, labels: Sequence, k: int = 0) -> list:
    """The mark matrix over labels of sb_build's tree glued at (1, 2), ...,
    (2k-1, 2k), off segments that cover every label and 2k."""
    parent, length, node = segments
    nodes = [node[m] for m in [*labels, *range(1, 2 * k + 1)]]
    par, hops, weight = _rooted(parent, length, nodes[0])
    return _glued(_climb_matrix(par, hops, nodes, weight), len(labels))


@dataclass
class WeightedSample:
    """An ICRG draw and its segment tree over the first n_points segments;
    payload, the GluedSpace of the full tree, is built on first access."""
    realization: IcrtRealization
    weight: float
    k: int
    _segments: tuple = field(repr=False, compare=False)

    @cached_property
    def payload(self) -> "GluedSpace":
        return GluedSpace(self.realization.tree(),
                          [(2 * i - 1, 2 * i) for i in range(1, self.k + 1)])


def sample_icrg_weighted(theta: ThetaVector, k: int, rng: np.random.Generator,
                         n_points: Optional[int] = None) -> WeightedSample:
    """Glued stick-breaking tree with importance weight 1/prod core lengths.

    The weight is almost surely finite (cut points are distinct, so every
    partial core has positive length); expectations under the glued law
    are self-normalized weighted averages.
    """
    if k < 0:
        raise ValidationError("k must be >= 0")
    n = max(n_points or 0, 2 * k, 1)
    real = sample_icrt(theta, rng, n_points=n)
    parent, length, node = segments = _segment_tree(real.cuts, real.anchors, n)
    rooted = _rooted(parent, length, node[1]) if k else None  # for every core
    weight = 1.0
    for i in range(1, k + 1):
        c = _core_length(*rooted, node[1:2 * i + 1])
        assert c > 0, "degenerate core"
        weight /= float(c)
    return WeightedSample(real, weight, k, segments)
