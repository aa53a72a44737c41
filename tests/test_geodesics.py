"""Tree distances, geodesics and connectivity against a Floyd-Warshall
oracle written here, on random stick-broken trees, their glued (D,k)-graphs
and stick-breaking real trees with exact Fraction cuts, glued or not."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from surpluslab import errors
from surpluslab.continuum import GluedSpace, MetricTree, core_measure, sb_build
from surpluslab.labels import internal as V
from surpluslab.multigraph import Multigraph
from surpluslab.params import validate
from surpluslab.reconstruct import reconstruct
from surpluslab.samplers import _dk_graph
from surpluslab.trees import LabeledTree, stick_break_tree, tree_distance_matrix

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None)


def floyd_warshall(nodes, edges):
    """All-pairs shortest paths over (u, v, length) edges."""
    d = {a: {b: 0 if a == b else math.inf for b in nodes} for a in nodes}
    for u, v, w in edges:
        if w < d[u][v]:
            d[u][v] = d[v][u] = w
    for c in nodes:
        for a in nodes:
            for b in nodes:
                if d[a][c] + d[c][b] < d[a][b]:
                    d[a][b] = d[a][c] + d[c][b]
    return d


@st.composite
def stick_broken(draw):
    """(tree-kind degrees, one arrangement of their multiset)."""
    internals = draw(st.lists(st.integers(1, 3), min_size=1, max_size=7))
    degrees = internals + [0] * (sum(internals) - len(internals) + 2)
    base = [i + 1 for i, d in enumerate(internals) for _ in range(d)]
    return validate(degrees, "tree"), draw(st.permutations(base))


@SETTINGS
@given(stick_broken(), st.data())
def test_tree_distances_match_floyd_warshall(case, data):
    seq, entries = case
    tree = stick_break_tree(seq, [V(x) for x in entries])
    nodes = list(tree.vertices())
    d = floyd_warshall(nodes, [(u, v, 1) for u, v in tree.edges()])
    marks = data.draw(st.permutations(nodes))
    mat = tree_distance_matrix(tree, marks)
    assert mat.tolist() == [[d[a][b] for b in marks] for a in marks]
    a, b = marks[0], marks[-1]
    assert tree.distance(a, b) == d[a][b]
    assert Multigraph(tree.edges()).distances_from(a) == d[a]


@SETTINGS
@given(stick_broken(), st.integers(0, 3))
def test_glued_graph_distances_match_floyd_warshall(case, k):
    seq, entries = case
    k = min(k, seq.n_zero // 2)
    g = _dk_graph(list(entries), k)
    nodes = list(g.vertices)
    d = floyd_warshall(nodes, [(u, v, 1) for (u, v), _ in g.edge_items() if u != v])
    assert g.is_connected()
    for a in nodes:
        assert g.distances_from(a) == d[a]


@st.composite
def fraction_sb_tree(draw):
    """sb_build over exact Fraction cuts, with anchors that may hit nodes."""
    steps = draw(st.lists(st.tuples(st.integers(1, 9), st.integers(1, 6)),
                          min_size=1, max_size=6))
    cuts, y = [], Fraction(0)
    for num, den in steps:
        y += Fraction(num, den)
        cuts.append(y)
    anchors = [Fraction(draw(st.integers(0, 4)), 4) * c for c in cuts[:-1]]
    return sb_build(cuts, anchors)


@SETTINGS
@given(fraction_sb_tree(), st.data())
def test_metric_tree_geodesics_match_floyd_warshall(tree, data):
    edges = tree.edges()
    d = floyd_warshall(list(tree.nodes()), edges)
    labels = data.draw(st.permutations(sorted(tree.marks)))
    nodes = [tree.node_of(l) for l in labels]
    assert tree.mark_distance_matrix(labels) == [[d[a][b] for b in nodes] for a in nodes]

    def geodesic(a, b):  # lengths are positive, so an edge is on it iff it fits exactly
        return {frozenset((u, v)) for u, v, w in edges
                if d[a][u] + w + d[v][b] == d[a][b] or d[a][v] + w + d[u][b] == d[a][b]}

    for a in nodes:
        for b in nodes:
            assert tree.path_edges(a, b) == geodesic(a, b)
    length = {frozenset((u, v)): w for u, v, w in edges}
    for c in range(1, (len(tree.marks) - 1) // 2 + 1):  # marks 0..m, pairs from 1
        union = set().union(*(geodesic(tree.node_of(2 * i - 1), tree.node_of(2 * i))
                              for i in range(1, c + 1)))
        assert core_measure(tree, c) == sum(length[e] for e in union)
    leaves = sorted(tree.marks)
    matrix = tree.mark_distance_matrix(leaves)
    rebuilt = reconstruct(matrix)
    assert rebuilt.mark_distance_matrix(range(1, len(leaves) + 1)) == matrix


@SETTINGS
@given(fraction_sb_tree(), st.data())
def test_glued_space_matches_floyd_warshall(tree, data):
    labels = sorted(tree.marks)
    mark = st.sampled_from(labels)  # a pair may repeat a mark, pairs may share one
    pairs = data.draw(st.lists(st.tuples(mark, mark), min_size=1, max_size=3))
    links = [(tree.node_of(a), tree.node_of(b), 0) for a, b in pairs]
    nodes = list(tree.nodes())
    d = floyd_warshall(nodes, tree.edges() + links)
    glued = GluedSpace(tree, pairs)
    marked = [tree.node_of(l) for l in labels]
    assert glued.mark_distance_matrix(labels) == [[d[a][b] for b in marked] for a in marked]
    for a in nodes:
        for b in nodes:
            assert glued.distance(a, b) == d[a][b]


def test_cycle_plus_edge_is_not_a_tree():
    # 5 vertices and 4 edges pass the count check; only connectivity fails
    with pytest.raises(errors.ValidationError, match="connected"):
        LabeledTree([(V(1), V(2)), (V(2), V(3)), (V(3), V(1)), (V(4), V(5))])
    with pytest.raises(errors.ValidationError, match="connected"):
        MetricTree([(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (3, 4, 1.0)])
    # a lone triangle has 3 vertices and 3 edges: the count check fails
    with pytest.raises(errors.ValidationError, match="describe a tree"):
        LabeledTree([(V(1), V(2)), (V(2), V(3)), (V(3), V(1))])
    with pytest.raises(errors.ValidationError, match="describe a tree"):
        MetricTree([(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
    with pytest.raises(errors.ValidationError, match="distinct nodes"):
        MetricTree([(0, 0, 1.0)])
    with pytest.raises(errors.ValidationError, match=">= 0"):
        MetricTree([(0, 1, -1.0)])
    with pytest.raises(errors.UnknownMark, match="unknown node"):
        MetricTree([(0, 1, 1.0)], {1: 5})
