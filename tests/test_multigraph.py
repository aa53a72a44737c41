import ast
import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from surpluslab import errors
from surpluslab.labels import internal as V, star as S
from surpluslab.multigraph import (Multigraph, bias, bias_bound,
                                   bias_components, cb_probability,
                                   cycle_break, glue_leaves, glue_tree_leaves)
from surpluslab.params import validate
from surpluslab.samplers import dk_table
from surpluslab.trees import (LabeledTree, enumerate_d_trees, sample_d_tree,
                              stick_break_tree)

EX12 = validate([1, 2, 1, 3, 3, 0, 0, 0, 0, 0, 0, 0], "tree")
EX12_TUPLE = (V(4), V(5), V(2), V(5), V(3), V(4), V(5), V(4), V(1), V(2))
PAIRS2 = [(S(1), S(2)), (S(3), S(4))]


def example_tree():
    return stick_break_tree(EX12, EX12_TUPLE)


def example_graph():
    return glue_tree_leaves(example_tree(), PAIRS2)


def triangle():
    return Multigraph([(V(1), V(2)), (V(2), V(3)), (V(1), V(3))])


def test_surplus_examples():
    assert Multigraph.from_tree(example_tree()).surplus() == 0
    assert triangle().surplus() == 1
    assert Multigraph([(V(1), V(2), 2)]).surplus() == 1
    with pytest.raises(errors.Disconnected):
        Multigraph([(V(1), V(2)), (V(3), V(4))]).surplus()


def test_square_examples():
    assert example_graph().square() == 5
    assert triangle().square() == 3
    assert Multigraph([(V(1), V(1))]).square() == 1


def test_circ_examples():
    assert triangle().circ() == 1
    assert Multigraph([(V(1), V(1))]).circ() == 2
    assert Multigraph([(V(1), V(2), 2)]).circ() == 2


def test_glue_pendant_pair_makes_loop():
    g = Multigraph([(S(1), V(1)), (V(1), S(2))])
    glued = glue_leaves(g, [(S(1), S(2))])
    assert glued.multiplicity(V(1), V(1)) == 1
    assert glued.vertices == frozenset({V(1)})


def test_glue_worked_example_makes_surplus_two():
    g = example_graph()
    assert g.surplus() == 2
    assert g.multiplicity(V(4), V(5)) == 2
    assert g.multiplicity(V(2), V(3)) == 1
    assert sorted(g.vertices) == sorted([V(i) for i in range(1, 6)]
                                        + [S(0), S(5), S(6)])


def test_glue_two_path_gives_double_edge():
    g = Multigraph([(S(1), V(1)), (V(1), V(2)), (V(2), S(2))])
    glued = glue_leaves(g, [(S(1), S(2))])
    assert glued.multiplicity(V(1), V(2)) == 2


def test_glue_errors():
    g = Multigraph([(S(1), V(1)), (V(1), S(2))])
    with pytest.raises(errors.NotALeaf):
        glue_leaves(g, [(S(1), V(1))])
    with pytest.raises(errors.DuplicateLabel):
        glue_leaves(g, [(S(1), S(1))])


def test_glue_order_independence():
    rng = np.random.default_rng(0)
    seq = validate([3, 2, 1, 0, 0, 0, 0, 0], "tree")
    for _ in range(20):
        tree = sample_d_tree(seq, rng)
        g1 = glue_tree_leaves(tree, [(S(1), S(2)), (S(3), S(4))])
        g2 = glue_tree_leaves(tree, [(S(3), S(4)), (S(1), S(2))])
        assert g1 == g2


def test_cycle_break_loop_forced():
    g = Multigraph([(V(1), V(1))])
    rng = np.random.default_rng(1)
    for _ in range(5):
        tree, trace = cycle_break(g, 1, rng)
        assert tree == LabeledTree([(V(1), S(1)), (V(1), S(2))])
        assert trace == [(V(1), V(1))]


def test_cycle_break_double_edge_roundtrip():
    g = Multigraph([(V(1), V(2), 2)])
    rng = np.random.default_rng(2)
    seen = set()
    for _ in range(50):
        tree, _ = cycle_break(g, 1, rng)
        seen.add(tree.edge_key())
        assert glue_tree_leaves(tree, [(S(1), S(2))]) == g
    assert len(seen) == 2  # the two oriented outcomes


def test_cycle_break_surplus_mismatch():
    with pytest.raises(errors.SurplusMismatch):
        cycle_break(triangle(), 2, np.random.default_rng(0))


def test_cycle_break_roundtrip_and_degrees():
    # glue k random leaf pairs of random trees, then break and re-glue
    rng = np.random.default_rng(3)
    for degs, k in [((1, 1), 1), ((2, 2), 2), ((2, 1, 1, 0), 1),
                    ((3, 2, 2, 0, 0), 2), ((3, 3, 1, 1), 3)]:
        seq = validate(list(degs), "surplus", k=k)
        table = dk_table(seq)
        pairs = [(S(2 * i - 1), S(2 * i)) for i in range(1, k + 1)]
        for _ in range(40):
            g = table.graphs[int(rng.integers(len(table.graphs)))]
            tree, _ = cycle_break(g, k, rng)
            for v in g.vertices:
                assert tree.degree(v) == g.degree(v)
            for j in range(1, 2 * k + 1):
                assert tree.degree(S(j)) == 1
            assert glue_tree_leaves(tree, pairs) == g


def test_cycle_break_roundtrip_random_multigraphs():
    # arbitrary connected multigraphs on <= 6 vertices with surplus <= 3
    rng = np.random.default_rng(8)
    done = 0
    while done < 150:
        n_v = int(rng.integers(2, 7))
        n_e = int(rng.integers(n_v - 1, n_v + 3))
        edges = [(V(int(rng.integers(1, n_v + 1))),
                  V(int(rng.integers(1, n_v + 1)))) for _ in range(n_e)]
        g = Multigraph(edges, vertices=[V(i) for i in range(1, n_v + 1)])
        if not g.is_connected() or g.surplus() > 3:
            continue
        k = g.surplus()
        tree, _ = cycle_break(g, k, rng)
        pairs = [(S(2 * i - 1), S(2 * i)) for i in range(1, k + 1)]
        assert glue_tree_leaves(tree, pairs) == g
        for v in g.vertices:
            assert tree.degree(v) == g.degree(v)
        done += 1


def test_cb_probability_worked_example():
    assert cb_probability(example_graph(), example_tree()) == Fraction(1, 30)


def test_cb_probability_forced_loop():
    g = Multigraph([(V(1), V(1))])
    tree = LabeledTree([(V(1), S(1)), (V(1), S(2))])
    assert cb_probability(g, tree) == 1


def test_cb_probability_shape_mismatch():
    g = Multigraph([(V(1), V(1))])
    with pytest.raises(errors.ShapeMismatch):
        cb_probability(g, LabeledTree([(V(1), S(1)), (S(1), S(2))]))


def _trees_of_shape(g, k):
    """Every tree on g's vertices V1..Vn with g's degrees, plus leaves
    S1..S2k: the Pruefer enumeration with S_j renamed S_{j+1}."""
    degrees = [g.degree(V(i)) - 1 for i in range(1, len(g.vertices) + 1)]
    shift = {S(j): S(j + 1) for j in range(2 * k)}
    return [t.relabel(shift)
            for t in enumerate_d_trees(validate(degrees + [0] * (2 * k), "tree"))]


SQUARE = [(V(1), V(2)), (V(2), V(3)), (V(3), V(4)), (V(4), V(1))]


def test_cb_probability_total_mass_one():
    # every reachable tree, found by exhausting oriented removal sequences;
    # where the trees of the shape are enumerated, each other one gets
    # exactly 0, whether it names a pair that is not removable or has the
    # right removals but is another tree
    def outcomes(g, k):
        if k == 0:
            return {tuple()}
        out = set()
        for (u, v), r in g.cyc_items():
            oriented = [(u, v), (v, u)] if u != v else [(u, u)]
            for e in oriented:
                for rest in outcomes(g.remove_copy(*e), k - 1):
                    out.add((e,) + rest)
        return out

    for g, n_shaped, n_reachable in [
            (example_graph(), None, None),
            (Multigraph([(V(1), V(2), 2), (V(2), V(3)), (V(3), V(1))]), None, None),
            (Multigraph(SQUARE), 24, 8),                  # k = 1
            (Multigraph(SQUARE + [(V(1), V(3))]), 180, 64)]:  # k = 2
        k = g.surplus()
        trees = set()
        for seq in outcomes(g, k):
            current = g
            star_edges = []
            for i, (u, v) in enumerate(seq, start=1):
                current = current.remove_copy(u, v)
                star_edges.append((u, S(2 * k - 2 * i + 2)))
                star_edges.append((v, S(2 * k - 2 * i + 1)))
            edges = [(a, b) for (a, b), m in current.edge_items() for _ in range(m)]
            trees.add(LabeledTree(edges + star_edges))
        total = sum(cb_probability(g, t) for t in trees)
        assert total == 1
        if n_shaped is not None:
            shaped = _trees_of_shape(g, k)
            assert len(shaped) == len(set(shaped)) == n_shaped
            assert len(trees) == n_reachable
            assert {t for t in shaped if cb_probability(g, t) > 0} == trees


def test_cb_probability_monte_carlo():
    g = example_graph()
    tree = example_tree()
    p = float(cb_probability(g, tree))
    rng = np.random.default_rng(4)
    n = 2 * 10 ** 4
    hits = sum(cycle_break(g, 2, rng)[0] == tree for _ in range(n))
    assert abs(hits - n * p) < 4 * math.sqrt(n * p * (1 - p))


def test_bias_examples():
    cherry = LabeledTree([(S(1), V(1)), (V(1), S(2))])
    assert bias(cherry, 1) == 2
    assert bias(cherry, 0) == 1
    c, squares = bias_components(example_tree(), 2)
    assert (c, squares) == (2, [3, 5])
    assert bias(example_tree(), 2) == Fraction(2, 15)


def test_bias_not_a_leaf():
    with pytest.raises(errors.NotALeaf):
        bias(LabeledTree([(S(0), V(1)), (V(1), S(1))]), 1)


def test_bias_is_two_to_k_times_cb_probability():
    rng = np.random.default_rng(5)
    for degs, k in [((2, 1, 1, 0), 1), ((2, 2), 2), ((3, 2, 2, 0, 0), 2)]:
        seq = validate(list(degs), "surplus", k=k)
        table = dk_table(seq)
        pairs = [(S(2 * i - 1), S(2 * i)) for i in range(1, k + 1)]
        for _ in range(25):
            tree, _ = cycle_break(
                table.graphs[int(rng.integers(len(table.graphs)))], k, rng)
            g = glue_tree_leaves(tree, pairs)
            assert bias(tree, k) == 2 ** k * cb_probability(g, tree)


def test_square_lower_bound_star_distance():
    rng = np.random.default_rng(6)
    seq = validate([3, 3, 2, 1, 1] + [0] * 7, "tree")
    for _ in range(50):
        tree = sample_d_tree(seq, rng)
        for k in (1, 2, 3):
            _, squares = bias_components(tree, k)
            for i in range(1, k + 1):
                d = tree.distance(S(2 * i - 1), S(2 * i))
                assert squares[i - 1] >= d - 1


def test_bias_bound_values():
    # 2^k, the sharp bound (test_samplers checks it on every small sequence)
    assert bias_bound(0) == 1
    assert bias_bound(1) == 2
    assert bias_bound(2) == 4
    assert bias_bound(3) == 8


def test_cyc_matches_brute_force_removal():
    # removable copies by definition: remove one copy, test connectivity
    rng = np.random.default_rng(7)
    for _ in range(60):
        n_v = int(rng.integers(2, 6))
        n_e = int(rng.integers(n_v - 1, n_v + 3))
        while True:
            edges = [(V(int(rng.integers(1, n_v + 1))),
                      V(int(rng.integers(1, n_v + 1)))) for _ in range(n_e)]
            g = Multigraph(edges, vertices=[V(i) for i in range(1, n_v + 1)])
            if g.is_connected():
                break
        brute = {}
        for (u, v), m in g.edge_items():
            if g.remove_copy(u, v).is_connected():
                brute[(u, v)] = m
        assert dict(g.cyc_items()) == brute
        assert g.square() == sum(brute.values())


def test_remove_copy_matches_rebuild():
    # remove_copy assigns its map unchecked: the other pairs in order, then
    # the removed pair with one copy less, as the constructor rebuilds it
    rng = np.random.default_rng(45)
    for _ in range(60):
        n_v = int(rng.integers(1, 5))
        vs = [V(i) for i in range(1, n_v + 1)]
        ends = rng.integers(0, n_v, size=(int(rng.integers(1, n_v + 4)), 2))
        g = Multigraph([(vs[a], vs[b]) for a, b in ends.tolist()], vertices=vs)
        for (u, v), m in list(g.edge_items()):
            rest = [(a, b, c) for (a, b), c in g.edge_items() if (a, b) != (u, v)]
            want = Multigraph(rest + [(u, v, m - 1)], vertices=vs)
            for got in (g.remove_copy(u, v), g.remove_copy(v, u)):
                assert list(got.edge_items()) == list(want.edge_items())
                assert got.vertices == want.vertices
    with pytest.raises(errors.ValidationError):
        Multigraph([(V(1), V(2))]).remove_copy(V(1), V(1))


def _component_count(vertices, pairs) -> int:
    """Components by a union-find of its own, independent of the graph's
    searches."""
    root = {v: v for v in vertices}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for u, v in pairs:
        root[find(u)] = find(v)
    return len({find(v) for v in vertices})


def test_bridges_match_brute_force():
    # a bridge is a multiplicity-1 non-loop edge whose removal adds a
    # component; graphs with loops, multi-edges and several components
    rng = np.random.default_rng(11)
    seen = {"loop": 0, "multi": 0, "disconnected": 0, "bridges": 0}
    for _ in range(3000):
        n_v = int(rng.integers(1, 8))
        vs = [V(i) for i in range(1, n_v + 1)]
        ends = rng.integers(0, n_v, size=(int(rng.integers(0, n_v + 3)), 2))
        g = Multigraph([(vs[a], vs[b]) for a, b in ends.tolist()], vertices=vs)
        items = g.edge_items()
        pairs = [p for p, _ in items]
        base = _component_count(vs, pairs)
        brute = {p for p, m in items if m == 1 and p[0] != p[1]
                 and _component_count(vs, [q for q in pairs if q != p]) > base}
        assert g.bridges() == brute
        seen["loop"] += any(u == v for u, v in pairs)
        seen["multi"] += any(m > 1 for _, m in items)
        seen["disconnected"] += base > 1
        seen["bridges"] += len(brute)
    assert min(seen.values()) > 300, seen


def test_bias_oracle_imports_no_sampler_code():
    # multigraph.bias is the independent oracle of samplers._bias_core:
    # from trees it may take only the tree type and the search, never a
    # climb or the walk, and nothing at all from samplers or experiments
    from surpluslab import multigraph
    tree = ast.parse(Path(multigraph.__file__).read_text())
    taken = {}  # module -> names taken from it, "*" for the module itself
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").rpartition(".")[2]
            for a in node.names:
                taken.setdefault(module, set()).add(a.name)
                if module in ("", "surpluslab"):  # from . import samplers
                    taken.setdefault(a.name, set()).add("*")
        elif isinstance(node, ast.Import):
            for a in node.names:
                taken.setdefault(a.name.rpartition(".")[2], set()).add("*")
    assert taken.get("trees", set()) <= {"LabeledTree", "_search"}, taken
    assert not taken.keys() & {"samplers", "experiments"}, taken


def _named_defs(path, names):
    """(def node, every name and attribute its body reads) of each function
    in the file at path whose name is in names."""
    return {node.name: (node, {n.id for n in ast.walk(node)
                               if isinstance(n, ast.Name)}
                        | {n.attr for n in ast.walk(node)
                           if isinstance(n, ast.Attribute)})
            for node in ast.walk(ast.parse(Path(path).read_text()))
            if isinstance(node, ast.FunctionDef) and node.name in names}


def test_oracles_build_through_the_validating_constructor():
    # the exact oracles check the samplers' one-pass glued graphs, so their
    # bodies name none of the samplers' builders nor the unchecked
    # Multigraph._of and _LazyMultigraph, and those that make a graph make
    # it with Multigraph(...)
    from surpluslab import multigraph, samplers
    oracles = {samplers: {"cm_conditioned_oracle", "pk_law_oracle",
                          "_connected_law", "_multiplicity_maps"},
               multigraph: {"bias", "bias_components", "glue_leaves",
                            "from_tree"}}
    builders = {"cm_conditioned_oracle", "pk_law_oracle", "glue_leaves",
                "from_tree"}
    banned = {"_of", "_LazyMultigraph", "_glued_graph", "_walk", "_bias_core",
              "_designated"}
    checked = set()
    for module, names in oracles.items():
        for name, (node, used) in _named_defs(module.__file__, names).items():
            assert not used & banned, (name, used & banned)
            if name in builders:
                assert any(isinstance(n, ast.Call)
                           and isinstance(n.func, ast.Name)
                           and n.func.id == "Multigraph"
                           for n in ast.walk(node)), name
            checked.add(name)
    assert checked == set().union(*oracles.values())


def test_tree_and_distance_oracles_name_no_walk_code():
    # the Pruefer enumeration checks the walk's trees and Floyd-Warshall
    # every tree distance, so their bodies name none of the walk kernel,
    # its climbs and searches, nor the bias and glued graph built on them
    from surpluslab import trees
    oracles = {trees.__file__: {"_prufer_decode", "enumerate_d_tree_keys",
                                "_vertex_ints", "tree_from_key"},
               Path(__file__).with_name("test_geodesics.py"): {"floyd_warshall"}}
    banned = {"_walk", "_stick_break_int_edges", "_stick_break_key", "_climb",
              "_climb_matrix", "_search", "_bias_core", "_glued_graph"}
    checked = set()
    for path, names in oracles.items():
        for name, (_, used) in _named_defs(path, names).items():
            assert not used & banned, (name, used & banned)
            checked.add(name)
    assert checked == set().union(*oracles.values())


def test_multigraph_json_roundtrip():
    g = example_graph()
    assert Multigraph.from_json(g.to_json()) == g


def test_leaf_canonical_key_exchangeable():
    g1 = Multigraph([(V(1), V(2), 2), (V(1), S(0)), (V(2), S(5))])
    g2 = Multigraph([(V(1), V(2), 2), (V(1), S(7)), (V(2), S(2))])
    assert g1.leaf_canonical_key() == g2.leaf_canonical_key()
    g3 = Multigraph([(V(1), V(2), 2), (V(1), S(0)), (V(1), S(5))])
    assert g1.leaf_canonical_key() != g3.leaf_canonical_key()
