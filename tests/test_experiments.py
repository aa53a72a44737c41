import copy
import json
import math
import re
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from scipy.spatial.distance import cdist

from surpluslab import continuum, experiments, samplers
from surpluslab.continuum import sample_icrt
from surpluslab.errors import InsufficientLeaves, UnknownVertex, ValidationError
from surpluslab.experiments import (ExperimentManifest, VertexMeasure,
                                    _graph_matrix,
                                    bias_tail_experiment, converge_experiment,
                                    d_tree_bias_values, energy_distance,
                                    gp_matrix_sample, importance_unweight,
                                    ks_statistic, multigraph_distance_matrix,
                                    permutation_energy_test, rng_stream,
                                    table_csv_lines)
from surpluslab.labels import internal as V, star as S
from surpluslab.multigraph import Multigraph, bias
from surpluslab.params import PVector, ThetaVector, validate
from surpluslab.samplers import _sample_pk_glued
from surpluslab.trees import (PTreeGrowth, enumerate_d_trees, sample_d_tree,
                              tree_distance_matrix)

BROWNIAN = ThetaVector(theta0=1.0)


def test_rng_stream_deterministic_and_disjoint():
    a = rng_stream(7, 0).random(4)
    b = rng_stream(7, 0).random(4)
    c = rng_stream(7, 1).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_vertex_measure_sampling():
    m = VertexMeasure({V(1): 3.0, V(2): 1.0})
    assert m.weights[V(1)] == pytest.approx(0.75)
    rng = rng_stream(0, 0)
    draws = m.sample(rng, 10 ** 4)
    frac = sum(v == V(1) for v in draws) / 10 ** 4
    assert abs(frac - 0.75) < 3 * math.sqrt(0.75 * 0.25 / 10 ** 4)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_vertex_measure_rejects_non_finite_weights(bad):
    # a NaN or inf weight would normalise every weight to NaN, and sample
    # would then return the first vertex every time
    with pytest.raises(ValidationError, match="finite"):
        VertexMeasure({V(1): bad, V(2): 1.0})


def test_vertex_measure_normalises_finite_weights():
    m = VertexMeasure({V(1): 1, V(2): Fraction(1, 2), V(3): np.float64(2.5)})
    assert m.weights == {V(1): 0.25, V(2): 0.125, V(3): 0.625}


def test_gp_matrix_single_point_is_zero():
    model = {"model": "d-tree", "params": validate([1, 1, 0, 0], "tree")}
    mats, w = gp_matrix_sample(model, 1, 5, rng_stream(1, 0))
    assert np.all(mats == 0)
    assert np.all(w == 1)


def test_gp_matrix_tree_measure_mode():
    # uniform measure on the two stars of the path tree: entries are 0 or 3
    seq = validate([1, 1, 0, 0], "tree")
    model = {"model": "d-tree", "params": seq}
    measure = VertexMeasure({S(0): 1.0, S(1): 1.0})
    mats, _ = gp_matrix_sample(model, 2, 400, rng_stream(2, 0), measure=measure)
    vals = set(np.unique(mats))
    assert vals <= {0.0, 3.0}
    frac3 = np.mean(mats[:, 0, 1] == 3.0)  # two i.i.d. draws differ w.p. 1/2
    assert abs(frac3 - 0.5) < 3 * math.sqrt(0.25 / 400)


def test_gp_matrix_double_edge_instance():
    seq = validate([1, 1], "surplus", k=1)
    model = {"model": "dk-graph", "params": seq, "k": 1}
    measure = VertexMeasure({V(1): 1.0, V(2): 1.0})
    mats, _ = gp_matrix_sample(model, 3, 20, rng_stream(3, 0), measure=measure)
    assert np.max(mats) <= 1.0


def test_gp_matrix_lambda_rescaling_exact():
    seq = validate([2, 2, 1, 0, 0, 0, 0], "tree")
    lam = seq.lam
    raw, _ = gp_matrix_sample({"model": "d-tree", "params": seq}, 3, 10,
                              rng_stream(4, 0))
    scaled, _ = gp_matrix_sample({"model": "d-tree", "params": seq,
                                  "scale": "lambda"}, 3, 10, rng_stream(4, 0))
    assert np.array_equal(scaled, raw * lam)


def _capture(monkeypatch, module, name, sink):
    """Rebind every surpluslab module attribute bound to module.name to a
    wrapper that keeps each return value in sink."""
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        sink.append(original(*args, **kwargs))
        return sink[-1]
    for mod in [m for key, m in sys.modules.items()
                if key.startswith("surpluslab")]:
        for attr, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, attr, wrapper)


def test_samples_pass_through_the_names_the_benchmark_captures(monkeypatch):
    # bench/workloads.py wraps these two names by module attribute and
    # checks what it captures; a route around them would fail only there
    graphs, draws = [], []
    _capture(monkeypatch, samplers, "sample_dk_graph", graphs)
    _capture(monkeypatch, continuum, "sample_icrg_weighted", draws)
    rng = rng_stream(5, 0)
    for degrees in ([2] * 8 + [0] * 8, [3, 2, 1, 1, 0, 0, 0]):  # stream, table
        graphs.clear()
        seq = validate(degrees, "surplus", k=1)
        gp_matrix_sample({"model": "dk-graph", "params": seq, "k": 1,
                          "scale": "lambda"}, 2, 3, rng)
        assert len(graphs) == 3
        assert all(g.surplus() == 1 for g in graphs)
    assert samplers.build_dk_table(validate([3, 2, 1, 1, 0, 0, 0], "surplus",
                                            k=1)).graphs
    gp_matrix_sample({"model": "icrg", "params": BROWNIAN, "k": 1}, 3, 4, rng)
    assert len(draws) == 4
    for ws in draws:
        assert len(ws.payload.base.mark_distance_matrix(range(1, 6))) == 5


def test_energy_distance_weighted_equals_unweighted_for_equal_weights():
    rng = rng_stream(5, 0)
    x = rng.random((40, 3))
    y = rng.random((50, 3))
    plain = energy_distance(x, y)
    weighted = energy_distance(x, y, np.full(40, 0.5), np.full(50, 2.0))
    assert weighted == plain
    assert energy_distance(x, x) == pytest.approx(0.0, abs=1e-12)


def test_ks_statistic_weighted_equals_unweighted():
    rng = rng_stream(6, 0)
    x, y = rng.random(30), rng.random(35)
    assert ks_statistic(x, y) == ks_statistic(x, y, np.full(30, 3.0),
                                              np.full(35, 0.2))
    from scipy.stats import ks_2samp
    assert ks_statistic(x, y) == pytest.approx(ks_2samp(x, y).statistic)


def test_importance_unweight_law():
    rng = rng_stream(7, 0)
    x = np.concatenate([np.zeros(5000), np.ones(5000)])[:, None]
    w = np.where(x[:, 0] == 0, 1.0, 3.0)
    sub = importance_unweight(x, w, rng)
    frac = sub.mean()
    assert abs(frac - 0.75) < 0.03


def test_permutation_test_same_law():
    rng = rng_stream(8, 0)
    x = rng.normal(size=(80, 2))
    y = rng.normal(size=(120, 2))
    observed, p, thresh = permutation_energy_test(x, y, 199, rng)
    assert p > 0.01
    assert observed < thresh


def test_converge_same_law_indistinguishable():
    # family = the target itself: below the 95% permutation threshold
    model = {"model": "icrt", "params": BROWNIAN, "label": "self"}
    report = converge_experiment([model], dict(model), 3, 150,
                                 rng_stream(9, 0), n_perms=99, target_factor=2)
    pm = report["last_member_permutation"]
    assert pm["observed"] < pm["threshold95"]
    assert pm["p"] > 0.01


def test_converge_empty_family_fails_before_any_draw():
    rng = rng_stream(9, 1)
    state = rng.bit_generator.state
    model = {"model": "icrt", "params": BROWNIAN}
    with pytest.raises(ValidationError, match="at least one family member"):
        converge_experiment([], model, 3, 10, rng)
    assert rng.bit_generator.state == state


def test_bias_tail_k0_and_m0():
    seq = validate([2, 2, 1, 0, 0, 0, 0], "tree")
    rows = bias_tail_experiment(seq, 0, [0.0, 2.0], 200, rng_stream(10, 0))
    # k=0: bias is identically 1, so h_0 = 1 and h_2 = 0
    assert rows[0]["estimate"] == pytest.approx(1.0)
    assert rows[1]["estimate"] == 0.0
    rows = bias_tail_experiment(seq, 1, [0.0], 400, rng_stream(10, 1))
    assert rows[0]["estimate"] > 0


def test_bias_values_and_tail_reject_negative_k_before_any_draw():
    seq = validate([2, 0, 0, 0], "tree")
    rng = rng_stream(10, 2)
    state = rng.bit_generator.state
    with pytest.raises(ValidationError):
        d_tree_bias_values(seq, -1, 3, rng)
    with pytest.raises(ValidationError):
        bias_tail_experiment(seq, -1, [0.0], 3, rng)
    assert rng.bit_generator.state == state


def test_bias_values_and_tail_reject_bad_counts_before_any_draw():
    # n_reps = 0 gave a NaN estimate, and a negative count numpy's ValueError
    seq = validate([2, 0, 0, 0], "tree")
    rng = rng_stream(10, 3)
    state = rng.bit_generator.state
    for n_reps in (0, -2):
        with pytest.raises(ValidationError, match="n_reps"):
            bias_tail_experiment(seq, 1, [0.0], n_reps, rng)
    with pytest.raises(ValidationError, match="n_samples"):
        d_tree_bias_values(seq, 1, -2, rng)
    assert rng.bit_generator.state == state
    assert len(d_tree_bias_values(seq, 1, 0, rng)) == 0


def test_bias_tail_decreasing_in_m():
    seq = validate([2] * 16 + [0] * 18, "tree")
    rows = bias_tail_experiment(seq, 1, [0.0, 1.0, 10.0, 1000.0], 2000,
                                rng_stream(11, 0))
    ests = [r["estimate"] for r in rows]
    assert ests == sorted(ests, reverse=True)
    assert ests[-1] == 0.0


def test_bias_values_respect_bound():
    seq = validate([3, 3, 1, 1] + [0] * 6, "tree")
    vals = d_tree_bias_values(seq, 2, 500, rng_stream(12, 0))
    assert np.all(vals <= 24.0 + 1e-12)


def test_binary_ladder_bias_atoms():
    # exact k=1 bias law on (2 x n, 0 x n+2) by Pruefer enumeration: the
    # reference atoms of acceptance criterion 11, free of the walk kernel
    for n in (2, 3, 4):
        seq = validate([2] * n + [0] * (n + 2), "tree")
        counts = Counter(bias(tree, 1) for tree in enumerate_d_trees(seq))
        total = sum(counts.values())
        law = {b: Fraction(c, total) for b, c in counts.items()}
        assert max(law) == 2
        assert law[Fraction(2)] == Fraction(1, 2 * n - 1)
        assert law[Fraction(1)] == Fraction(2, 2 * n - 1)
        assert all(b <= Fraction(1, 3) for b in law if b < 1)


def test_manifest_roundtrip():
    m = ExperimentManifest("converge", 7, 100, {"d.json": "ab" * 32}, [0, 1],
                           {"k": 1})
    again = ExperimentManifest.from_json(m.to_json())
    assert again == m


def test_manifest_of_another_version_does_not_replay():
    old = json.loads(ExperimentManifest("sample-graph", 3, 2).to_json())
    old["version"] = "0.1.0"
    with pytest.raises(ValidationError,
                       match=r"0\.1\.0.*" + re.escape(experiments.VERSION)):
        ExperimentManifest.from_json(json.dumps(old))


def test_write_table_deterministic():
    rows = [{"m": 1.0, "estimate": 0.25, "stderr": 0.001}]
    a = table_csv_lines(rows, {"seed": 7, "experiment": "bias-tail"})
    b = table_csv_lines(rows, {"experiment": "bias-tail", "seed": 7})
    assert a == b
    assert a == ["# experiment = bias-tail", "# seed = 7",
                 "m,estimate,stderr", "1.0,0.25,0.001"]


def test_multigraph_distance_matrix_unreachable():
    from surpluslab.multigraph import Multigraph
    g = Multigraph([(V(1), V(2))], vertices=[V(1), V(2), V(3)])
    with pytest.raises(Exception):
        multigraph_distance_matrix(g, [V(1), V(3)])


# ---------------------------------------------------------------------------
# tree matrices read from the walk, against the LabeledTree path


def _twin_rngs(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def _marks(n_points):
    return [S(j) for j in range(1, n_points + 1)]


def _labeled_tree_matrices(seq, n_points, n_reps, rng, measure=None):
    out = []
    for _ in range(n_reps):
        tree = sample_d_tree(seq, rng)
        points = (_marks(n_points) if measure is None
                  else measure.sample(rng, n_points))
        out.append(tree_distance_matrix(tree, points).astype(float))
    return np.array(out)


@pytest.mark.parametrize("degrees, n_points", [
    ([2] * 8 + [0] * 10, 5), ([2] * 64 + [0] * 66, 5), ([2] * 16 + [0] * 18, 3),
    ([3, 3, 2, 1, 1] + [0] * 7, 4), ([4, 3, 1] + [0] * 7, 6),
    ([2] * 8 + [0] * 10, 1), ([1, 1, 0, 0], 1), ([0, 0], 1)])
def test_d_tree_walk_matrices_match_labeled_tree(degrees, n_points):
    # ([4, 3, 1] + 7 zeros, 6) needs the closing leaf; n_points = 1 no pair
    seq = validate(degrees, "tree")
    for seed in range(3):
        a, b = _twin_rngs(seed)
        mats, w = gp_matrix_sample({"model": "d-tree", "params": seq},
                                   n_points, 50, a)
        assert np.array_equal(mats, _labeled_tree_matrices(seq, n_points, 50, b))
        assert np.all(w == 1)
        assert a.random() == b.random()


@pytest.mark.parametrize("degrees", [[2, 2, 1, 0, 0, 0, 0],
                                     [3, 3, 2, 1, 1] + [0] * 7,
                                     [3, 0, 0, 0, 0], [0, 0]])
def test_d_tree_walk_matrices_measure_mode(degrees):
    seq = validate(degrees, "tree")
    labels = ([S(j) for j in range(seq.n_zero)]
              + [V(i + 1) for i, d in enumerate(degrees) if d])
    measure = VertexMeasure({v: 1.0 + i for i, v in enumerate(labels)})
    for seed in range(3):
        a, b = _twin_rngs(seed)
        mats, _ = gp_matrix_sample({"model": "d-tree", "params": seq}, 4, 50,
                                   a, measure=measure)
        assert np.array_equal(
            mats, _labeled_tree_matrices(seq, 4, 50, b, measure))
        assert a.random() == b.random()


@pytest.mark.parametrize("pvec", [PVector((0.5, 0.3, 0.2)),
                                  PVector((0.5, 0.25, 0.125), 0.125)])
@pytest.mark.parametrize("n_points", [1, 5])
def test_p_tree_walk_matrices_match_grown_tree(pvec, n_points):
    for seed in range(3):
        a, b = _twin_rngs(seed)
        mats, _ = gp_matrix_sample({"model": "p-tree", "params": pvec},
                                   n_points, 50, a)
        ref = []
        for _ in range(50):
            growth = PTreeGrowth(pvec, b)
            growth.grow(0, n_points)
            ref.append(tree_distance_matrix(growth.tree(), _marks(n_points)))
        assert np.array_equal(mats, np.array(ref, dtype=float))
        assert a.random() == b.random()


def test_pk_graph_matrices_are_the_glued_graph_distances():
    pvec = PVector((0.5, 0.3, 0.2))
    model = {"model": "pk-graph", "params": pvec, "k": 1, "n_steps": 8}
    a, b = _twin_rngs(5)
    mats, w = gp_matrix_sample(model, 3, 20, a)
    for m in mats:
        g = _sample_pk_glued(pvec, 1, 8, b, min_stars=5)
        assert g._walk is not None  # the matrix came from the walk
        assert np.array_equal(m, multigraph_distance_matrix(g, [S(3), S(4), S(5)]))
        assert np.array_equal(m, m.T)
        assert np.all(m[~np.eye(3, dtype=bool)] >= 2)  # distinct pendant leaves
    assert np.all(w == 1)
    assert a.random() == b.random()


# ---------------------------------------------------------------------------
# glued-graph matrices read from the walk, against the BFS


def _plain(g):
    """g rebuilt without its walk, for the BFS oracle."""
    return Multigraph([(u, v, m) for (u, v), m in g.edge_items()],
                      vertices=g.vertices)


@pytest.mark.parametrize("degrees, k", [
    ([2] * 10 + [0] * 12, 0), ([2] * 10 + [0] * 10, 1),   # streaming
    ([2] * 10 + [0] * 8, 2), ([3] * 4 + [0] * 4, 3),
    ([1, 1, 0, 0], 0), ([3, 2, 1, 1, 0, 0, 0], 1),        # table
    ([3, 3, 2, 0, 0, 0], 2), ([4, 3, 3, 0, 0, 0], 3), ([0, 0], 0)])
@pytest.mark.parametrize("measured", [False, True])
def test_dk_graph_matrices_are_the_glued_graph_distances(degrees, k, measured):
    # marks S_{2k+j}, or measure points over every vertex (V_i and the
    # stars that stay), against a BFS on the same draws
    seq = validate(degrees, "surplus", k=k)
    labels = sorted(samplers.sample_dk_graph(seq, rng_stream(0, 0)).vertices)
    measure = (VertexMeasure({v: 1.0 + i for i, v in enumerate(labels)})
               if measured else None)
    n_points = 6 if measured else min(3, seq.n_zero - 1)
    model = {"model": "dk-graph", "params": seq, "k": k}
    a, b = _twin_rngs(10 + k)
    mats, _ = gp_matrix_sample(model, n_points, 15, a, measure)
    for m in mats:
        g = samplers.sample_dk_graph(seq, b)
        points = (measure.sample(b, n_points) if measured
                  else [S(2 * k + j) for j in range(1, n_points + 1)])
        assert (g._walk is None) == (degrees == [0, 0])
        assert np.array_equal(m, multigraph_distance_matrix(_plain(g), points))
    assert a.random() == b.random()


@pytest.mark.parametrize("k", [0, 2, 3])
def test_pk_graph_walk_matrices_with_overflow_draws(k):
    pvec = PVector((0.5, 0.3), p_inf=0.2)
    model = {"model": "pk-graph", "params": pvec, "k": k, "n_steps": 12}
    a, b = _twin_rngs(20 + k)
    mats, _ = gp_matrix_sample(model, 4, 15, a)
    for m in mats:
        g = _sample_pk_glued(pvec, k, 12, b, min_stars=2 * k + 4)
        points = [S(2 * k + j) for j in range(1, 5)]
        assert np.array_equal(m, multigraph_distance_matrix(_plain(g), points))
    assert a.random() == b.random()


def test_shared_table_graph_reads_the_same_matrix_and_keeps_its_walk():
    seq = validate([3, 2, 1, 1, 0, 0, 0], "surplus", k=1)
    graphs = samplers.dk_table(seq).graphs
    rng = rng_stream(0, 0)
    drawn = [samplers.sample_dk_graph(seq, rng) for _ in range(50)]
    assert {id(h) for h in drawn} <= set(map(id, graphs))
    uses = Counter(map(id, drawn))
    g = next(h for h in drawn if uses[id(h)] > 1)  # one object, drawn again
    walk = copy.deepcopy(g._walk)
    points = sorted(g.vertices)
    first = _graph_matrix(g, points)
    assert np.array_equal(_graph_matrix(g, points), first)
    assert np.array_equal(first, multigraph_distance_matrix(_plain(g), points))
    assert g._walk == walk


def test_tree_matrix_typed_errors():
    seq = validate([1, 1, 0, 0], "tree")  # leaves S0 and S1 only
    model = {"model": "d-tree", "params": seq}
    with pytest.raises(InsufficientLeaves):  # refused before any draw
        gp_matrix_sample(model, 2, 1, rng_stream(0, 0))
    with pytest.raises(UnknownVertex):
        tree_distance_matrix(sample_d_tree(seq, rng_stream(0, 0)), _marks(2))
    unknown = VertexMeasure({V(9): 1.0})
    with pytest.raises(UnknownVertex):
        gp_matrix_sample(model, 2, 1, rng_stream(0, 0), measure=unknown)
    with pytest.raises(UnknownVertex):
        tree_distance_matrix(sample_d_tree(seq, rng_stream(0, 0)), [V(9)])
    surplus = validate([1, 1], "surplus", k=1)
    with pytest.raises(ValidationError):
        gp_matrix_sample({"model": "d-tree", "params": surplus}, 1, 1,
                         rng_stream(0, 0))


def test_empty_and_one_mark_matrices_keep_their_shapes():
    # every mark matrix comes from one climb loop; with no pair to climb
    # it must still give the empty, or the one-zero, matrix of its type
    seq = validate([2, 1, 0, 0, 0], "tree")
    tree = sample_d_tree(seq, rng_stream(0, 0))
    empty = tree_distance_matrix(tree, [])
    assert empty.shape == (0, 0) and empty.dtype == np.int64
    one = tree_distance_matrix(tree, [S(1)])
    assert one.tolist() == [[0]] and one.dtype == np.int64
    metric = sample_icrt(BROWNIAN, rng_stream(0, 1), n_points=3).tree()
    assert metric.mark_distance_matrix([]) == []
    assert metric.mark_distance_matrix([2]) == [[0]]
    model = {"model": "d-tree", "params": seq}
    with pytest.raises(InsufficientLeaves):  # two star marks, even for no rep
        gp_matrix_sample(model, 3, 0, rng_stream(0, 2))
    mats, weights = gp_matrix_sample(model, 2, 0, rng_stream(0, 2))
    assert mats.shape == (0, 2, 2) and weights.shape == (0,)
    mats, _ = gp_matrix_sample(model, 1, 4, rng_stream(0, 2))
    assert mats.tolist() == [[[0.0]]] * 4


@pytest.mark.parametrize("model", [
    {"model": "d-tree", "params": validate([2, 1, 0, 0, 0], "tree")},
    {"model": "dk-graph", "params": validate([2, 2, 2, 0, 0, 0], "surplus",
                                             k=1), "k": 1},
    {"model": "p-tree", "params": PVector((0.5, 0.5))},
    {"model": "pk-graph", "params": PVector((0.5, 0.5)), "k": 1},
    {"model": "icrt", "params": BROWNIAN},
    {"model": "icrg", "params": BROWNIAN},
    {"model": "icrg", "params": BROWNIAN, "k": 1}],
    ids=lambda m: f"{m['model']}-k{m.get('k', 0)}")
def test_gp_matrix_sample_rejects_bad_counts_before_any_draw(model):
    # n_points = 0 gave an IndexError, "need at least one cut" or empty
    # matrices by model, and a negative count numpy's bare ValueError
    rng = rng_stream(10, 4)
    state = rng.bit_generator.state
    for n_points, n_reps in ((0, 3), (-1, 3), (2, -1)):
        with pytest.raises(ValidationError, match="n_points >= 1 and n_reps"):
            gp_matrix_sample(model, n_points, n_reps, rng)
    assert rng.bit_generator.state == state
    mats, weights = gp_matrix_sample(model, 2, 0, rng)
    assert mats.shape == (0, 2, 2) and weights.shape == (0,)
    assert rng.bit_generator.state == state


_TREE = validate([2, 1, 0, 0, 0], "tree")


_UNKNOWN = (2, ValidationError, "unknown (model|scale)")


@pytest.mark.parametrize("model,n_points,error,cause", [
    ({"model": "cm", "params": validate([3, 2, 2, 1], "half-edge")},
     *_UNKNOWN),
    ({"model": "mult", "params": (1.0, [1.0, 0.5])}, *_UNKNOWN),
    ({"model": "mult-multi", "params": (1.0, [1.0, 0.5])}, *_UNKNOWN),
    ({"model": "nonsense", "params": _TREE}, *_UNKNOWN),
    ({"model": "d-tree", "params": _TREE, "scale": "lamda"}, *_UNKNOWN),
    ({"model": "d-tree", "params": _TREE, "scale": 2.0}, *_UNKNOWN),
    ({"model": "d-tree", "params": PVector((0.5, 0.5))}, 2, ValidationError,
     "'d-tree' at scale 'none' takes no PVector"),
    ({"model": "p-tree", "params": PVector((0.5, 0.5)), "scale": "lambda"},
     2, ValidationError, "'p-tree' at scale 'lambda' takes no PVector"),
    ({"model": "icrg", "params": BROWNIAN, "scale": "sigma"}, 2,
     ValidationError, "'icrg' at scale 'sigma' takes no ThetaVector"),
    ({"model": "dk-graph", "params": validate([2, 2, 2, 0, 0, 0], "surplus",
                                              k=1), "k": 2},
     2, ValidationError, "has k = 2, but its degree sequence has surplus k = 1"),
    ({"model": "d-tree", "params": validate([2, 0, 0, 0], "tree")}, 3,
     InsufficientLeaves, "supplies 2 star marks, fewer than the 3 points"),
    ({"model": "d-tree", "params": validate([2, 2, 2, 0, 0, 0], "surplus",
                                            k=1)},
     2, ValidationError, "needs a tree-kind degree sequence, not surplus"),
    ({"model": "dk-graph", "params": _TREE}, 2, ValidationError,
     "needs a surplus-kind degree sequence, not tree"),
    *(({"model": "dk-graph", "params": validate([2 * k - 1], "surplus", k=k),
        "k": k}, 1, InsufficientLeaves,
       "supplies 0 star marks, fewer than the 1 points") for k in (1, 2, 3))],
    ids=["cm", "mult", "mult-multi", "nonsense", "scale-lamda", "scale-2.0",
         "d-tree-p", "lambda-p", "sigma-theta", "dk-graph-k", "star-marks",
         "d-tree-surplus", "dk-graph-tree", "zero-free-k1", "zero-free-k2",
         "zero-free-k3"])
def test_gp_matrix_sample_rejects_unknown_model_or_scale_before_any_draw(
        model, n_points, error, cause):
    # the model name was checked only when drawing, so n_reps = 0 gave
    # empty arrays, and a misspelt scale escaped float() as a ValueError;
    # params of another type raised AttributeError, a dk-graph k unlike its
    # sequence's and too few star marks "S3 not in tree" after drawing, and
    # a sequence of the wrong kind was refused only by the sampler; a
    # zero-free surplus sequence was said to supply -1 star marks
    rng = rng_stream(10, 5)
    state = rng.bit_generator.state
    for bad_points, n_reps in ((0, 3), (-1, 3), (2, -1)):
        with pytest.raises(ValidationError):
            gp_matrix_sample(model, bad_points, n_reps, rng)
    for n_reps in (0, 3):
        with pytest.raises(error, match=cause):
            gp_matrix_sample(model, n_points, n_reps, rng)
    assert rng.bit_generator.state == state


def test_icrt_matrices_are_the_k0_icrg_and_sb_build_matrices():
    # an ICRT draw goes through the ICRG branch at k = 0, whatever k the
    # model names, and reads the matrix of sb_build's tree on the same draws
    n_points, n_reps = 4, 6
    mats, weights = gp_matrix_sample({"model": "icrt", "params": BROWNIAN,
                                      "k": 2}, n_points, n_reps,
                                     rng_stream(3, 0))
    again, w0 = gp_matrix_sample({"model": "icrg", "params": BROWNIAN},
                                 n_points, n_reps, rng_stream(3, 0))
    assert mats.tobytes() == again.tobytes()
    assert weights.tolist() == w0.tolist() == [1.0] * n_reps
    rng = rng_stream(3, 0)
    for m in mats:
        tree = sample_icrt(BROWNIAN, rng, n_points=n_points).tree()
        want = tree.mark_distance_matrix(range(1, n_points + 1))
        assert m.tolist() == [[float(x) for x in row] for row in want]


@pytest.mark.parametrize("model", [
    {"model": "p-tree", "params": PVector((0.5, 0.5))},
    {"model": "pk-graph", "params": PVector((0.5, 0.5)), "k": 1},
    {"model": "icrt", "params": BROWNIAN},
    {"model": "icrg", "params": BROWNIAN, "k": 1}])
def test_measure_rejected_by_models_without_vertices(model):
    rng = rng_stream(0, 0)
    state = rng.bit_generator.state
    with pytest.raises(ValidationError):
        gp_matrix_sample(model, 2, 3, rng, measure=VertexMeasure({V(1): 1.0}))
    assert rng.bit_generator.state == state


# ---------------------------------------------------------------------------
# the permutation test as one product, against per-permutation block means


def _block_mean_permutation_test(x, y, n_perms, rng):
    """One np.ix_ block-mean statistic per permutation.  Each group's
    indices are sorted, so a permutation that repeats the observed split
    repeats the observed value bit for bit, as in the product form."""
    pooled = np.concatenate([x, y])
    n, total = len(x), len(pooled)
    dm = cdist(pooled, pooled)

    def stat(ix, iy):
        a = dm[np.ix_(ix, iy)].mean()
        b = dm[np.ix_(ix, ix)].mean()
        c = dm[np.ix_(iy, iy)].mean()
        return 2 * a - b - c

    observed = stat(np.arange(n), np.arange(n, total))
    stats = np.empty(n_perms)
    for i in range(n_perms):
        perm = rng.permutation(total)
        stats[i] = stat(np.sort(perm[:n]), np.sort(perm[n:]))
    p = (1 + np.sum(stats >= observed)) / (n_perms + 1)
    return float(observed), float(p), float(np.quantile(stats, 0.95))


@pytest.mark.parametrize("n, m, dim, seeds, shift", [
    (300, 1200, 10, [0], 0.0), (300, 1200, 10, [1], 0.4),
    (7, 3, 2, range(6), 0.0), (7, 3, 2, range(6), 0.4),
    (3, 7, 1, range(6), 0.0), (3, 7, 1, range(6), 0.4)])
def test_permutation_test_matches_block_means(n, m, dim, seeds, shift):
    # 7 vs 3 rows have 120 splits, so 199 permutations repeat the observed one
    for seed in seeds:
        data = np.random.default_rng(100 + seed)
        x = data.normal(size=(n, dim))
        y = data.normal(size=(m, dim)) + shift
        a, b = _twin_rngs(seed)
        observed, p, thresh = permutation_energy_test(x, y, 199, a)
        ref_observed, ref_p, ref_thresh = _block_mean_permutation_test(x, y, 199, b)
        assert p == ref_p
        assert observed == pytest.approx(ref_observed, rel=1e-12)
        assert thresh == pytest.approx(ref_thresh, rel=1e-12)
        assert a.random() == b.random()


def test_permutation_test_typed_errors():
    rng = rng_stream(8, 1)
    state = rng.bit_generator.state
    x, y = np.ones((3, 2)), np.zeros((4, 2))
    for args in [(x, y, 0), (x[:0], y, 99), (x, y[:0], 99)]:
        with pytest.raises(ValidationError):
            permutation_energy_test(*args, rng)
    assert rng.bit_generator.state == state
