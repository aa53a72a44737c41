import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats as scistats

from surpluslab import errors
from surpluslab.continuum import (GluedSpace, MetricTree, core_measure,
                                  metric_glue, sample_icrg_weighted,
                                  sample_icrt, sampled_distance_matrix,
                                  sb_build, two_point_glue_matrix)
from surpluslab.params import ThetaVector
from surpluslab.reconstruct import check_four_point

BROWNIAN = ThetaVector(theta0=1.0)


def test_sb_single_segment():
    tree = sb_build([1.0])
    assert tree.distance(0.0, 1.0) == 1.0
    assert tree.marks == {0: 0.0, 1: 1.0}


def test_sb_branch_distance():
    tree = sb_build([1.0, 2.0], [0.5])
    assert tree.distance(tree.node_of(1), tree.node_of(2)) == pytest.approx(1.5)
    assert tree.distance(0.0, tree.node_of(2)) == pytest.approx(1.5)


def test_sb_same_branch_is_euclidean():
    tree = sb_build([3.0])
    marked = tree.with_uniform_marks(5, np.random.default_rng(0))
    nodes = [marked.node_of(f"U{j}") for j in range(5)]
    pos = {a: marked.distance(0.0, a) for a in nodes}
    for a in nodes:
        for b in nodes:
            assert marked.distance(a, b) == pytest.approx(abs(pos[a] - pos[b]))


def test_sb_validation():
    with pytest.raises(errors.CutsNotIncreasing):
        sb_build([2.0, 1.0], [0.5])
    with pytest.raises(errors.AnchorOutOfRange):
        sb_build([1.0, 2.0], [1.5])


def test_metric_tree_distance_unknown_endpoint():
    tree = sb_build([1.0, 2.0], [0.5])
    with pytest.raises(errors.UnknownMark):
        tree.distance(0, 7)


def test_metric_tree_without_edges_is_its_marked_node():
    tree = MetricTree([], {1: "x"})
    assert list(tree.nodes()) == ["x"] and tree.edges() == []
    assert tree.mark_distance_matrix([1]) == [[0]]
    with pytest.raises(errors.ValidationError):
        MetricTree([], {})


def test_path_edges_unknown_endpoint():
    tree = sb_build([1.0, 2.0], [0.5])
    with pytest.raises(errors.UnknownMark):
        tree.path_edges(0.0, 7)
    with pytest.raises(errors.UnknownMark):
        tree.path_edges(7, 0.0)


def test_glued_distance_unknown_endpoint():
    glued = GluedSpace(sb_build([1.0, 2.0], [0.5]), [(1, 2)])
    with pytest.raises(errors.UnknownMark):
        glued.distance(0.0, 7)
    with pytest.raises(errors.UnknownMark):
        glued.distance(7, 0.0)


def test_sb_repeated_anchor_makes_hub():
    tree = sb_build([1.0, 2.0, 3.0], [0.5, 0.5])
    assert tree.degree(0.5) == 4


def test_icrt_support_constraint_and_atoms():
    rng = np.random.default_rng(1)
    real = sample_icrt(BROWNIAN, rng, n_points=20)
    assert all(z <= y for y, z in real.points)
    single = ThetaVector(0.0, (1.0,))
    real = sample_icrt(single, rng, n_points=10)
    x1 = real.atoms[0][1]
    assert all(z == x1 for z in real.anchors)
    assert not real.mu_infinite


def test_icrt_first_cut_law():
    rng = np.random.default_rng(2)
    draws = np.array([sample_icrt(BROWNIAN, rng, n_points=1).points[0][0]
                      for _ in range(10 ** 4)])
    res = scistats.kstest(draws, lambda y: 1 - np.exp(-y ** 2 / 2))
    assert res.pvalue > 0.01


def test_icrt_cut_count_poisson():
    rng = np.random.default_rng(3)
    y = 1.4
    counts = np.array([len(sample_icrt(BROWNIAN, rng, y_max=y).points)
                       for _ in range(4000)])
    mean = y ** 2 / 2
    kmax = 7
    observed = np.bincount(np.minimum(counts, kmax), minlength=kmax + 1)
    probs = np.array([scistats.poisson.pmf(i, mean) for i in range(kmax)])
    probs = np.append(probs, 1 - probs.sum())
    res = scistats.chisquare(observed, probs * len(counts))
    assert res.pvalue > 0.01


def test_sampled_matrices_four_point():
    rng = np.random.default_rng(4)
    for _ in range(20):
        real = sample_icrt(BROWNIAN, rng, n_points=6)
        mat = real.tree().mark_distance_matrix(list(range(1, 7)))
        ok, witness = check_four_point(mat)
        assert ok, witness


def test_metric_glue_segment():
    tree = MetricTree([(0.0, 0.2, 0.2), (0.2, 0.9, 0.7), (0.9, 1.0, 0.1)])
    glued = metric_glue(tree, [(0.0, 1.0)])
    assert glued.distance(0.2, 0.9) == pytest.approx(0.3)
    same = metric_glue(tree, [(0.2, 0.2)])
    assert same.distance(0.0, 0.9) == tree.distance(0.0, 0.9)


def test_metric_glue_matches_iterated_formula():
    rng = np.random.default_rng(5)
    for _ in range(15):
        tree = sample_icrt(BROWNIAN, rng, n_points=5).tree()
        labels = [1, 2, 3, 4, 5]
        m = tree.mark_distance_matrix(labels)
        m2 = two_point_glue_matrix(two_point_glue_matrix(m, 0, 1), 2, 3)
        glued = GluedSpace(tree, [(1, 2), (3, 4)])
        mg = glued.mark_distance_matrix(labels)
        assert np.max(np.abs(np.array(m2) - np.array(mg))) < 1e-12


def test_metric_glue_order_invariance():
    rng = np.random.default_rng(6)
    for _ in range(15):
        tree = sample_icrt(BROWNIAN, rng, n_points=6).tree()
        labels = list(range(1, 7))
        a = GluedSpace(tree, [(1, 2), (3, 4)]).mark_distance_matrix(labels)
        b = GluedSpace(tree, [(3, 4), (1, 2)]).mark_distance_matrix(labels)
        assert np.max(np.abs(np.array(a) - np.array(b))) < 1e-12


def test_metric_glue_unknown_mark():
    tree = sb_build([1.0])
    with pytest.raises(errors.UnknownMark):
        metric_glue(tree, [(0, 99)])


def test_core_measure_whole_segment():
    tree = MetricTree([(0.0, 5.0, 5.0)], marks={1: 0.0, 2: 5.0})
    assert core_measure(tree, 1) == 5.0


def test_core_measure_disjoint_pairs_add():
    # two pendant paths of lengths 2 and 3 off a common hub
    tree = MetricTree([("h", "a1", 1.0), ("h", "a2", 1.0),
                       ("h", "b1", 1.5), ("h", "b2", 1.5)],
                      marks={1: "a1", 2: "a2", 3: "b1", 4: "b2"})
    assert core_measure(tree, 1) == pytest.approx(2.0)
    assert core_measure(tree, 2) - core_measure(tree, 1) == pytest.approx(3.0)


def test_core_measure_monte_carlo_oracle():
    rng = np.random.default_rng(7)
    real = sample_icrt(BROWNIAN, rng, n_points=8)
    tree = real.tree()
    exact = core_measure(tree, 2)
    union = tree.path_edges(tree.node_of(1), tree.node_of(2)) | \
        tree.path_edges(tree.node_of(3), tree.node_of(4))
    edges = tree.edges()
    lengths = np.array([w for _, _, w in edges])
    inside = np.array([frozenset((u, v)) in union for u, v, _ in edges])
    total = lengths.sum()
    n = 2 * 10 ** 6
    idx = rng.choice(len(edges), size=n, p=lengths / total)
    est = total * inside[idx].mean()
    assert abs(est - exact) / exact < 1e-2
    se = total * math.sqrt(0.25 / n)
    assert abs(est - exact) < 4 * se + 1e-12


def test_core_measure_missing_marks():
    tree = sb_build([1.0])
    with pytest.raises(errors.InsufficientMarks):
        core_measure(tree, 2)


def test_core_measure_exact_scaling():
    cuts = [Fraction(1), Fraction(3), Fraction(4)]
    anchors = [Fraction(1, 2), Fraction(2)]
    tree = sb_build(cuts, anchors)
    lam = Fraction(7, 3)
    scaled = sb_build([lam * c for c in cuts], [lam * a for a in anchors])
    for c in (1,):
        assert core_measure(scaled, c) == lam * core_measure(tree, c)
    # float mode stays within 1e-12 relative
    ftree = sb_build([float(c) for c in cuts], [float(a) for a in anchors])
    fscaled = sb_build([float(lam * c) for c in cuts],
                       [float(lam * a) for a in anchors])
    rel = abs(core_measure(fscaled, 1) - float(lam) * core_measure(ftree, 1))
    assert rel <= 1e-12 * core_measure(fscaled, 1)


def test_icrg_weight_semantics():
    rng = np.random.default_rng(8)
    ws = sample_icrg_weighted(BROWNIAN, 0, rng, n_points=4)
    assert ws.weight == 1.0
    for _ in range(30):
        ws = sample_icrg_weighted(BROWNIAN, 2, rng, n_points=6)
        assert 0 < ws.weight < math.inf
        tree = ws.realization.tree()
        prod = 1.0
        for i in (1, 2):
            prod *= core_measure(tree, i)
        assert ws.weight == pytest.approx(1 / prod)


def test_icrg_tail_vanishes():
    # E[h_m(weight)] decreasing in m and small by m = 100
    rng = np.random.default_rng(9)
    w = np.array([sample_icrg_weighted(BROWNIAN, 1, rng, n_points=2).weight
                  for _ in range(4000)])
    tails = [np.mean(np.where(w >= m, w, 0.0)) for m in (1.0, 10.0, 100.0)]
    assert tails[0] >= tails[1] >= tails[2]
    assert tails[2] < 0.05


def test_windowed_extension_preserves_law():
    # growing the horizon window by window is an exact simulation: the
    # cut count in [0, 2] has the same law either way
    rng = np.random.default_rng(13)
    direct = np.array([len(sample_icrt(BROWNIAN, rng, y_max=2.0).points)
                       for _ in range(4000)])
    from surpluslab.continuum import extend_icrt
    staged = []
    for _ in range(4000):
        real = sample_icrt(BROWNIAN, rng, y_max=0.5)
        extend_icrt(real, 1.0, rng)
        extend_icrt(real, 2.0, rng)
        staged.append(len(real.points))
    staged = np.array(staged)
    res = scistats.ks_2samp(direct, staged)
    assert res.pvalue > 0.01
    assert abs(direct.mean() - staged.mean()) < 0.15  # both Poisson(2)


def test_sampled_distance_matrix_basics():
    rng = np.random.default_rng(10)
    real = sample_icrt(BROWNIAN, rng, n_points=5)
    tree = real.tree()
    one = sampled_distance_matrix(tree, labels=[1])
    assert one.tolist() == [[0.0]]
    mat = sampled_distance_matrix(tree, labels=[1, 2, 3, 4, 5])
    n = len(mat)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert mat[i, j] <= mat[i, k] + mat[k, j] + 1e-12
    glued = GluedSpace(tree, [(1, 2)])
    gmat = sampled_distance_matrix(glued, labels=[1, 2, 3, 4, 5])
    assert (gmat <= mat + 1e-12).all()


def test_sampled_distance_matrix_uniform_positions():
    rng = np.random.default_rng(11)
    tree = sample_icrt(BROWNIAN, rng, n_points=5).tree()
    mat = sampled_distance_matrix(tree, n=4, rng=rng)
    assert mat.shape == (4, 4)
    assert np.allclose(mat, mat.T)
    assert np.all(np.diag(mat) == 0)


def test_realization_json():
    rng = np.random.default_rng(12)
    real = sample_icrt(ThetaVector(0.6, (0.8,)), rng, n_points=3)
    import json
    obj = json.loads(real.to_json())
    assert set(obj) == {"cuts", "anchors", "atoms", "theta0", "mu_infinite"}
    assert obj["mu_infinite"] is True
    assert len(obj["cuts"]) >= 3
