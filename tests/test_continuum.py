import math
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as scistats

from surpluslab import errors, experiments
from surpluslab.continuum import (GluedSpace, MetricTree, _core_length,
                                  _mark_matrix, _rooted, _segment_tree,
                                  core_measure, metric_glue,
                                  sample_icrg_weighted, sample_icrt, sb_build,
                                  two_point_glue_matrix)
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


def test_k1_icrg_core_is_rayleigh():
    # at theta = (theta0 = 1) the k = 1 core, the distance between marks 1
    # and 2, is Rayleigh(1): within the DKW bound of its CDF 1 - e^{-x^2/2}
    # at alpha = 1e-3, and its mean within 4 standard errors of sqrt(pi/2).
    # The weighted (half-normal) side is left out: 1/length has infinite
    # variance
    n, alpha = 20_000, 1e-3
    rng = experiments.rng_stream(0, 0)
    lengths = np.array([1 / sample_icrg_weighted(BROWNIAN, 1, rng,
                                                 n_points=2).weight
                        for _ in range(n)])
    dkw = math.sqrt(math.log(2 / alpha) / (2 * n))
    assert scistats.kstest(lengths, "rayleigh").statistic < dkw
    se = math.sqrt((4 - math.pi) / 2 / n)
    assert abs(lengths.mean() - math.sqrt(math.pi / 2)) < 4 * se


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


def test_realization_json():
    rng = np.random.default_rng(12)
    real = sample_icrt(ThetaVector(0.6, (0.8,)), rng, n_points=3)
    import json
    obj = json.loads(real.to_json())
    assert set(obj) == {"cuts", "anchors", "atoms", "theta0", "mu_infinite"}
    assert obj["mu_infinite"] is True
    assert len(obj["cuts"]) >= 3


# ---------------------------------------------------------------------------
# the segment tree that sampling reads, against the node complex


THETAS = [BROWNIAN, ThetaVector(theta0=0.5, theta=(0.5, 0.5, 0.5)),
          ThetaVector(theta0=0.0, theta=(0.8, 0.6))]


@st.composite
def cuts_and_anchors(draw):
    """The float cuts and anchors of a sampled realization (atoms make hub
    anchors), or exact Fraction cuts whose anchors may repeat or hit nodes."""
    if draw(st.booleans()):
        real = sample_icrt(draw(st.sampled_from(THETAS)),
                           np.random.default_rng(draw(st.integers(0, 2 ** 32))),
                           n_points=draw(st.integers(1, 8)))
        return real.cuts, real.anchors
    steps = draw(st.lists(st.tuples(st.integers(1, 9), st.integers(1, 6)),
                          min_size=1, max_size=8))
    cuts = list(accumulate(Fraction(a, b) for a, b in steps))
    anchors = []
    for y in cuts[:-1]:
        nodes = [Fraction(0)] + [c for c in cuts if c <= y] + anchors
        anchors.append(draw(st.sampled_from(nodes))
                       if draw(st.booleans())
                       else Fraction(draw(st.integers(0, 4)), 4) * y)
    return cuts, anchors


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(cuts_and_anchors(), st.integers(0, 3), st.data())
def test_segment_tree_matches_the_node_complex_exactly(case, k, data):
    cuts, anchors = case
    k = min(k, len(cuts) // 2)
    labels = data.draw(st.lists(st.integers(0, len(cuts)), min_size=1,
                                unique=True))  # any order, origin included
    n = data.draw(st.integers(max(labels + [2 * k, 1]), len(cuts)))
    segments = _segment_tree(cuts, anchors, n)
    tree = sb_build(cuts, anchors)
    pairs = [(2 * i - 1, 2 * i) for i in range(1, k + 1)]
    # == on every float: the same sums in the same order, not a tolerance
    assert _mark_matrix(segments, labels, k) == \
        GluedSpace(tree, pairs).mark_distance_matrix(labels)
    assert _mark_matrix(segments, labels) == tree.mark_distance_matrix(labels)
    parent, length, node = segments
    rooted = _rooted(parent, length, node[1])
    for c in range(1, k + 1):
        assert _core_length(*rooted, node[1:2 * c + 1]) == core_measure(tree, c)


@pytest.mark.parametrize("theta", THETAS)
def test_icrg_weight_and_payload_are_the_node_complex_values(theta):
    rng = np.random.default_rng(14)
    for k in range(4):
        for _ in range(25):
            ws = sample_icrg_weighted(theta, k, rng, n_points=2 * k + 3)
            tree = ws.realization.tree()
            weight = 1.0
            for i in range(1, k + 1):
                weight /= float(core_measure(tree, i))
            assert ws.weight == weight
            labels = list(range(2 * k + 3, 0, -1))
            assert _mark_matrix(ws._segments, labels, k) == \
                ws.payload.mark_distance_matrix(labels)


def test_icrt_and_icrg_sampling_build_no_metric_tree(monkeypatch):
    built = []
    init = MetricTree.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(MetricTree, "__init__", counting_init)
    rng = np.random.default_rng(15)
    experiments.gp_matrix_sample({"model": "icrt", "params": BROWNIAN}, 5, 20, rng)
    experiments.gp_matrix_sample({"model": "icrg", "params": BROWNIAN, "k": 1},
                                 5, 20, rng)
    ws = sample_icrg_weighted(BROWNIAN, 2, rng, n_points=6)
    assert built == []
    base = ws.payload.base  # built on first access, then kept
    assert built == [base] and ws.payload.base is base
    assert base.mark_distance_matrix(range(1, 7)) == _mark_matrix(
        _segment_tree(ws.realization.cuts, ws.realization.anchors, 6),
        range(1, 7))


def test_icrg_negative_k_is_a_validation_error():
    rng = np.random.default_rng(16)
    state = rng.bit_generator.state
    with pytest.raises(errors.ValidationError):
        sample_icrg_weighted(BROWNIAN, -1, rng, n_points=3)
    assert rng.bit_generator.state == state  # rejected before any draw
