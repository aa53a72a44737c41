import itertools
import sys
from fractions import Fraction

import numpy as np
import pytest

from surpluslab import errors
from surpluslab.continuum import core_measure, sample_icrt
from surpluslab.params import ThetaVector
from surpluslab.reconstruct import (DEFAULT_TOL, _build, _validate_matrix,
                                    check_four_point, core_measure_from_matrix,
                                    gromov_height, reconstruct)

BROWNIAN = ThetaVector(theta0=1.0)
UNIT_SQUARE = [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]]


def test_gromov_height_star():
    m = [[0, 2, 2], [2, 0, 2], [2, 2, 0]]
    assert gromov_height(m, 0, 1, 2) == 1.0


def test_gromov_height_collinear():
    # a--c--b on a path: height from a to the median equals d(a,c)
    m = [[0, 5, 2], [5, 0, 3], [2, 3, 0]]
    assert gromov_height(m, 0, 1, 2) == 2.0


def test_gromov_height_matches_tree_median():
    rng = np.random.default_rng(0)
    for _ in range(10):
        tree = sample_icrt(BROWNIAN, rng, n_points=5).tree()
        labels = [1, 2, 3, 4, 5]
        m = tree.mark_distance_matrix(labels)
        for a, b, c in itertools.permutations(range(5), 3):
            h = gromov_height(m, a, b, c)
            # median of (a,b,c) sits on the a-b path at distance h from a
            pab = tree.path_edges(tree.node_of(labels[a]), tree.node_of(labels[b]))
            pac = tree.path_edges(tree.node_of(labels[a]), tree.node_of(labels[c]))
            shared = sum(tree._adj[u][v] for e in (pab & pac)
                         for u, v in [tuple(e)])
            assert h == pytest.approx(shared, abs=1e-12)


def test_gromov_height_guards():
    m = [[0, 1], [1, 0]]
    with pytest.raises(errors.IndexOutOfRange):
        gromov_height(m, 0, 1, 2)
    with pytest.raises(errors.ValidationError):
        gromov_height([[0, 1, 1], [1, 0, 1], [1, 1, 0]], 0, 1, 1)


def test_four_point_tree_matrices_pass():
    rng = np.random.default_rng(1)
    for _ in range(10):
        tree = sample_icrt(BROWNIAN, rng, n_points=6).tree()
        ok, _ = check_four_point(tree.mark_distance_matrix(range(1, 7)))
        assert ok


def test_four_point_rejects_square():
    ok, witness = check_four_point(UNIT_SQUARE)
    assert not ok
    assert witness == (0, 1, 2, 3)


def test_four_point_trivial_below_quadruples():
    ok, witness = check_four_point([[0, 1, 5], [1, 0, 5], [5, 5, 0]])
    assert ok and witness is None


def test_reconstruct_two_leaves():
    tree = reconstruct([[0, 5], [5, 0]])
    assert tree.distance(tree.node_of(1), tree.node_of(2)) == 5


def test_reconstruct_quartet():
    m = [[0, 2, 3, 3], [2, 0, 3, 3], [3, 3, 0, 2], [3, 3, 2, 0]]
    tree = reconstruct(m)
    got = tree.mark_distance_matrix([1, 2, 3, 4])
    assert np.allclose(got, m)
    steiner = [v for v in tree.nodes() if tree.degree(v) >= 3]
    assert len(steiner) == 2
    assert tree.distance(steiner[0], steiner[1]) == pytest.approx(1.0)


def test_reconstruct_roundtrip_random_trees():
    rng = np.random.default_rng(2)
    for _ in range(30):
        n_leaves = int(rng.integers(3, 13))
        tree = sample_icrt(BROWNIAN, rng, n_points=n_leaves).tree()
        labels = list(range(1, n_leaves + 1))
        m = tree.mark_distance_matrix(labels)
        rec = reconstruct(m)
        got = rec.mark_distance_matrix(labels)
        assert np.max(np.abs(np.array(got) - np.array(m))) < 1e-9
        for i in labels:
            assert rec.degree(rec.node_of(i)) == 1
        for v in rec.nodes():
            if all(rec.node_of(i) != v for i in labels):
                assert rec.degree(v) >= 3


def test_reconstruct_degenerate_interior_mark():
    # mark 3 sits on the 1-2 geodesic: becomes an internal node, allowed
    m = [[0, 5, 2], [5, 0, 3], [2, 3, 0]]
    tree = reconstruct(m)
    assert tree.degree(tree.node_of(3)) == 2
    assert np.allclose(tree.mark_distance_matrix([1, 2, 3]), m)


def test_reconstruct_rejects_zero_distance():
    with pytest.raises(errors.ValidationError):
        reconstruct([[0, 0], [0, 0]])


def test_reconstruct_rejects_square():
    with pytest.raises(errors.FourPointViolation) as info:
        reconstruct(UNIT_SQUARE)
    assert info.value.witness == (0, 1, 2, 3)


def _reference(matrix):
    """The quadruple pass first, then the build, then every triangle: what
    reconstruct must match."""
    m = [list(row) for row in matrix]
    _validate_matrix(m)
    ok, witness = check_four_point(m)
    if not ok:
        raise errors.FourPointViolation(
            f"four-point condition fails on quadruple {witness}", witness=witness)
    tree = _build(m)
    for i, j in itertools.combinations(range(len(m)), 2):
        for k in range(len(m)):
            if k not in (i, j) and m[i][j] - m[i][k] - m[k][j] > DEFAULT_TOL:
                raise errors.TriangleViolation(
                    f"triangle inequality fails on triple {(i, j, k)}",
                    witness=(i, j, k))
    return tree


def _outcome(rebuild, matrix):
    try:
        tree = rebuild(matrix)
    except errors.ValidationError as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)
    return "tree", tree.edges(), tree.marks


def _noisy_icrt_matrices(rng, n_matrices, exact):
    """ICRT leaf matrices plus symmetric noise of 1e-11..1e-8, so that the
    four-point gaps straddle DEFAULT_TOL = 1e-9."""
    for _ in range(n_matrices):
        n = int(rng.integers(4, 11))
        tree = sample_icrt(BROWNIAN, rng, n_points=n).tree()
        m = tree.mark_distance_matrix(range(1, n + 1))
        scale = int(10 ** rng.uniform(1, 4))  # noise up to scale * 1e-12
        m = [[Fraction(x) if exact else x for x in row] for row in m]
        for i, j in itertools.combinations(range(n), 2):
            step = int(rng.integers(-scale, scale + 1))
            noise = Fraction(step, 10 ** 12) if exact else step * 1e-12
            m[i][j] = m[j][i] = m[i][j] + noise
        yield m


@pytest.mark.parametrize("exact", [False, True], ids=["float", "fraction"])
def test_reconstruct_agrees_with_four_point_then_build(exact):
    rng = np.random.default_rng(20 + exact)
    kinds = set()
    for m in _noisy_icrt_matrices(rng, 300 if exact else 600, exact):
        want = _outcome(_reference, m)
        assert _outcome(reconstruct, m) == want
        kinds.add(want[0])
    assert kinds == {"tree", errors.FourPointViolation}


def test_reconstruct_agrees_on_small_integer_matrices():
    # random distances 1..6 on 3..6 leaves: tree metrics, four-point
    # failures, matrices that pass the quadruple pass but fail the build,
    # and matrices that build but break a triangle
    rng = np.random.default_rng(22)
    messages = set()
    for trial in range(2000):
        n = int(rng.integers(3, 7))
        unit = Fraction(1) if trial % 2 else 1.0
        m = [[0] * n for _ in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            m[i][j] = m[j][i] = int(rng.integers(1, 7)) * unit
        want = _outcome(_reference, m)
        assert _outcome(reconstruct, m) == want
        messages.add("tree" if want[0] == "tree" else want[1].split()[0])
    assert messages == {"tree", "four-point", "negative", "attachment",
                        "triangle"}


@pytest.mark.parametrize("matrix", [
    [[0, 1, 1], [1, 0, 5], [1, 5, 0]],
    [[0, 1, 1, 1], [1, 0, 5, 5], [1, 5, 0, 5], [1, 5, 5, 0]],
], ids=["3-leaf", "4-leaf"])
def test_reconstruct_rejects_triangle_violation(matrix):
    # both pass the four-point check (three leaves have no quadruple; the
    # 4-leaf pairings all sum to 6), yet d(1,2) = 5 > d(1,0) + d(0,2) = 2:
    # no tree has this leaf matrix
    assert check_four_point(matrix) == (True, None)
    with pytest.raises(errors.TriangleViolation) as info:
        reconstruct(matrix)
    assert info.value.witness == (1, 2, 0)
    assert isinstance(info.value, errors.FourPointViolation)


def test_reconstruct_valid_input_skips_quadruple_pass(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("quadruple pass run on a tree metric")
    monkeypatch.setattr(sys.modules["surpluslab.reconstruct"],
                        "check_four_point", refuse)
    tree = sample_icrt(BROWNIAN, np.random.default_rng(6), n_points=40).tree()
    m = tree.mark_distance_matrix(range(1, 41))
    got = reconstruct(m).mark_distance_matrix(range(1, 41))
    assert np.max(np.abs(np.array(got) - np.array(m))) < 1e-9


def test_core_measure_from_matrix_single_pair():
    assert core_measure_from_matrix([[0, 7], [7, 0]]) == 7


def test_core_measure_matrix_agrees_with_geometry():
    rng = np.random.default_rng(3)
    for _ in range(20):
        tree = sample_icrt(BROWNIAN, rng, n_points=6).tree()
        m = tree.mark_distance_matrix(range(1, 7))
        for c in (1, 2, 3):
            sub = [row[:2 * c] for row in m[:2 * c]]
            assert abs(core_measure_from_matrix(sub)
                       - core_measure(tree, c)) < 1e-9


def test_core_measure_matrix_exact_homogeneity():
    m = [[Fraction(0), Fraction(5), Fraction(7), Fraction(6)],
         [Fraction(5), Fraction(0), Fraction(8), Fraction(7)],
         [Fraction(7), Fraction(8), Fraction(0), Fraction(5)],
         [Fraction(6), Fraction(7), Fraction(5), Fraction(0)]]
    lam = Fraction(7, 3)
    scaled = [[lam * x for x in row] for row in m]
    assert core_measure_from_matrix(scaled) == lam * core_measure_from_matrix(m)


def test_core_measure_matrix_permutation_covariant():
    rng = np.random.default_rng(4)
    tree = sample_icrt(BROWNIAN, rng, n_points=4).tree()
    m = np.array(tree.mark_distance_matrix([1, 2, 3, 4]))
    base = core_measure_from_matrix(m.tolist())
    # swapping within a pair
    swap = m[np.ix_([1, 0, 2, 3], [1, 0, 2, 3])]
    assert core_measure_from_matrix(swap.tolist()) == pytest.approx(base)
    # permuting whole pairs
    perm = m[np.ix_([2, 3, 0, 1], [2, 3, 0, 1])]
    assert core_measure_from_matrix(perm.tolist()) == pytest.approx(base)


@pytest.mark.parametrize("matrix,error", [
    ([[0, float("nan")], [float("nan"), 0]], "non-finite"),
    ([[0, 1], [float("inf"), 0]], "non-finite"),
    ([[0, -1], [-1, 0]], "negative"),
    ([[0, 1], [2, 0]], "symmetric"),
    ([[0, 1, 2], [1, 0, 1]], "square"),
], ids=["nan", "inf", "negative", "asymmetric", "ragged"])
def test_matrix_consumers_reject_non_metrics(matrix, error):
    for consumer in (reconstruct, core_measure_from_matrix):
        with pytest.raises(errors.ValidationError, match=error):
            consumer(matrix)


def test_core_measure_matrix_allows_zero_distances():
    # unlike reconstruct, the core length needs no distinct marks
    assert core_measure_from_matrix([[0, 0], [0, 0]]) == 0
    with pytest.raises(errors.ValidationError, match="zero distance"):
        reconstruct([[0, 0], [0, 0]])


def test_core_measure_matrix_rejects_square():
    with pytest.raises(errors.FourPointViolation):
        core_measure_from_matrix(UNIT_SQUARE)
