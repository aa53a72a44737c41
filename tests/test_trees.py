import itertools
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from surpluslab import errors
from surpluslab.labels import internal as V, overflow, star as S
from surpluslab.params import PVector, validate
from surpluslab.trees import (LabeledTree, PTreeGrowth, enumerate_d_tree_keys,
                              enumerate_d_trees, multiset_arrangements,
                              sample_d_tree, sample_d_tree_keys,
                              sample_d_tuple, sample_p_tree_prefix,
                              stick_break_tree, tree_count,
                              tree_distance_matrix, tree_from_key,
                              _base_multiset, _stick_break_key)

EX12 = validate([1, 2, 1, 3, 3, 0, 0, 0, 0, 0, 0, 0], "tree")
EX12_TUPLE = (V(4), V(5), V(2), V(5), V(3), V(4), V(5), V(4), V(1), V(2))


def test_sample_d_tuple_trivial():
    rng = np.random.default_rng(0)
    assert sample_d_tuple(validate([0, 0], "tree"), rng) == ()
    assert sample_d_tuple(validate([2, 0, 0, 0], "tree"), rng) == (V(1), V(1))


def test_sample_d_tuple_two_orders_balanced():
    rng = np.random.default_rng(1)
    seq = validate([1, 1, 0, 0], "tree")
    n = 10 ** 4
    hits = sum(sample_d_tuple(seq, rng) == (V(1), V(2)) for _ in range(n))
    sd = (n * 0.25) ** 0.5
    assert abs(hits - n / 2) < 3 * sd


def test_stick_break_worked_trace():
    tree = stick_break_tree(EX12, EX12_TUPLE)
    assert [tree.degree(V(i)) for i in range(1, 6)] == [2, 3, 2, 4, 4]
    assert tree.star_leaves() == [S(j) for j in range(7)]
    expected = LabeledTree([
        (S(0), V(4)), (V(4), V(5)), (V(5), V(2)), (V(2), S(1)),
        (V(5), V(3)), (V(3), S(2)), (V(4), S(3)), (V(5), S(4)),
        (V(4), V(1)), (V(1), S(5)), (V(2), S(6))])
    assert tree == expected


def test_stick_break_small_cases():
    star_tree = stick_break_tree(validate([2, 0, 0, 0], "tree"), (V(1), V(1)))
    assert sorted(star_tree.neighbors(V(1))) == [S(0), S(1), S(2)]
    path = stick_break_tree(validate([1, 1, 0, 0], "tree"), (V(1), V(2)))
    assert path == LabeledTree([(S(0), V(1)), (V(1), V(2)), (V(2), S(1))])
    edge = stick_break_tree(validate([0, 0], "tree"), ())
    assert edge == LabeledTree([(S(0), S(1))])


def test_stick_break_tuple_mismatch():
    with pytest.raises(errors.TupleMismatch):
        stick_break_tree(validate([1, 1, 0, 0], "tree"), (V(1), V(1)))


def test_sample_d_tree_invariants():
    rng = np.random.default_rng(2)
    for degs in [(1, 2, 1, 3, 3) + (0,) * 7, (3, 2, 1, 0, 0, 0, 0, 0),
                 (1, 1, 1, 1, 0, 0)]:
        seq = validate(list(degs), "tree")
        for _ in range(20):
            tree = sample_d_tree(seq, rng)
            for i, d in enumerate(seq.degrees, start=1):
                if d > 0:
                    assert tree.degree(V(i)) == d + 1
            stars = tree.star_leaves()
            assert stars == [S(j) for j in range(seq.N + 2)]
            assert all(tree.degree(s) == 1 for s in stars)


def test_enumerate_counts():
    assert tree_count(validate([0, 0], "tree")) == 1
    assert len(list(enumerate_d_trees(validate([0, 0], "tree")))) == 1
    assert len(list(enumerate_d_trees(validate([1, 1, 0, 0], "tree")))) == 2
    assert tree_count(EX12) == 50400


def test_enumerate_cap():
    with pytest.raises(errors.TooLarge):
        list(enumerate_d_trees(EX12, cap=1000))


def test_enumeration_matches_stick_breaking_bijection():
    # Pruefer decoding and the branching walk hit the same tree set, once each
    for degs in [(1, 1, 0, 0), (2, 1, 0, 0, 0), (2, 2, 0, 0, 0, 0)]:
        seq = validate(list(degs), "tree")
        enum_keys = list(enumerate_d_tree_keys(seq))
        assert len(enum_keys) == len(set(enum_keys)) == tree_count(seq)
        walk_keys = {_stick_break_key(t)
                     for t in multiset_arrangements(_base_multiset(seq))}
        assert set(enum_keys) == walk_keys


@pytest.mark.parametrize("items", [[], [3], [1, 1], [2, 1, 2, 3], [1, 1, 2, 2, 3]])
def test_multiset_arrangements_distinct_and_lexicographic(items):
    # the (D,k) table's index draws read the arrangements in this order
    assert (list(multiset_arrangements(items))
            == sorted(set(itertools.permutations(items))))


def test_d_tree_keys_of_empty_multiset_draw_nothing():
    # [0, 0] has one tree, the edge S0-S1; two batches, no generator draw
    rng = np.random.default_rng(8)
    state = rng.bit_generator.state
    assert sample_d_tree_keys(validate([0, 0], "tree"), 25000, rng) == {
        ((-2, -1),): 25000}
    assert rng.bit_generator.state == state


def test_uniformity_quick():
    rng = np.random.default_rng(3)
    for degs in [(1, 1, 0, 0), (2, 1, 0, 0, 0)]:
        seq = validate(list(degs), "tree")
        keys = list(enumerate_d_tree_keys(seq))
        n = 2 * 10 ** 5
        counts = sample_d_tree_keys(seq, n, rng)
        assert set(counts) <= set(keys)
        tv = 0.5 * sum(abs(counts.get(k, 0) / n - 1 / len(keys)) for k in keys)
        assert tv < 0.01


def test_p_tree_single_atom_star():
    rng = np.random.default_rng(4)
    tree, record = sample_p_tree_prefix(PVector((1.0,)), 3, rng)
    assert record == (V(1), V(1), V(1))
    assert sorted(tree.neighbors(V(1))) == [S(0), S(1), S(2)]


def test_p_tree_first_edge_law():
    rng = np.random.default_rng(5)
    pvec = PVector((0.5, 0.5))
    n = 10 ** 4
    hits = 0
    for _ in range(n):
        tree, _ = sample_p_tree_prefix(pvec, 2, rng)
        if V(1) in tree and S(0) in tree.neighbors(V(1)):
            hits += 1
    assert abs(hits - n / 2) < 3 * (n * 0.25) ** 0.5


def test_p_tree_pure_overflow_is_path():
    rng = np.random.default_rng(6)
    tree, record = sample_p_tree_prefix(PVector((), p_inf=1.0), 5, rng)
    assert record == tuple(overflow(i) for i in range(1, 6))
    assert tree == LabeledTree(
        [(S(0), overflow(1))] +
        [(overflow(i), overflow(i + 1)) for i in range(1, 5)])
    # with atoms too, an overflow draw is named by its position in the record
    growth = PTreeGrowth(PVector((0.5,), p_inf=0.5), rng)
    for _ in range(20):
        growth.step()
    kinds = {v.kind for v in growth.record}
    assert kinds == {"V", "Vinf"}
    assert all(v == overflow(i) for i, v in enumerate(growth.record, 1)
               if v.kind == "Vinf")


def test_p_tree_pure_overflow_star_quota_fails_fast():
    # no draw repeats when p is empty, so no quota beyond S0 is reachable
    growth = PTreeGrowth(PVector((), p_inf=1.0), np.random.default_rng(7))
    growth.grow_until_stars(0)
    with pytest.raises(errors.ValidationError):
        growth.grow_until_stars(1)
    assert growth.record == []


def _prefix_law(pvec, n_steps):
    """Exact law of the n-step tree by exhaustive tuple enumeration."""
    law = Counter()
    probs = [Fraction(2, 3), Fraction(1, 3)]
    for tup in itertools.product((1, 2), repeat=n_steps):
        p = Fraction(1)
        for i in tup:
            p *= probs[i - 1]
        growth_edges = []
        seen = set()
        prev = None
        stars = 0
        for i in tup:
            b = V(i)
            if prev is None:
                growth_edges.append((S(0), b))
                seen.add(b)
            elif b not in seen:
                growth_edges.append((prev, b))
                seen.add(b)
            else:
                stars += 1
                growth_edges.append((prev, S(stars)))
            prev = b
        law[LabeledTree(growth_edges).edge_key()] += p
    return law


def test_p_tree_prefix_consistency():
    # the first-n-steps marginal of a longer run equals the n-step law
    pvec = PVector((2 / 3, 1 / 3))
    exact3 = _prefix_law(pvec, 3)
    exact5 = _prefix_law(pvec, 5)  # same construction, longer tuples
    marginal = Counter()
    probs = [Fraction(2, 3), Fraction(1, 3)]
    for tup in itertools.product((1, 2), repeat=5):
        p = Fraction(1)
        for i in tup:
            p *= probs[i - 1]
        prefix_key = None
        growth_edges = []
        seen = set()
        prev = None
        stars = 0
        for step, i in enumerate(tup, start=1):
            b = V(i)
            if prev is None:
                growth_edges.append((S(0), b))
                seen.add(b)
            elif b not in seen:
                growth_edges.append((prev, b))
                seen.add(b)
            else:
                stars += 1
                growth_edges.append((prev, S(stars)))
            prev = b
            if step == 3:
                prefix_key = LabeledTree(growth_edges).edge_key()
        marginal[prefix_key] += p
    assert marginal == exact3
    assert sum(exact5.values()) == 1


def test_tree_distance_matrix():
    path = LabeledTree([(S(0), V(1)), (V(1), V(2)), (V(2), S(1))])
    mat = tree_distance_matrix(path, [S(0), S(1)])
    assert mat.tolist() == [[0, 3], [3, 0]]
    assert tree_distance_matrix(path, [V(1), V(1)]).tolist() == [[0, 0], [0, 0]]
    ex = stick_break_tree(EX12, EX12_TUPLE)
    # S0-V4-V5-V2-S1 is the white-to-black exploration path
    assert ex.distance(S(0), S(1)) == 4
    with pytest.raises(errors.UnknownVertex):
        tree_distance_matrix(path, [V(9)])


def test_tree_distance_unknown_endpoint():
    tree = stick_break_tree(EX12, EX12_TUPLE)
    with pytest.raises(errors.UnknownVertex):
        tree.distance(S(0), V(9))


def test_tree_json_roundtrip():
    tree = stick_break_tree(EX12, EX12_TUPLE)
    assert LabeledTree.from_json(tree.to_json()) == tree


def test_tree_from_key_consistency():
    seq = validate([2, 1, 0, 0, 0], "tree")
    keys = list(enumerate_d_tree_keys(seq))
    trees = {tree_from_key(k) for k in keys}
    assert len(trees) == len(keys)
    assert trees == set(enumerate_d_trees(seq))
