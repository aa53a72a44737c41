import bisect
import itertools
import math
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
                              _base_multiset, _climb, _climb_matrix,
                              _stick_break_key, _walk_base)

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


def test_stick_break_reads_a_one_pass_iterable_once():
    # a generator is checked and walked from one read: the star on V1, not
    # the empty tuple's edge S0 - S1 after the check has used it up
    seq = validate([2, 0, 0, 0], "tree")
    star_tree = stick_break_tree(seq, (V(x) for x in [1, 1]))
    assert star_tree == stick_break_tree(seq, (V(1), V(1)))
    assert sorted(star_tree.neighbors(V(1))) == [S(0), S(1), S(2)]
    with pytest.raises(errors.TupleMismatch):
        stick_break_tree(seq, (V(x) for x in [1]))


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


def test_tree_count_is_a_product_of_binomials():
    # (s-2)!/prod(d_i!) = prod C(left, d_i), left counting the entries of
    # the tuple not yet given to a vertex; equality is exact
    rng = np.random.default_rng(61)
    seqs = [validate([2] * 4096 + [0] * 4098, "tree")]
    for _ in range(40):
        positive = rng.integers(1, 6, size=int(rng.integers(0, 25))).tolist()
        degrees = positive + [0] * (sum(positive) + 2 - len(positive))
        seqs.append(validate(rng.permutation(degrees).tolist(), "tree"))
    for seq in seqs:
        left, want = seq.s - 2, 1
        for d in seq.degrees:
            want *= math.comb(left, d)
            left -= d
        assert tree_count(seq) == want


def test_enumerate_cap():
    with pytest.raises(errors.TooLarge):
        list(enumerate_d_trees(EX12, cap=1000))


def test_enumeration_matches_stick_breaking_bijection():
    # Pruefer decoding and the samplers' walk hit the same tree set, once
    # each; the last two (120 and 360 trees) have vertices of degree 3
    for degs in [(1, 1, 0, 0), (2, 1, 0, 0, 0), (2, 2, 0, 0, 0, 0),
                 (3, 1, 1, 1, 0, 0, 0, 0), (2, 1, 1, 1, 1, 0, 0, 0)]:
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


@pytest.mark.parametrize("degrees, n", [
    ((2, 1, 1, 1, 1, 0, 0, 0), 45000), ((1, 1, 0, 0), 25000),
    ((3, 3, 2, 1, 1) + (0,) * 7, 45000),
    ((2,) * 40 + (0,) * 42, 3000)])  # 83^80 rows: keyed without the radix
def test_d_tree_keys_match_the_row_by_row_loop(degrees, n):
    # each distinct arrangement keyed once gives the old loop's Counter,
    # keys in the same order, from the same draws
    seq = validate(list(degrees), "tree")
    got_rng, rng = np.random.default_rng(9), np.random.default_rng(9)
    got = sample_d_tree_keys(seq, n, got_rng)
    base = _walk_base(seq)
    want, left = Counter(), n
    while left > 0:
        b = min(20000, left)
        left -= b
        for row in rng.permuted(np.broadcast_to(base, (b, len(base))),
                                axis=1).tolist():
            want[_stick_break_key(row)] += 1
    assert list(got.items()) == list(want.items())
    assert got_rng.bit_generator.state == rng.bit_generator.state


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
    growth.grow(20)
    kinds = {v.kind for v in growth.record}
    assert kinds == {"V", "Vinf"}
    assert all(v == overflow(i) for i, v in enumerate(growth.record, 1)
               if v.kind == "Vinf")


def test_p_tree_pure_overflow_star_quota_fails_fast():
    # no draw repeats when p is empty, so no quota beyond S0 is reachable
    growth = PTreeGrowth(PVector((), p_inf=1.0), np.random.default_rng(7))
    growth.grow(0, 0)
    with pytest.raises(errors.ValidationError):
        growth.grow(0, 1)
    assert growth.record == []


def test_p_tree_draw_cap_is_a_cap_not_bad_input(monkeypatch):
    # P = [1e-7] is valid but repeats a draw about once in 10^7: the draw
    # cap stops it with TooLarge (CLI exit 3), as the proposal cap does
    from surpluslab import trees
    monkeypatch.setattr(trees, "_DRAW_CAP", 50)
    growth = PTreeGrowth(PVector((1e-7,), p_inf=1 - 1e-7),
                         np.random.default_rng(7))
    with pytest.raises(errors.TooLarge, match="within 50 draws"):
        growth.grow(0, 1)
    assert len(growth.record) == 50
    # each draw is kept once: besides the record, only the atoms drawn
    assert len(growth._seen) <= len(growth._cum) == 1


def test_p_tree_star_count_is_the_number_of_repeats():
    # each repeated draw places one leaf label; the growth stops on the
    # draw that places the last one asked for.  Overflow draws (p_inf > 0)
    # fall between the repeats and never count as one
    for pvec in (PVector((0.5, 0.3, 0.2)), PVector((0.3, 0.2), p_inf=0.5)):
        growth = PTreeGrowth(pvec, np.random.default_rng(8))
        for n_stars in (0, 1, 4, 9):
            growth.grow(0, n_stars)
            repeats = [v in growth.record[:i]
                       for i, v in enumerate(growth.record)]
            assert sum(repeats) == n_stars
            assert n_stars == 0 or repeats[-1]
        assert len(growth.tree().star_leaves()) == 10  # S0 and S1..S9
    assert any(v.kind == "Vinf" for v in growth.record)


def _scalar_growth(p, p_inf, seed, stages):
    """Oracle for PTreeGrowth.grow, one rng.random() per draw: for each
    (n_steps, n_stars) stage, draw until the record holds n_steps draws and
    n_stars repeats.  A double u with j = bisect_right(cumsum(p), u) < len(p)
    is V_(j+1), a repeat if drawn before; any other draw is the overflow
    vertex named by its position.  Returns (record, repeats, rng)."""
    rng = np.random.default_rng(seed)
    cum = np.cumsum(p).tolist()
    record, repeats = [], 0
    for n_steps, n_stars in stages:
        while len(record) < n_steps or repeats < n_stars:
            j = bisect.bisect_right(cum, rng.random())
            if j < len(cum):
                repeats += V(j + 1) in record
                record.append(V(j + 1))
            else:
                record.append(overflow(len(record) + 1))
    return record, repeats, rng


def test_grow_matches_scalar_draws():
    # grow draws each round with rng.random(b): a Generator gives the same
    # doubles and leaves the same state as b scalar calls, so the record,
    # the atoms seen, the repeat count and the next draw all match the
    # one-draw-at-a-time oracle, star quotas (p_inf > 0 too) and quotas
    # across _DRAW_BLOCK included
    from surpluslab.trees import _DRAW_BLOCK
    cases = [[(64, 0)], [(1, 0)], [(0, 0)], [(0, 5)], [(0, 2), (40, 9)],
             [(5, 0), (3, 12)], [(2 * _DRAW_BLOCK + 3, 0)],
             [(0, _DRAW_BLOCK + 5)], [(17, 0), (_DRAW_BLOCK - 2, 0)],
             [(_DRAW_BLOCK - 2, 3), (_DRAW_BLOCK + 2, _DRAW_BLOCK)],
             [(64, 64), (10, 3)]]
    for p, p_inf in (((2 / 3, 1 / 3), 0.0), ((0.5, 0.3), 0.2), ((), 1.0),
                     ((0.5, 0.25, 0.125), 0.125)):
        for seed, stages in enumerate(cases):
            if not p and any(n_stars for _, n_stars in stages):
                continue  # refused: no draw repeats at p_inf = 1
            record, repeats, rng = _scalar_growth(p, p_inf, seed, stages)
            growth = PTreeGrowth(PVector(p, p_inf),
                                 np.random.default_rng(seed))
            for n_steps, n_stars in stages:
                growth.grow(n_steps, n_stars)
            assert growth.record == record
            assert growth._repeats == repeats
            assert growth._seen == {v.index - 1 for v in record
                                    if v.kind == "V"}
            assert growth.rng.random() == rng.random()
    # a quota already met draws nothing
    growth = PTreeGrowth(PVector((0.5, 0.5)), np.random.default_rng(9))
    growth.grow(12, 3)
    state, n = growth.rng.bit_generator.state, len(growth.record)
    growth.grow(12)
    growth.grow(3, growth._repeats)
    assert len(growth.record) == n
    assert growth.rng.bit_generator.state == state


def test_grow_refuses_past_the_draw_cap_before_drawing():
    from surpluslab.trees import _DRAW_CAP
    rng = np.random.default_rng(10)
    state = rng.bit_generator.state
    growth = PTreeGrowth(PVector((0.5, 0.5)), rng)
    for n_stars in (0, 5):
        with pytest.raises(errors.TooLarge, match="draw cap"):
            growth.grow(_DRAW_CAP + 1, n_stars)
    assert growth.record == []
    assert rng.bit_generator.state == state
    with pytest.raises(errors.TooLarge):
        sample_p_tree_prefix(PVector((0.5, 0.5)), _DRAW_CAP + 1, rng)
    assert rng.bit_generator.state == state
    # the (P,k) sampler refuses it before its first proposal, not after
    # an accepted one
    from surpluslab.samplers import sample_pk_graph_prefix
    with pytest.raises(errors.TooLarge, match="draw cap"):
        sample_pk_graph_prefix(PVector((0.5, 0.5)), 1, _DRAW_CAP + 1, rng)
    assert rng.bit_generator.state == state


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


def _one_step_climb(parent, depth, a, b):
    """The climb _climb replaced: the deeper side, or on a tie the side
    that stepped last, climbs one edge at a time."""
    ends = []
    while a != b:
        if depth[a] < depth[b]:
            a, b = b, a
        ends.append(a)
        a = parent[a]
    return ends


def test_climb_lifts_first_in_the_one_step_order():
    # the same edges in the same order, so continuum's float sums, folded
    # along the climb, keep their bits
    rng = np.random.default_rng(12)
    for _ in range(200):
        n = int(rng.integers(1, 60))
        parent, depth = {0: None}, {0: 0}
        for v in range(1, n):
            parent[v] = int(rng.integers(v))
            depth[v] = depth[parent[v]] + 1
        weight = {v: float(rng.exponential()) for v in range(1, n)}
        nodes = rng.integers(n, size=6).tolist()
        want = [[0] * len(nodes) for _ in nodes]
        hops = [[0] * len(nodes) for _ in nodes]
        for i, a in enumerate(nodes):
            for j, b in enumerate(nodes):
                ends = _one_step_climb(parent, depth, a, b)
                assert _climb(parent, depth, a, b) == ends
                if i < j:  # the matrix climbs each pair from its first node
                    d = 0
                    for x in ends:
                        d = d + weight[x]
                    want[i][j] = want[j][i] = d
                    hops[i][j] = hops[j][i] = len(ends)
        assert _climb_matrix(parent, depth, nodes, weight) == want
        assert _climb_matrix(parent, depth, nodes) == hops
