import hashlib
import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from surpluslab import errors, samplers
from surpluslab.labels import internal as V, is_star, star as S
from surpluslab.experiments import VERSION, d_tree_bias_values, gp_matrix_sample
from surpluslab.multigraph import (Multigraph, bias, bias_bound,
                                   bias_components, glue_tree_leaves)
from surpluslab.params import PVector, validate
from surpluslab.samplers import (_accepts, _bias_core, _dk_graph, _glue_bias,
                                 _pk_graph, _sample_dk_streaming,
                                 _sample_pk_glued, canonical_oriented_edges,
                                 cm_conditioned_oracle, dk_table,
                                 insert_edgepoints, pk_law_oracle,
                                 sample_configuration_model, sample_dk_graph,
                                 sample_dk_graph_keys,
                                 sample_multiplicative_coupled,
                                 sample_multiplicative_graph,
                                 sample_multiplicative_multigraph,
                                 sample_ordered_partition,
                                 sample_pk_graph_prefix, shortcut_edgepoints)
from surpluslab.trees import (LabeledTree, PTreeGrowth, _base_multiset,
                              _decoded, _walk, _walk_base,
                              enumerate_d_tree_keys, multiset_arrangements,
                              sample_d_tree, sample_d_tuple, stick_break_tree,
                              tree_count)


def tv_against(law, counts, n):
    keys = set(law) | set(counts)
    return 0.5 * sum(abs(counts.get(k, 0) / n - float(law.get(k, 0)))
                     for k in keys)


# ---------------------------------------------------------------------------
# (D,k)-graphs


def test_dk_double_edge_forced():
    seq = validate([1, 1], "surplus", k=1)
    rng = np.random.default_rng(0)
    expected = Multigraph([(V(1), V(2), 2)])
    for _ in range(20):
        assert sample_dk_graph(seq, rng) == expected


def test_dk_needs_surplus_kind():
    with pytest.raises(errors.ValidationError):
        sample_dk_graph(validate([1, 1, 0, 0], "tree"), np.random.default_rng(0))


def test_dk_output_invariants():
    rng = np.random.default_rng(1)
    for degs, k in [((2, 1, 1, 0), 1), ((2, 2), 2), ((3, 2, 1, 1, 0), 2),
                    ((4, 0), 2)]:
        seq = validate(list(degs), "surplus", k=k)
        for _ in range(25):
            g = sample_dk_graph(seq, rng)
            assert g.surplus() == k
            positives = [d for d in seq.degrees if d > 0]
            for i, d in enumerate(positives, start=1):
                assert g.degree(V(i)) == d + 1
            n_stars = sum(1 for v in g.vertices if v.kind == "S")
            assert n_stars == seq.n_zero
            for j in range(1, 2 * k + 1):
                assert S(j) not in g.vertices


def test_dk_table_and_streaming_agree():
    seq = validate([2, 1, 1, 0], "surplus", k=1)
    oracle = cm_conditioned_oracle(validate([3, 2, 2, 1], "half-edge"), 1)
    rng = np.random.default_rng(2)
    n = 6000
    base = _walk_base(seq.to_tree_kind())
    stream_counts = Counter(
        _sample_dk_streaming(1, base, rng).leaf_canonical_key()
        for _ in range(n))
    assert tv_against(oracle, stream_counts, n) < 0.03
    table_counts = sample_dk_graph_keys(seq, n, rng)
    assert tv_against(oracle, table_counts, n) < 0.03


def test_dk_keys_reject_a_negative_count_before_any_draw():
    seq = validate([2, 1, 1, 0], "surplus", k=1)
    rng = np.random.default_rng(2)
    state = rng.bit_generator.state
    with pytest.raises(errors.ValidationError, match="n_samples"):
        sample_dk_graph_keys(seq, -1, rng)
    assert rng.bit_generator.state == state
    assert sample_dk_graph_keys(seq, 0, rng) == Counter()


def test_dk_table_refuses_streaming_and_non_surplus_sequences():
    # the one cap decides: a streaming sequence has no table, and every
    # (D,k) entry point names the kind a tree sequence lacks
    ladder = validate([2] * 8 + [0] * 8, "surplus", k=1)
    count = tree_count(ladder.to_tree_kind())
    assert count > samplers._TABLE_CAP
    with pytest.raises(errors.TooLarge,
                       match=f"{count} tuples exceeds the table cap 30000"):
        dk_table(ladder)
    tree_kind = validate([2, 1, 0, 0, 0], "tree")
    rng = np.random.default_rng(2)
    for draw in (lambda: dk_table(tree_kind),
                 lambda: sample_dk_graph(tree_kind, rng),
                 lambda: sample_dk_graph_keys(tree_kind, 3, rng)):
        with pytest.raises(errors.ValidationError,
                           match=r"\(D,k\) sampling needs a surplus-kind"):
            draw()


def test_nabla_sorts_what_it_keeps():
    seq = validate([1, 2, 0, 1, 3, 0, 0, 0, 0], "tree")
    assert seq.nabla().degrees == (3, 2, 0, 0, 0, 0, 0)


def test_dk_k0_matches_tree_enumeration():
    # leaf-canonical keys are coarser than labeled trees: project the
    # uniform tree law through canonicalization and compare laws
    seq = validate([2, 2, 1, 0, 0, 0, 0], "surplus", k=0)
    tree_seq = seq.to_tree_kind()
    from surpluslab.multigraph import Multigraph
    from surpluslab.trees import enumerate_d_trees
    law = Counter()
    trees = list(enumerate_d_trees(tree_seq))
    for t in trees:
        law[Multigraph.from_tree(t).leaf_canonical_key()] += \
            Fraction(1, len(trees))
    rng = np.random.default_rng(3)
    n = 20000
    counts = sample_dk_graph_keys(seq, n, rng)
    assert sum(counts.values()) == n
    assert tv_against(law, counts, n) < 0.02


# ---------------------------------------------------------------------------
# configuration model and oracle


def test_cm_trivial_laws():
    rng = np.random.default_rng(4)
    assert sample_configuration_model(validate([1, 1], "half-edge"), rng) == \
        Multigraph([(V(1), V(2))])
    assert sample_configuration_model(validate([2], "half-edge"), rng) == \
        Multigraph([(V(1), V(1))])


def test_cm_draw_is_the_matching_of_its_permutation():
    # one shared label tuple per vertex count; each draw is still the
    # multigraph of the stubs its permutation pairs up
    seq = validate([3, 2, 2, 1, 0, 2], "half-edge")
    stubs = [i + 1 for i, d in enumerate(seq.degrees) for _ in range(d)]
    for seed in range(20):
        perm = np.random.default_rng(seed).permutation(len(stubs))
        pairs = [(V(stubs[perm[a]]), V(stubs[perm[a + 1]]))
                 for a in range(0, len(stubs), 2)]
        want = Multigraph(pairs, vertices=[V(i + 1) for i in range(seq.s)])
        assert sample_configuration_model(seq, np.random.default_rng(seed)) == want


def test_cm_two_twos_frequencies():
    rng = np.random.default_rng(5)
    seq = validate([2, 2], "half-edge")
    n = 3 * 10 ** 4
    double = sum(
        sample_configuration_model(seq, rng).multiplicity(V(1), V(2)) == 2
        for _ in range(n))
    sd = math.sqrt(n * (2 / 3) * (1 / 3))
    assert abs(double - 2 * n / 3) < 3 * sd


def _matchings(stubs):
    """All perfect matchings of a stub list, as lists of vertex pairs."""
    if not stubs:
        yield []
        return
    first = stubs[0]
    for j in range(1, len(stubs)):
        rest = stubs[1:j] + stubs[j + 1:]
        for m in _matchings(rest):
            yield [(first, stubs[j])] + m


def _brute_cm_law(seq):
    """The conditioned configuration-model law, one matching at a time."""
    s = seq.s
    stubs = [i + 1 for i, d in enumerate(seq.degrees) for _ in range(d)]
    weights, total = {}, 0
    for pairs in _matchings(stubs):
        mult = Counter((min(u, v), max(u, v)) for u, v in pairs)
        reached, frontier = {1}, [1]
        while frontier:
            x = frontier.pop()
            for u, v in mult:
                for a, b in ((u, v), (v, u)):
                    if a == x and b not in reached:
                        reached.add(b)
                        frontier.append(b)
        if len(reached) < s:
            continue
        w = 1
        for (u, v), m in mult.items():
            w *= (2 ** m if u == v else 1) * math.factorial(m)
        key = Multigraph([(V(u), V(v), m) for (u, v), m in mult.items()],
                         vertices=[V(v) for v in range(1, s + 1)]
                         ).leaf_canonical_key()
        weights[key] = weights.get(key, 0) + w
        total += w
    if total == 0:
        return None
    return {key: Fraction(w, total) for key, w in weights.items()}


def _partitions(n, most):
    """Non-increasing positive sequences with sum n and parts <= most."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, most), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


@pytest.mark.parametrize("total", [0, 2, 4, 6, 8, 10])
def test_each_multiplicity_map_has_prod_factorials_over_circ_matchings(total):
    # why cm_conditioned_oracle gives every connected map weight 1: the
    # symmetry factor circ(m) times the count(m) of stub matchings giving
    # the map m is prod d_v!, whatever m is
    for degrees in _partitions(total, total):
        stubs = [i + 1 for i, d in enumerate(degrees) for _ in range(d)]
        counts = Counter(tuple(sorted((min(u, v), max(u, v)) for u, v in pairs))
                         for pairs in _matchings(stubs))
        for edges, count in counts.items():
            circ = Multigraph([(V(u), V(v)) for u, v in edges]).circ()
            assert count * circ == math.prod(map(math.factorial, degrees))
        maps = samplers._multiplicity_maps(degrees)
        assert len(maps) == len(set(maps)) and set(maps) == set(counts)


def test_cm_oracle_examples():
    law = cm_conditioned_oracle(validate([1, 1], "half-edge"), 0)
    assert list(law.values()) == [Fraction(1)]
    law = cm_conditioned_oracle(validate([2, 2], "half-edge"), 1)
    (key, p), = law.items()
    assert p == 1  # loops case is disconnected, double edge survives
    law = cm_conditioned_oracle(validate([3, 3], "half-edge"), 2)
    assert sorted(law.values()) == [Fraction(1, 2), Fraction(1, 2)]


def test_cm_oracle_guards():
    with pytest.raises(errors.ValidationError):
        cm_conditioned_oracle(validate([3, 3], "half-edge"), 1)
    with pytest.raises(errors.TooLarge):
        cm_conditioned_oracle(validate([8, 8], "half-edge"), 8)
    with pytest.raises(errors.TooLarge):
        cm_conditioned_oracle(validate([3, 3, 2, 2, 2, 2, 2], "half-edge"), 2)
    with pytest.raises(errors.ValidationError):
        cm_conditioned_oracle(validate([1, 1, 0, 0], "half-edge"), 0)
    tree_kind = validate([2, 1, 0, 0, 0], "tree")
    with pytest.raises(errors.ValidationError):
        cm_conditioned_oracle(tree_kind, 0)
    # a zero-degree vertex leaves no connected configuration
    for degrees in ([2, 0], [2, 2, 0], [4, 2, 0, 0]):
        seq = validate(degrees, "half-edge")
        assert _brute_cm_law(seq) is None
        with pytest.raises(errors.ValidationError):
            cm_conditioned_oracle(seq, seq.total // 2 - seq.s + 1)


@pytest.mark.parametrize("degrees, k", [
    ([0], 0), ([2], 1), ([4], 2), ([6], 3),          # a single vertex
    ([1, 1], 0), ([2, 1, 1], 0), ([3, 1, 1, 1], 0), ([2, 2, 2, 1, 1], 0),
    ([6, 1, 1, 1, 1, 1, 1], 0),
    ([2, 2], 1), ([3, 2, 1], 1), ([3, 2, 2, 1], 1), ([4, 2, 1, 1], 1),
    ([5, 3, 1, 1, 1, 1], 1), ([2, 2, 2, 2, 2, 2], 1),
    ([3, 3], 2), ([3, 3, 2, 2], 2), ([4, 2, 2, 2, 2], 2), ([4, 3, 2, 1], 2),
    ([5, 3, 1, 1], 2),
    ([4, 4], 3), ([3, 3, 3, 3], 3), ([4, 4, 2, 2], 3), ([6, 2, 2, 2], 3),
])
def test_cm_oracle_matches_matching_enumeration(degrees, k):
    seq = validate(degrees, "half-edge")
    assert sum(degrees) == 2 * len(degrees) + 2 * k - 2
    law = cm_conditioned_oracle(seq, k)
    assert law == _brute_cm_law(seq)
    assert sum(law.values()) == 1


def test_dk_law_matches_conditioned_cm_quick():
    rng = np.random.default_rng(6)
    n = 3 * 10 ** 4
    for half, k in [((3, 2, 2, 1), 1), ((3, 3), 2)]:
        seq = validate(list(half), "half-edge")
        oracle = cm_conditioned_oracle(seq, k)
        counts = sample_dk_graph_keys(seq.shifted_down(k), n, rng)
        assert tv_against(oracle, counts, n) < 0.02


# ---------------------------------------------------------------------------
# multiplicative graphs


def test_multiplicative_zero_lambda_empty():
    rng = np.random.default_rng(7)
    g = sample_multiplicative_graph(0.0, [1.0, 1.0, 1.0], rng)
    assert g.num_edges() == 0
    gm = sample_multiplicative_multigraph(0.0, [1.0, 1.0], rng)
    assert gm.num_edges() == 0


def test_multiplicative_edge_probability():
    rng = np.random.default_rng(8)
    lam = math.log(4)
    n = 2 * 10 ** 4
    hits = sum(sample_multiplicative_graph(lam, [1.0, 1.0], rng).num_edges()
               for _ in range(n))
    sd = math.sqrt(n * 0.75 * 0.25)
    assert abs(hits - 0.75 * n) < 3 * sd


def test_multiplicative_poisson_mean():
    rng = np.random.default_rng(9)
    lam, w = 1.3, [0.9, 0.7]
    n = 2 * 10 ** 4
    total = sum(
        sample_multiplicative_multigraph(lam, w, rng).multiplicity(V(1), V(2))
        for _ in range(n))
    mean = lam * w[0] * w[1]
    assert abs(total / n - mean) < 3 * math.sqrt(mean / n)


def test_multiplicative_coupling():
    rng = np.random.default_rng(10)
    for _ in range(200):
        simple, multi = sample_multiplicative_coupled(0.8, [1.0, 0.6, 0.4], rng)
        for i in range(1, 4):
            for j in range(i + 1, 4):
                present = simple.multiplicity(V(i), V(j)) == 1
                assert present == (multi.multiplicity(V(i), V(j)) >= 1)


def test_cm_to_multiplicative_poisson_limit():
    # corner multiplicities of the configuration model approach the
    # independent-Poisson means lam*p_i*p_j / lam*p_i^2/2 as n grows;
    # n chosen so sqrt(n*lam)*p_i is an exact integer (no rounding noise)
    rng = np.random.default_rng(11)
    lam, p = 1.0, [0.6, 0.4]
    reps = 12000
    gaps = []
    for n in (100, 400, 1600):
        heavy = [round(math.sqrt(n * lam) * pi) for pi in p]
        assert all(abs(h - math.sqrt(n * lam) * pi) < 1e-9
                   for h, pi in zip(heavy, p))
        degs = heavy + [1] * (n - 2)
        seq = validate(degs, "half-edge")
        acc = np.zeros(3)
        for _ in range(reps):
            g = sample_configuration_model(seq, rng)
            acc += [g.multiplicity(V(1), V(2)), g.multiplicity(V(1), V(1)),
                    g.multiplicity(V(2), V(2))]
        means = acc / reps
        target = np.array([lam * p[0] * p[1], lam * p[0] ** 2 / 2,
                           lam * p[1] ** 2 / 2])
        gaps.append(np.abs(means - target).max())
    assert gaps[0] > gaps[1] > gaps[2]


# ---------------------------------------------------------------------------
# (P,k) graphs


def test_pk_oracle_matches_biased_multiplicative_multigraph():
    # independent route to the same law: Poisson multigraph with weights
    # (2,1), biased by its symmetry factor, conditioned on connectivity
    # and surplus 1, against the closed-form prod p_v^deg oracle
    rng = np.random.default_rng(22)
    oracle = pk_law_oracle(PVector((Fraction(2, 3), Fraction(1, 3))), 1)
    weights = Counter()
    total = 0.0
    for _ in range(120000):
        g = sample_multiplicative_multigraph(1.5, [2.0, 1.0], rng)
        if not g.is_connected() or g.surplus() != 1:
            continue
        c = g.circ()
        weights[g.key()] += c
        total += c
    emp = {k: v / total for k, v in weights.items()}
    keys = set(oracle) | set(emp)
    tv = 0.5 * sum(abs(emp.get(k, 0) - float(oracle.get(k, 0))) for k in keys)
    assert tv < 0.05


def test_pk_oracle_single_loop():
    law = pk_law_oracle(PVector((1.0,)), 1)
    (key, p), = law.items()
    assert p == 1


def test_pk_oracle_symmetric():
    law = pk_law_oracle(PVector((0.5, 0.5)), 1)
    assert sorted(law.values()) == [Fraction(1, 3)] * 3


def test_pk_oracle_weight_ratios():
    p1, p2 = Fraction(2, 3), Fraction(1, 3)
    law = pk_law_oracle(PVector((p1, p2)), 1)
    double = Multigraph([(V(1), V(2), 2)]).key()
    loop1 = Multigraph([(V(1), V(2)), (V(1), V(1))]).key()
    loop2 = Multigraph([(V(1), V(2)), (V(2), V(2))]).key()
    # weights prod p_v^deg: (p1 p2)^2 vs p1^3 p2 vs p1 p2^3
    assert law[loop1] / law[double] == (p1 ** 3 * p2) / (p1 * p2) ** 2
    assert law[loop2] / law[double] == (p1 * p2 ** 3) / (p1 * p2) ** 2


def test_pk_sampler_single_atom():
    rng = np.random.default_rng(12)
    expected = Multigraph([(V(1), V(1))])
    for _ in range(10):
        assert sample_pk_graph_prefix(PVector((1.0,)), 1, 6, rng) == expected


def test_pk_sampler_matches_oracle_quick():
    pvec = PVector((2 / 3, 1 / 3))
    oracle = pk_law_oracle(PVector((Fraction(2, 3), Fraction(1, 3))), 1)
    rng = np.random.default_rng(13)
    n = 8000
    counts = Counter(sample_pk_graph_prefix(pvec, 1, 40, rng).key()
                     for _ in range(n))
    assert tv_against(oracle, counts, n) < 0.03


def test_pk_sampler_k0_plain_prefix():
    rng = np.random.default_rng(14)
    g = sample_pk_graph_prefix(PVector((0.5, 0.5)), 0, 30, rng)
    assert g.surplus() == 0
    assert g.vertices == frozenset({V(1), V(2)})
    with pytest.raises(errors.ValidationError):  # no draw leaves no tree
        sample_pk_graph_prefix(PVector((0.5, 0.5)), 0, 0, rng)


def test_pk_sampler_rejects_negative_k_before_any_draw():
    rng = np.random.default_rng(14)
    state = rng.bit_generator.state
    with pytest.raises(errors.ValidationError):
        sample_pk_graph_prefix(PVector((0.5, 0.5)), -1, 5, rng)
    assert rng.bit_generator.state == state


def test_pk_sampler_rejects_negative_steps_before_any_draw():
    # a negative n_steps drew proposals and returned the accepted draws; an
    # empty (P,0) prefix is refused before any draw too
    rng = np.random.default_rng(14)
    state = rng.bit_generator.state
    for k, n_steps in ((0, -1), (1, -1), (2, -3), (0, 0)):
        with pytest.raises(errors.ValidationError, match="n_steps must be"):
            sample_pk_graph_prefix(PVector((0.5, 0.5)), k, n_steps, rng)
    assert rng.bit_generator.state == state


def test_pk_bias_bound_assertion_holds():
    rng = np.random.default_rng(15)
    for _ in range(200):
        g = sample_pk_graph_prefix(PVector((0.6, 0.3, 0.1)), 2, 30, rng)
        assert g.surplus() == 2


# ---------------------------------------------------------------------------
# edgepoint transforms and ordered partitions


def test_shortcut_examples():
    path = LabeledTree([(S(0), V(1)), (V(1), S(1))])
    assert shortcut_edgepoints(path) == LabeledTree([(S(0), S(1))])
    seq = validate([2, 2, 0, 0, 0, 0], "tree")
    tree = sample_d_tree(seq, np.random.default_rng(16))
    assert shortcut_edgepoints(tree) == tree  # no degree-2 vertices


def test_insert_examples():
    edge = LabeledTree([(S(0), S(1))])
    assert insert_edgepoints(edge, [[]]) == edge
    assert insert_edgepoints(edge, [[V(1)]]) == \
        LabeledTree([(S(0), V(1)), (V(1), S(1))])
    with pytest.raises(errors.VertexCollision):
        insert_edgepoints(LabeledTree([(S(0), V(1)), (V(1), S(1))]), [[V(1)], []])


def test_nabla_delta_roundtrip():
    rng = np.random.default_rng(17)
    seq = validate([3, 2, 2, 0, 0, 0, 0, 0, 0], "tree")
    extra = [V(10), V(11), V(12)]
    for _ in range(30):
        tree = sample_d_tree(seq, rng)
        part = sample_ordered_partition(extra, len(tree.edges()), rng)
        fat = insert_edgepoints(tree, part)
        assert shortcut_edgepoints(fat) == tree
        for v in tree.vertices():
            assert fat.degree(v) == tree.degree(v)


def test_delta_law_uniform_over_d_trees():
    # Delta(uniform nabla-D tree, uniform ordered partition) is a D-tree
    seq = validate([1, 1, 0, 0], "tree")
    nab = seq.nabla()
    base_tree = stick_break_tree(nab, ())
    rng = np.random.default_rng(18)
    n = 3 * 10 ** 4
    counts = Counter()
    for _ in range(n):
        part = sample_ordered_partition([V(1), V(2)], len(base_tree.edges()), rng)
        counts[insert_edgepoints(base_tree, part).edge_key()] += 1
    keys = set(enumerate_d_tree_keys(seq))
    sampled = {k for k in counts}
    assert len(sampled) == len(keys) == 2
    tv = 0.5 * sum(abs(c / n - 0.5) for c in counts.values())
    assert tv < 0.02


def test_ordered_partition_edges():
    rng = np.random.default_rng(19)
    assert sample_ordered_partition([], 3, rng) == [[], [], []]
    ones = sum(sample_ordered_partition(["x"], 2, rng)[0] == ["x"]
               for _ in range(10 ** 4))
    assert abs(ones - 5000) < 3 * 50


def test_ordered_partition_composition_law():
    rng = np.random.default_rng(20)
    n = 3 * 10 ** 4
    counts = Counter(tuple(len(s) for s in sample_ordered_partition(
        list(range(4)), 3, rng)) for _ in range(n))
    assert len(counts) == 15  # compositions of 4 into 3 parts
    expected = n / 15
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 40  # df=14, generous


def test_bias_fast_matches_public_bias():
    # the early-stopped walk, the parent-pointer bias and the proposal
    # kernel _glue_bias against the multigraph.bias oracle on the whole
    # tree, for the three proposals the samplers make: a tree's own S1..S2k
    # (bias tail, first = 1), the (D,k) tuple with S0..S2k-1 -> S1..S2k and
    # S2k -> S0 (first = 0), and a P-tree's draws (first = 1)
    rng = np.random.default_rng(21)
    seq = validate([3, 3, 2, 1, 1] + [0] * 7, "tree")
    pvec = PVector((0.5, 0.3, 0.2))
    stopped_early = 0
    for _ in range(30):
        tup = sample_d_tuple(seq, rng)
        tree = stick_break_tree(seq, tup)
        entries = [v.index for v in tup]
        for k in (1, 2, 3):
            parent, depth, fathers = _walk(entries, 2 * k + 1)
            assert len(fathers) == 2 * k + 1
            for v, u in parent.items():
                if u is not None:
                    assert V(u) in tree.neighbors(V(v))
                    assert depth[v] == depth[u] + 1
            stopped_early += len(parent) < 5
            circ, squares, dists = _bias_core(
                parent, depth, fathers[1:2 * k + 1])
            assert Fraction(circ, math.prod(squares)) == bias(tree, k)
            assert squares == bias_components(tree, k)[1]
            assert dists == [tree.distance(S(2 * i - 1), S(2 * i))
                             for i in range(1, k + 1)]
            assert _glue_bias(entries, k, first=1) == \
                (circ, math.prod(squares))
            shift = {S(j): S(j + 1) for j in range(2 * k)}
            shift[S(2 * k)] = S(0)
            circ, prod = _glue_bias(entries, k)
            assert Fraction(circ, prod) == bias(tree.relabel(shift), k)
            growth = PTreeGrowth(pvec, rng)
            growth.grow(0, 2 * k)
            circ, prod = _glue_bias(growth.record, k, first=1)
            assert Fraction(circ, prod) == bias(growth.tree(), k)
    assert stopped_early > 0


class _FixedUniform:
    """Stands in for a Generator whose next uniform is u."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def test_accepts_is_the_exact_fraction_comparison():
    # against rng.random() * bound < Fraction(circ, prod) on twin streams
    rng = np.random.default_rng(42)
    for _ in range(3000):
        k = int(rng.integers(0, 4))
        prod = int(rng.integers(1, 10 ** int(rng.integers(1, 7))))
        circ = int(rng.integers(1, bias_bound(k) * prod + 1))
        seed = int(rng.integers(2 ** 32))
        want = (np.random.default_rng(seed).random() * bias_bound(k)
                < Fraction(circ, prod))
        assert _accepts(np.random.default_rng(seed), bias_bound(k),
                        circ, prod) == want
    # exact ties reject; a float one ulp below the bias accepts
    for circ, prod in ((1, 2), (2, 4), (3, 6)):
        assert not _accepts(_FixedUniform(0.25), 2, circ, prod)
        below = math.nextafter(0.25, 0)
        assert _accepts(_FixedUniform(below), 2, circ, prod)
    # float(1/3) lies below 1/3, so it accepts where a float compare would not
    third = 1 / 3
    assert not third < 1 / 3 and third < Fraction(1, 3)
    assert _accepts(_FixedUniform(third), 1, 1, 3)
    assert not _accepts(_FixedUniform(math.nextafter(third, 1)), 1, 1, 3)


@pytest.mark.parametrize("degrees", [
    [0, 0], [1, 0, 0], [3, 3, 2, 1, 1] + [0] * 7, [2] * 64 + [0] * 66,
], ids=["empty", "one-entry", "33211", "ladder64"])
def test_prefix_decoded_walk_matches_full_list(degrees):
    # ladder64's 128 entries cross the 64-entry block end; leaf counts
    # past len(base) + 1 make the tuple run out first
    seq = validate(degrees, "tree")
    base = _walk_base(seq)
    assert not base.flags.writeable
    rng = np.random.default_rng(43)
    for n_leaves in (0, 1, 2, 3, 5, 40, len(base) + 1, len(base) + 4):
        for _ in range(10):
            perm = rng.permutation(len(base))
            want = _walk(base[perm].tolist(), n_leaves)
            assert _walk(_decoded(base, perm), n_leaves) == want


def test_d_tree_bias_values_match_fraction_reference():
    # the whole shuffled tuple, its public tree and the multigraph.bias
    # oracle as a Fraction, draw for draw; the stream ends in the same state
    for degrees, n in (([3, 3, 2, 1, 1] + [0] * 7, 150), ([2] * 24 + [0] * 26, 60)):
        seq = validate(degrees, "tree")
        for k in (1, 2, 3):
            got_rng = np.random.default_rng(44 + k)
            got = d_tree_bias_values(seq, k, n, got_rng)
            rng = np.random.default_rng(44 + k)
            base = _base_multiset(seq)
            want = []
            for _ in range(n):
                tup = [V(base[j]) for j in rng.permutation(len(base))]
                want.append(float(bias(stick_break_tree(seq, tup), k)))
            assert got.tobytes() == np.array(want).tobytes()
            assert got_rng.bit_generator.state == rng.bit_generator.state


def test_streaming_proposals_match_fraction_reference():
    # the streaming (D,1) sampler against the whole tuple, the Fraction
    # bias and the float-against-Fraction acceptance, graph for graph
    seq = validate([2] * 24 + [0] * 24, "surplus", k=1)
    base = np.array(_base_multiset(seq.to_tree_kind()), dtype=np.int64)
    got_rng, rng = np.random.default_rng(47), np.random.default_rng(47)
    for _ in range(30):
        got = _sample_dk_streaming(1, base, got_rng)
        while True:
            entries = base[rng.permutation(len(base))].tolist()
            parent, depth, fathers = _walk(entries, len(entries) + 1)
            circ, squares, _ = _bias_core(parent, depth, fathers[:2])
            if rng.random() * bias_bound(1) < Fraction(circ, math.prod(squares)):
                break
        assert _same_graph(got, _dk_graph(entries, 1))
    assert got_rng.bit_generator.state == rng.bit_generator.state


def test_bias_bound_is_sharp_pair_by_pair():
    # every tuple of every surplus sequence on 2..7 vertices with at most
    # 2000 tuples, k = 1..4: each pair's factor of circ (the circ of pairs
    # 1..i over that of pairs 1..i-1) is at most 2 square_i, so bias <= 2^k,
    # and k loops on one vertex, the one tuple of [2k, 0], reach it
    n_seqs = n_tuples = 0
    for k in range(1, 5):
        largest = 0
        for s in range(2, 8):
            total = s + 2 * k - 2
            for degs in itertools.combinations_with_replacement(
                    range(total, -1, -1), s):
                if sum(degs) != total:
                    continue
                tree_seq = validate(list(degs), "surplus", k=k).to_tree_kind()
                if tree_count(tree_seq) > 2000:
                    continue
                n_seqs += 1
                for entries in multiset_arrangements(_base_multiset(tree_seq)):
                    parent, depth, fathers = _walk(entries, 2 * k)
                    circ = 1
                    for i in range(1, k + 1):
                        c, squares, _ = _bias_core(parent, depth,
                                                   fathers[:2 * i])
                        assert c % circ == 0 and c // circ <= 2 * squares[-1]
                        circ = c
                    b = Fraction(circ, math.prod(squares))
                    largest = max(largest, b)
                    if degs == (2 * k, 0):
                        assert b == 2 ** k
                    n_tuples += 1
        assert largest == bias_bound(k) == 2 ** k
    assert (n_seqs, n_tuples) == (224, 79905)


class _CountingRng:
    """A Generator that counts its permutations, one per streaming proposal."""

    def __init__(self, rng):
        self.rng, self.permutations = rng, 0

    def permutation(self, n):
        self.permutations += 1
        return self.rng.permutation(n)

    def random(self):
        return self.rng.random()


@pytest.mark.parametrize("degrees, k, mean", [
    ([2, 2, 2, 2, 0, 0, 0, 0], 1, Fraction(35, 13)),
    ([3, 3, 2, 2, 0, 0, 0, 0], 2, Fraction(840, 79)),
], ids=["2222-k1", "3322-k2"])
def test_streaming_acceptance_rate_is_exact(degrees, k, mean):
    # proposals per graph are geometric with mean 2^k / E[bias], and the
    # table's weights sum the bias over every tuple; a bound of (k+1)! 2^k
    # would multiply the mean by (k+1)!
    seq = validate(degrees, "surplus", k=k)
    tree_seq = seq.to_tree_kind()
    exact = Fraction(2 ** k * tree_count(tree_seq), sum(dk_table(seq).weights))
    assert exact == mean
    n = 2000
    rng = _CountingRng(np.random.default_rng(48))
    base = _walk_base(tree_seq)
    for _ in range(n):
        _sample_dk_streaming(k, base, rng)
    p = 1 / float(exact)
    stderr = math.sqrt((1 - p) / p ** 2 / n)
    assert abs(rng.permutations / n - float(exact)) < 4 * stderr


def _first_cap(monkeypatch, draw):
    """The smallest proposal cap under which draw() returns, and its graph;
    every smaller cap must raise TooLarge."""
    try:
        for cap in range(1, 1000):
            monkeypatch.setattr(samplers, "_PROPOSAL_CAP", cap)
            try:
                return cap, draw()
            except errors.TooLarge as exc:
                assert f"nothing accepted in {cap} proposals" in str(exc)
        raise AssertionError("no cap below 1000 let the draw through")
    finally:
        monkeypatch.undo()


def test_rejection_loops_raise_too_large_at_the_cap(monkeypatch):
    # both loops stop after exactly _PROPOSAL_CAP rejected proposals; one
    # more lets the uncapped draw through
    base = _walk_base(validate([2] * 8 + [0] * 8, "surplus", k=1).to_tree_kind())
    pvec = PVector((0.6, 0.3, 0.1))
    dk_caps, pk_caps = [], []
    for seed in range(5):
        def dk(rng=None):
            return _sample_dk_streaming(
                1, base, rng or np.random.default_rng(seed))

        def pk():
            return sample_pk_graph_prefix(
                pvec, 2, 30, np.random.default_rng(seed))
        counting = _CountingRng(np.random.default_rng(seed))
        want = dk(counting)
        assert _first_cap(monkeypatch, dk) == (counting.permutations, want)
        dk_caps.append(counting.permutations)
        want = pk()
        cap, got = _first_cap(monkeypatch, pk)
        assert got == want
        pk_caps.append(cap)
    assert max(dk_caps) > 1 and max(pk_caps) > 1


def _same_graph(g, h) -> bool:
    return g.vertices == h.vertices and dict(g.edge_items()) == dict(h.edge_items())


def _glue_pairs(k):
    return [(S(2 * i - 1), S(2 * i)) for i in range(1, k + 1)]


def test_dk_graph_matches_public_glue():
    # the one-step build from the walk against the public path (tree,
    # relabel S0..S2k-1 -> S1..S2k and S2k -> S0, glue) on every tuple of
    # small tables, the empty tuple of [0, 0] and tables without S0 included;
    # the table holds, per distinct glued graph, the Fraction bias summed
    # over the tuples whose public glue is that graph, in the order of each
    # graph's first tuple, whose walk it keeps: table draws index this order
    for degs, k in [((0, 0), 0), ((1, 1, 0, 0), 0), ((1, 1), 1),
                    ((2, 1, 1, 0), 1), ((2, 2), 2), ((4, 0), 2),
                    ((3, 2, 2, 0, 0), 2), ((3, 3, 1, 1), 3),
                    ((4, 2, 2, 1, 0), 3)]:
        seq = validate(list(degs), "surplus", k=k)
        tree_seq = seq.to_tree_kind()
        table = dk_table(seq)
        shift = {S(j): S(j + 1) for j in range(2 * k)}
        shift[S(2 * k)] = S(0)
        index = {g.key(): i for i, g in enumerate(table.graphs)}
        assert len(index) == len(table.graphs)
        weights, tuples = [0] * len(table.graphs), [0] * len(table.graphs)
        for arrangement in multiset_arrangements(_base_multiset(tree_seq)):
            tree = stick_break_tree(tree_seq, [V(x) for x in arrangement])
            shifted = tree.relabel(shift)
            expected = glue_tree_leaves(shifted, _glue_pairs(k))
            glued = _dk_graph(list(arrangement), k)
            assert _same_graph(glued, expected)
            i = index[expected.key()]
            if not tuples[i]:  # the first tuple of graph i
                assert i == 0 or tuples[i - 1]
                assert table.graphs[i].key() == glued.key()
                assert table.graphs[i]._walk == glued._walk
            weights[i] += bias(shifted, k)
            tuples[i] += 1
        assert table.weights == weights
        assert all(tuples) and sum(tuples) == tree_count(tree_seq)
        total = sum(weights)
        assert table.p.tolist() == [float(w / total) for w in weights]


def test_pk_graph_matches_public_glue():
    # seeded draw records, overflow draws included, against the glued
    # P-tree; without leaves every star and its pendant edge is dropped
    rng = np.random.default_rng(24)
    overflow_records = 0
    for pvec in (PVector((0.5, 0.3), p_inf=0.2), PVector((0.6, 0.3, 0.1))):
        for k in range(4):
            for _ in range(25):
                growth = PTreeGrowth(pvec, rng)
                growth.grow(0, 2 * k)
                growth.grow(len(growth.record) + int(rng.integers(1, 30)))
                overflow_records += any(v.kind == "Vinf" for v in growth.record)
                expected = glue_tree_leaves(growth.tree(), _glue_pairs(k))
                assert _same_graph(_pk_graph(growth.record, k), expected)
                bare = _pk_graph(growth.record, k, leaves=False)
                assert bare.vertices == {v for v in expected.vertices
                                         if not is_star(v)}
                assert dict(bare.edge_items()) == {
                    (u, v): m for (u, v), m in expected.edge_items()
                    if not is_star(u) and not is_star(v)}
    assert overflow_records > 0


def _edge_list_build(parent, depth, glued, kept, name=None):
    # the glued graph as the validating constructor builds it from the edge
    # list in walk order: tree edges, kept leaves, then the glued pairs
    if not parent:
        return Multigraph([(S(0), S(1))])
    if name is None:
        name = {a: V(a) for a in parent}
    edges = [(name[p], name[a]) for a, p in parent.items() if p is not None]
    edges += [(S(j), name[f]) for j, f in kept]
    edges += [(name[a], name[b]) for a, b in zip(glued[::2], glued[1::2])]
    return Multigraph(edges, vertices=[name[a] for a in parent])


def test_glued_graph_matches_edge_list_build():
    # the one-pass multiplicity map against the constructor's edge-list
    # merge: same pairs in the same insertion order, same vertices and key;
    # loops, doubled tree edges, repeated glued pairs, P-tree records with
    # overflow labels (leaves kept and dropped) and [0, 0]'s single edge
    seen = Counter()

    def check(parent, depth, glued, kept, name=None):
        g = samplers._glued_graph(parent, depth, glued, kept, name)
        h = _edge_list_build(parent, depth, glued, kept, name)
        assert list(g._mult.items()) == list(h._mult.items())
        assert g.vertices == h.vertices and g.key() == h.key()
        assert g._walk == ((parent, depth, glued, kept) if parent else None)
        pairs = [p for p, _ in g.edge_items()]
        seen["loop"] += any(u == v for u, v in pairs)
        seen["double"] += any(m > 1 and u != v for (u, v), m in g.edge_items())
        seen["glued twice"] += len(set(zip(glued[::2], glued[1::2]))) \
            < len(glued) // 2

    def check_tuples(k, tuples):
        for entries in tuples:
            parent, depth, fathers = _walk(entries, len(entries) + 1)
            check(parent, depth, *samplers._designated(fathers, k))

    rng = np.random.default_rng(44)
    for n, k in [(4, 1), (16, 1), (16, 2), (64, 3)]:  # surplus-k ladders
        degs = [2] * n + [0] * (n + 2 - 2 * k)
        base = _walk_base(validate(degs, "surplus", k=k).to_tree_kind())
        check_tuples(k, (base[rng.permutation(len(base))].tolist()
                         for _ in range(50)))
    for degs, k in [((0, 0), 0), ((1,), 1), ((3,), 2), ((5,), 3),
                    ((2, 1, 0), 1), ((2, 2, 1, 1, 1, 1), 2)]:
        tree_seq = validate(list(degs), "surplus", k=k).to_tree_kind()
        check_tuples(k, multiset_arrangements(_base_multiset(tree_seq)))
    for pvec in (PVector((0.5, 0.3), p_inf=0.2), PVector((0.6, 0.3, 0.1))):
        for k in range(4):
            for _ in range(25):
                growth = PTreeGrowth(pvec, rng)
                growth.grow(0, 2 * k)
                growth.grow(len(growth.record) + int(rng.integers(1, 30)))
                record = growth.record
                parent, depth, fathers = _walk(record, len(record) + 1)
                name = dict(zip(parent, parent))
                for leaves in (True, False):
                    kept = ([(j, f) for j, f in enumerate(fathers[:-1])
                             if not 0 < j <= 2 * k] if leaves else [])
                    check(parent, depth, fathers[1:2 * k + 1], kept, name)
                seen["overflow"] += any(v.kind == "Vinf" for v in record)
    assert min(seen.values()) > 0, seen


def _digest(text) -> str:
    data = text if isinstance(text, bytes) else text.encode()
    return hashlib.sha256(data).hexdigest()


def test_seeded_outputs_pinned():
    # sha256 of seeded outputs taken before the walk kernel replaced the
    # adjacency-and-BFS bias; dk_table_221111_k2 re-recorded at 0.2.0, when
    # table draws became one choice from the exact law, and
    # dk_stream_ladder128 and pk_prefix at 0.3.0, when the rejection bound
    # fell from (k+1)! 2^k to 2^k.  A change to how a sampler consumes its
    # RNG stream breaks old manifests and must bump experiments.VERSION.
    pins = {
        "bias_ladder64_k1":
            "232fc1d05053be887c4903e62e007517226b1167bf9a212f353361878b7627e4",
        "bias_33211_k2":
            "e4b8c8d1515ad42d252357a252b680b8f3302188b8ad8fba6cb276fbf4e6f721",
        "bias_33211_k3":
            "3e8244bb879008b3b4d09b2fa1d67161bb3bf8c52a7a89a17a31fcc763ca1386",
        "dk_stream_ladder128":
            "beb423638b268acc490d385b6589cba09ced6910669bde01fae2d17c1c46a946",
        "dk_table_221111_k2":
            "4d4252dd9d98cdc173152df47293f3d5d08128a400ec08e2b2a8ad0590bf7a69",
        "pk_prefix":
            "e3f63b5d445807176519e9f0bc4266961fe873b7ce22400677ee543945f4e484",
        "gp_d_tree_ladder64":
            "206c2c816fd8f33fd6e2fbd91dccf8d583ed2de329088c5ccc5b468c11ea3b49",
        "gp_p_tree":
            "64b0f535bdbcc997f668c97211d34b30dbb6b3eff9b098b16af02451a2975f8d",
        "gp_pk_graph":
            "64b79a1e1852f4b785d0e4418c18410e6d2c6b20cabfc1e04c46dc8347f388a0",
        "gp_dk_graph_ladder128":
            "546a906d6234eabf25b62a4a8fb28819a527dafbc23beac9aa9b116abbfdee41",
        "pk_glued_k2_min_stars":
            "60dda15ea2e74792deed46d8b85268ab76cd329238df25f9ebc7d13f3a2ccd63",
    }
    got = {}
    ladder = validate([2] * 64 + [0] * 66, "tree")
    got["bias_ladder64_k1"] = _digest(d_tree_bias_values(
        ladder, 1, 500, np.random.default_rng(31)).tobytes())
    seq = validate([3, 3, 2, 1, 1] + [0] * 7, "tree")
    for k in (2, 3):
        got[f"bias_33211_k{k}"] = _digest(d_tree_bias_values(
            seq, k, 500, np.random.default_rng(32 + k)).tobytes())
    stream = validate([2] * 128 + [0] * 128, "surplus", k=1)
    rng = np.random.default_rng(36)
    got["dk_stream_ladder128"] = _digest("\n".join(
        sample_dk_graph(stream, rng).to_json() for _ in range(20)))
    table = validate([2, 2, 1, 1, 1, 1], "surplus", k=2)
    rng = np.random.default_rng(37)
    got["dk_table_221111_k2"] = _digest("\n".join(
        sample_dk_graph(table, rng).to_json() for _ in range(50)))
    rng = np.random.default_rng(38)
    pvec = PVector((2 / 3, 1 / 3))
    got["pk_prefix"] = _digest("\n".join(
        sample_pk_graph_prefix(pvec, 1, 64, rng).to_json() for _ in range(50)))
    # distance matrices (and weights) of the tree models, taken while they
    # still came from a LabeledTree per repetition
    mats, w = gp_matrix_sample({"model": "d-tree", "params": ladder,
                                "scale": "lambda"}, 5, 50,
                               np.random.default_rng(39))
    got["gp_d_tree_ladder64"] = _digest(mats.tobytes() + w.tobytes())
    mats, w = gp_matrix_sample({"model": "p-tree", "scale": "sigma",
                                "params": PVector((0.5, 0.25, 0.125), 0.125)},
                               5, 50, np.random.default_rng(40))
    got["gp_p_tree"] = _digest(mats.tobytes() + w.tobytes())
    # the leaves-kept (P,k) path, where min_stars follows the fixed-length
    # tail; recorded while that tail was still drawn one step at a time
    mats, w = gp_matrix_sample({"model": "pk-graph", "k": 1, "n_steps": 40,
                                "scale": "sigma",
                                "params": PVector((0.5, 0.25, 0.125), 0.125)},
                               5, 50, np.random.default_rng(41))
    got["gp_pk_graph"] = _digest(mats.tobytes() + w.tobytes())
    # streamed (D,1)-graph matrices, read off each accepted graph's walk;
    # recorded while that graph was still built edge by edge through the
    # validating Multigraph constructor
    mats, w = gp_matrix_sample({"model": "dk-graph", "k": 1, "params": stream,
                                "scale": "lambda"}, 5, 20,
                               np.random.default_rng(43))
    got["gp_dk_graph_ladder128"] = _digest(mats.tobytes() + w.tobytes())
    # leaves kept at k = 2 with p_inf > 0, min_stars past n_steps, and the
    # next draw; recorded while the phase before acceptance drew one step
    # at a time
    rng = np.random.default_rng(42)
    got["pk_glued_k2_min_stars"] = _digest("\n".join(
        _sample_pk_glued(PVector((0.5, 0.25, 0.125), 0.125), 2, 6, rng,
                         min_stars=12).to_json() for _ in range(50))
        + "\n" + repr(rng.random()))
    assert got == pins
    assert VERSION == "0.3.0"
