import hashlib
import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from surpluslab import errors
from surpluslab.labels import internal as V, is_star, star as S
from surpluslab.experiments import VERSION, d_tree_bias_values, gp_matrix_sample
from surpluslab.multigraph import (Multigraph, bias, bias_bound,
                                   bias_components, glue_tree_leaves)
from surpluslab.params import PVector, validate
from surpluslab.samplers import (_bias_from_fathers, _dk_graph,
                                 _leaf_key_from_counts, _pk_graph,
                                 _sample_dk_streaming,
                                 canonical_oriented_edges,
                                 cm_conditioned_oracle, dk_table,
                                 insert_edgepoints, pk_law_oracle,
                                 sample_configuration_model, sample_dk_graph,
                                 sample_dk_graph_keys,
                                 sample_multiplicative_coupled,
                                 sample_multiplicative_graph,
                                 sample_multiplicative_multigraph,
                                 sample_ordered_partition,
                                 sample_pk_graph_prefix, shortcut_edgepoints)
from surpluslab.trees import (LabeledTree, PTreeGrowth, _base_multiset, _walk,
                              enumerate_d_tree_keys, multiset_arrangements,
                              sample_d_tree, sample_d_tuple, stick_break_tree)


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
    with pytest.raises(errors.ValidationError):
        sample_dk_graph(validate([1, 1], "surplus", k=1),
                        np.random.default_rng(0), k=2)


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
    stream_counts = Counter(
        _sample_dk_streaming(seq, rng).leaf_canonical_key() for _ in range(n))
    assert tv_against(oracle, stream_counts, n) < 0.03
    table_counts = sample_dk_graph_keys(seq, n, rng)
    assert tv_against(oracle, table_counts, n) < 0.03


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
        key = _leaf_key_from_counts(s, seq.degrees, mult)
        weights[key] = weights.get(key, 0) + w
        total += w
    if total == 0:
        return None
    return {key: Fraction(w, total) for key, w in weights.items()}


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
        cm_conditioned_oracle(validate([8, 8], "half-edge"), 8, cap_sum=14)
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
    # the early-stopped walk and the parent-pointer bias against the
    # multigraph.bias oracle on the whole tree, for the three slices the
    # samplers take: fathers[1:2k+1] (bias tail), fathers[:2k] with the
    # (D,k) relabelling S0..S2k-1 -> S1..S2k, S2k -> S0, and the walk of
    # a P-tree's draws
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
            value, squares, dists = _bias_from_fathers(
                parent, depth, fathers[1:2 * k + 1])
            assert value == bias(tree, k)
            assert squares == bias_components(tree, k)[1]
            assert dists == [tree.distance(S(2 * i - 1), S(2 * i))
                             for i in range(1, k + 1)]
            parent, depth, fathers = _walk(entries, 2 * k)
            shift = {S(j): S(j + 1) for j in range(2 * k)}
            shift[S(2 * k)] = S(0)
            value, _, _ = _bias_from_fathers(parent, depth, fathers[:2 * k])
            assert value == bias(tree.relabel(shift), k)
            growth = PTreeGrowth(pvec, rng)
            growth.grow_until_stars(2 * k)
            parent, depth, fathers = _walk(growth.record, 2 * k + 1)
            value, _, _ = _bias_from_fathers(parent, depth,
                                             fathers[1:2 * k + 1])
            assert value == bias(growth.tree(), k)
    assert stopped_early > 0


def _same_graph(g, h) -> bool:
    return g.vertices == h.vertices and dict(g.edge_items()) == dict(h.edge_items())


def _glue_pairs(k):
    return [(S(2 * i - 1), S(2 * i)) for i in range(1, k + 1)]


def test_dk_graph_matches_public_glue():
    # the one-step build from the walk against the public path (tree,
    # relabel S0..S2k-1 -> S1..S2k and S2k -> S0, glue) on every tuple of
    # small tables, the empty tuple of [0, 0] and tables without S0 included
    for degs, k in [((0, 0), 0), ((1, 1, 0, 0), 0), ((1, 1), 1),
                    ((2, 1, 1, 0), 1), ((2, 2), 2), ((4, 0), 2),
                    ((3, 2, 2, 0, 0), 2), ((3, 3, 1, 1), 3),
                    ((4, 2, 2, 1, 0), 3)]:
        tree_seq = validate(list(degs), "surplus", k=k).to_tree_kind()
        shift = {S(j): S(j + 1) for j in range(2 * k)}
        shift[S(2 * k)] = S(0)
        for arrangement in multiset_arrangements(_base_multiset(tree_seq)):
            tree = stick_break_tree(tree_seq, [V(x) for x in arrangement])
            expected = glue_tree_leaves(tree.relabel(shift), _glue_pairs(k))
            assert _same_graph(_dk_graph(list(arrangement), k), expected)


def test_pk_graph_matches_public_glue():
    # seeded draw records, overflow draws included, against the glued
    # P-tree; without leaves every star and its pendant edge is dropped
    rng = np.random.default_rng(24)
    overflow_records = 0
    for pvec in (PVector((0.5, 0.3), p_inf=0.2), PVector((0.6, 0.3, 0.1))):
        for k in range(4):
            for _ in range(25):
                growth = PTreeGrowth(pvec, rng)
                growth.grow_until_stars(2 * k)
                for _ in range(int(rng.integers(1, 30))):
                    growth.step()
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


def _digest(text) -> str:
    data = text if isinstance(text, bytes) else text.encode()
    return hashlib.sha256(data).hexdigest()


def test_seeded_outputs_pinned():
    # sha256 of seeded outputs taken before the walk kernel replaced the
    # adjacency-and-BFS bias.  A change to how a sampler consumes its RNG
    # stream breaks old manifests and must bump experiments.VERSION.
    pins = {
        "bias_ladder64_k1":
            "232fc1d05053be887c4903e62e007517226b1167bf9a212f353361878b7627e4",
        "bias_33211_k2":
            "e4b8c8d1515ad42d252357a252b680b8f3302188b8ad8fba6cb276fbf4e6f721",
        "bias_33211_k3":
            "3e8244bb879008b3b4d09b2fa1d67161bb3bf8c52a7a89a17a31fcc763ca1386",
        "dk_stream_ladder128":
            "132a4263827956a141d369e04144dd4a595d2bc87990b3a5d6e7ae3898c45320",
        "dk_table_221111_k2":
            "f4167af73ad3b181e8c698527b72cf3c60c1c771f6e5b0f999dc44180e296713",
        "pk_prefix":
            "c3436837d3cf502757d558f6c1ad86551a7f259309f554e1e48a821f396a96a0",
        "gp_d_tree_ladder64":
            "206c2c816fd8f33fd6e2fbd91dccf8d583ed2de329088c5ccc5b468c11ea3b49",
        "gp_p_tree":
            "64b0f535bdbcc997f668c97211d34b30dbb6b3eff9b098b16af02451a2975f8d",
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
    assert got == pins
    assert VERSION == "0.1.0"
