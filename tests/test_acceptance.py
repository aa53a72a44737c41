"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The heavy Monte Carlo
loads live here; module test files keep the quick versions.
"""

import itertools
import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats as scistats

import surpluslab as sl
from surpluslab.continuum import core_measure, sample_icrt
from surpluslab.experiments import (bias_tail_experiment, converge_experiment,
                                    rng_stream)
from surpluslab.labels import internal as V, star as S
from surpluslab.multigraph import (Multigraph, bias_bound, cb_probability,
                                   cycle_break, glue_tree_leaves)
from surpluslab.params import validate
from surpluslab.reconstruct import (check_four_point, core_measure_from_matrix,
                                    reconstruct)
from surpluslab.samplers import (_FirstPair, _bias_core, cm_conditioned_oracle,
                                 dk_table, pk_law_oracle, sample_dk_graph_keys,
                                 sample_pk_graph_prefix)
from surpluslab.trees import (_base_multiset, _climb, _walk,
                              enumerate_d_tree_keys, multiset_arrangements,
                              sample_d_tree_keys, stick_break_tree, tree_count)

EX12 = validate([1, 2, 1, 3, 3, 0, 0, 0, 0, 0, 0, 0], "tree")
EX12_TUPLE = (V(4), V(5), V(2), V(5), V(3), V(4), V(5), V(4), V(1), V(2))
PAIRS2 = [(S(1), S(2)), (S(3), S(4))]
BROWNIAN = sl.ThetaVector(theta0=1.0)


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {num:2d}: {status} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def tv_distance(law, counts, n):
    keys = set(law) | set(counts)
    return 0.5 * sum(abs(counts.get(k, 0) / n - float(law.get(k, 0)))
                     for k in keys)


def test_criterion_01_cycle_breaking_probability():
    t0 = time.time()
    tree = stick_break_tree(EX12, EX12_TUPLE)
    graph = glue_tree_leaves(tree, PAIRS2)
    exact = cb_probability(graph, tree)
    rng = rng_stream(101, 0)
    n = 10 ** 5
    hits = sum(cycle_break(graph, 2, rng)[0] == tree for _ in range(n))
    p = float(exact)
    sd = math.sqrt(n * p * (1 - p))
    ok = exact == Fraction(1, 30) and abs(hits - n * p) < 4 * sd
    report(1, ok, f"exact={exact}, freq={hits / n:.5f} "
                  f"(4sd band +/-{4 * sd / n:.5f}), {time.time() - t0:.1f}s")


def test_criterion_02_stick_breaking_trace():
    t0 = time.time()
    tree = stick_break_tree(EX12, EX12_TUPLE)
    degrees_ok = [tree.degree(V(i)) for i in range(1, 6)] == [2, 3, 2, 4, 4]
    leaves_ok = tree.star_leaves() == [S(j) for j in range(7)]
    graph = glue_tree_leaves(tree, PAIRS2)
    sq = graph.square()
    sq_minus = graph.remove_copy(V(4), V(5)).square()
    ok = degrees_ok and leaves_ok and sq == 5 and sq_minus == 3
    report(2, ok, f"degrees ok={degrees_ok}, leaves ok={leaves_ok}, "
                  f"square={sq}, square minus edge={sq_minus}, "
                  f"{time.time() - t0:.1f}s")


def test_criterion_03_tree_uniformity():
    t0 = time.time()
    sequences = [(1, 1, 0, 0), (2, 1, 0, 0, 0), (2, 2, 0, 0, 0, 0),
                 (1, 1, 1, 1, 0, 0), (3, 1, 1, 1, 0, 0, 0, 0),
                 (2, 1, 1, 1, 1, 0, 0, 0)]
    n = 10 ** 6
    worst = 0.0
    details = []
    for i, degs in enumerate(sequences):
        seq = validate(list(degs), "tree")
        count = tree_count(seq)
        assert count <= 5000
        keys = set(enumerate_d_tree_keys(seq))
        counts = sample_d_tree_keys(seq, n, rng_stream(103, i))
        assert set(counts) <= keys
        tv = 0.5 * sum(abs(counts.get(k, 0) / n - 1 / count) for k in keys)
        worst = max(worst, tv)
        details.append(f"{count} trees: TV={tv:.4f}")
    ok = worst < 0.01
    report(3, ok, f"{len(sequences)} sequences, worst TV={worst:.4f} < 0.01; "
                  + "; ".join(details) + f"; {time.time() - t0:.0f}s")


def _half_edge_partitions(total, parts):
    """Non-increasing positive integer sequences of the given length/sum."""
    if parts == 1:
        yield (total,)
        return
    for first in range(math.ceil(total / parts), total - parts + 2):
        for rest in _half_edge_partitions(total - first, parts - 1):
            if rest[0] <= first:
                yield (first,) + rest


def test_criterion_04_dk_graph_law():
    t0 = time.time()
    n = 10 ** 5
    worst = (0.0, None)
    tested = 0
    for k in (1, 2):
        for s in range(1, 8):
            total = 2 * s + 2 * k - 2
            if total > 12:
                continue
            for degs in _half_edge_partitions(total, s):
                half = validate(list(degs), "half-edge")
                oracle = cm_conditioned_oracle(half, k)
                counts = sample_dk_graph_keys(half.shifted_down(k), n,
                                              rng_stream(104, tested))
                tv = tv_distance(oracle, counts, n)
                if tv > worst[0]:
                    worst = (tv, (degs, k))
                tested += 1
    ok = worst[0] < 0.02
    report(4, ok, f"{tested} half-edge sequences (sum<=12, k in {{1,2}}), "
                  f"worst TV={worst[0]:.4f} at {worst[1]}, "
                  f"{time.time() - t0:.0f}s")


def test_dk_table_law_is_the_conditioned_cm_law_exactly():
    # the biased construction's identity, with no sampling: the table's
    # summed biases, per leaf-canonical key and normalised, are the
    # configuration model's law conditioned on connectivity
    t0 = time.time()
    tested = 0
    for k in range(4):
        for s in range(1, 12):
            total = 2 * s + 2 * k - 2
            if not s <= total <= 12:  # every degree positive, sum <= 12
                continue
            for degs in _half_edge_partitions(total, s):
                half = validate(list(degs), "half-edge")
                try:
                    oracle = cm_conditioned_oracle(half, k)
                except sl.ValidationError:
                    continue
                if degs == (1, 1):  # the one graph whose leaves keep their
                    # labels: the CM's edge V1-V2 is the (D,0)-graph S0-S1
                    edge = Multigraph([(V(1), V(2))]).leaf_canonical_key()
                    oracle = {Multigraph([(S(0), S(1))]).leaf_canonical_key():
                              oracle[edge]}
                table = dk_table(half.shifted_down(k))
                law = Counter()
                for g, w in zip(table.graphs, table.weights):
                    law[g.leaf_canonical_key()] += w
                total_weight = sum(table.weights)
                assert {key: w / total_weight for key, w in law.items()} \
                    == oracle, (degs, k)
                assert table.p.tolist() == [float(w / total_weight)
                                            for w in table.weights]
                tested += 1
    assert tested == 107
    print(f"{tested} half-edge sequences (sum<=12, k=0..3): table law == "
          f"conditioned CM law exactly, {time.time() - t0:.1f}s")


def test_criterion_05_pk_graph_law():
    t0 = time.time()
    pvec = sl.PVector((2 / 3, 1 / 3))
    oracle = pk_law_oracle(sl.PVector((Fraction(2, 3), Fraction(1, 3))), 1)
    rng = rng_stream(105, 0)
    n = 10 ** 5
    counts = Counter(sample_pk_graph_prefix(pvec, 1, 64, rng).key()
                     for _ in range(n))
    tv = tv_distance(oracle, counts, n)
    ok = tv < 0.03
    report(5, ok, f"s=2, k=1: TV={tv:.4f} < 0.03 at {n} samples, "
                  f"{time.time() - t0:.0f}s")


def test_criterion_06_bias_bound_and_square_lower_bound():
    t0 = time.time()
    rng = rng_stream(106, 0)
    iterations = 0
    tuples_checked = 0
    bound_ok = True
    square_ok = True
    while iterations < 10 ** 6:
        k = int(rng.integers(0, 4))
        m = int(rng.integers(1, 5))
        degs = sorted((int(rng.integers(1, 5)) for _ in range(m)), reverse=True)
        z = sum(degs) - m - 2 * k + 2
        if z < 0:
            continue
        tree_seq = validate(degs + [0] * z, "surplus", k=k).to_tree_kind()
        n_tuples = tree_count(tree_seq)
        if n_tuples > 5000:
            continue
        # every tuple of the sequence, from its walk and the integer bias
        for arrangement in multiset_arrangements(_base_multiset(tree_seq)):
            parent, depth, fathers = _walk(arrangement, 2 * k)
            circ, squares = _bias_core(parent, depth, fathers[:2 * k])
            bound_ok &= Fraction(circ, math.prod(squares)) <= bias_bound(k)
            # d_i: the leaf distance of pair i, its fathers' climb plus 2
            dists = [len(_climb(parent, depth, a, b)) + 2
                     for a, b in zip(fathers[:2 * k:2], fathers[1:2 * k:2])]
            square_ok &= all(sq >= d - 1 for sq, d in zip(squares, dists))
            tuples_checked += 1
        # draw a block of iterations; each lands on a tuple checked above
        draws = rng.integers(n_tuples, size=50000)
        assert draws.max() < n_tuples
        iterations += len(draws)
    ok = bound_ok and square_ok
    report(6, ok, f"bias <= 2^k: {bound_ok}, square_i >= d-1: "
                  f"{square_ok}; {tuples_checked} distinct tuples covering "
                  f"{iterations} iterations, {time.time() - t0:.0f}s")


def test_criterion_07_reconstruction_roundtrip():
    t0 = time.time()
    rng = rng_stream(107, 0)
    worst = 0.0
    for _ in range(100):
        n_leaves = int(rng.integers(3, 13))
        tree = sample_icrt(BROWNIAN, rng, n_points=n_leaves).tree()
        labels = list(range(1, n_leaves + 1))
        m = tree.mark_distance_matrix(labels)
        rec = reconstruct(m)
        got = rec.mark_distance_matrix(labels)
        worst = max(worst, float(np.max(np.abs(np.array(got) - np.array(m)))))
    square = [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]]
    rejected, witness = check_four_point(square)
    ok = worst < 1e-9 and not rejected and witness is not None
    report(7, ok, f"100 round trips, max abs error={worst:.2e} < 1e-9; "
                  f"square witness={witness}, {time.time() - t0:.0f}s")


def test_criterion_08_core_measure_coherence():
    t0 = time.time()
    rng = rng_stream(108, 0)
    worst = 0.0
    for _ in range(100):
        tree = sample_icrt(BROWNIAN, rng, n_points=6).tree()
        m = tree.mark_distance_matrix(range(1, 7))
        for c in (1, 2, 3):
            sub = [row[:2 * c] for row in m[:2 * c]]
            worst = max(worst, abs(core_measure_from_matrix(sub)
                                   - core_measure(tree, c)))
    mat = [[Fraction(0), Fraction(5), Fraction(7), Fraction(6)],
           [Fraction(5), Fraction(0), Fraction(8), Fraction(7)],
           [Fraction(7), Fraction(8), Fraction(0), Fraction(5)],
           [Fraction(6), Fraction(7), Fraction(5), Fraction(0)]]
    lam = Fraction(7, 3)
    homog = core_measure_from_matrix(
        [[lam * x for x in row] for row in mat]) == \
        lam * core_measure_from_matrix(mat)
    ok = worst < 1e-9 and homog
    report(8, ok, f"100 trees, max |matrix - geometric|={worst:.2e} < 1e-9; "
                  f"exact homogeneity={homog}, {time.time() - t0:.0f}s")


def test_criterion_09_icrt_laws():
    t0 = time.time()
    rng = rng_stream(109, 0)
    draws = np.array([sample_icrt(BROWNIAN, rng, n_points=1).points[0][0]
                      for _ in range(10 ** 5)])
    ks = scistats.kstest(draws, lambda y: 1 - np.exp(-y ** 2 / 2))
    y = 1.4
    counts = np.array([len(sample_icrt(BROWNIAN, rng, y_max=y).points)
                       for _ in range(10 ** 4)])
    mean = y ** 2 / 2
    kmax = 8
    observed = np.bincount(np.minimum(counts, kmax), minlength=kmax + 1)
    probs = np.array([scistats.poisson.pmf(i, mean) for i in range(kmax)])
    probs = np.append(probs, 1 - probs.sum())
    chi = scistats.chisquare(observed, probs * len(counts))
    ok = ks.pvalue > 0.01 and chi.pvalue > 0.01
    report(9, ok, f"first-cut KS p={ks.pvalue:.3f} > 0.01; Poisson count "
                  f"chi2 p={chi.pvalue:.3f} > 0.01, {time.time() - t0:.0f}s")


def _ladder_member(n, k):
    if k == 0:
        seq = validate([2] * n + [0] * (n + 2), "tree")
        return {"model": "d-tree", "params": seq, "scale": "lambda",
                "label": f"n={n}"}
    seq = validate([2] * n + [0] * n, "surplus", k=1)
    return {"model": "dk-graph", "params": seq, "k": 1, "scale": "lambda",
            "label": f"n={n}"}


def test_criterion_10_convergence_ladder():
    # the printed family is the valid binary ladder (2 x n, 0 x n+2); see
    # the repo notes for why the all-ones spelling cannot be a tree sequence
    t0 = time.time()
    details = []
    ok = True
    for k in (0, 1):
        family = [_ladder_member(n, k) for n in (32, 128, 512)]
        target = ({"model": "icrt", "params": BROWNIAN} if k == 0 else
                  {"model": "icrg", "params": BROWNIAN, "k": 1})
        rep = converge_experiment(family, target, n_points=5, n_reps=600,
                                  rng=rng_stream(42, k), n_perms=199,
                                  target_factor=4)
        energies = [r["energy"] for r in rep["rows"]]
        pm = rep["last_member_permutation"]
        confirmed = pm["observed"] < pm["threshold95"]
        ok = ok and rep["decreasing"] and confirmed
        details.append(
            f"k={k}: energies {[f'{e:.4f}' for e in energies]} "
            f"decreasing={rep['decreasing']}, perm obs={pm['observed']:.4f} "
            f"< thr95={pm['threshold95']:.4f}: {confirmed} (p={pm['p']:.2f})")
    report(10, ok, "; ".join(details) + f", {time.time() - t0:.0f}s")


def test_k1_cycle_length_limit_is_exact_along_ladder():
    # the k = 1 limit with no sampling.  A (D,1)-graph's cycle length C is
    # T, the walk's last entry before its first repeat, so P(C = t) is
    # proportional to P(T = t) f(t), the law the streaming sampler draws T
    # from.  On the ICRG side the core length, weighted by 1/length, is
    # half-normal.  The exact Kolmogorov distance between lambda C (lambda
    # as in criterion 10's scale) and the half-normal falls along
    # criterion 10's ladder
    distances = []
    for n in (32, 128, 512):
        tree_seq = _ladder_member(n, 1)["params"].to_tree_kind()
        first = _FirstPair(tree_seq)
        law = np.diff(first._cum, prepend=0.0) / first._cum[-1]
        below = np.concatenate(([0.0], np.cumsum(law)))  # P(C < t), P(C <= t)
        half_normal = np.array([math.erf(tree_seq.lam * t / math.sqrt(2))
                                for t in range(1, len(law) + 1)])
        distances.append(max(np.abs(below[:-1] - half_normal).max(),
                             np.abs(below[1:] - half_normal).max()))
    assert distances == pytest.approx([0.1443, 0.0832, 0.0453], abs=5e-4)
    assert distances[0] > distances[1] > distances[2]


def _ladder_bias_tail(n, lam, m):
    """Exact E[h_m(bias/lambda)] for k=1 on the binary ladder (2 x n, 0 x n+2).

    The bias is 2 with probability 1/(2n-1) (S1, S2 share a father), 1 with
    probability 2/(2n-1) (adjacent fathers) and 1/(L+1) <= 1/3 when the
    fathers are L >= 2 apart; test_binary_ladder_bias_atoms checks this law
    by Pruefer enumeration.  Only the two top atoms can reach a level m with
    m * lambda > 1/3.
    """
    assert 1 / (3 * lam) < m
    atoms = {2: Fraction(1, 2 * n - 1), 1: Fraction(2, 2 * n - 1)}
    return sum(b / lam * float(p) for b, p in atoms.items() if b / lam >= m)


def test_criterion_11_bias_tail_decay():
    # The tail E[h_m(bias/lambda)], h_m(x) = x 1{x >= m}, of the k=1 bias on
    # the binary ladder, checked against its exact value.  The bias takes
    # the atoms 2 w.p. 1/(2n-1) and 1 w.p. 2/(2n-1), and values <= 1/3
    # otherwise, so with lambda = sqrt(2n)/(2n+2) the largest possible
    # bias/lambda is 2/lambda = 16.5, 32.25, 64.125 at n = 32, 128, 512.
    # The tail therefore decays in m uniformly over n (sup over the ladder:
    # 0.1265 at m=30, 0.0627 at m=50, 0 at m=65), but not monotonically in
    # n at fixed m: at m=50 it is 0, 0, (2/lambda)/(2n-1) = 0.0627 along
    # n = 32, 128, 512.  Each estimate must sit within 4 standard errors of
    # the exact tail, and be exactly 0 where the exact tail is 0; the last
    # level of each row, just above 2/lambda, is hit by any bias above 2.
    t0 = time.time()
    grid = [30.0, 50.0, 65.0]
    ok = True
    details = []
    sup_exact = [0.0] * len(grid)
    for i, (n, reps) in enumerate([(32, 20000), (128, 20000), (512, 100000)]):
        seq = validate([2] * n + [0] * (n + 2), "tree")
        lam = seq.lam
        m_grid = grid + [2 / lam * (1 + 1e-9)]
        rows = bias_tail_experiment(seq, 1, m_grid, reps, rng_stream(111, i))
        for j, (m, row) in enumerate(zip(m_grid, rows)):
            exact = _ladder_bias_tail(n, lam, m)
            if j < len(grid):
                sup_exact[j] = max(sup_exact[j], exact)
            est, se = row["estimate"], row["stderr"]
            if exact == 0:
                z = 0.0 if est == 0 else math.inf
            else:
                z = (est - exact) / se if se > 0 else math.inf
            ok = ok and abs(z) <= 4
            m_label = f"{m:g}" if j < len(grid) else f"{2 / lam:g}+"
            details.append(f"n={n} m={m_label}: {est:.4f}+/-{se:.4f} vs "
                           f"exact {exact:.4f} (z={z:+.2f})")
    decays = (all(a > b for a, b in zip(sup_exact, sup_exact[1:]))
              and sup_exact[-1] == 0)
    ok = ok and decays
    report(11, ok, "E[h_m(bias/lambda)] along ladder: " + "; ".join(details)
           + f"; |z| <= 4 everywhere, exact sup over ladder "
           f"{[round(v, 4) for v in sup_exact]} at m={grid} decays to 0: "
           f"{decays}, {time.time() - t0:.0f}s")


def test_criterion_12_cli_determinism(tmp_path):
    import json
    from surpluslab.cli import main

    t0 = time.time()
    files = {}
    files["tree"] = tmp_path / "d.json"
    files["tree"].write_text(json.dumps(
        {"kind": "tree", "degrees": [2, 1, 0, 0, 0]}))
    files["surplus"] = tmp_path / "dk.json"
    files["surplus"].write_text(json.dumps(
        {"kind": "surplus", "k": 1, "degrees": [2, 1, 1, 0]}))
    files["half"] = tmp_path / "cm.json"
    files["half"].write_text(json.dumps(
        {"kind": "half-edge", "degrees": [3, 2, 2, 1]}))
    files["p"] = tmp_path / "p.json"
    files["p"].write_text(json.dumps({"p": [0.5, 0.5], "p_inf": 0.0}))
    files["theta"] = tmp_path / "t.json"
    files["theta"].write_text(json.dumps({"theta0": 1.0, "theta": []}))
    files["mult"] = tmp_path / "w.json"
    files["mult"].write_text(json.dumps(
        {"lambda": 1.0, "weights": [1.0, 0.5]}))
    files["matrix"] = tmp_path / "m.csv"
    files["matrix"].write_text("a,b,c,d\n0,2,3,3\n2,0,3,3\n3,3,0,2\n3,3,2,0\n")

    commands = [
        ["--seed", "1", "--reps", "3", "sample-tree", "--params",
         str(files["tree"])],
        ["--seed", "1", "--reps", "3", "sample-tree", "--params",
         str(files["p"]), "--steps", "6"],
        ["--seed", "2", "--reps", "3", "sample-graph", "--params",
         str(files["surplus"])],
        ["--seed", "3", "--reps", "3", "sample-cm", "--params",
         str(files["half"])],
        ["--seed", "4", "--reps", "3", "sample-mult", "--params",
         str(files["mult"]), "--multi"],
        ["--seed", "5", "--reps", "2", "sample-icrt", "--params",
         str(files["theta"]), "--points", "4"],
        ["--seed", "6", "--reps", "2", "sample-icrg", "--params",
         str(files["theta"]), "--points", "4", "--k", "1"],
        ["reconstruct", "--params", str(files["matrix"])],
        ["core-measure", "--params", str(files["matrix"])],
        ["--seed", "7", "--reps", "200", "experiment", "bias-tail",
         "--params", str(files["surplus"]), "--k", "1", "--m-grid", "0,5"],
        ["--seed", "8", "--reps", "30", "experiment", "converge", "--family",
         str(files["tree"]), "--target", str(files["theta"]), "--k", "0",
         "--points", "2"],
        ["oracle", "enumerate-trees", "--params", str(files["tree"])],
        ["oracle", "cm-law", "--params", str(files["half"]), "--k", "1"],
        ["oracle", "pk-law", "--params", str(files["p"]), "--k", "1"],
    ]
    ok = True
    for i, argv in enumerate(commands):
        outs = []
        for run_id in (0, 1):
            out = tmp_path / f"cmd{i}_run{run_id}"
            code = main(["--out", str(out)] + argv)
            assert code == 0, argv
            outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        same = outs[0] == outs[1]
        ok = ok and same
        if not same:
            print(f"  non-deterministic: {argv}")
    report(12, ok, f"{len(commands)} subcommand reruns byte-identical, "
                   f"{time.time() - t0:.0f}s")
