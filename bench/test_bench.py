"""The benchmark's own tests: every workload at a tiny size, and every
output check against a fault planted in the data.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py

They live outside tests/, so the Tier-1 suite neither collects nor waits
for them.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import run as bench_run  # noqa: E402
import workloads  # noqa: E402
from surpluslab import experiments, samplers  # noqa: E402
from surpluslab.labels import parse_vertex  # noqa: E402
from surpluslab.params import validate  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402

E2E_WITHOUT_SETUP = set(bench_run.E2E_UNITS) - {"setup_s"}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", bench_run.WORKLOAD_NAMES)
def test_workload_tiny(workload, trace):
    record = bench_run.run_workload(workload, seed=3, seconds=0, trace=trace,
                                    tiny=True)
    assert record["problems"] == []
    assert record["correct"] and record["failed"] == 0
    assert record["attempted"] > 0 and record["rounds"] == 1
    line = bench_run.result_line(record)
    if trace:
        assert set(line["metrics"]) == {m[0] for m in LAYER_METRICS}
        assert record["missing"] == []
    else:
        assert set(line["metrics"]) == E2E_WITHOUT_SETUP
        assert all(m["value"] > 0 for m in line["metrics"].values())


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} == set(bench_run.E2E_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_run.E2E_UNITS
    assert {(m["name"], m["unit"]) for m in spec["per_layer"]} == \
        {(m[0], m[1]) for m in LAYER_METRICS}
    assert [w["name"] for w in spec["workloads"]] == list(bench_run.WORKLOAD_NAMES)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "results",
                                                  "traces", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "ladder-k1", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ---------------------------------------------------------------------------
# planted faults


def test_bias_scaled_by_1_1_fails():
    n = 8
    values = experiments.d_tree_bias_values(
        validate([2] * n + [0] * (n + 2), "tree"), 1, 3000,
        workloads.rng_for(5, 2))
    checks.check_ladder_bias(values, n)
    with pytest.raises(checks.CheckFailed):
        checks.check_ladder_bias(values * 1.1, n)


def test_bias_atom_frequency_checked():
    n = 8
    values = experiments.d_tree_bias_values(
        validate([2] * n + [0] * (n + 2), "tree"), 1, 3000,
        workloads.rng_for(6, 2))
    dropped = np.where(values == 2.0, 0.25, values)
    with pytest.raises(checks.CheckFailed):
        checks.check_ladder_bias(dropped, n)


def _dk_graph_and_matrix(n=8):
    seq = validate([2] * n + [0] * n, "surplus", k=1)
    g = samplers.sample_dk_graph(seq, workloads.rng_for(7, 1))
    points = [f"S{2 + j}" for j in range(1, 6)]
    vs, edges = checks.graph_from_items(g.vertices, g.edge_items())
    lam = workloads.ladder_lambda(n)
    mat = experiments.multigraph_distance_matrix(
        g, [parse_vertex(p) for p in points]) * lam
    return seq, vs, edges, points, mat, lam


def test_dk_matrix_entry_off_by_one_fails():
    seq, vs, edges, points, mat, lam = _dk_graph_and_matrix()
    checks.check_surplus_graph(vs, edges, list(seq.degrees), 1)
    checks.check_hop_matrix(vs, edges, points, mat, lam)
    bad = mat.copy()
    bad[0, 3] += 1
    with pytest.raises(checks.CheckFailed):
        checks.check_hop_matrix(vs, edges, points, bad, lam)


def test_dk_graph_with_a_lost_edge_fails():
    seq, vs, edges, *_ = _dk_graph_and_matrix()
    u, v, m = edges[0]
    fewer = [(u, v, m - 1)] + edges[1:]
    with pytest.raises(checks.CheckFailed):
        checks.check_surplus_graph(vs, fewer, list(seq.degrees), 1)


def test_icrg_matrix_entry_off_by_one_fails():
    from surpluslab import continuum
    from surpluslab.params import ThetaVector
    ws = continuum.sample_icrg_weighted(ThetaVector(theta0=1.0), 1,
                                        workloads.rng_for(8, 3), n_points=7)
    labels = list(range(3, 8))
    glued = np.array(ws.payload.mark_distance_matrix(labels), dtype=float)
    base = ws.payload.base.mark_distance_matrix(list(range(1, 8)))
    checks.check_icrg(base, glued, ws.weight, labels)
    bad = glued.copy()
    bad[1, 2] += 1
    with pytest.raises(checks.CheckFailed):
        checks.check_icrg(base, bad, ws.weight, labels)
    with pytest.raises(checks.CheckFailed):
        checks.check_icrg(base, glued, ws.weight * 1.001, labels)


def test_four_point_entry_off_by_one_fails():
    star = np.full((4, 4), 2.0) - 2.0 * np.eye(4)
    checks.check_four_point(star)
    bad = star.copy()
    bad[0, 1] = bad[1, 0] = 3.0
    with pytest.raises(checks.CheckFailed):
        checks.check_four_point(bad)


def test_energy_formula_matches_and_catches_a_shift():
    rng = workloads.rng_for(9, 0)
    x, y = rng.random((40, 10)), rng.random((90, 10)) + 0.1
    wy = rng.random(90)
    e = experiments.energy_distance(x, y, None, wy)
    checks.check_energy_call((x, y, None, wy), {}, e)
    with pytest.raises(checks.CheckFailed):
        checks.check_energy_call((x, y, None, wy), {}, e + 1e-6)


def test_key_outside_oracle_support_fails():
    half = validate([3, 2, 2, 1], "half-edge")
    law = {checks.plain_key(k): p
           for k, p in samplers.cm_conditioned_oracle(half, 1).items()}
    checks.check_law_sums_to_one(law)
    seq = validate([2, 1, 1, 0], "surplus", k=1)
    rng = workloads.rng_for(10, 5)
    keys = []
    for _ in range(300):
        g = samplers.sample_dk_graph(seq, rng)
        vs, edges = checks.graph_from_items(g.vertices, g.edge_items())
        keys.append(checks.leaf_key(vs, edges))
    checks.check_gof(keys, law, "sample-graph")
    outsider = ((("V", 1), ("V", 2), ("V", 3)), ((((("V", 1), ("V", 1)), 3),)),
                (), 0)
    with pytest.raises(checks.CheckFailed):
        checks.check_gof(keys + [outsider], law, "sample-graph")
    with pytest.raises(checks.CheckFailed):
        checks.check_law_sums_to_one({**law, outsider: law[keys[0]]})


def test_reconstructed_distance_moved_by_1e_6_fails(tmp_path):
    names, edges = checks.random_weighted_tree(12, workloads.rng_for(11, 7))
    matrix = checks.leaf_matrix(names, edges)
    (tmp_path / "m.csv").write_text(checks.matrix_csv(names, matrix))
    env = bench_run._child_env()
    proc = subprocess.run([sys.executable, "-m", "surpluslab.cli",
                           "reconstruct", "--params", "m.csv"], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    line = proc.stdout.strip()
    checks.check_reconstruct(names, matrix, line)
    obj = json.loads(line)
    obj["edges"][0][2] += 1e-6
    with pytest.raises(checks.CheckFailed):
        checks.check_reconstruct(names, matrix, json.dumps(obj))
