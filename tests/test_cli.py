import json
import time
from pathlib import Path

import pytest

from surpluslab.cli import main


def run(argv):
    return main(argv)


@pytest.fixture
def param_files(tmp_path):
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
    files["p_inf"] = tmp_path / "p_inf.json"
    files["p_inf"].write_text(json.dumps({"p": [], "p_inf": 1.0}))
    files["theta"] = tmp_path / "theta.json"
    files["theta"].write_text(json.dumps({"theta0": 1.0, "theta": []}))
    files["mult"] = tmp_path / "w.json"
    files["mult"].write_text(json.dumps(
        {"lambda": 1.0, "weights": [1.0, 0.5, 0.5]}))
    files["matrix"] = tmp_path / "m.csv"
    files["matrix"].write_text("a,b,c,d\n0,2,3,3\n2,0,3,3\n3,3,0,2\n3,3,2,0\n")
    files["square"] = tmp_path / "sq.csv"
    files["square"].write_text("a,b,c,d\n0,1,2,1\n1,0,1,2\n2,1,0,1\n1,2,1,0\n")
    return files


def read_all(out_dir):
    out = {}
    for p in sorted(Path(out_dir).iterdir()):
        out[p.name] = p.read_bytes()
    return out


def _twice(tmp_path, argv_of):
    d1, d2 = tmp_path / "run1", tmp_path / "run2"
    assert run(argv_of(d1)) == 0
    assert run(argv_of(d2)) == 0
    return read_all(d1), read_all(d2)


def test_sample_tree_deterministic(tmp_path, param_files):
    a, b = _twice(tmp_path, lambda d: [
        "--seed", "7", "--reps", "2", "--out", str(d),
        "sample-tree", "--params", str(param_files["tree"])])
    assert a == b
    lines = a["sample-tree.jsonl"].decode().strip().split("\n")
    assert len(lines) == 2
    for line in lines:
        assert "edges" in json.loads(line)
    manifest = json.loads(a["manifest.json"])
    assert manifest["seed"] == 7
    assert manifest["streams"] == [0, 1]


def test_sample_graph_cm_mult_icrt_icrg(tmp_path, param_files):
    for sub, params, extra in [
            ("sample-graph", "surplus", []),
            ("sample-cm", "half", []),
            ("sample-mult", "mult", ["--multi"]),
            ("sample-icrt", "theta", ["--points", "4"]),
            ("sample-icrg", "theta", ["--points", "4", "--k", "1"])]:
        a, b = _twice(tmp_path / sub.replace("-", "_"), lambda d: [
            "--seed", "3", "--reps", "2", "--out", str(d), sub,
            "--params", str(param_files[params])] + extra)
        assert a == b, sub


def test_reconstruct_cli(tmp_path, param_files):
    out = tmp_path / "rec"
    code = run(["--out", str(out), "reconstruct",
                "--params", str(param_files["matrix"])])
    assert code == 0
    payload = json.loads((out / "reconstruct.jsonl").read_text())
    assert len(payload["marks"]) == 4


def test_reconstruct_rejects_non_tree_metric(tmp_path, param_files, capsys):
    code = run(["reconstruct", "--params", str(param_files["square"])])
    assert code == 2
    err = capsys.readouterr().err
    assert "witness" in err


def test_core_measure_cli(tmp_path, param_files):
    out = tmp_path / "cm"
    assert run(["--out", str(out), "core-measure",
                "--params", str(param_files["matrix"])]) == 0
    payload = json.loads((out / "core-measure.jsonl").read_text())
    assert payload["pairs"] == 2


@pytest.mark.parametrize("pairs", ["5", "-1"])
def test_core_measure_pairs_out_of_range(tmp_path, param_files, pairs, capsys):
    # the 4x4 matrix holds 2 pairs; 0 (the default) means all of them
    out = tmp_path / "cm"
    assert run(["--out", str(out), "core-measure", "--params",
                str(param_files["matrix"]), "--pairs", pairs]) == 2
    assert "--pairs" in capsys.readouterr().err
    assert not out.exists()


def test_oracles_cli(tmp_path, param_files):
    for what, params, k in [("enumerate-trees", "tree", None),
                            ("cm-law", "half", "1"), ("pk-law", "p", "1")]:
        out = tmp_path / what
        argv = ["--out", str(out), "oracle", what,
                "--params", str(param_files[params])]
        if k:
            argv += ["--k", k]
        assert run(argv) == 0
        name = f"oracle-{what}.jsonl"
        assert (out / name).read_text().strip()


def test_oracle_cap_exit_code(tmp_path, param_files):
    code = run(["oracle", "enumerate-trees", "--params",
                str(param_files["tree"]), "--cap", "1"])
    assert code == 3


def test_invalid_args_exit_code():
    assert run(["no-such-command"]) == 1
    assert run([]) == 1


def test_validation_failure_exit_code(tmp_path, param_files):
    # tree-kind params fed to sample-graph
    assert run(["sample-graph", "--params", str(param_files["tree"])]) == 2


def test_sample_graph_rejects_empty_surplus_sequence(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"kind": "surplus", "k": 1, "degrees": []}))
    assert run(["sample-graph", "--params", str(empty)]) == 2


@pytest.mark.parametrize("command", ["reconstruct", "core-measure"])
@pytest.mark.parametrize("text", ["a,b,c\n0,1,x\n1,0,1\nx,1,0\n", "",
                                  "a,b,c,d\n0,2,3\n2,0,3\n3,3,0\n3,3,2\n"],
                         ids=["non-numeric", "empty", "ragged"])
def test_malformed_matrix_csv_is_validation_failure(tmp_path, command, text, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    assert run([command, "--params", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("params", [{"kind": "tree", "degrees": [1, "a", 0]},
                                    {"p": [0.5, "x"]}, {"theta0": "x"}],
                         ids=["degrees", "p", "theta0"])
def test_malformed_params_is_validation_failure(tmp_path, params, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(params))
    assert run(["sample-tree", "--params", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_experiment_bias_tail_deterministic(tmp_path, param_files):
    a, b = _twice(tmp_path, lambda d: [
        "--seed", "11", "--reps", "300", "--out", str(d),
        "experiment", "bias-tail", "--params", str(param_files["surplus"]),
        "--k", "1", "--m-grid", "0,5"])
    assert a == b
    table = a["bias-tail.csv"].decode()
    assert table.startswith("# experiment = bias-tail")


def test_experiment_converge_deterministic(tmp_path, param_files):
    def argv(d):
        return ["--seed", "5", "--reps", "40", "--out", str(d),
                "experiment", "converge",
                "--family", str(param_files["tree"]),
                "--target", str(param_files["theta"]),
                "--k", "0", "--points", "2"]
    a, b = _twice(tmp_path, argv)
    assert a == b
    assert "energy" in a["converge.csv"].decode()


def test_experiment_missing_input_is_usage_error(param_files, capsys):
    assert run(["experiment", "bias-tail", "--k", "1"]) == 1
    assert "--params" in capsys.readouterr().err
    assert run(["experiment", "converge", "--family",
                str(param_files["tree"])]) == 1
    assert "--target" in capsys.readouterr().err
    assert run(["experiment", "converge", "--target",
                str(param_files["theta"])]) == 1
    assert "--family" in capsys.readouterr().err


def test_csv_format_rejected_without_csv_form(tmp_path, param_files):
    for argv in (["sample-tree", "--params", str(param_files["tree"])],
                 ["sample-graph", "--params", str(param_files["surplus"])],
                 ["sample-cm", "--params", str(param_files["half"])],
                 ["sample-mult", "--params", str(param_files["mult"])],
                 ["reconstruct", "--params", str(param_files["matrix"])],
                 ["core-measure", "--params", str(param_files["matrix"])],
                 ["oracle", "cm-law", "--params", str(param_files["half"])]):
        out = tmp_path / argv[0]
        assert run(["--format", "csv", "--out", str(out)] + argv) == 1, argv
        assert not out.exists(), argv


def test_converge_pure_overflow_target_fails_fast(param_files):
    start = time.perf_counter()
    assert run(["experiment", "converge",
                "--family", str(param_files["surplus"]),
                "--target", str(param_files["p_inf"]), "--k", "1"]) == 2
    assert time.perf_counter() - start < 10
