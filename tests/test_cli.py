import hashlib
import json
import math
import os
import subprocess
import sys
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


@pytest.mark.parametrize("rows", [
    ["0,1,1", "1,0,5", "1,5,0"],
    ["0,1,1,1", "1,0,5,5", "1,5,0,5", "1,5,5,0"],
], ids=["3-leaf", "4-leaf"])
def test_reconstruct_rejects_triangle_violation(tmp_path, capsys, rows):
    path = tmp_path / "triangle.csv"
    header = ",".join("abcd"[:len(rows)])
    path.write_text("\n".join([header] + rows) + "\n")
    out = tmp_path / "rec"
    code = run(["--out", str(out), "reconstruct", "--params", str(path)])
    assert code == 2
    assert "triangle inequality fails on triple (1, 2, 0)" in capsys.readouterr().err
    assert not (out / "reconstruct.jsonl").exists()


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
    assert "--pairs must lie in 0..2 (0 = all pairs)" in capsys.readouterr().err
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


def test_oracle_cap_reaches_pk_law_and_is_refused_by_cm_law(
        tmp_path, param_files, capsys):
    pk = ["oracle", "pk-law", "--params", str(param_files["p"]), "--k", "1"]
    assert run(pk + ["--cap", "1"]) == 3
    assert run(pk) == 0
    assert run(["oracle", "enumerate-trees", "--params",
                str(param_files["tree"])]) == 0
    capsys.readouterr()
    out = tmp_path / "cm"
    assert run(["--out", str(out), "oracle", "cm-law", "--params",
                str(param_files["half"]), "--k", "1", "--cap", "1"]) == 1
    assert "--cap" in capsys.readouterr().err
    assert not out.exists()


def test_oracle_cm_law_output_pinned(tmp_path, capsys):
    # sha256 of the stdout of `oracle cm-law` on [3,3,2,2,2,2], k = 2,
    # taken while the oracle still listed all 135,135 matchings one by one
    params = tmp_path / "cm.json"
    params.write_text(json.dumps(
        {"kind": "half-edge", "degrees": [3, 3, 2, 2, 2, 2]}))
    capsys.readouterr()
    assert run(["oracle", "cm-law", "--params", str(params), "--k", "2"]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 294
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "dec1b38cf77c79aba3365b9f4c95614904c8d10095f1b040d2fb1450514da080")


@pytest.mark.parametrize("reps", ["0", "-1", "-2"])
def test_reps_below_one_is_usage_error(tmp_path, param_files, reps, capsys):
    for argv in (["sample-tree", "--params", str(param_files["tree"])],
                 ["sample-graph", "--params", str(param_files["surplus"])],
                 ["sample-icrt", "--params", str(param_files["theta"])],
                 ["experiment", "bias-tail", "--params",
                  str(param_files["tree"]), "--k", "1"],
                 ["experiment", "converge", "--family",
                  str(param_files["tree"]), "--target",
                  str(param_files["theta"])]):
        out = tmp_path / argv[0]
        assert run(["--reps", reps, "--out", str(out)] + argv) == 1, argv
        assert "--reps" in capsys.readouterr().err
        assert not out.exists(), argv
        assert run(argv + ["--reps", reps]) == 1, argv
        assert "--reps" in capsys.readouterr().err


def test_cli_import_loads_no_scipy():
    src = str(Path(__import__("surpluslab").__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import sys, surpluslab.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("argv,flag", [
    (["experiment", "bias-tail", "--params", "tree", "--k", "1",
      "--m-grid", "a,b"], "--m-grid"),
    (["experiment", "bias-tail", "--params", "tree", "--k", "-1"], "--k"),
    (["experiment", "converge", "--family", "tree", "--target", "theta",
      "--k", "-1"], "--k"),
    (["experiment", "converge", "--family", "tree", "--target", "theta",
      "--points", "1"], "--points"),
    (["experiment", "converge", "--family", "tree", "--target", "theta",
      "--points", "0"], "--points"),
    (["sample-icrg", "--params", "theta", "--k", "-1"], "--k"),
    (["sample-icrg", "--params", "theta", "--points", "0"], "--points"),
    (["sample-icrt", "--params", "theta", "--points", "0"], "--points"),
    (["sample-icrt", "--params", "theta", "--points", "-3"], "--points"),
    (["oracle", "enumerate-trees", "--params", "tree", "--cap", "-1"], "--cap"),
    (["oracle", "enumerate-trees", "--params", "tree", "--cap", "0"], "--cap")],
    ids=["m-grid", "bias-tail-k", "converge-k", "converge-points-1",
         "converge-points-0", "icrg-k", "icrg-points", "icrt-points-0",
         "icrt-points-neg", "cap-neg", "cap-0"])
def test_out_of_range_flag_is_usage_error(tmp_path, param_files, argv, flag,
                                          capsys):
    argv = [str(param_files[a]) if a in param_files else a for a in argv]
    out = tmp_path / "out"
    assert run(["--out", str(out)] + argv) == 1
    err = capsys.readouterr().err
    assert "error:" in err and flag in err
    assert not out.exists()


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


@pytest.mark.parametrize("command", ["reconstruct", "core-measure",
                                     "core-measure --pairs 1"])
@pytest.mark.parametrize("text", ["a,b,c\n0,1,x\n1,0,1\nx,1,0\n", "",
                                  "a,b,c,d\n0,2,3\n2,0,3\n3,3,0\n3,3,2\n",
                                  "a,b\n0,nan\nnan,0\n", "a,b\n0,inf\ninf,0\n",
                                  "a,b\n0,-1\n-1,0\n", "a,b\n0,1\n2,0\n",
                                  "a,b,c,d\n0,1,1,nan\n1,0,1,1\n1,1,0,1\nnan,1,1,0\n"],
                         ids=["non-numeric", "empty", "ragged", "nan", "inf",
                              "negative", "asymmetric", "nan-past-first-pair"])
def test_malformed_matrix_csv_is_validation_failure(tmp_path, command, text, capsys):
    # --pairs 1 reads only the leading 2 x 2 block, but the whole matrix is checked
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    assert run(command.split() + ["--params", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("params,argv", [
    pytest.param({"theta0": math.nan}, ["sample-icrt"], id="icrt-theta0"),
    pytest.param({"theta": [math.nan]}, ["sample-icrt"], id="icrt-theta"),
    pytest.param({"theta0": math.nan}, ["sample-icrg"], id="icrg-theta0"),
    pytest.param({"theta0": math.nan}, ["experiment", "converge", "--points", "2",
                                        "--family", "tree", "--target"],
                 id="converge-theta0"),
    pytest.param({"p": [math.nan]}, ["sample-tree"], id="tree-p"),
    pytest.param({"p": [0.5, 0.5], "p_inf": math.nan}, ["sample-tree"],
                 id="tree-p-inf"),
    pytest.param({"lambda": math.nan, "weights": [1, 1]}, ["sample-mult"],
                 id="mult-lambda"),
    pytest.param({"lambda": 1, "weights": [1, math.nan]}, ["sample-mult"],
                 id="mult-weight"),
    pytest.param({"lambda": math.inf, "weights": [1, 1]}, ["sample-mult"],
                 id="mult-lambda-inf"),
    pytest.param({"p": [math.nan]}, ["oracle", "pk-law"], id="pk-law-p"),
    pytest.param({"lambda": 1e300, "weights": [1, 1]}, ["sample-mult", "--multi"],
                 id="multi-poisson-mean-too-large")])
def test_non_finite_parameters_are_validation_failures(tmp_path, param_files,
                                                       params, argv, capsys):
    # a NaN theta never ends the ICRT cut loop; NaN p or lambda samples garbage
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(params))  # NaN and Infinity literals
    argv = [str(param_files[a]) if a in param_files else a for a in argv]
    flag = [] if argv[-1] == "--target" else ["--params"]
    assert run(argv + flag + [str(bad)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("params,command", [
    pytest.param({"kind": "tree", "degrees": [1, "a", 0]}, "sample-tree",
                 id="degrees"),
    pytest.param({"p": [0.5, "x"]}, "sample-tree", id="p"),
    pytest.param({"theta0": "x"}, "sample-tree", id="theta0"),
    pytest.param(3, "sample-tree", id="number"),
    pytest.param("xpx", "sample-tree", id="string"),
    pytest.param({"kind": "surplus", "degrees": [1, 1], "k": "a"},
                 "sample-graph", id="k-string"),
    pytest.param({"kind": "surplus", "degrees": [2, 1], "k": 1.5},
                 "sample-graph", id="k-fraction"),
    pytest.param({"lambda": 1, "weights": 5}, "sample-mult", id="weights-number"),
    pytest.param({"lambda": "x", "weights": [1, 2]}, "sample-mult",
                 id="lambda-string"),
    pytest.param({"lambda": 1.0, "weights": ["a"]}, "sample-mult",
                 id="weights-string"),
    pytest.param({"p": 5}, "sample-tree", id="p-number"),
    pytest.param({"theta": 5}, "sample-icrt", id="theta-number"),
    pytest.param({"p": [0.5, 0.5]}, "experiment bias-tail", id="bias-tail-p"),
    pytest.param({"p": [0.5, 0.5]}, "oracle enumerate-trees",
                 id="enumerate-trees-p"),
    pytest.param({"theta0": 1.0}, "oracle cm-law", id="cm-law-theta"),
    pytest.param({"kind": "tree", "degrees": [2, 1, 0, 0, 0]}, "oracle pk-law",
                 id="pk-law-degrees")])
def test_malformed_params_is_validation_failure(tmp_path, params, command,
                                                capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(params))
    assert run(command.split() + ["--params", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_integral_k_reads_as_int(tmp_path, param_files, capsys):
    # k = 1.0 is the integer 1, as a degree 1.0 is the degree 1; the
    # table cache is emptied so the float-k sequence builds its own
    from surpluslab import samplers
    samplers._cached_dk_table.cache_clear()
    as_float = tmp_path / "dk_float.json"
    as_float.write_text(json.dumps(
        {"kind": "surplus", "k": 1.0, "degrees": [2, 1, 1, 0]}))
    outputs = []
    for path in (as_float, param_files["surplus"]):
        capsys.readouterr()
        assert run(["--reps", "3", "sample-graph", "--params", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


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


@pytest.mark.parametrize("family,target,extra,model,have", [
    ("surplus", "theta", ["--k", "1"], "dk-graph", 0),
    ("tree", "p", ["--steps", "0"], "d-tree", 2)], ids=["dk-graph", "d-tree"])
def test_converge_too_few_star_marks_names_cause(tmp_path, param_files,
                                                 monkeypatch, capsys, family,
                                                 target, extra, model, have):
    # default --points 4; the check comes before any matrix is drawn
    from surpluslab import experiments

    def refuse(*args, **kwargs):
        raise AssertionError("sampled before checking the star marks")
    monkeypatch.setattr(experiments, "_one_matrix", refuse)
    out = tmp_path / "out"
    assert run(["--out", str(out), "experiment", "converge",
                "--family", str(param_files[family]),
                "--target", str(param_files[target])] + extra) == 2
    err = capsys.readouterr().err
    assert (f"error: model '{param_files[family].name}' ({model}) supplies "
            f"{have} star marks, fewer than the 4 points asked for") in err
    assert not out.exists()


def test_converge_pure_overflow_target_fails_fast(param_files):
    start = time.perf_counter()
    assert run(["experiment", "converge",
                "--family", str(param_files["surplus"]),
                "--target", str(param_files["p_inf"]), "--k", "1"]) == 2
    assert time.perf_counter() - start < 10


# name -> (subcommand argv naming param_files keys, --format); the global
# flags --seed 3 --reps 2 --format F are placed around it in three ways
_PINNED_COMMANDS = {
    "sample-tree": (["sample-tree", "--params", "tree", "--steps", "6"], "json"),
    "sample-tree-p": (["sample-tree", "--params", "p", "--steps", "6"], "json"),
    "sample-graph": (["sample-graph", "--params", "surplus"], "json"),
    "sample-cm": (["sample-cm", "--params", "half"], "json"),
    "sample-mult": (["sample-mult", "--params", "mult", "--multi"], "json"),
    "sample-icrt": (["sample-icrt", "--params", "theta", "--points", "4"], "json"),
    "sample-icrt-csv": (["sample-icrt", "--params", "theta", "--points", "4"],
                        "csv"),
    "sample-icrg": (["sample-icrg", "--params", "theta", "--points", "3",
                     "--k", "1"], "json"),
    "sample-icrg-csv": (["sample-icrg", "--params", "theta", "--points", "3",
                         "--k", "1"], "csv"),
    "reconstruct": (["reconstruct", "--params", "matrix"], "json"),
    "core-measure": (["core-measure", "--params", "matrix"], "json"),
    "converge": (["experiment", "converge", "--family", "tree", "--target",
                  "theta", "--points", "2"], "json"),
    "converge-csv": (["experiment", "converge", "--family", "tree",
                      "--target", "theta", "--points", "2"], "csv"),
    "bias-tail": (["experiment", "bias-tail", "--params", "surplus", "--k", "1",
                   "--m-grid", "0,0.5"], "json"),
    "enumerate-trees": (["oracle", "enumerate-trees", "--params", "tree"], "json"),
    "cm-law": (["oracle", "cm-law", "--params", "half", "--k", "1"], "json"),
    "pk-law": (["oracle", "pk-law", "--params", "p", "--k", "1"], "json"),
}

# sha256 of stdout, then of each --out file by name, recorded before the
# CLI's per-repetition loop, flag parse and CSV formatter were merged
_PINNED_DIGESTS = {
    "bias-tail": {
        "bias-tail.csv":
            "a531f21c4f50d80f42fd89e1fa784a19083d878b2256cbf5728c79a8709a4ef5",
        "manifest.json":
            "81fc5b31faf4ec860af2294dbc27ff5c6f4e1c001f2c93f62e679dd1235d9138",
        "stdout":
            "a531f21c4f50d80f42fd89e1fa784a19083d878b2256cbf5728c79a8709a4ef5",
    },
    "cm-law": {
        "manifest.json":
            "632f8f243c2c27e7fcabe3ab9d0edee0527793a359ebb343d6166ce993e9049e",
        "oracle-cm-law.jsonl":
            "6540d493655f84c8baa563a14bb144cd7cf99fa6b5b3d95c03b9f20a36fb1be8",
        "stdout":
            "6540d493655f84c8baa563a14bb144cd7cf99fa6b5b3d95c03b9f20a36fb1be8",
    },
    "converge": {
        "converge.csv":
            "a2ed9c8ca5a86bdfe57fc32a0dbb2fcef839bf5bd5df9a9ea721999fa9cfb69d",
        "manifest.json":
            "3fcfa844f97bad829e6e2e89c4c7f6bcb21f5f0fcc938609533c2c503a2f82d1",
        "stdout":
            "a2ed9c8ca5a86bdfe57fc32a0dbb2fcef839bf5bd5df9a9ea721999fa9cfb69d",
    },
    "converge-csv": {
        "converge.csv":
            "a2ed9c8ca5a86bdfe57fc32a0dbb2fcef839bf5bd5df9a9ea721999fa9cfb69d",
        "manifest.json":
            "3fcfa844f97bad829e6e2e89c4c7f6bcb21f5f0fcc938609533c2c503a2f82d1",
        "stdout":
            "a2ed9c8ca5a86bdfe57fc32a0dbb2fcef839bf5bd5df9a9ea721999fa9cfb69d",
    },
    "core-measure": {
        "core-measure.jsonl":
            "5beb9682cc4e0ed99605cbf9a04fee0100c4377bfd9672f07d8898f2e703ef9b",
        "manifest.json":
            "3b4abd8c27bffde5a6218005aade4530b62b5342ef69860abf084d6ccb4df48a",
        "stdout":
            "5beb9682cc4e0ed99605cbf9a04fee0100c4377bfd9672f07d8898f2e703ef9b",
    },
    "enumerate-trees": {
        "manifest.json":
            "d4c18ce87be3bb4aecaaf1529e29865648df32c04f5a27e298dac2d42d5a9e82",
        "oracle-enumerate-trees.jsonl":
            "191a70e19aa8cd57b42597356dfd9e90205486ed040c9975955e7cb0b07f6138",
        "stdout":
            "191a70e19aa8cd57b42597356dfd9e90205486ed040c9975955e7cb0b07f6138",
    },
    "pk-law": {
        "manifest.json":
            "1f452142a5e50ae38f5866d20a004e0380643678069accf073c28ceba89cb0bd",
        "oracle-pk-law.jsonl":
            "240e6a786cb95a4bf9cccad23545ab44583c838e1064b8cbcc31e6827c36a8a9",
        "stdout":
            "240e6a786cb95a4bf9cccad23545ab44583c838e1064b8cbcc31e6827c36a8a9",
    },
    "reconstruct": {
        "manifest.json":
            "40505326231812db16b6f8925c56bd78adeac839da7eff4865fe5db6711a1748",
        "reconstruct.jsonl":
            "1e2c1bf3756c68be80a7d9f22fce7f82de5d47caa0da74269a4e0c210f3bd177",
        "stdout":
            "1e2c1bf3756c68be80a7d9f22fce7f82de5d47caa0da74269a4e0c210f3bd177",
    },
    "sample-cm": {
        "manifest.json":
            "61d05c2365681295d8c8820a30c715c5e251a7b15b3be48718861f849677b88c",
        "sample-cm.jsonl":
            "dca1e08a9e958ba83a2768d62307c8eca9a057a052553e99700cf490f6238fb2",
        "stdout":
            "dca1e08a9e958ba83a2768d62307c8eca9a057a052553e99700cf490f6238fb2",
    },
    "sample-graph": {
        "manifest.json":
            "aee66a6efcb0807c0976c78eaa908b3dccb785eacd1ea6377af652793db1ff95",
        "sample-graph.jsonl":
            "4d66177f84e98e2ec801ba55954e26e8f243a845d9e89f3374c779b8ff6f306c",
        "stdout":
            "4d66177f84e98e2ec801ba55954e26e8f243a845d9e89f3374c779b8ff6f306c",
    },
    "sample-icrg": {
        "manifest.json":
            "01432aa851a6479cd8a11fcf8deb35f1adfb4fc2e322641e46045e168a87a5bb",
        "sample-icrg.jsonl":
            "d7af856a5c94b555a5bc4663c884bd9c3116de14569954f919f3ba9e35354beb",
        "stdout":
            "d7af856a5c94b555a5bc4663c884bd9c3116de14569954f919f3ba9e35354beb",
    },
    "sample-icrg-csv": {
        "manifest.json":
            "01432aa851a6479cd8a11fcf8deb35f1adfb4fc2e322641e46045e168a87a5bb",
        "sample-icrg.csv":
            "c94c60c6cc4ff608fbe0d31324f7be8ed9a23b564aaacc50b408f256fd6b2ef0",
        "stdout":
            "c94c60c6cc4ff608fbe0d31324f7be8ed9a23b564aaacc50b408f256fd6b2ef0",
    },
    "sample-icrt": {
        "manifest.json":
            "7a63542230e7bdcf731f40ae6935a5d0024df03545b1040dcca50c4426e43a80",
        "sample-icrt.jsonl":
            "f47d1201d2974072982b19386c94d27d7bb4a95cb2bf1051fc19968a39ab918c",
        "stdout":
            "f47d1201d2974072982b19386c94d27d7bb4a95cb2bf1051fc19968a39ab918c",
    },
    "sample-icrt-csv": {
        "manifest.json":
            "7a63542230e7bdcf731f40ae6935a5d0024df03545b1040dcca50c4426e43a80",
        "sample-icrt.csv":
            "89b3b2108e8b6e9bd51e379599acd11d33b25317a8a29860dd01cad351c9c80e",
        "stdout":
            "89b3b2108e8b6e9bd51e379599acd11d33b25317a8a29860dd01cad351c9c80e",
    },
    "sample-mult": {
        "manifest.json":
            "917071abdc55c8f0bd9bc1baa676c45a8b6c6566c0b12e5b1ea1d1574bb13cac",
        "sample-mult.jsonl":
            "3633c783f407ae363ed5dfb9ffcf13b9763263123522ce9ae03f4f0829ea6cf1",
        "stdout":
            "3633c783f407ae363ed5dfb9ffcf13b9763263123522ce9ae03f4f0829ea6cf1",
    },
    "sample-tree": {
        "manifest.json":
            "cf3c30ff9b8934b4f5bce5a6d4b74a385d4790b91daf435e70c260ec5f417af6",
        "sample-tree.jsonl":
            "0d5743d92cd4b7eb37ee6c3e792dfc808eb0920c81a17f958e55a451c8abd1db",
        "stdout":
            "0d5743d92cd4b7eb37ee6c3e792dfc808eb0920c81a17f958e55a451c8abd1db",
    },
    "sample-tree-p": {
        "manifest.json":
            "0c8f3e9a38581cc24974664721c84f105fde82e435082ce8bfdf08a6bbde5985",
        "sample-tree.jsonl":
            "f430d82ecae7889e6a489463d7b788280e017e070cb300ea84a7615dd6671302",
        "stdout":
            "f430d82ecae7889e6a489463d7b788280e017e070cb300ea84a7615dd6671302",
    },
}


def _placed(sub, fmt, out, placement):
    """argv with the global flags before, after, or on both sides of sub."""
    flags = ["--seed", "3", "--reps", "2", "--format", fmt]
    if out is not None:
        flags += ["--out", str(out)]
    if placement == "before":
        return flags + sub
    if placement == "after":
        return sub + flags
    # a stale --seed before the subcommand is overridden by the one after it
    return ["--seed", "99"] + flags[2:] + sub + flags[:2]


def _digests(sub, fmt, out, placement, capsys):
    sha = lambda data: hashlib.sha256(data).hexdigest()
    capsys.readouterr()
    assert run(_placed(sub, fmt, None, placement)) == 0
    got = {"stdout": sha(capsys.readouterr().out.encode())}
    assert run(_placed(sub, fmt, out, placement)) == 0
    got.update({name: sha(data) for name, data in read_all(out).items()})
    return got


@pytest.mark.parametrize("placement", ["before", "after", "both"])
@pytest.mark.parametrize("name", sorted(_PINNED_COMMANDS))
def test_cli_outputs_pinned(tmp_path, param_files, name, placement, capsys):
    sub, fmt = _PINNED_COMMANDS[name]
    sub = [str(param_files[a]) if a in param_files else a for a in sub]
    assert _digests(sub, fmt, tmp_path / "out", placement,
                    capsys) == _PINNED_DIGESTS[name]
