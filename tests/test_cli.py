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
    # in "close", c and d lie 1e-10 apart, within the build's tolerance,
    # and still name two nodes
    close = tmp_path / "close.csv"
    close.write_text("a,b,c,d\n0,2,1,1\n2,0,1,1\n1,1,0,1e-10\n1,1,1e-10,0\n")
    for name, path in (("matrix", param_files["matrix"]), ("close", close)):
        out = tmp_path / name
        code = run(["--out", str(out), "reconstruct", "--params", str(path)])
        assert code == 0
        payload = json.loads((out / "reconstruct.jsonl").read_text())
        assert sorted(payload["marks"].values()) == ["a", "b", "c", "d"]


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


@pytest.mark.parametrize("command", ["sample-graph", "converge"])
def test_proposal_cap_exit_code(tmp_path, param_files, monkeypatch, capsys,
                                command):
    # the streaming (D,k) loop (the ladder has too many tuples for a table;
    # at k = 2, since a k = 1 draw is never rejected) and the (P,k) loop of
    # a pk-graph target (the family member is drawn from its table) raise
    # TooLarge at the cap
    from surpluslab import samplers
    ladder, small = tmp_path / "ladder.json", tmp_path / "small.json"
    ladder.write_text(json.dumps(
        {"kind": "surplus", "k": 2, "degrees": [2] * 8 + [0] * 6}))
    small.write_text(json.dumps(
        {"kind": "surplus", "k": 1, "degrees": [2, 2, 2, 0, 0, 0]}))
    sub = (["sample-graph", "--params", str(ladder)]
           if command == "sample-graph" else
           ["experiment", "converge", "--family", str(small),
            "--target", str(param_files["p"]), "--k", "1", "--points", "2"])
    argv = ["--seed", "3", "--reps", "20"] + sub
    assert run(argv) == 0
    monkeypatch.setattr(samplers, "_PROPOSAL_CAP", 1)
    capsys.readouterr()
    assert run(argv) == 3
    assert "nothing accepted in 1 proposals" in capsys.readouterr().err


def test_draw_cap_exit_code(tmp_path, param_files, monkeypatch, capsys):
    # a valid (P,1) target that repeats a draw about once in 10^7 runs
    # into the P-tree draw cap: exit 3 like the other caps, not 2
    from surpluslab import trees
    rare, small = tmp_path / "rare.json", tmp_path / "small.json"
    rare.write_text(json.dumps({"p": [1e-7], "p_inf": 1 - 1e-7}))
    small.write_text(json.dumps(
        {"kind": "surplus", "k": 1, "degrees": [2, 2, 2, 0, 0, 0]}))
    monkeypatch.setattr(trees, "_DRAW_CAP", 1000)
    capsys.readouterr()
    assert run(["experiment", "converge", "--family", str(small),
                "--target", str(rare), "--k", "1", "--points", "2"]) == 3
    assert "star quota not reached within 1000 draws" in capsys.readouterr().err


def test_sample_tree_steps_past_draw_cap_exit_code(param_files, monkeypatch,
                                                  capsys):
    # --steps above the P-tree draw cap is refused before any draw: exit 3
    from surpluslab import cli
    real, streams = cli.rng_stream, []

    def stream(seed, stream_id):
        rng = real(seed, stream_id)
        streams.append((rng, rng.bit_generator.state))
        return rng
    monkeypatch.setattr(cli, "rng_stream", stream)
    capsys.readouterr()
    assert run(["sample-tree", "--params", str(param_files["p"]),
                "--steps", "10000001"]) == 3
    assert "exceeds the draw cap" in capsys.readouterr().err
    assert streams and all(rng.bit_generator.state == state
                           for rng, state in streams)


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


def _fresh_python(code, *argv):
    """Run code in a fresh interpreter that imports this checkout's package."""
    src = str(Path(__import__("surpluslab").__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          check=True, capture_output=True, text=True)


def test_cli_import_loads_no_scipy():
    # nor numpy: the commands that draw nothing start without either
    code = ("import sys, surpluslab.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('numpy', 'scipy')))")
    assert _fresh_python(code).stdout.strip() == "[]"


@pytest.mark.parametrize("argv,loads_numpy", [
    (["reconstruct", "--params", "matrix"], False),
    (["core-measure", "--params", "matrix"], False),
    (["oracle", "enumerate-trees", "--params", "tree"], False),
    (["oracle", "cm-law", "--params", "half", "--k", "1"], False),
    (["oracle", "pk-law", "--params", "p", "--k", "1"], False),
    (["sample-graph", "--params", "surplus", "--reps", "2"], True)],
    ids=["reconstruct", "core-measure", "enumerate-trees", "cm-law", "pk-law",
         "sample-graph"])
def test_cli_commands_that_draw_nothing_load_no_numpy(param_files, argv,
                                                      loads_numpy):
    argv = [str(param_files[a]) if a in param_files else a for a in argv]
    code = ("import sys; from surpluslab.cli import main; code = main(sys.argv[1:]); "
            "print(code, 'numpy' in sys.modules, file=sys.stderr)")
    proc = _fresh_python(code, *argv)
    assert proc.stderr.splitlines()[-1] == f"0 {loads_numpy}"
    assert proc.stdout.strip()
    if argv[0] == "sample-graph":
        assert len(proc.stdout.splitlines()) == 2


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
    (["oracle", "enumerate-trees", "--params", "tree", "--cap", "0"], "--cap"),
    (["experiment", "converge", "--family", "tree", "--target", "p",
      "--points", "2", "--steps", "-3"], "--steps"),
    (["sample-tree", "--params", "tree", "--steps", "-1"], "--steps")],
    ids=["m-grid", "bias-tail-k", "converge-k", "converge-points-1",
         "converge-points-0", "icrg-k", "icrg-points", "icrt-points-0",
         "icrt-points-neg", "cap-neg", "cap-0", "converge-steps-neg",
         "sample-tree-steps-neg"])
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
                                  "a,b,c,d\n0,1,1,nan\n1,0,1,1\n1,1,0,1\nnan,1,1,0\n",
                                  "a,b,a\n0,1,1\n1,0,1\n1,1,0\n"],
                         ids=["non-numeric", "empty", "ragged", "nan", "inf",
                              "negative", "asymmetric", "nan-past-first-pair",
                              "repeated-mark"])
def test_malformed_matrix_csv_is_validation_failure(tmp_path, command, text, capsys):
    # --pairs 1 reads only the leading 2 x 2 block, but the whole matrix is checked
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    assert run(command.split() + ["--params", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_repeated_mark_name_is_a_duplicate_label(tmp_path):
    # two leaves would carry one name in reconstruct's "marks"
    from surpluslab.cli import read_matrix_csv
    from surpluslab.errors import DuplicateLabel
    bad = tmp_path / "dup.csv"
    bad.write_text("a,b,a\n0,1,1\n1,0,1\n1,1,0\n")
    with pytest.raises(DuplicateLabel, match="'a'"):
        read_matrix_csv(str(bad))


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
                 id="pk-law-degrees"),
    pytest.param({"kind": "half-edge", "degrees": []}, "oracle cm-law --k 1",
                 id="cm-law-empty"),
    pytest.param({"kind": "tree", "degrees": [True, False, False]},
                 "sample-tree", id="degrees-bool"),
    pytest.param({"kind": "surplus", "degrees": [2, 1, 1, 0], "k": True},
                 "sample-graph", id="k-bool"),
    pytest.param({"p": [True]}, "sample-tree", id="p-bool"),
    pytest.param({"theta0": True}, "sample-icrt", id="theta0-bool"),
    pytest.param({"theta": [True]}, "sample-icrt", id="theta-bool"),
    pytest.param({"lambda": True, "weights": [1, 1]}, "sample-mult",
                 id="lambda-bool"),
    pytest.param({"lambda": 1, "weights": [1, True]}, "sample-mult",
                 id="weights-bool")])
def test_malformed_params_is_validation_failure(tmp_path, params, command,
                                                capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(params))
    assert run(command.split() + ["--params", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv,cause", [
    (["sample-tree", "--params", "theta"],
     "sample-tree takes a degree sequence or p vector"),
    (["sample-cm", "--params", "tree"],
     "sample-cm needs a half-edge degree sequence"),
    (["sample-mult", "--params", "tree"],
     "sample-mult needs a lambda/weights file"),
    (["sample-icrt", "--params", "p"], "sample-icrt needs a theta file"),
    (["sample-icrg", "--params", "p"], "sample-icrg needs a theta file"),
    (["experiment", "converge", "--family", "tree", "--target", "tree"],
     "target must be a p or theta file"),
    (["experiment", "converge", "--family", "p", "--target", "theta"],
     "family members must be degree sequences"),
    (["experiment", "converge", "--family", "tree", "--target", "theta",
      "--k", "1"], "k > 0 needs surplus-kind family members"),
    (["experiment", "converge", "--family", "surplus", "--target", "theta"],
     "k = 0 needs tree-kind family members"),
    (["experiment", "converge", "--family", "surplus2", "--target", "theta",
      "--k", "1"], "(dk-graph) has k = 1, but its degree sequence has "
     "surplus k = 2"),
    (["experiment", "converge", "--family", "surplus", "--target", "p",
      "--k", "2"], "(dk-graph) has k = 2, but its degree sequence has "
     "surplus k = 1"),
    (["sample-tree", "--params", "unknown"], "unrecognized parameter file"),
    (["sample-tree", "--params", "missing"], "No such file or directory"),
    (["sample-tree", "--params", "broken"], "Expecting"),
    (["experiment", "bias-tail", "--params", "half", "--k", "1"],
     "only surplus sequences convert to tree kind, not half-edge"),
    (["sample-tree", "--params", "tree", "--steps", "0"],
     "n_steps must be >= 1"),
    (["sample-tree", "--params", "p", "--steps", "0"],
     "n_steps must be >= 1")],
    ids=["tree-theta", "cm-tree", "mult-tree", "icrt-p", "icrg-p",
         "converge-target", "converge-family", "converge-k", "converge-k0",
         "converge-k1-surplus2", "converge-k2-surplus1", "unknown",
         "missing", "broken", "bias-tail-half-edge", "sample-tree-steps-0",
         "sample-tree-p-steps-0"])
def test_parameter_file_check_names_cause(tmp_path, param_files, argv, cause,
                                          capsys):
    # a file of the wrong family, an object of no family, a missing file
    # and malformed JSON each exit 2 with the cause on stderr; a half-edge
    # sequence for bias-tail names its kind, not a leaf count, and a family
    # member whose kind or surplus does not fit --k names both; --steps 0
    # on sample-tree is refused for a degree sequence as for a p vector
    (tmp_path / "unknown.json").write_text(json.dumps({"alpha": 1}))
    (tmp_path / "broken.json").write_text("{\"p\": [0.5,")
    (tmp_path / "dk2.json").write_text(json.dumps(
        {"kind": "surplus", "k": 2, "degrees": [3, 3, 2, 2, 0, 0, 0, 0]}))
    files = dict(param_files, surplus2=tmp_path / "dk2.json",
                 unknown=tmp_path / "unknown.json",
                 missing=tmp_path / "missing.json",
                 broken=tmp_path / "broken.json")
    out = tmp_path / "out"
    argv = [str(files[a]) if a in files else a for a in argv]
    capsys.readouterr()
    assert run(["--out", str(out)] + argv) == 2
    assert cause in capsys.readouterr().err
    assert not out.exists()


def test_integral_k_reads_as_int(tmp_path, param_files, capsys):
    # k = 1.0 is the integer 1, as a degree 1.0 is the degree 1; the
    # table cache is emptied so the float-k sequence builds its own
    from surpluslab import samplers
    samplers._dk_path.cache_clear()
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
# CLI's per-repetition loop, flag parse and CSV formatter were merged;
# sample-graph's output re-recorded at stream version 0.2.0, when table
# draws became one choice from the law, and the manifests (which embed the
# version) at 0.2.0, again at 0.3.0, when the rejection bound became 2^k,
# and at 0.4.0, when streaming (D,k) draws began to draw their first glued
# pair directly (no pinned command streams, so no other output moved)
_PINNED_DIGESTS = {
    "bias-tail": {
        "bias-tail.csv":
            "a531f21c4f50d80f42fd89e1fa784a19083d878b2256cbf5728c79a8709a4ef5",
        "manifest.json":
            "f9a0d8bac9c73bbe331a7aaa2c5539f2becb19b8414ec51fab3fe88586ae1c80",
        "stdout":
            "a531f21c4f50d80f42fd89e1fa784a19083d878b2256cbf5728c79a8709a4ef5",
    },
    "cm-law": {
        "manifest.json":
            "c639aa10c4a69d943bda38a28d41b34507113864372e4c46a89c9033eb7115bb",
        "oracle-cm-law.jsonl":
            "6540d493655f84c8baa563a14bb144cd7cf99fa6b5b3d95c03b9f20a36fb1be8",
        "stdout":
            "6540d493655f84c8baa563a14bb144cd7cf99fa6b5b3d95c03b9f20a36fb1be8",
    },
    "converge": {
        "converge.csv":
            "a2ed9c8ca5a86bdfe57fc32a0dbb2fcef839bf5bd5df9a9ea721999fa9cfb69d",
        "manifest.json":
            "03ee295f97dbed5c7c7e632bcc6acb2547402f4b4531c2c2eeb3cab072535ee3",
        "stdout":
            "a2ed9c8ca5a86bdfe57fc32a0dbb2fcef839bf5bd5df9a9ea721999fa9cfb69d",
    },
    "converge-csv": {
        "converge.csv":
            "a2ed9c8ca5a86bdfe57fc32a0dbb2fcef839bf5bd5df9a9ea721999fa9cfb69d",
        "manifest.json":
            "03ee295f97dbed5c7c7e632bcc6acb2547402f4b4531c2c2eeb3cab072535ee3",
        "stdout":
            "a2ed9c8ca5a86bdfe57fc32a0dbb2fcef839bf5bd5df9a9ea721999fa9cfb69d",
    },
    "core-measure": {
        "core-measure.jsonl":
            "5beb9682cc4e0ed99605cbf9a04fee0100c4377bfd9672f07d8898f2e703ef9b",
        "manifest.json":
            "c70c8f1d1b237399c05e14a131d53b345606b1694a9b223dda714cadede30744",
        "stdout":
            "5beb9682cc4e0ed99605cbf9a04fee0100c4377bfd9672f07d8898f2e703ef9b",
    },
    "enumerate-trees": {
        "manifest.json":
            "3aef5e2565da4945a52b196ee4dd088c11208cb2181ee51ddb3aa8eddedae366",
        "oracle-enumerate-trees.jsonl":
            "191a70e19aa8cd57b42597356dfd9e90205486ed040c9975955e7cb0b07f6138",
        "stdout":
            "191a70e19aa8cd57b42597356dfd9e90205486ed040c9975955e7cb0b07f6138",
    },
    "pk-law": {
        "manifest.json":
            "ed3fdf507abab18012a1ac834cadeb29b27b1f035dfa84e77d970cdd731a3c5b",
        "oracle-pk-law.jsonl":
            "240e6a786cb95a4bf9cccad23545ab44583c838e1064b8cbcc31e6827c36a8a9",
        "stdout":
            "240e6a786cb95a4bf9cccad23545ab44583c838e1064b8cbcc31e6827c36a8a9",
    },
    "reconstruct": {
        "manifest.json":
            "9b0f13282118c409f64d475c9ed0edc3d3b2ed086e7770f0416e853ecddf888d",
        "reconstruct.jsonl":
            "1e2c1bf3756c68be80a7d9f22fce7f82de5d47caa0da74269a4e0c210f3bd177",
        "stdout":
            "1e2c1bf3756c68be80a7d9f22fce7f82de5d47caa0da74269a4e0c210f3bd177",
    },
    "sample-cm": {
        "manifest.json":
            "6abd349ae1a20f61676b3b0e6d0b2af696bfc6ac545b8f2845875c6bc69b1a13",
        "sample-cm.jsonl":
            "dca1e08a9e958ba83a2768d62307c8eca9a057a052553e99700cf490f6238fb2",
        "stdout":
            "dca1e08a9e958ba83a2768d62307c8eca9a057a052553e99700cf490f6238fb2",
    },
    "sample-graph": {
        "manifest.json":
            "9da506fb3bcc048379313b37f761e0c5654012db5ecf2b4fa717e178dd2fa862",
        "sample-graph.jsonl":
            "2f09d98a947a909c37ca943e5c837b124bd00a1759e83859077ec2092014b070",
        "stdout":
            "2f09d98a947a909c37ca943e5c837b124bd00a1759e83859077ec2092014b070",
    },
    "sample-icrg": {
        "manifest.json":
            "6fe8beaadbd9d088287fdaa27ac164033ddd41bbf42401fa7bbe35fb78e63b9c",
        "sample-icrg.jsonl":
            "d7af856a5c94b555a5bc4663c884bd9c3116de14569954f919f3ba9e35354beb",
        "stdout":
            "d7af856a5c94b555a5bc4663c884bd9c3116de14569954f919f3ba9e35354beb",
    },
    "sample-icrg-csv": {
        "manifest.json":
            "6fe8beaadbd9d088287fdaa27ac164033ddd41bbf42401fa7bbe35fb78e63b9c",
        "sample-icrg.csv":
            "c94c60c6cc4ff608fbe0d31324f7be8ed9a23b564aaacc50b408f256fd6b2ef0",
        "stdout":
            "c94c60c6cc4ff608fbe0d31324f7be8ed9a23b564aaacc50b408f256fd6b2ef0",
    },
    "sample-icrt": {
        "manifest.json":
            "c0877804949c0d388bc17803a5a3e8a836e1077813aa07b6542df88049979d93",
        "sample-icrt.jsonl":
            "f47d1201d2974072982b19386c94d27d7bb4a95cb2bf1051fc19968a39ab918c",
        "stdout":
            "f47d1201d2974072982b19386c94d27d7bb4a95cb2bf1051fc19968a39ab918c",
    },
    "sample-icrt-csv": {
        "manifest.json":
            "c0877804949c0d388bc17803a5a3e8a836e1077813aa07b6542df88049979d93",
        "sample-icrt.csv":
            "89b3b2108e8b6e9bd51e379599acd11d33b25317a8a29860dd01cad351c9c80e",
        "stdout":
            "89b3b2108e8b6e9bd51e379599acd11d33b25317a8a29860dd01cad351c9c80e",
    },
    "sample-mult": {
        "manifest.json":
            "889a0e264060ba52020e0b403d31b9da311c0502ca4ecdf5e29327db5e16472e",
        "sample-mult.jsonl":
            "3633c783f407ae363ed5dfb9ffcf13b9763263123522ce9ae03f4f0829ea6cf1",
        "stdout":
            "3633c783f407ae363ed5dfb9ffcf13b9763263123522ce9ae03f4f0829ea6cf1",
    },
    "sample-tree": {
        "manifest.json":
            "fd144a18c4bd7eadbadf96da0d7001e399604f453f70311ec934b505865ffbab",
        "sample-tree.jsonl":
            "0d5743d92cd4b7eb37ee6c3e792dfc808eb0920c81a17f958e55a451c8abd1db",
        "stdout":
            "0d5743d92cd4b7eb37ee6c3e792dfc808eb0920c81a17f958e55a451c8abd1db",
    },
    "sample-tree-p": {
        "manifest.json":
            "96e2a4b960061864fe86878e1273babe596e8e0bec533499804b048d3ef9ff7f",
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
