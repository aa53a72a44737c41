"""surpluslab benchmark: one workload per run, every output checked.

    python3 bench/run.py --workload ladder-k1 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

A run repeats whole rounds of its workload (see workloads.py) until
--seconds have passed, checks every output, and prints each metric by
name and unit.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end-to-end metrics, with --trace 1 the per-layer metrics of a
traced run.  A fuller record (machine, git sha, source line counts,
per-round figures, span summary) goes to bench/results/, and the spans
of a traced run to bench/traces/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("ladder-k1", "converge-k0", "exact-small")


def pin_to_one_cpu():
    """Keep this process and its subprocesses on one CPU, so that the
    reference clock (workloads.Clock) runs on the core that did the work.
    Where affinity cannot be set, the run goes on unpinned."""
    cpus = sorted(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, {cpus[-1]})
    except OSError:
        pass


def _threads_env(env):
    """Cap numerical-library threads at the number of usable cores."""
    n = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = n
    return env


def _child_env():
    env = _threads_env(dict(os.environ))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def _import_program():
    """Import surpluslab from this checkout's src/, or exit 2."""
    if not (SRC / "surpluslab" / "__init__.py").is_file():
        print(f"error: no surpluslab package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import surpluslab
    if Path(surpluslab.__file__).resolve().parent != (SRC / "surpluslab").resolve():
        print(f"error: imported surpluslab from {surpluslab.__file__}",
              file=sys.stderr)
        sys.exit(2)


def machine_info() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "pinned_cpus": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "platform": platform.platform()}


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_lines() -> dict:
    """Newline counts of src/surpluslab/*.py, as `wc -l` gives them."""
    counts = {p.name: p.read_bytes().count(b"\n")
              for p in sorted((SRC / "surpluslab").glob("*.py"))}
    counts["total"] = sum(counts.values())
    return counts


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def measure_setup(workload: str, seed: int, clock) -> list:
    """Wall seconds of fresh interpreters that import surpluslab and build
    the workload's inputs, then stop; booked on the clock as setup_s."""
    wall = []
    for i in range(SETUP_REPEATS):
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
               "--seed", str(seed), "--setup-only", str(i)]
        proc, w = clock.time("setup_s", subprocess.run, cmd, lead=True,
                             cwd=ROOT, env=_child_env(),
                             stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        if proc.returncode != 0:
            raise RuntimeError("set-up failed: " + proc.stderr.decode()[-400:])
        wall.append(w)
    return wall


def workdir_for(workload, seed, tag) -> Path:
    return BENCH / "out" / f"{workload}-s{seed}-{tag}-{os.getpid()}"


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> dict:
    """Run one workload in this process; returns the full record."""
    import workloads
    from tracing import Tracer, layer_metrics, span_summaries

    workdir = workdir_for(workload, seed, "trace" if trace else "run")
    inputs = workloads.make_inputs(workload, seed, workdir, tiny=tiny)
    tracer = None
    reference = None
    if trace:
        reference = workloads.converge_once(inputs, 0)
        tracer = Tracer()
        tracer.install()
    run = workloads.Run(inputs, tracer=tracer, cli_env=_child_env())
    run.converge_reference = reference
    setup_wall = [] if (trace or tiny) else \
        measure_setup(workload, seed, run.clock)
    round_times = []
    t_start = time.perf_counter()
    try:
        while True:
            t0 = time.perf_counter()
            workloads.run_round(run)
            round_times.append(time.perf_counter() - t0)
            if time.perf_counter() - t_start >= seconds:
                break
        workloads.final_checks(run)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    e2e = workloads.end_to_end(run)
    e2e_wall = workloads.end_to_end(run, scaled=False)
    if setup_wall:
        e2e_wall["setup_s"] = statistics.median(setup_wall)
        e2e["setup_s"] = e2e_wall["setup_s"] * run.clock.factor("setup_s")
    e2e["peak_rss_mb"] = e2e_wall["peak_rss_mb"] = peak_rss_mb()
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": not run.problems, "problems": run.problems,
        "attempted": run.attempted, "failed": run.failed,
        "failures": run.failures,
        "rounds": run.rounds, "round_s": round_times,
        "setup_wall_s": setup_wall, "ops": dict(run.ops),
        "walls_s": dict(run.walls), "clock": run.clock.summary(),
        "reference_nominal_s": workloads.REF_NOMINAL_S,
        "end_to_end": e2e, "end_to_end_wall": e2e_wall,
        "sizes": inputs["sizes"],
        "machine": machine_info(), "git_sha": git_sha(),
        "src_lines": source_lines(),
    }
    if tracer is not None:
        layers, missing, idle = layer_metrics(tracer, run.rounds,
                                              workloads.WORKLOADS[workload])
        record.update(per_layer=layers, missing=missing + tracer.missing,
                      never_called=idle, spans=span_summaries(tracer),
                      counts={part: dict(rec.counts)
                              for part, rec in tracer.recorders.items()})
        if not tiny:
            traces = BENCH / "traces"
            traces.mkdir(exist_ok=True)
            tracer.write(traces / f"{workload}-s{seed}.spans.jsonl")
    return record


E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "dk_graphs_per_s": "graphs/s",
             "bias_evals_per_s": "trees/s", "icrg_samples_per_s": "samples/s",
             "converge_s": "s", "cli_sample_graph_s": "s", "cli_oracle_s": "s",
             "cli_reconstruct_s": "s", "pk_graphs_per_s": "graphs/s"}


def result_line(record: dict) -> dict:
    if record["trace"]:
        metrics = record["per_layer"]
    else:
        metrics = {name: {"value": record["end_to_end"][name], "unit": unit}
                   for name, unit in E2E_UNITS.items()
                   if name in record["end_to_end"]}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def print_record(record: dict):
    line = result_line(record)
    print(f"# workload {record['workload']}  seed {record['seed']}  "
          f"rounds {record['rounds']}  attempted {record['attempted']}  "
          f"failed {record['failed']}  correct {record['correct']}")
    for name, m in line["metrics"].items():
        print(f"{name:48s} {m['value']:14.6g} {m['unit']}")
    for problem in record["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for failure in record["failures"]:
        print(f"OPERATION FAILED: {failure}", file=sys.stderr)
    for name in record.get("missing", []):
        print(f"missing from the program: {name}", file=sys.stderr)
    for name in record.get("never_called", []):
        print(f"never called in this run: {name}", file=sys.stderr)
    print(json.dumps(line))


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    ok = True
    summary = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write("\n".join(proc.stdout.splitlines()[:-1]) + "\n")
        if proc.returncode != 0 or not proc.stdout.strip():
            ok = False
            summary[name] = None
            continue
        summary[name] = json.loads(proc.stdout.splitlines()[-1])
        ok = ok and summary[name]["correct"]
    print(json.dumps(summary))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    pin_to_one_cpu()
    _threads_env(os.environ)
    _import_program()
    if args.workload == "all":
        return run_all(args)
    if args.setup_only is not None:
        import workloads
        workdir = workdir_for(args.workload, args.seed, f"setup{args.setup_only}")
        try:
            workloads.make_inputs(args.workload, args.seed, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))
    print_record(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
