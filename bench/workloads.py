"""Workload inputs, the timed parts, and their output checks.

A part is one kind of operation, timed on its own and reported as one or
more end-to-end metrics.  Every workload runs every part, because every
run reports every end-to-end metric: the parts a workload is about run
at the sizes in NATIVE, the others at the small sizes in PROBE.  One
round runs each part once; a run repeats whole rounds.
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import numpy as np

import checks
from tracing import Patcher, capture

BENCH = Path(__file__).resolve().parent

WORKLOADS = {
    "ladder-k1": ("dk", "bias", "icrg"),
    "converge-k0": ("converge",),
    "exact-small": ("cli", "pk"),
}
PART_ORDER = ("dk", "bias", "icrg", "converge", "cli", "pk")
PART_IDS = {part: i + 1 for i, part in enumerate(PART_ORDER)}

# Sizes of one round of each part, where the workload is about that part.
NATIVE = {
    "dk": {"n": 128, "ops": 300, "chunk": 3},
    "bias": {"n": 512, "ops": 600, "chunk": 25},
    "icrg": {"ops": 1500, "chunk": 50},
    "converge": {"ns": (32, 128, 512), "reps": 300, "perms": 199, "ops": 1},
    "cli": {"graph": ([2, 2, 1, 1, 1, 1], 2), "oracle": [3, 3, 2, 2, 2, 2],
            "reps": 1000, "leaves": 80, "ops": 1},
    "pk": {"ops": 600, "chunk": 30},
}
# Sizes where it is not: enough work for a steady figure, no more.
PROBE = {
    "dk": {"n": 8, "ops": 800, "chunk": 50},
    "bias": {"n": 64, "ops": 2400, "chunk": 300},
    "icrg": {"ops": 600, "chunk": 50},
    "converge": {"ns": (8, 16, 32), "reps": 100, "perms": 49, "ops": 3},
    "cli": {"graph": ([2, 1, 1, 0], 1), "oracle": [3, 2, 2, 1],
            "reps": 200, "leaves": 24, "ops": 2},
    "pk": {"ops": 420, "chunk": 30},
}
# Sizes for the benchmark's own tests.
TINY = {
    "dk": {"n": 8, "ops": 4, "chunk": 2},
    "bias": {"n": 8, "ops": 40, "chunk": 20},
    "icrg": {"ops": 4, "chunk": 2},
    "converge": {"ns": (8, 64), "reps": 40, "perms": 19, "ops": 1},
    "cli": {"graph": ([2, 1, 1, 0], 1), "oracle": [3, 2, 2, 1],
            "reps": 20, "leaves": 8, "ops": 1},
    "pk": {"ops": 10, "chunk": 5},
}
RATE_METRICS = {"dk": "dk_graphs_per_s", "bias": "bias_evals_per_s",
                "icrg": "icrg_samples_per_s", "pk": "pk_graphs_per_s"}
WALL_METRICS = {"converge": ("converge_s",),
                "cli": ("cli_sample_graph_s", "cli_oracle_s",
                        "cli_reconstruct_s")}
N_POINTS = 5
PK_STEPS = 64
# Reference work run after every timed block, as a share of its time.
REF_DUTY = 0.2
# Seconds one reference_work() call is scaled to.
REF_NOMINAL_S = 0.004


def sizes_for(workload: str, tiny: bool = False) -> dict:
    if tiny:
        return dict(TINY)
    native = WORKLOADS[workload]
    return {part: (NATIVE if part in native else PROBE)[part]
            for part in PART_ORDER}


def rng_for(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed % 2 ** 63, *path]))


def ladder_lambda(n: int) -> float:
    """lambda = sqrt(sum d(d-1)) / s of the tree-kind ladder [2]*n + [0]*(n+2)."""
    return math.sqrt(2 * n) / (2 * n + 2)


_REF = {}


def reference_work():
    """Fixed work that never touches surpluslab: a dict-and-list walk over
    a binary tree, then a NumPy gather from a fixed 1200 x 1200 matrix, so
    that it slows down with the host both where the program runs Python
    and where it runs NumPy on large arrays."""
    if not _REF:
        rng = np.random.default_rng(0)
        _REF["matrix"] = rng.random((1200, 1200))
        _REF["order"] = rng.permutation(1200)
    adj = {}
    for i in range(1, 5000):
        adj.setdefault(i // 2, []).append(i)
        adj.setdefault(i, []).append(i // 2)
    dist = {0: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    order = _REF["order"]
    block = _REF["matrix"][np.ix_(order[:240], order[240:])]
    return sum(dist.values()) + float(block.mean())


class Clock:
    """Times blocks of program work against the machine's current speed.

    After each block the clock runs reference_work() for REF_DUTY of the
    block's time (at least once); a single long operation gets half of
    that before and half after it.  Each reference batch counts for the
    block before it and the block after it.  A key's scale factor is
    REF_NOMINAL_S over the mean reference time next to its blocks, taken
    over the whole run, so a shared host that runs everything slower for
    a while slows the reference alike and the scaled time stays put.
    Rates are cut into blocks of a few tens of milliseconds.
    """

    def __init__(self):
        self.wall = defaultdict(float)               # key -> wall seconds
        self.ref = defaultdict(lambda: [0.0, 0])     # key -> [seconds, calls]
        self._last = {}                              # key -> last block's wall
        self._prev = None

    def _reference(self, seconds):
        """Reference batch of about `seconds`, with the garbage collector
        off, so its time does not depend on how many objects the benchmark
        holds."""
        calls = max(1, round(seconds / REF_NOMINAL_S))
        gc.disable()
        try:
            t0 = time.perf_counter()
            for _ in range(calls):
                reference_work()
            return time.perf_counter() - t0, calls
        finally:
            gc.enable()

    def time(self, key, fn, *args, lead=False, **kwargs):
        """(result, wall seconds) of fn(*args, **kwargs), booked under key.

        With lead=True (single long operations) a reference batch as long
        as the one that will follow also runs right before the block."""
        ref = self.ref[key]
        share = REF_DUTY / 2 if lead else REF_DUTY
        if lead:
            self._prev = self._reference(share * self._last.get(key, 1.0))
        if self._prev is not None:
            ref[0] += self._prev[0]
            ref[1] += self._prev[1]
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        wall = time.perf_counter() - t0
        self.wall[key] += wall
        self._last[key] = wall
        self._prev = self._reference(share * wall)
        ref[0] += self._prev[0]
        ref[1] += self._prev[1]
        return out, wall

    def factor(self, key) -> float:
        """Scaled seconds per wall second for blocks booked under key."""
        spent, calls = self.ref[key]
        return REF_NOMINAL_S * calls / spent

    def summary(self) -> dict:
        return {key: {"wall_s": self.wall[key], "ref_s": spent,
                      "ref_calls": calls, "factor": self.factor(key)}
                for key, (spent, calls) in self.ref.items()}


# ---------------------------------------------------------------------------
# inputs


def make_inputs(workload: str, seed: int, workdir: Path, tiny: bool = False):
    """Everything a run needs before its first timed call."""
    from surpluslab.params import PVector, ThetaVector, validate
    sizes = sizes_for(workload, tiny)
    workdir.mkdir(parents=True, exist_ok=True)
    dk_n = sizes["dk"]["n"]
    bias_n = sizes["bias"]["n"]
    conv = sizes["converge"]
    cli = sizes["cli"]
    graph_degrees, graph_k = cli["graph"]
    (workdir / "graph.json").write_text(json.dumps(
        {"kind": "surplus", "k": graph_k, "degrees": graph_degrees}))
    (workdir / "oracle.json").write_text(json.dumps(
        {"kind": "half-edge", "degrees": cli["oracle"]}))
    names, edges = checks.random_weighted_tree(cli["leaves"], rng_for(seed, 7))
    matrix = checks.leaf_matrix(names, edges)
    (workdir / "matrix.csv").write_text(checks.matrix_csv(names, matrix))
    brownian = ThetaVector(theta0=1.0)
    return {
        "workload": workload, "seed": seed, "sizes": sizes, "workdir": workdir,
        "dk_model": {"model": "dk-graph", "k": 1, "scale": "lambda",
                     "params": validate([2] * dk_n + [0] * dk_n, "surplus", k=1)},
        "bias_seq": validate([2] * bias_n + [0] * (bias_n + 2), "tree"),
        "icrg_model": {"model": "icrg", "params": brownian, "k": 1},
        "family": [{"model": "d-tree", "scale": "lambda", "label": f"n={n}",
                    "params": validate([2] * n + [0] * (n + 2), "tree")}
                   for n in conv["ns"]],
        "target": {"model": "icrt", "params": brownian, "label": "target"},
        "pvec": PVector((Fraction(2, 3), Fraction(1, 3))),
        "reconstruct": (names, matrix),
    }


# ---------------------------------------------------------------------------
# run state


class Run:
    """Timings, operation counts, check failures and data for end-of-run
    checks, for one run of one workload."""

    def __init__(self, inputs, tracer=None, cli_env=None):
        self.inputs = inputs
        self.sizes = inputs["sizes"]
        self.seed = inputs["seed"]
        self.tracer = tracer
        self.cli_env = cli_env
        self.clock = Clock()
        self.ops = defaultdict(int)          # part -> operations completed
        self.walls = defaultdict(list)       # metric -> wall s per operation
        self.attempted = 0
        self.failed = 0
        self.problems = []                   # failed output checks
        self.failures = []                   # operations that raised or exited != 0
        self.bias_values = []
        self.graph_keys = []
        self.graph_law = None
        self.pk_keys = []
        self.rounds = 0
        self.converge_reference = None

    def quiet(self):
        """Context in which the benchmark's own calls are not traced."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.paused()

    def check(self, what, fn, *args):
        with self.quiet():
            try:
                fn(*args)
            except checks.CheckFailed as exc:
                self.problems.append(f"{what}: {exc}")

    def failure(self, what, n_ops, message):
        """Operations that failed count in `failed`, not against `correct`,
        which speaks of the operations that did not fail."""
        self.failed += n_ops
        self.failures.append(f"{what}: {message}")

    def chunks(self, part, do_chunk):
        """Run one round of a rate part in chunks of do_chunk(n, rng);
        returns the chunk results, or None if a chunk raised."""
        size = self.sizes[part]
        self.attempted += size["ops"]
        outs = []
        for c, start in enumerate(range(0, size["ops"], size["chunk"])):
            n = min(size["chunk"], size["ops"] - start)
            rng = rng_for(self.seed, PART_IDS[part], self.rounds, c)
            try:
                out, _ = self.clock.time(part, do_chunk, n, rng)
            except Exception as exc:  # counted as failed operations
                traceback.print_exc(file=sys.stderr)
                self.failure(part, size["ops"] - start, repr(exc))
                return None
            self.ops[part] += n
            outs.append(out)
        return outs

    def one(self, metric, fn, *args, **kwargs):
        """Time one operation reported as a wall-time metric."""
        out, wall = self.clock.time(metric, fn, *args, lead=True, **kwargs)
        self.walls[metric].append(wall)
        return out


# ---------------------------------------------------------------------------
# parts


def part_dk(run: Run):
    """Accepted (D,1)-graph 5-point mark matrices on the binary ladder."""
    from surpluslab import experiments
    model = run.inputs["dk_model"]
    graphs = []
    patcher = Patcher()
    capture(patcher, "samplers", "sample_dk_graph", graphs)
    try:
        outs = run.chunks("dk", lambda n, rng: experiments.gp_matrix_sample(
            model, N_POINTS, n, rng))
    finally:
        patcher.restore()
    if outs is None:
        return
    mats = np.concatenate([m for m, _ in outs])
    degrees = list(model["params"].degrees)
    points = [f"S{2 + j}" for j in range(1, N_POINTS + 1)]
    lam = ladder_lambda(run.sizes["dk"]["n"])

    def verify():
        checks.fail_unless(len(graphs) == len(mats),
                           f"{len(graphs)} graphs captured for {len(mats)} matrices")
        for (_, _, g), m in zip(graphs, mats):
            vs, edges = checks.graph_from_items(g.vertices, g.edge_items())
            checks.check_surplus_graph(vs, edges, degrees, 1)
            checks.check_hop_matrix(vs, edges, points, m, lam)
    run.check("dk graphs", verify)


def part_bias(run: Run):
    """Tree biases of the ladder as tree kind, glued at S1, S2 (k = 1)."""
    from surpluslab import experiments
    seq = run.inputs["bias_seq"]
    outs = run.chunks("bias", lambda n, rng: experiments.d_tree_bias_values(
        seq, 1, n, rng))
    if outs is not None:
        run.bias_values.extend(np.asarray(v, dtype=float) for v in outs)


def part_icrg(run: Run):
    """Weighted ICRG (k = 1, theta0 = 1) 5-point matrices."""
    from surpluslab import experiments
    model = run.inputs["icrg_model"]
    samples = []
    patcher = Patcher()
    capture(patcher, "continuum", "sample_icrg_weighted", samples)
    try:
        outs = run.chunks("icrg", lambda n, rng: experiments.gp_matrix_sample(
            model, N_POINTS, n, rng))
    finally:
        patcher.restore()
    if outs is None:
        return
    mats = np.concatenate([m for m, _ in outs])
    weights = np.concatenate([w for _, w in outs])
    labels = list(range(3, 3 + N_POINTS))

    def verify():
        checks.fail_unless(len(samples) == len(mats),
                           f"{len(samples)} ICRG draws captured for {len(mats)} matrices")
        for (_, _, ws), m, w in zip(samples, mats, weights):
            base = ws.payload.base.mark_distance_matrix(list(range(1, 3 + N_POINTS)))
            checks.check_icrg(base, m, w, labels)
    run.check("icrg", verify)


def converge_once(inputs, rnd: int, op: int = 0):
    from surpluslab import experiments
    conv = inputs["sizes"]["converge"]
    return experiments.converge_experiment(
        inputs["family"], inputs["target"], N_POINTS, conv["reps"],
        rng_for(inputs["seed"], PART_IDS["converge"], rnd, op),
        n_perms=conv["perms"], target_factor=4)


def part_converge(run: Run):
    """converge_experiment: d-tree ladder family against the Brownian CRT."""
    for op in range(run.sizes["converge"]["ops"]):
        converge_op(run, run.rounds, op)


def converge_op(run: Run, rnd: int, op: int):
    conv = run.sizes["converge"]
    energy_calls, matrices = [], []
    patcher = Patcher()
    if run.tracer is not None:
        capture(patcher, "experiments", "energy_distance", energy_calls)
        capture(patcher, "experiments", "gp_matrix_sample", matrices)
    run.attempted += 1
    try:
        report = run.one("converge_s", converge_once, run.inputs, rnd, op)
    except Exception as exc:  # counted as a failed operation
        traceback.print_exc(file=sys.stderr)
        run.failure("converge", 1, repr(exc))
        return
    finally:
        patcher.restore()
    run.ops["converge"] += 1
    run.check("converge report", checks.check_converge_report, report,
              conv["perms"])
    if run.tracer is None:
        return

    def verify_traced():
        if rnd == 0 and op == 0:
            checks.fail_unless(report == run.converge_reference,
                               "traced converge report differs from the untraced one")
        checks.fail_unless(energy_calls and matrices,
                           "energy_distance / gp_matrix_sample calls not captured")
        for args, kwargs, result in energy_calls:
            checks.check_energy_call(args, kwargs, result)
        for args, _, (mats, _) in matrices:
            if args[0]["model"] in ("d-tree", "icrt"):
                checks.check_four_point(mats)
    run.check("converge (traced)", verify_traced)


def _cli(run: Run, label: str, argv, metric: str):
    """One CLI command in a fresh process; returns its stdout lines or None."""
    if run.tracer is None:
        cmd = [sys.executable, "-m", "surpluslab.cli", *argv]
    else:
        trace_file = run.inputs["workdir"] / f"cli-{label}.json"
        cmd = [sys.executable, str(BENCH / "cli_child.py"), str(trace_file),
               label, *argv]
    run.attempted += 1
    proc = run.one(metric, subprocess.run, cmd, cwd=run.inputs["workdir"],
                   env=run.cli_env, stdout=subprocess.PIPE,
                   stderr=subprocess.PIPE)
    if proc.returncode != 0:
        run.walls[metric].pop()
        run.failure(f"cli {label}", 1, f"exit {proc.returncode}: "
                    f"{proc.stderr.decode(errors='replace')[-400:]}")
        return None
    run.ops["cli"] += 1
    if run.tracer is not None:
        run.tracer.rec.merge(json.loads(trace_file.read_text()))
        trace_file.unlink()
        run.tracer.rec.counts["cli.out_bytes"] += len(proc.stdout)
    return proc.stdout.decode().splitlines()


def part_cli(run: Run):
    """oracle cm-law, sample-graph and reconstruct, each a subprocess."""
    for op in range(run.sizes["cli"]["ops"]):
        cli_session(run, op)


def cli_session(run: Run, op: int):
    cli = run.sizes["cli"]
    degrees, k = cli["graph"]
    cli_seed = int(np.random.SeedSequence(
        [run.seed % 2 ** 63, PART_IDS["cli"], run.rounds, op]).generate_state(1)[0])
    oracle = _cli(run, "oracle", ["oracle", "cm-law", "--params", "oracle.json",
                                  "--k", str(k)], "cli_oracle_s")
    if oracle is not None:
        def read_law():
            run.graph_law = checks.read_oracle_lines(oracle)
        run.check("oracle cm-law", read_law)
    lines = _cli(run, "sample-graph",
                 ["--seed", str(cli_seed), "--reps", str(cli["reps"]),
                  "sample-graph", "--params", "graph.json"], "cli_sample_graph_s")
    if lines is not None:
        def verify():
            checks.fail_unless(len(lines) == cli["reps"],
                               f"{len(lines)} graphs for {cli['reps']} reps")
            for line in lines:
                vs, edges = checks.graph_from_json(line)
                checks.check_surplus_graph(vs, edges, degrees, k)
                run.graph_keys.append(checks.leaf_key(vs, edges))
        run.check("sample-graph", verify)
    out = _cli(run, "reconstruct", ["reconstruct", "--params", "matrix.csv"],
               "cli_reconstruct_s")
    if out is not None:
        names, matrix = run.inputs["reconstruct"]

        def verify_tree():
            checks.fail_unless(len(out) == 1, f"{len(out)} output lines")
            checks.check_reconstruct(names, matrix, out[0])
        run.check("reconstruct", verify_tree)


def part_pk(run: Run):
    """(P,1)-graph prefixes, P = (2/3, 1/3), 64 steps."""
    from surpluslab import samplers
    pvec = run.inputs["pvec"]
    outs = run.chunks("pk", lambda n, rng: [
        samplers.sample_pk_graph_prefix(pvec, 1, PK_STEPS, rng) for _ in range(n)])
    for graphs in outs or ():
        for g in graphs:
            vs, edges = checks.graph_from_items(g.vertices, g.edge_items())
            run.pk_keys.append(checks.labeled_key(vs, edges))


PARTS = {"dk": part_dk, "bias": part_bias, "icrg": part_icrg,
         "converge": part_converge, "cli": part_cli, "pk": part_pk}


def run_round(run: Run):
    for part in PART_ORDER:
        if run.tracer is not None:
            run.tracer.select(part)
        PARTS[part](run)
    run.rounds += 1


def final_checks(run: Run):
    """Checks over the whole run's samples."""
    from surpluslab import samplers
    if run.bias_values:
        run.check("bias values", checks.check_ladder_bias,
                  np.concatenate(run.bias_values), run.sizes["bias"]["n"])
    if run.graph_keys:
        if run.graph_law is None:
            run.problems.append("sample-graph: no oracle law to test against")
        else:
            run.check("sample-graph vs oracle cm-law", checks.check_gof,
                      run.graph_keys, run.graph_law, "sample-graph")
    if run.pk_keys:
        with run.quiet():
            law = {checks.plain_key(key): p for key, p in
                   samplers.pk_law_oracle(run.inputs["pvec"], 1).items()}
        run.check("pk oracle", checks.check_law_sums_to_one, law)
        run.check("pk prefixes vs pk_law_oracle", checks.check_gof,
                  run.pk_keys, law, "(P,1) prefixes")


def end_to_end(run: Run, scaled: bool = True) -> dict:
    """Rates over all rounds, wall times as medians over rounds; in scaled
    seconds, or in wall seconds with scaled=False."""
    clock = run.clock
    out = {}
    for part, name in RATE_METRICS.items():
        if run.ops[part]:
            factor = clock.factor(part) if scaled else 1.0
            out[name] = run.ops[part] / (clock.wall[part] * factor)
    for names in WALL_METRICS.values():
        for name in names:
            if run.walls[name]:
                factor = clock.factor(name) if scaled else 1.0
                out[name] = float(np.median(run.walls[name])) * factor
    return out
