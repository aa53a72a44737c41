"""Spans around the calls into surpluslab's public functions.

The tracer patches module attributes from outside the package: every
public module-level function of the layer modules, plus the methods in
METHODS, is replaced by a wrapper that records a span (name, start, end,
parent) and the constructors in CONSTRUCTORS are counted.  Nothing in
``src/`` is edited; ``uninstall`` puts the original objects back.

A function object is replaced under every name it is bound to in every
surpluslab module, so calls through ``from .x import f`` go through the
wrapper as well.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import time
from collections import defaultdict

LAYER_MODULES = ("trees", "multigraph", "samplers", "continuum",
                 "reconstruct", "experiments", "params", "cli")
METHODS = (("multigraph", "Multigraph", "to_json"),
           ("continuum", "MetricTree", "mark_distance_matrix"),
           ("continuum", "GluedSpace", "mark_distance_matrix"))
CONSTRUCTORS = (("multigraph", "Multigraph"), ("trees", "LabeledTree"),
                ("continuum", "MetricTree"))


def _modules():
    import importlib
    pkg = importlib.import_module("surpluslab")
    mods = {"": pkg}
    for name in LAYER_MODULES:
        mods[name] = importlib.import_module(f"surpluslab.{name}")
    return mods


class Patcher:
    """Replaces objects in surpluslab modules and restores them."""

    def __init__(self):
        self._undo = []

    def rebind(self, original, replacement):
        """Point every module-level name bound to `original` at `replacement`."""
        for mod in _modules().values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def set_attr(self, owner, attr, replacement):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def capture(patcher: Patcher, module: str, name: str, sink: list):
    """Append (args, kwargs, return value) of every call to
    surpluslab.<module>.<name> to `sink`.  A name that no longer exists
    captures nothing, which the checks then report."""
    original = getattr(_modules()[module], name, None)
    if original is None:
        return

    def wrapper(*args, **kwargs):
        out = original(*args, **kwargs)
        sink.append((args, kwargs, out))
        return out

    patcher.rebind(original, wrapper)


class CountingRng:
    """Generator proxy that counts the draws opening a proposal.

    The streaming (D,k) sampler opens each proposal with one
    ``permutation``; the table path with one ``integers``.
    """

    def __init__(self, rng):
        self._rng = rng
        self.proposals = 0

    def permutation(self, *args, **kwargs):
        self.proposals += 1
        return self._rng.permutation(*args, **kwargs)

    def integers(self, *args, **kwargs):
        self.proposals += 1
        return self._rng.integers(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._rng, attr)


def _gp_name(args, kwargs):
    model = args[0] if args else kwargs["model"]
    return f"experiments.gp_matrix_sample.{model['model']}"


# span names computed from the arguments
NAMERS = {"experiments.gp_matrix_sample": _gp_name}
# units of work per call, for per-unit times
UNITS = {"experiments.d_tree_bias_values":
         lambda args, kwargs: args[2] if len(args) > 2 else kwargs["n_samples"]}


class Recorder:
    """Spans and counters of one part of a workload."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self.counts = defaultdict(int)
        self.units = defaultdict(int)

    def merge(self, other: dict):
        """Fold in another recorder's dump (a traced child process)."""
        offset = len(self.spans)
        for name, start, end, parent in other["spans"]:
            self.spans.append([name, start, end,
                               parent + offset if parent >= 0 else -1])
        for key, value in other["counts"].items():
            self.counts[key] += value
        for key, value in other["units"].items():
            self.units[key] += value

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts),
                "units": dict(self.units)}

    def summary(self) -> dict:
        """Per span name: calls, total seconds, self seconds."""
        child_time = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for sid, (name, start, end, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[sid]
        return out


class Tracer:
    """Patches the program and records into one Recorder per part; keeps
    everything in memory until the end of the run."""

    def __init__(self):
        self.recorders = {}
        self.select("")
        self.missing = []
        self.enabled = True
        self._stack = []
        self._patcher = Patcher()

    def select(self, part: str) -> Recorder:
        """Record the following calls under `part`."""
        self.rec = self.recorders.setdefault(part, Recorder())
        return self.rec

    @contextlib.contextmanager
    def paused(self):
        """Calls made by the benchmark's own checks are not recorded."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    # -- recording -------------------------------------------------------
    def span(self, name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        spans = self.rec.spans
        sid = len(spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), None, parent]
        spans.append(rec)
        self._stack.append(sid)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter()

    def _wrap(self, name, fn):
        namer = NAMERS.get(name)
        units = UNITS.get(name)

        def wrapper(*args, **kwargs):
            if units is not None and self.enabled:
                self.rec.units[name] += units(args, kwargs)
            return self.span(namer(args, kwargs) if namer else name,
                             fn, *args, **kwargs)
        return wrapper

    def _wrap_dk(self, fn):
        def wrapper(seq, rng, *args, **kwargs):
            if not self.enabled:
                return fn(seq, rng, *args, **kwargs)
            counting = CountingRng(rng)
            try:
                return self.span("samplers.sample_dk_graph", fn, seq,
                                 counting, *args, **kwargs)
            finally:
                self.rec.counts["samplers.proposals"] += counting.proposals
        return wrapper

    def _wrap_table(self, fn):
        def wrapper(*args, **kwargs):
            table = self.span("samplers.build_dk_table", fn, *args, **kwargs)
            if self.enabled:
                self.rec.counts["samplers.dk_table.graphs"] += len(table.graphs)
            return table
        return wrapper

    # -- patching --------------------------------------------------------
    def install(self):
        """Patch the layer modules; a listed method or constructor that no
        longer exists is noted in self.missing instead of failing."""
        mods = _modules()
        special = {"samplers.sample_dk_graph": self._wrap_dk,
                   "samplers.build_dk_table": self._wrap_table}
        for short in LAYER_MODULES:
            mod = mods[short]
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if inspect.isgeneratorfunction(value):
                    continue  # a span would close before the first item
                wrap = special.get(name)
                self._patcher.rebind(
                    value, wrap(value) if wrap else self._wrap(name, value))
        for short, cls_name, meth in METHODS:
            cls = getattr(mods[short], cls_name, None)
            if cls is None or not hasattr(cls, meth):
                self.missing.append(f"{short}.{cls_name}.{meth}")
                continue
            self._patcher.set_attr(
                cls, meth,
                self._wrap(f"{short}.{cls_name}.{meth}", getattr(cls, meth)))
        for short, cls_name in CONSTRUCTORS:
            cls = getattr(mods[short], cls_name, None)
            if cls is None:
                self.missing.append(f"{short}.{cls_name}")
                continue
            self._patcher.set_attr(cls, "__init__",
                                   self._counted_init(f"{short}.{cls_name}",
                                                      cls.__init__))

    def _counted_init(self, name, init):
        def __init__(obj, *args, **kwargs):
            if self.enabled:
                self.rec.counts[name] += 1
            init(obj, *args, **kwargs)
        return __init__

    def uninstall(self):
        self._patcher.restore()

    def write(self, path):
        """All spans as JSON lines: part, name, start, end, parent."""
        with open(path, "w") as fh:
            for part, rec in self.recorders.items():
                for name, start, end, parent in rec.spans:
                    fh.write(json.dumps([part, name, start, end, parent]) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics
#
# (name, unit, statistic, source, factor).  Statistics:
#   mean       total span seconds / calls
#   self_mean  (span seconds - seconds covered by its child spans) / calls
#   per_unit   total span seconds / units of work passed in (UNITS)
#   per_call   counter / calls of the source span
#   per_round  counter (or span calls) per round of the workload

LAYER_METRICS = (
    ("experiments.d_tree_bias_values.us", "us/tree", "per_unit",
     "experiments.d_tree_bias_values", 1e6),
    ("samplers.sample_dk_graph.ms", "ms/graph", "mean",
     "samplers.sample_dk_graph", 1e3),
    ("samplers.proposals_per_graph", "proposals/graph", "per_call",
     ("samplers.proposals", "samplers.sample_dk_graph"), 1),
    ("samplers.dk_table.s", "s", "mean", "samplers.build_dk_table", 1),
    ("samplers.dk_table.graphs", "count", "per_call",
     ("samplers.dk_table.graphs", "samplers.build_dk_table"), 1),
    ("samplers.sample_pk_graph_prefix.us", "us/graph", "mean",
     "samplers.sample_pk_graph_prefix", 1e6),
    ("samplers.cm_conditioned_oracle.s", "s", "mean",
     "samplers.cm_conditioned_oracle", 1),
    ("multigraph.Multigraph.calls", "count", "per_round",
     "multigraph.Multigraph", 1),
    ("multigraph.glue_tree_leaves.us", "us/call", "mean",
     "multigraph.glue_tree_leaves", 1e6),
    ("multigraph.Multigraph.to_json.us", "us/call", "mean",
     "multigraph.Multigraph.to_json", 1e6),
    ("trees.LabeledTree.calls", "count", "per_round", "trees.LabeledTree", 1),
    ("trees.sample_d_tree.us", "us/tree", "mean", "trees.sample_d_tree", 1e6),
    ("trees.tree_distance_matrix.us", "us/call", "mean",
     "trees.tree_distance_matrix", 1e6),
    ("experiments.multigraph_distance_matrix.us", "us/call", "mean",
     "experiments.multigraph_distance_matrix", 1e6),
    ("experiments.gp_matrix_sample.d-tree.s", "s", "mean",
     "experiments.gp_matrix_sample.d-tree", 1),
    ("experiments.gp_matrix_sample.icrt.s", "s", "mean",
     "experiments.gp_matrix_sample.icrt", 1),
    ("experiments.gp_matrix_sample.icrg.s", "s", "mean",
     "experiments.gp_matrix_sample.icrg", 1),
    ("experiments.permutation_energy_test.s", "s", "mean",
     "experiments.permutation_energy_test", 1),
    ("experiments.energy_distance.ms", "ms/call", "mean",
     "experiments.energy_distance", 1e3),
    ("experiments.ks_statistic.ms", "ms/call", "mean",
     "experiments.ks_statistic", 1e3),
    ("continuum.sample_icrt.us", "us/call", "mean", "continuum.sample_icrt", 1e6),
    ("continuum.extend_icrt.calls", "count", "per_round",
     "continuum.extend_icrt", 1),
    ("continuum.core_measure.us", "us/call", "mean", "continuum.core_measure", 1e6),
    ("continuum.GluedSpace.mark_distance_matrix.us", "us/call", "mean",
     "continuum.GluedSpace.mark_distance_matrix", 1e6),
    ("continuum.MetricTree.mark_distance_matrix.us", "us/call", "mean",
     "continuum.MetricTree.mark_distance_matrix", 1e6),
    ("reconstruct.check_four_point.s", "s", "mean",
     "reconstruct.check_four_point", 1),
    ("reconstruct.reconstruct.s", "s", "self_mean", "reconstruct.reconstruct", 1),
    ("cli.import.s", "s", "mean", "cli.import", 1),
    ("cli.main.sample-graph.s", "s", "mean", "cli.main.sample-graph", 1),
    ("cli.main.oracle.s", "s", "mean", "cli.main.oracle", 1),
    ("cli.main.reconstruct.s", "s", "mean", "cli.main.reconstruct", 1),
    ("cli.out_bytes", "bytes", "per_round", "cli.out_bytes", 1),
)


def _program_name_exists(source: str) -> bool:
    """Whether the public name behind a span or counter still exists."""
    parts = source.split(".")
    if parts[0] == "cli" and parts[1] in ("import", "main", "out_bytes"):
        return True
    if parts[:2] == ["samplers", "proposals"]:
        parts = ["samplers", "sample_dk_graph"]
    if parts[:2] == ["samplers", "dk_table"]:
        parts = ["samplers", "build_dk_table"]
    if parts[:2] == ["experiments", "gp_matrix_sample"]:
        parts = parts[:2]
    obj = _modules().get(parts[0])
    for attr in parts[1:]:
        obj = getattr(obj, attr, None)
        if obj is None:
            return False
    return True


def _merged(recorders) -> Recorder:
    out = Recorder()
    for rec in recorders:
        out.merge(rec.dump())
    return out


def _value(stat, source, sources, rec: Recorder, summary, rounds):
    row = summary.get(sources[-1], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    if stat == "mean" and row["calls"]:
        return row["total_s"] / row["calls"]
    if stat == "self_mean" and row["calls"]:
        return row["self_s"] / row["calls"]
    if stat == "per_unit" and rec.units.get(source):
        return row["total_s"] / rec.units[source]
    if stat == "per_call" and row["calls"]:
        return rec.counts.get(sources[0], 0) / row["calls"]
    if stat == "per_round" and rounds:
        return rec.counts.get(source, row["calls"]) / rounds
    return 0.0


def layer_metrics(tracer: Tracer, rounds: int, own_parts):
    """({name: {"value", "unit"}}, [names missing], [names never called]).

    A metric is taken from the spans of the workload's own parts; a layer
    they never call is measured on the other (probe) parts instead."""
    own = _merged(rec for part, rec in tracer.recorders.items()
                  if part in own_parts)
    every = _merged(tracer.recorders.values())
    own_summary, every_summary = own.summary(), every.summary()
    metrics, missing, idle = {}, [], []
    for name, unit, stat, source, factor in LAYER_METRICS:
        sources = source if isinstance(source, tuple) else (source,)
        value = 0.0
        if not all(_program_name_exists(s) for s in sources):
            missing.append(name)
        else:
            value = (_value(stat, source, sources, own, own_summary, rounds)
                     or _value(stat, source, sources, every, every_summary,
                               rounds))
            if not value:
                idle.append(name)
        metrics[name] = {"value": value * factor, "unit": unit}
    return metrics, missing, idle


def span_summaries(tracer: Tracer) -> dict:
    return {part: rec.summary() for part, rec in tracer.recorders.items()}
