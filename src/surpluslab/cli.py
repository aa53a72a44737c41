"""Command-line front end.

Every subcommand reads JSON parameter files, draws all randomness from
--seed through numbered streams (stream r drives repetition r), writes
one JSON object per structure per line, and drops a manifest.json next
to any --out output so a rerun can be checked byte-for-byte.

Exit codes: 1 bad arguments, 2 validation failure, 3 cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import continuum, samplers, trees
from .errors import CapExceeded, DuplicateLabel, ValidationError
from .reconstruct import (_check_distances, core_measure_from_matrix,
                          reconstruct as rebuild_tree)
from .params import (KIND_HALF_EDGE, KIND_SURPLUS, KIND_TREE, DegreeSequence,
                     PVector, ThetaVector, _check_real, validate)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _list(obj: dict, key: str) -> list:
    value = obj.get(key, [])
    if not isinstance(value, list):
        raise ValidationError(f"{key} must be a list")
    return value


def load_params(path: str):
    """The one reader of the parameter-file formats (see the README)."""
    obj = json.loads(Path(path).read_text())
    if not isinstance(obj, dict):
        raise ValidationError(f"parameter file {path} must hold a JSON object")
    if "degrees" in obj:
        return validate(obj["degrees"], obj.get("kind", KIND_TREE),
                        k=obj.get("k", 0))
    if "p" in obj:
        return PVector(tuple(_list(obj, "p")), obj.get("p_inf", 0.0))
    if "theta" in obj or "theta0" in obj:
        return ThetaVector(obj.get("theta0", 0.0), tuple(_list(obj, "theta")))
    if "lambda" in obj and "weights" in obj:
        weights = _list(obj, "weights")
        _check_real("lambda and weights", [obj["lambda"], *weights])
        return (obj["lambda"], weights)
    raise ValidationError(f"unrecognized parameter file {path}")


def read_matrix_csv(path: str):
    lines = [l for l in Path(path).read_text().splitlines()
             if l.strip() and not l.startswith("#")]
    if not lines:
        raise ValidationError("matrix CSV is empty")
    names = lines[0].split(",")
    if len(set(names)) < len(names):
        repeated = next(n for i, n in enumerate(names) if n in names[:i])
        raise DuplicateLabel(f"matrix CSV repeats the mark name {repeated!r}")
    try:
        rows = [[float(x) for x in l.split(",")] for l in lines[1:]]
    except ValueError as exc:
        raise ValidationError(f"matrix CSV entries must be numbers ({exc})") from None
    if len(rows) != len(names) or any(len(r) != len(names) for r in rows):
        raise ValidationError("matrix CSV must be square with a header row")
    return names, rows


def _emit_lines(args, name, lines, param_files, streams, file_name=None,
                **options):
    """Write lines to stdout, or to --out/<file_name> next to a manifest
    named `name`; file_name defaults to name plus the --format suffix."""
    text = "".join(line + "\n" for line in lines)
    if not args.out:
        sys.stdout.write(text)
        return
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    file_name = file_name or name + (".jsonl" if args.format == "json" else ".csv")
    (out_dir / file_name).write_text(text)
    import hashlib
    from .experiments import ExperimentManifest  # only --out loads numpy
    hashes = {Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest()
              for p in param_files}
    manifest = ExperimentManifest(name, args.seed, args.reps, hashes,
                                  list(streams), dict(sorted(options.items())))
    (out_dir / "manifest.json").write_text(manifest.to_json())


def rng_stream(seed: int, stream_id: int):
    from . import experiments  # deferred: commands that draw nothing skip numpy
    return experiments.rng_stream(seed, stream_id)


def _per_rep(args, name, draw, **options):
    """Emit draw(r, rng) for each repetition r, rng being stream r of
    --seed; the repetitions are the manifest's streams."""
    streams = range(args.reps)
    lines = [line for r in streams
             for line in draw(r, rng_stream(args.seed, r))]
    _emit_lines(args, name, lines, [args.params], streams, **options)


def cmd_sample_tree(args):
    if args.steps < 1:  # refused for a degree sequence too, which ignores it
        raise ValidationError("n_steps must be >= 1")
    params = load_params(args.params)
    if isinstance(params, DegreeSequence):
        def draw(r, rng):
            return [trees.sample_d_tree(params, rng).to_json()]
    elif isinstance(params, PVector):
        def draw(r, rng):
            tree, _ = trees.sample_p_tree_prefix(params, args.steps, rng)
            return [tree.to_json()]
    else:
        raise ValidationError("sample-tree takes a degree sequence or p vector")
    _per_rep(args, "sample-tree", draw, steps=args.steps)
    return 0


def cmd_sample_graph(args):
    params = load_params(args.params)
    if not isinstance(params, DegreeSequence) or params.kind != KIND_SURPLUS:
        raise ValidationError("sample-graph needs a surplus-kind degree sequence")
    _per_rep(args, "sample-graph",
             lambda r, rng: [samplers.sample_dk_graph(params, rng).to_json()],
             k=params.k)
    return 0


def cmd_sample_cm(args):
    params = load_params(args.params)
    if not isinstance(params, DegreeSequence) or params.kind != KIND_HALF_EDGE:
        raise ValidationError("sample-cm needs a half-edge degree sequence")
    _per_rep(args, "sample-cm", lambda r, rng: [
        samplers.sample_configuration_model(params, rng).to_json()])
    return 0


def cmd_sample_mult(args):
    params = load_params(args.params)
    if not isinstance(params, tuple):
        raise ValidationError("sample-mult needs a lambda/weights file")
    sampler = (samplers.sample_multiplicative_multigraph if args.multi
               else samplers.sample_multiplicative_graph)
    _per_rep(args, "sample-mult",
             lambda r, rng: [sampler(*params, rng).to_json()], multi=args.multi)
    return 0


def _matrix_csv(comment, labels, matrix):
    from .experiments import csv_lines
    return csv_lines([comment], [f"Y{i}" for i in labels],
                     [[float(x) for x in row] for row in matrix])


def cmd_sample_icrt(args):
    theta = load_params(args.params)
    if not isinstance(theta, ThetaVector):
        raise ValidationError("sample-icrt needs a theta file")
    labels = list(range(1, args.points + 1))

    def draw(r, rng):  # the ICRT is the k = 0 ICRG
        ws = continuum.sample_icrg_weighted(theta, 0, rng, n_points=args.points)
        if args.format == "json":
            return [ws.realization.to_json()]
        return _matrix_csv(f"rep = {r}", labels,
                           continuum._mark_matrix(ws._segments, labels))
    _per_rep(args, "sample-icrt", draw, points=args.points)
    return 0


def cmd_sample_icrg(args):
    theta = load_params(args.params)
    if not isinstance(theta, ThetaVector):
        raise ValidationError("sample-icrg needs a theta file")
    labels = list(range(2 * args.k + 1, 2 * args.k + args.points + 1))

    def draw(r, rng):
        ws = continuum.sample_icrg_weighted(theta, args.k, rng,
                                            n_points=2 * args.k + args.points)
        if args.format == "json":
            obj = dict(json.loads(ws.realization.to_json()),
                       weight=ws.weight, k=args.k)
            return [json.dumps(obj, sort_keys=True)]
        return _matrix_csv(f"rep = {r}, weight = {ws.weight!r}", labels,
                           continuum._mark_matrix(ws._segments, labels, args.k))
    _per_rep(args, "sample-icrg", draw, points=args.points, k=args.k)
    return 0


def cmd_reconstruct(args):
    names, rows = read_matrix_csv(args.params)
    tree = rebuild_tree(rows)
    edges = sorted([str(u), str(v), float(w)] for u, v, w in tree.edges())
    marks = {str(tree.marks[i + 1]): names[i] for i in range(len(names))}
    line = json.dumps({"edges": edges, "marks": marks}, sort_keys=True)
    _emit_lines(args, "reconstruct", [line], [args.params], [])
    return 0


def cmd_core_measure(args):
    _, rows = read_matrix_csv(args.params)
    _check_distances(rows)  # the whole matrix, whichever pairs are read
    if not 0 <= args.pairs <= len(rows) // 2:
        raise ValidationError(
            f"--pairs must lie in 0..{len(rows) // 2} (0 = all pairs)")
    pairs = args.pairs or len(rows) // 2
    value = core_measure_from_matrix([r[:2 * pairs] for r in rows[:2 * pairs]])
    line = json.dumps({"pairs": pairs, "value": float(value)})
    _emit_lines(args, "core-measure", [line], [args.params], [])
    return 0


def cmd_experiment(args):
    from . import experiments
    rng = rng_stream(args.seed, 0)
    if args.what == "converge":
        target_params = load_params(args.target)
        if isinstance(target_params, ThetaVector):
            target = {"model": "icrg", "params": target_params, "k": args.k,
                      "label": "target"}
            scale = "lambda"
        elif isinstance(target_params, PVector):
            target = {"model": "pk-graph" if args.k else "p-tree",
                      "params": target_params, "k": args.k,
                      "n_steps": args.steps, "label": "target"}
            scale = "none"
        else:
            raise ValidationError("target must be a p or theta file")
        family = []
        for path in args.family:
            seq = load_params(path)
            if not isinstance(seq, DegreeSequence):
                raise ValidationError("family members must be degree sequences")
            kind = KIND_SURPLUS if args.k else KIND_TREE
            if seq.kind != kind:
                raise ValidationError(f"k {'> 0' if args.k else '= 0'} needs "
                                      f"{kind}-kind family members")
            family.append({"model": "dk-graph" if args.k else "d-tree",
                           "params": seq, "k": args.k, "scale": scale,
                           "label": Path(path).name})
        report = experiments.converge_experiment(family, target, args.points,
                                                 args.reps, rng)
        perm = report["last_member_permutation"]
        meta = {"experiment": "converge", "seed": args.seed,
                "decreasing": report["decreasing"], "permutation_p": perm["p"],
                "permutation_threshold95": perm["threshold95"],
                "permutation_observed": perm["observed"]}
        _emit_lines(args, "experiment-converge",
                    experiments.table_csv_lines(report["rows"], meta),
                    list(args.family) + [args.target], [0],
                    file_name="converge.csv", k=args.k, points=args.points)
        return 0
    seq = load_params(args.params)  # bias-tail
    if not isinstance(seq, DegreeSequence):
        raise ValidationError("bias-tail needs a degree sequence")
    seq = seq.to_tree_kind()
    m_grid = [float(x) for x in args.m_grid.split(",")]
    rows = experiments.bias_tail_experiment(seq, args.k, m_grid, args.reps, rng)
    meta = {"experiment": "bias-tail", "seed": args.seed, "k": args.k}
    _emit_lines(args, "experiment-bias-tail",
                experiments.table_csv_lines(rows, meta), [args.params], [0],
                file_name="bias-tail.csv", k=args.k, m_grid=args.m_grid)
    return 0


def cmd_oracle(args):
    caps = {} if args.cap is None else {"cap": args.cap}  # no --cap: own default
    params = load_params(args.params)
    p_law = args.what == "pk-law"
    if not isinstance(params, PVector if p_law else DegreeSequence):
        raise ValidationError(f"oracle {args.what} needs a "
                              f"{'p' if p_law else 'degree-sequence'} file")
    if args.what == "enumerate-trees":
        lines = [t.to_json() for t in trees.enumerate_d_trees(params, **caps)]
        _emit_lines(args, "oracle-enumerate-trees", lines, [args.params], [])
        return 0
    oracle = samplers.pk_law_oracle if p_law else samplers.cm_conditioned_oracle
    law = oracle(params, args.k, **caps)
    lines = [json.dumps({"key": str(key), "prob": str(p)})
             for key, p in sorted(law.items(), key=lambda kv: str(kv[0]))]
    _emit_lines(args, f"oracle-{args.what}", lines, [args.params], [], k=args.k)
    return 0


# the commands with a CSV form, the input flags each experiment needs, and
# the least --points each task can draw distances between
_CSV_COMMANDS = ("sample-icrt", "sample-icrg", "experiment")
_EXPERIMENT_INPUT = {"converge": ("target", "family"), "bias-tail": ("params",)}
_MIN_POINTS = {"sample-icrt": 1, "sample-icrg": 1, "converge": 2}


def _add_global_flags(parser, default):
    """--seed/--out/--reps/--format, each defaulting to default(value)."""
    parser.add_argument("--seed", type=int, default=default(0))
    parser.add_argument("--out", default=default(None))
    parser.add_argument("--reps", type=int, default=default(1))
    parser.add_argument("--format", choices=("json", "csv"),
                        default=default("json"))


def _check_usage(parser, args):
    """Usage errors argparse cannot see on its own; each exits 1."""
    task = getattr(args, "what", args.command)
    if args.reps < 1:
        parser.error(f"--reps must be >= 1, got {args.reps}")
    if task == "cm-law" and args.cap is not None:
        parser.error("oracle cm-law is capped by its half-edge sum; drop --cap")
    if args.command == "oracle" and args.cap is not None and args.cap < 1:
        parser.error(f"--cap must be >= 1, got {args.cap}")
    if args.format == "csv" and args.command not in _CSV_COMMANDS:
        parser.error(f"{args.command} has no CSV output; drop --format csv")
    for flag in _EXPERIMENT_INPUT.get(task, ()):
        if not getattr(args, flag):
            parser.error(f"experiment {task} needs --{flag}")
    if task in _MIN_POINTS and args.points < _MIN_POINTS[task]:
        parser.error(f"--points must be >= {_MIN_POINTS[task]}, got {args.points}")
    if args.command in ("experiment", "sample-icrg") and args.k < 0:
        parser.error(f"--k must be >= 0, got {args.k}")
    if getattr(args, "steps", 0) < 0:
        parser.error(f"--steps must be >= 0, got {args.steps}")
    if task == "bias-tail":
        try:
            [float(x) for x in args.m_grid.split(",")]
        except ValueError:
            parser.error(f"--m-grid must be numbers joined by commas: {args.m_grid!r}")


def build_parser() -> _Parser:
    parser = _Parser(prog="surpluslab")
    _add_global_flags(parser, lambda value: value)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **flags):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        # after the subcommand a global flag is set only when given there
        _add_global_flags(p, lambda value: argparse.SUPPRESS)
        for flag, opts in flags.items():
            p.add_argument(flag, **opts)

    params = {"--params": {"required": True}}
    points = {"--points": {"type": int, "default": 8}}
    add("sample-tree", cmd_sample_tree,
        **params, **{"--steps": {"type": int, "default": 8}})
    add("sample-graph", cmd_sample_graph, **params)
    add("sample-cm", cmd_sample_cm, **params)
    add("sample-mult", cmd_sample_mult,
        **params, **{"--multi": {"action": "store_true"}})
    add("sample-icrt", cmd_sample_icrt, **params, **points)
    add("sample-icrg", cmd_sample_icrg,
        **params, **points, **{"--k": {"type": int, "default": 1}})
    add("reconstruct", cmd_reconstruct, **params)
    add("core-measure", cmd_core_measure,
        **params, **{"--pairs": {"type": int, "default": 0}})
    add("experiment", cmd_experiment, **{
        "what": {"choices": ("converge", "bias-tail")},
        "--family": {"nargs": "+", "default": []}, "--target": {},
        "--params": {}, "--k": {"type": int, "default": 0},
        "--points": {"type": int, "default": 4},
        "--steps": {"type": int, "default": 64},
        "--m-grid": {"default": "0,1,10,50"}})
    add("oracle", cmd_oracle, **{
        "what": {"choices": ("enumerate-trees", "cm-law", "pk-law")},
        **params, "--k": {"type": int, "default": 1},
        "--cap": {"type": int}})
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_usage(parser, args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.fn(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        witness = getattr(exc, "witness", None)
        suffix = f" (witness {witness})" if witness is not None else ""
        print(f"error: {exc}{suffix}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
