"""Command-line front end.

Every subcommand reads JSON parameter files, draws all randomness from
--seed through numbered streams (stream r drives repetition r), writes
one JSON object per structure per line, and drops a manifest.json next
to any --out output so a rerun can be checked byte-for-byte.

Exit codes: 1 bad arguments, 2 validation failure, 3 enumeration cap.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import continuum, experiments, samplers, trees
from .errors import CapExceeded, ValidationError
from .reconstruct import core_measure_from_matrix, reconstruct as rebuild_tree
from .experiments import ExperimentManifest, content_hash, rng_stream
from .params import (KIND_HALF_EDGE, KIND_SURPLUS, KIND_TREE, DegreeSequence,
                     PVector, ThetaVector, validate)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def load_params(path: str):
    text = Path(path).read_text()
    obj = json.loads(text)
    if "degrees" in obj:
        return validate(obj["degrees"], obj.get("kind", KIND_TREE),
                        k=obj.get("k", 0))
    if "p" in obj:
        return PVector(tuple(obj["p"]), obj.get("p_inf", 0.0))
    if "theta" in obj or "theta0" in obj:
        return ThetaVector(obj.get("theta0", 0.0), tuple(obj.get("theta", ())))
    if "lambda" in obj and "weights" in obj:
        return (obj["lambda"], list(obj["weights"]))
    raise ValidationError(f"unrecognized parameter file {path}")


def read_matrix_csv(path: str):
    lines = [l for l in Path(path).read_text().splitlines()
             if l.strip() and not l.startswith("#")]
    if not lines:
        raise ValidationError("matrix CSV is empty")
    names = lines[0].split(",")
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
    if file_name is None:
        file_name = name + (".jsonl" if args.format == "json" else ".csv")
    (out_dir / file_name).write_text(text)
    hashes = {Path(p).name: content_hash(Path(p).read_bytes())
              for p in param_files}
    manifest = ExperimentManifest(name, args.seed, args.reps, hashes,
                                  list(streams), dict(sorted(options.items())))
    (out_dir / "manifest.json").write_text(manifest.to_json())


def cmd_sample_tree(args):
    params = load_params(args.params)
    streams = list(range(args.reps))
    lines = []
    for r in streams:
        rng = rng_stream(args.seed, r)
        if isinstance(params, DegreeSequence):
            tree = trees.sample_d_tree(params, rng)
        elif isinstance(params, PVector):
            tree, _ = trees.sample_p_tree_prefix(params, args.steps, rng)
        else:
            raise ValidationError("sample-tree takes a degree sequence or p vector")
        lines.append(tree.to_json())
    _emit_lines(args, "sample-tree", lines, [args.params], streams,
                steps=args.steps)
    return 0


def cmd_sample_graph(args):
    params = load_params(args.params)
    if not isinstance(params, DegreeSequence) or params.kind != KIND_SURPLUS:
        raise ValidationError("sample-graph needs a surplus-kind degree sequence")
    streams = list(range(args.reps))
    lines = []
    for r in streams:
        g = samplers.sample_dk_graph(params, rng_stream(args.seed, r))
        lines.append(g.to_json())
    _emit_lines(args, "sample-graph", lines, [args.params], streams,
                k=params.k)
    return 0


def cmd_sample_cm(args):
    params = load_params(args.params)
    if not isinstance(params, DegreeSequence) or params.kind != KIND_HALF_EDGE:
        raise ValidationError("sample-cm needs a half-edge degree sequence")
    streams = list(range(args.reps))
    lines = [samplers.sample_configuration_model(params,
                                                 rng_stream(args.seed, r)).to_json()
             for r in streams]
    _emit_lines(args, "sample-cm", lines, [args.params], streams)
    return 0


def cmd_sample_mult(args):
    params = load_params(args.params)
    if not isinstance(params, tuple):
        raise ValidationError("sample-mult needs a lambda/weights file")
    lam, weights = params
    sampler = (samplers.sample_multiplicative_multigraph if args.multi
               else samplers.sample_multiplicative_graph)
    streams = list(range(args.reps))
    lines = [sampler(lam, weights, rng_stream(args.seed, r)).to_json()
             for r in streams]
    _emit_lines(args, "sample-mult", lines, [args.params], streams,
                multi=args.multi)
    return 0


def _matrix_csv_block(names, rows, comment):
    lines = [comment, ",".join(names)]
    for row in rows:
        lines.append(",".join(repr(float(x)) for x in row))
    return lines


def cmd_sample_icrt(args):
    theta = load_params(args.params)
    if not isinstance(theta, ThetaVector):
        raise ValidationError("sample-icrt needs a theta file")
    streams = list(range(args.reps))
    lines = []
    for r in streams:
        real = continuum.sample_icrt(theta, rng_stream(args.seed, r),
                                     n_points=args.points)
        if args.format == "csv":
            labels = list(range(1, args.points + 1))
            mat = real.tree().mark_distance_matrix(labels)
            lines.extend(_matrix_csv_block([f"Y{i}" for i in labels], mat,
                                           f"# rep = {r}"))
        else:
            lines.append(real.to_json())
    _emit_lines(args, "sample-icrt", lines, [args.params], streams,
                points=args.points)
    return 0


def cmd_sample_icrg(args):
    theta = load_params(args.params)
    if not isinstance(theta, ThetaVector):
        raise ValidationError("sample-icrg needs a theta file")
    streams = list(range(args.reps))
    lines = []
    for r in streams:
        ws = continuum.sample_icrg_weighted(theta, args.k,
                                            rng_stream(args.seed, r),
                                            n_points=2 * args.k + args.points)
        if args.format == "csv":
            labels = list(range(2 * args.k + 1, 2 * args.k + args.points + 1))
            mat = ws.payload.mark_distance_matrix(labels)
            lines.extend(_matrix_csv_block(
                [f"Y{i}" for i in labels], mat,
                f"# rep = {r}, weight = {ws.weight!r}"))
        else:
            obj = json.loads(ws.realization.to_json())
            obj["weight"] = ws.weight
            obj["k"] = args.k
            lines.append(json.dumps(obj, sort_keys=True))
    _emit_lines(args, "sample-icrg", lines, [args.params], streams,
                points=args.points, k=args.k)
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
    if not 0 <= args.pairs <= len(rows) // 2:
        raise ValidationError(f"--pairs must lie in 1..{len(rows) // 2}")
    pairs = args.pairs or len(rows) // 2
    value = core_measure_from_matrix([r[:2 * pairs] for r in rows[:2 * pairs]])
    _emit_lines(args, "core-measure", [json.dumps({"pairs": pairs,
                                                   "value": float(value)})],
                [args.params], [])
    return 0


def cmd_experiment(args):
    rng = rng_stream(args.seed, 0)
    if args.what == "converge":
        target_params = load_params(args.target)
        if isinstance(target_params, ThetaVector):
            target = {"model": "icrg" if args.k else "icrt",
                      "params": target_params, "k": args.k, "label": "target"}
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
            model = {"model": "dk-graph" if args.k else "d-tree",
                     "params": seq, "k": args.k, "scale": scale,
                     "label": Path(path).name}
            if args.k and seq.kind != KIND_SURPLUS:
                raise ValidationError("k > 0 needs surplus-kind family members")
            family.append(model)
        report = experiments.converge_experiment(family, target, args.points,
                                                 args.reps, rng)
        perm = report["last_member_permutation"]
        meta = {"experiment": "converge", "seed": args.seed,
                "decreasing": report["decreasing"],
                "permutation_p": perm["p"],
                "permutation_threshold95": perm["threshold95"],
                "permutation_observed": perm["observed"]}
        _emit_lines(args, "experiment-converge",
                    experiments.table_csv_lines(report["rows"], meta),
                    list(args.family) + [args.target], [0],
                    file_name="converge.csv", k=args.k, points=args.points)
        return 0
    if args.what == "bias-tail":
        seq = load_params(args.params)
        if seq.kind == KIND_SURPLUS:
            seq = seq.to_tree_kind()
        m_grid = [float(x) for x in args.m_grid.split(",")]
        rows = experiments.bias_tail_experiment(seq, args.k, m_grid,
                                                args.reps, rng)
        meta = {"experiment": "bias-tail", "seed": args.seed, "k": args.k}
        _emit_lines(args, "experiment-bias-tail",
                    experiments.table_csv_lines(rows, meta), [args.params],
                    [0], file_name="bias-tail.csv", k=args.k,
                    m_grid=args.m_grid)
        return 0
    raise ValidationError(f"unknown experiment {args.what!r}")


def cmd_oracle(args):
    if args.what == "enumerate-trees":
        seq = load_params(args.params)
        lines = [t.to_json() for t in trees.enumerate_d_trees(seq, cap=args.cap)]
        _emit_lines(args, "oracle-enumerate-trees", lines, [args.params], [])
        return 0
    if args.what in ("cm-law", "pk-law"):
        oracle = (samplers.cm_conditioned_oracle if args.what == "cm-law"
                  else samplers.pk_law_oracle)
        law = oracle(load_params(args.params), args.k)
        lines = [json.dumps({"key": str(key), "prob": str(p)})
                 for key, p in sorted(law.items(), key=lambda kv: str(kv[0]))]
        _emit_lines(args, f"oracle-{args.what}", lines, [args.params], [], k=args.k)
        return 0
    raise ValidationError(f"unknown oracle {args.what!r}")


_GLOBAL_FLAGS = {"seed": 0, "out": None, "reps": 1, "format": "json"}
# the commands with a CSV form, and the input flags each experiment needs
_CSV_COMMANDS = ("sample-icrt", "sample-icrg", "experiment")
_EXPERIMENT_INPUT = {"converge": ("target", "family"), "bias-tail": ("params",)}


def _add_global_flags(parser):
    # accepted both before and after the subcommand; None sentinels let
    # main() merge the two positions without subparser defaults clobbering
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--reps", type=int, default=None)
    parser.add_argument("--format", choices=("json", "csv"), default=None)


def _resolve_global_flags(args, pre):
    for name, default in _GLOBAL_FLAGS.items():
        if getattr(args, name, None) is None:
            value = getattr(pre, name, None)
            setattr(args, name, default if value is None else value)


def _check_usage(parser, args):
    """Usage errors argparse cannot see on its own; each exits 1."""
    if args.format == "csv" and args.command not in _CSV_COMMANDS:
        parser.error(f"{args.command} has no CSV output; drop --format csv")
    if args.command == "experiment":
        for flag in _EXPERIMENT_INPUT[args.what]:
            if not getattr(args, flag):
                parser.error(f"experiment {args.what} needs --{flag}")


def build_parser() -> _Parser:
    parser = _Parser(prog="surpluslab")
    _add_global_flags(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **extra):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        _add_global_flags(p)
        for flag, opts in extra.items():
            p.add_argument(flag, **opts)
        return p

    add("sample-tree", cmd_sample_tree,
        **{"--params": {"required": True}, "--steps": {"type": int, "default": 8}})
    add("sample-graph", cmd_sample_graph, **{"--params": {"required": True}})
    add("sample-cm", cmd_sample_cm, **{"--params": {"required": True}})
    p = add("sample-mult", cmd_sample_mult, **{"--params": {"required": True}})
    p.add_argument("--multi", action="store_true")
    add("sample-icrt", cmd_sample_icrt,
        **{"--params": {"required": True}, "--points": {"type": int, "default": 8}})
    add("sample-icrg", cmd_sample_icrg,
        **{"--params": {"required": True}, "--points": {"type": int, "default": 8},
           "--k": {"type": int, "default": 1}})
    add("reconstruct", cmd_reconstruct, **{"--params": {"required": True}})
    add("core-measure", cmd_core_measure,
        **{"--params": {"required": True}, "--pairs": {"type": int, "default": 0}})
    pe = sub.add_parser("experiment")
    pe.set_defaults(fn=cmd_experiment)
    _add_global_flags(pe)
    pe.add_argument("what", choices=("converge", "bias-tail"))
    pe.add_argument("--family", nargs="+", default=[])
    pe.add_argument("--target")
    pe.add_argument("--params")
    pe.add_argument("--k", type=int, default=0)
    pe.add_argument("--points", type=int, default=4)
    pe.add_argument("--steps", type=int, default=64)
    pe.add_argument("--m-grid", dest="m_grid", default="0,1,10,50")
    po = sub.add_parser("oracle")
    po.set_defaults(fn=cmd_oracle)
    _add_global_flags(po)
    po.add_argument("what", choices=("enumerate-trees", "cm-law", "pk-law"))
    po.add_argument("--params", required=True)
    po.add_argument("--k", type=int, default=1)
    po.add_argument("--cap", type=int, default=250000)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    pre_parser = _Parser(add_help=False)
    _add_global_flags(pre_parser)
    try:
        pre, _ = pre_parser.parse_known_args(argv)
        args = parser.parse_args(argv)
        _resolve_global_flags(args, pre)
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
