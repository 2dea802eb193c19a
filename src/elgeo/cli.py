"""Command-line entry point: elgeo <normalize|reason|closure|train|grid|evaluate|naive|gen-toy>.

Exit codes: 0 success, 1 runtime failure, 2 input/usage error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .axioms import Form, ParseError, serialize_normalized
from .closure import (
    ClosureBudgetError, compute_closure, dump_closure, load_closure_dump,
)
from .config import (
    SCHEMA, ConfigError, apply_overrides, extras, load_config_file, load_preset,
    parse_entry, parse_values, resolved, to_train_config,
)
from .dataset import DatasetError, load_dataset, save_dataset
from .evaluation import TIE_WEIGHT, EvaluationError, emit_roc, evaluate, naive_fit
from .geometry import load_model, save_model
from .manifest import RunManifest, config_digest, read_text, write_atomic, write_json
from .normalize import normalize
from .reasoner import dump_subsumptions, saturate
from .sampling import SamplingError
from .sexpr import SexprError, parse_general
from .toygen import basic_kb, hierarchy_kb, scale_kb, skew_kb
from .training import DEFAULT_GRIDS, TrainingError, grid_runs, grid_search, train

INPUT_ERRORS = (ParseError, SexprError, DatasetError, ConfigError,
                EvaluationError, FileNotFoundError, ValueError, KeyError)
RUNTIME_ERRORS = (TrainingError, ClosureBudgetError, SamplingError)


def _gather_config(args, flags: dict | None = None) -> dict:
    """Preset, then config file, then --set, then the command's own flags.

    ``flags`` maps config keys to flag values; a flag left unset (None)
    keeps the key's value, so the manifest records what the command used.
    """
    values: dict = {}
    if getattr(args, "preset", None):
        values.update(load_preset(args.preset))
    if getattr(args, "config", None):
        values.update(load_config_file(args.config))
    if getattr(args, "set", None):
        values = apply_overrides(values, args.set)
    values.update({key: val for key, val in (flags or {}).items() if val is not None})
    return values


def cmd_normalize(args) -> int:
    rows, sig = normalize(parse_general(read_text(args.input)))
    write_atomic(args.output, [serialize_normalized(rows, sig)])
    for form in Form:
        if len(rows.ids[form]):
            print(f"{form.value}\t{len(rows.ids[form])}")
    print(f"total\t{len(rows.forms)}")
    return 0


def cmd_reason(args) -> int:
    kb = load_dataset(args.dataset)
    closure = saturate(kb)
    write_atomic(args.out, [dump_subsumptions(closure)])
    print(f"classes\t{kb.sig.n_classes}")
    print(f"unsatisfiable\t{len(closure.unsat)}")
    return 0


def cmd_closure(args) -> int:
    extra = extras(_gather_config(args, {"closure.max_derived": args.max_derived}))
    kb = load_dataset(args.dataset)
    dc = compute_closure(kb, saturate(kb), max_derived=extra["closure.max_derived"])
    dump_closure(dc, args.out)
    for form, count in sorted(dc.stats.items()):
        print(f"derived {form}\t{count}")
    return 0


def _start_training_run(args, values: dict, grids: dict | None = None):
    """What train and grid share: the TrainConfig of ``values``, the dataset, its closure
    when it or any combination of the grid ``grids`` needs one, and a started manifest."""
    cfg = to_train_config(values)
    config = resolved(cfg, values)
    kb = load_dataset(args.dataset)
    runs = [cfg, *(run for _, run in grid_runs(cfg, grids))] if grids else [cfg]
    dc = (compute_closure(kb, saturate(kb), max_derived=config["closure.max_derived"])
          if any(run.needs_closure for run in runs) else None)
    manifest = RunManifest(command=args.command, config=config, seed=cfg.seed).start()
    manifest.add_input(args.dataset)
    return cfg, kb, dc, manifest


def cmd_train(args) -> int:
    cfg, kb, dc, manifest = _start_training_run(args, _gather_config(args))
    model, report = train(kb, cfg, dc)
    os.makedirs(args.out, exist_ok=True)   # once the run succeeded: a failed one leaves none
    report.checkpoint = ckpt = os.path.join(args.out, "checkpoint.bin")
    save_model(model, ckpt)
    report_path = os.path.join(args.out, "report.jsonl")
    report.to_jsonl(report_path)
    summary_path = os.path.join(args.out, "summary.json")
    write_json(summary_path,
               {**report.summary(), "config_digest": config_digest(manifest.config)})
    manifest.outputs = [ckpt, report_path, summary_path]
    manifest.finish().write(os.path.join(args.out, "manifest.json"))
    print(f"stopped at epoch {report.stop_epoch} (best {report.best_epoch}); "
          f"checkpoint {ckpt}")
    return 0


def cmd_grid(args) -> int:
    values, grids = _gather_config(args), {}
    for item in args.grid:   # name=v1,v2 for the key train.name
        key, vals = parse_entry(f"train.{item.strip()}", f"--grid {item!r}: ", parse_values)
        attr = SCHEMA[key][0]
        # each value is typed and checked as its train.* config key would be
        grids[attr] = tuple(getattr(to_train_config({**values, key: val}), attr) for val in vals)
    grids = grids or dict(DEFAULT_GRIDS)
    cfg, kb, dc, manifest = _start_training_run(args, values, grids)
    result = grid_search(kb, cfg, grids, dc)
    os.makedirs(args.out, exist_ok=True)   # once the run succeeded: a failed one leaves none
    table_path = os.path.join(args.out, "grid_results.tsv")
    write_atomic(table_path, [result.to_table()])
    manifest.outputs = [table_path]
    manifest.finish().write(os.path.join(args.out, "manifest.json"))
    print(result.to_table(), end="")
    return 0


def cmd_evaluate(args) -> int:
    flags = {"eval.pool": args.pool, "eval.head_pool": args.head_pool,
             "eval.tie_mode": args.tie_mode}
    extra = extras(_gather_config(args, flags))
    model = load_model(args.checkpoint)
    kb = load_dataset(args.dataset)
    if (model.sig.class_names != kb.sig.class_names
            or model.sig.relation_names != kb.sig.relation_names):
        raise EvaluationError(
            "checkpoint identifier tables do not match the dataset; "
            "evaluate against the dataset the model was trained on")
    dc = None
    if args.closure_positives or args.closure_dir:
        if not args.closure_dir:
            raise EvaluationError(
                "closure-aware evaluation needs --closure-dir; run 'elgeo closure' first")
        dc = load_closure_dump(args.closure_dir, kb)
    manifest = RunManifest(command="evaluate", config={key: extra[key] for key in flags},
                           seed=model.seed).start()
    manifest.add_input(args.checkpoint)
    manifest.add_input(args.dataset)
    if args.closure_dir:
        manifest.add_input(args.closure_dir)
    report = evaluate(model, kb, dc, pool=extra["eval.pool"],
                      head_pool=extra["eval.head_pool"], tie_mode=extra["eval.tie_mode"],
                      closure_positives=args.closure_positives)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        report_path = os.path.join(args.out, "eval_report.json")
        write_json(report_path,
                   {**report.to_dict(), "config_digest": config_digest(manifest.config)})
        roc_path = os.path.join(args.out, "roc.csv")
        emit_roc(report, roc_path)
        manifest.outputs = [report_path, roc_path]
        manifest.finish().write(os.path.join(args.out, "manifest.json"))
    metrics = report.metrics()
    shown = {k: v for k, v in metrics.items()
             if not args.filtered or k.startswith(("f", "macro_f", "micro_f"))}
    for key in sorted(shown):
        print(f"{key}\t{shown[key]:.4f}")
    return 0


def cmd_naive(args) -> int:
    kb = load_dataset(args.dataset)
    if not kb.test:
        raise EvaluationError("test split is empty")
    rels = set(kb.test.ids[:, 1].tolist())
    if args.relation:
        rel = kb.sig.relation_id(args.relation)
    elif len(rels) == 1:
        rel = next(iter(rels))
    else:
        raise EvaluationError("test split uses several relations; pass --relation")
    rows = kb.train_gci2.ids
    nm = naive_fit(rows[rows[:, 1] == rel], rel, kb.pool(args.pool), symmetric=args.symmetric)
    report = evaluate(nm, kb, pool=args.pool, tie_mode=args.tie_mode)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_json(os.path.join(args.out, "naive_report.json"), report.to_dict())
        emit_roc(report, os.path.join(args.out, "naive_roc.csv"))
    for key, value in sorted(report.metrics().items()):
        print(f"{key}\t{value:.4f}")
    return 0


# gen-toy preset -> the toy dataset it writes, built from the parsed arguments
TOY_PRESETS = {
    "basic": lambda a: basic_kb(),
    "hierarchy": lambda a: hierarchy_kb(n_chains=a.chains, depth=a.depth, n_heads=a.heads,
                                        density=a.density, seed=a.seed),
    "skew": lambda a: skew_kb(seed=a.seed),
    "scale": lambda a: scale_kb(n_classes=a.classes, seed=a.seed),
}


def cmd_gen_toy(args) -> int:
    if args.preset not in TOY_PRESETS:
        raise ConfigError(
            f"unknown toy preset: {args.preset!r} (choose from {', '.join(sorted(TOY_PRESETS))})")
    kb = TOY_PRESETS[args.preset](args)
    save_dataset(args.out, kb)
    print(f"wrote {args.preset} dataset to {args.out}")
    for form, count in sorted(kb.form_counts().items()):
        print(f"{form}\t{count}")
    return 0


def _add_config_flags(p):
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--preset", help="bundled preset name")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override a single config key")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elgeo",
        description="Ball-geometry EL embeddings: normalize, reason, train, evaluate.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="rewrite general axioms into normal forms")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(fn=cmd_normalize)

    p = sub.add_parser("reason", help="dump the saturated subsumption pairs")
    p.add_argument("dataset")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_reason)

    p = sub.add_parser("closure", help="expand and dump the per-form deductive closure")
    p.add_argument("dataset")
    p.add_argument("out")
    p.add_argument("--max-derived", type=int, default=None)
    _add_config_flags(p)
    p.set_defaults(fn=cmd_closure)

    p = sub.add_parser("train", help="train an embedding on a dataset directory")
    p.add_argument("dataset")
    p.add_argument("out")
    _add_config_flags(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("grid", help="hyperparameter sweep ranked by validation mean rank")
    p.add_argument("dataset")
    p.add_argument("out")
    p.add_argument("--grid", action="append", default=[], metavar="NAME=V1,V2",
                   help="override one grid axis")
    _add_config_flags(p)
    p.set_defaults(fn=cmd_grid)

    p = sub.add_parser("evaluate", help="ranking metrics for a trained checkpoint")
    p.add_argument("checkpoint")
    p.add_argument("dataset")
    p.add_argument("--out")
    p.add_argument("--pool")
    p.add_argument("--head-pool")
    p.add_argument("--tie-mode", choices=TIE_WEIGHT)
    p.add_argument("--filtered", action="store_true",
                   help="print only the filtered metric block")
    p.add_argument("--closure-positives", action="store_true")
    p.add_argument("--closure-dir", help="directory produced by 'elgeo closure'")
    _add_config_flags(p)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("naive", help="frequency baseline on a dataset")
    p.add_argument("dataset")
    p.add_argument("--relation")
    p.add_argument("--pool")
    p.add_argument("--tie-mode", choices=TIE_WEIGHT, default="optimistic")
    p.add_argument("--symmetric", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_naive)

    p = sub.add_parser("gen-toy", help="write a bundled toy dataset")
    p.add_argument("out")
    p.add_argument("--preset", default="basic")
    p.add_argument("--classes", type=int, default=3000, help="scale preset size")
    p.add_argument("--chains", type=int, default=6, help="hierarchy preset chains")
    p.add_argument("--depth", type=int, default=8, help="hierarchy chain depth")
    p.add_argument("--heads", type=int, default=12, help="hierarchy head classes")
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_gen_toy)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except RUNTIME_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except INPUT_ERRORS as exc:   # str() of a KeyError is its argument's repr
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
