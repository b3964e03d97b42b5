"""Command-line entry point.

Subcommands: train, eval, sweep, ablate, occ, gen-data, grad-check.
Progress goes to stderr and artifacts to the output directory, keeping
stdout clean for scripting (grad-check's one summary line is the deliberate
exception). Exit codes: 0 success, 1 runtime failure, 2 config/usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, dataset_spec, load_config
from .data import generate_dataset, load_csv, save_csv
from .harness import (
    _write_json,
    detect_break_point,
    emit_report,
    materialize_eval_in,
    materialize_test_sets,
    run_ablation,
    run_fewshot_sweep,
    run_occ,
    run_single,
    score_test_sets,
)
from .nets import MlpClassifier, load_checkpoint, save_checkpoint
from .training import MODES, TrainingError

__all__ = ["main", "dispatch"]

_OUT_ENV = "OODLAB_OUT"


def _progress(args, message: str) -> None:
    if not getattr(args, "quiet", False):
        print(message, file=sys.stderr)


def _out_dir(args) -> Path:
    root = args.out or os.environ.get(_OUT_ENV) or "runs"
    return Path(root)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="path to a JSON experiment config")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="dotted-key config override (repeatable), e.g. --set sweep.counts=8,4,0; "
        "a one-item list is written in JSON: --set 'sweep.counts=[8]'",
    )
    parser.add_argument("--out", default=None, help=f"output directory (default ${_OUT_ENV} or ./runs)")
    parser.add_argument("-q", "--quiet", action="store_true", help="suppress progress lines on stderr")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="oodlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run the training pipeline once and save checkpoints")
    _add_common(p)

    p = sub.add_parser("eval", help="evaluate a saved classifier on the config's test sets")
    _add_common(p)
    p.add_argument("--classifier", required=True, help="classifier checkpoint path")

    p = sub.add_parser("sweep", help="few-shot robustness sweep over sweep.counts")
    _add_common(p)
    p.add_argument("--jobs", type=int, default=1, help="worker processes, each training its counts as one stack (default 1)")

    p = sub.add_parser("ablate", help="run ablation modes with one shared seed")
    _add_common(p)
    modes = ",".join(MODES)
    p.add_argument("--modes", default=modes, help=f"comma list of modes to run (default {modes})")

    p = sub.add_parser("occ", help="one-class evaluation rotating each mixture component")
    _add_common(p)

    p = sub.add_parser("gen-data", help="generate a dataset to CSV from an inline spec")
    p.add_argument("--spec-json", required=True, help='inline DatasetSpec, e.g. \'{"kind":"ring","size":100}\'')
    p.add_argument("--base-csv", default=None, help="base normals CSV (required for low-frequency-noise)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("-q", "--quiet", action="store_true")

    p = sub.add_parser("grad-check", help="finite-difference check of the loss gradients")
    p.add_argument("--instances", type=int, default=25, help="random tiny instances per component (default 25)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-q", "--quiet", action="store_true")
    return parser


def _cmd_train(args) -> int:
    config = load_config(args.config, args.overrides)
    out = _out_dir(args)
    _progress(args, f"[train] mode {config.mode}, {config.few_shot_count} few-shots, seed {config.seed}")
    record = run_single(config, out_dir=out)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(record.result.classifier, out / f"{record.run_id}.classifier.ckpt")
    if record.result.generator is not None:
        save_checkpoint(record.result.generator, out / f"{record.run_id}.generator.ckpt")
    emit_report(record, out)
    for name, rep in record.reports.items():
        _progress(args, f"[train] {name}: auroc={rep.auroc:.4f} aauroc={rep.aauroc:.4f} gauroc={rep.gauroc:.4f}")
    return 0


def _cmd_eval(args) -> int:
    config = load_config(args.config, args.overrides)
    model = load_checkpoint(args.classifier)
    if not isinstance(model, MlpClassifier):
        raise ConfigError(f"--classifier: '{args.classifier}' is not a classifier checkpoint")
    eval_in = materialize_eval_in(config)
    if model.input_dim != eval_in.shape[1]:
        raise ConfigError(
            f"--classifier: '{args.classifier}' takes {model.input_dim} inputs, the config's data has {eval_in.shape[1]}"
        )
    out = _out_dir(args)
    reports = score_test_sets(config, model, eval_in, materialize_test_sets(config), out / "eval")
    for name, rep in reports.items():
        _progress(args, f"[eval] {name}: auroc={rep.auroc:.4f}")
    _write_json({name: rep.as_dict() for name, rep in reports.items()}, out / "eval.result.json")
    return 0


def _report_entries(args, result, out: Path) -> int:
    """Write a multi-run command's report, print one stderr line per entry
    and per failed entry (failures even with -q), and return 1 when any
    entry failed."""
    emit_report(result, out)
    for label, rec in result.entries:
        line = " ".join(f"{n}={r.auroc:.3f}" for n, r in rec.reports.items())
        _progress(args, f"[{result.command}] {label}: {line}")
    for label, error in result.failures.items():
        print(f"[{result.command}] {label} failed: {error}", file=sys.stderr)
    return 1 if result.failures else 0


def _cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs: must be >= 1, got {args.jobs}")
    config = load_config(args.config, args.overrides)
    out = _out_dir(args)
    _progress(args, f"[sweep] counts {config.sweep_counts} (mode {config.mode}, jobs {args.jobs})")
    sweep = run_fewshot_sweep(config, out_dir=out, jobs=args.jobs)
    code = _report_entries(args, sweep, out)
    breaks = detect_break_point(sweep, config.break_floor) if sweep.entries else {}
    (Path(out) / "break_points.json").write_text(json.dumps(breaks, sort_keys=True) + "\n", encoding="utf-8")
    return code


def _cmd_ablate(args) -> int:
    modes = [m.strip() for m in args.modes.split(",")]
    if not all(m in MODES for m in modes) or len(set(modes)) != len(modes):
        raise ConfigError(f"--modes: must list distinct modes out of {', '.join(MODES)}, got {args.modes!r}")
    config = load_config(args.config, args.overrides)
    out = _out_dir(args)
    _progress(args, f"[ablate] modes {modes}, seed {config.seed}")
    return _report_entries(args, run_ablation(config, modes=modes, out_dir=out), out)


def _cmd_occ(args) -> int:
    config = load_config(args.config, args.overrides)
    out = _out_dir(args)
    _progress(args, f"[occ] rotating classes of data.normal, mode {config.mode}")
    return _report_entries(args, run_occ(config, out_dir=out), out)


def _cmd_gen_data(args) -> int:
    normals = None if args.base_csv is None else load_csv(args.base_csv)
    try:
        doc = json.loads(args.spec_json)
    except json.JSONDecodeError as e:
        raise ConfigError(f"--spec-json: {e}") from e
    spec = dataset_spec(doc, "--spec-json", None if normals is None else normals.inputs.shape[1])
    if spec.kind == "low-frequency-noise" and normals is None:
        raise ConfigError("--base-csv is required for low-frequency-noise")
    data = generate_dataset(spec, normals=normals)
    save_csv(data, args.out)
    _progress(args, f"[gen-data] wrote {len(data.inputs)} x {data.inputs.shape[1]} samples to {args.out}")
    return 0


def _cmd_grad_check(args) -> int:
    from .selfcheck import loss_component_checks

    if args.instances < 1:
        raise ConfigError(f"--instances: must be >= 1, got {args.instances}")
    worst_rel = 0.0
    worst_name = ""
    ok = True
    rng = np.random.default_rng(args.seed)
    for name, report in loss_component_checks(rng, args.instances):
        if report.max_rel_diff >= worst_rel:
            worst_rel = report.max_rel_diff
            worst_name = name
        ok = ok and report.passed
    print(f"grad-check {'pass' if ok else 'FAIL'}: max discrepancy {worst_rel:.3e} ({worst_name})")
    return 0 if ok else 1


_COMMANDS = {
    "train": _cmd_train,
    "eval": _cmd_eval,
    "sweep": _cmd_sweep,
    "ablate": _cmd_ablate,
    "occ": _cmd_occ,
    "gen-data": _cmd_gen_data,
    "grad-check": _cmd_grad_check,
}


def dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (TrainingError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
