"""Experiment orchestration: single runs, ablations, few-shot sweeps,
break-point detection, one-class evaluation, and report emission.

Determinism contract: a run is a pure function of (config, seed). Sweep entry
i uses seed = master seed + i, so each count reproduces in isolation. Result
files contain only deterministic content; wall-clock metadata goes to a
``*.meta.json`` sidecar.
"""

from __future__ import annotations

import csv
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig
from .data import (
    FEW_SHOT_OE,
    OUTLIER_DATASET,
    LabeledBatch,
    OutlierPool,
    gen_gaussian_mixture,
    generate_dataset,
    sample_few_shots,
)
from .scoring import MetricReport, evaluate_ood
from .training import PipelineConfig, PipelineResult, run_pipeline

__all__ = [
    "RunRecord",
    "SweepResult",
    "run_single",
    "run_ablation",
    "run_fewshot_sweep",
    "detect_break_point",
    "run_occ",
    "emit_report",
    "SUMMARY_COLUMNS",
]

SUMMARY_COLUMNS = ["run_id", "mode", "few_shots", "test_set", "auroc", "aauroc", "gauroc", "epsilon", "seed"]


@dataclass
class RunRecord:
    """One trained pipeline plus its per-test-set metric reports."""

    run_id: str
    mode: str
    few_shots: int
    seed: int
    fingerprint: str
    reports: dict[str, MetricReport]
    traces: dict
    boundary_pool_size: int | None = None
    result: PipelineResult | None = field(default=None, repr=False)
    # timed, so it goes to the *.meta.json sidecar and never into to_dict()
    wall_seconds: float | None = field(default=None, compare=False)

    def to_dict(self) -> dict:
        doc = {
            "run_id": self.run_id,
            "mode": self.mode,
            "few_shots": self.few_shots,
            "seed": self.seed,
            "fingerprint": self.fingerprint,
            "metrics": {name: rep.as_dict() for name, rep in self.reports.items()},
            "traces": self.traces,
        }
        if self.boundary_pool_size is not None:
            doc["boundary_pool_size"] = self.boundary_pool_size
        return doc


@dataclass
class SweepResult:
    """Ordered (few_shot_count, RunRecord) entries plus isolated failures."""

    entries: list[tuple[int, RunRecord]]
    failures: dict[int, str]
    fingerprint: str

    def counts(self) -> list[int]:
        return [c for c, _ in self.entries]

    def curve(self, test_set: str, metric: str = "auroc") -> list[tuple[int, float]]:
        return [(c, getattr(rec.reports[test_set], metric)) for c, rec in self.entries]


def _fresh_normal_draw(config: ExperimentConfig, seed: int, size: int) -> LabeledBatch:
    """A fresh seeded draw from the normal distribution (held-out data)."""
    return gen_gaussian_mixture(replace(config.normal, seed=seed, size=size))


def _outlier_pool(config: ExperimentConfig, key: str, spec, normals=None, source: str = OUTLIER_DATASET) -> OutlierPool:
    """The data of the spec at config ``key`` as an OutlierPool tagged
    ``source``; ``normals`` is a low-frequency-noise spec's base. A CSV whose
    width is not the normal data's dim raises ConfigError naming the key."""
    data = generate_dataset(spec, normals=normals, source=source)
    width = data.inputs.shape[1]
    if width != config.normal.dim:
        raise ConfigError(f"{key}: has {width} columns, the normal data has dim {config.normal.dim}")
    return data if isinstance(data, OutlierPool) else OutlierPool(data.inputs, source=source)


def materialize_test_sets(config: ExperimentConfig) -> dict[str, np.ndarray]:
    """Generate every OoD test set; LFN corrupts a fresh draw of normals."""
    out = {}
    for name, spec in config.tests.items():
        base = _fresh_normal_draw(config, spec.seed + 1, spec.size) if spec.kind == "low-frequency-noise" else None
        out[name] = _outlier_pool(config, f"data.tests.{name}", spec, base).inputs
    return out


def materialize_eval_in(config: ExperimentConfig) -> np.ndarray:
    """Held-out in-distribution samples: the normal spec with a shifted seed."""
    return _fresh_normal_draw(
        config, config.normal.seed + config.eval_in_seed_offset, config.eval_in_size
    ).inputs


def _pipeline_config(config: ExperimentConfig, run_seed: int, few_shot_count: int) -> PipelineConfig:
    normals = generate_dataset(config.normal)
    few_shot = None
    if config.few_shot is not None:
        pool = _outlier_pool(config, "data.few_shot", config.few_shot, normals, FEW_SHOT_OE)
        few_shot = sample_few_shots(pool, few_shot_count, seed=(run_seed, 5))
    outlier = None
    if config.outlier is not None:
        outlier = _outlier_pool(config, "data.outlier", config.outlier, normals)
    return _assemble_pipeline(config, normals, few_shot, outlier, len(np.unique(normals.labels)), run_seed)


def _assemble_pipeline(
    config: ExperimentConfig, normals: LabeledBatch, few_shot, outlier, num_classes: int, run_seed: int
) -> PipelineConfig:
    """The PipelineConfig for materialized data: layer sizes and activations
    from config.model, the schedule reseeded with run_seed, and the config's
    weights and boundary pool size."""
    d = normals.dim
    model = config.model
    return PipelineConfig(
        normals=normals,
        mode=config.mode,
        few_shot=few_shot,
        outlier=outlier,
        classifier_sizes=[d, *model["classifier_hidden"], num_classes],
        classifier_activation=model["classifier_activation"],
        generator_sizes=[model["latent_dim"], *model["generator_hidden"], d],
        generator_activation=model["generator_activation"],
        weights=config.weights,
        schedule=replace(config.schedule, master_seed=run_seed),
        seed=run_seed,
        boundary_pool_size=config.boundary_pool_size,
    )


def run_single(config: ExperimentConfig, run_seed: int | None = None, out_dir=None, keep_models: bool = False) -> RunRecord:
    """Train one pipeline and evaluate every test set against held-out normals."""
    t0 = time.perf_counter()
    run_seed = config.seed if run_seed is None else run_seed
    pipe_cfg = _pipeline_config(config, run_seed, config.few_shot_count)
    result = run_pipeline(pipe_cfg)
    run_id = f"{config.mode}-n{config.few_shot_count}-s{run_seed}-{config.fingerprint[:8]}"
    record = _scored_record(
        config, result, run_id, config.few_shot_count, run_seed,
        materialize_eval_in(config), materialize_test_sets(config), out_dir, t0,
    )
    if keep_models:
        record.result = result
    return record


def _scored_record(
    config: ExperimentConfig, result: PipelineResult, run_id: str, few_shots: int, run_seed: int,
    in_eval: np.ndarray, tests: dict[str, np.ndarray], out_dir, t0: float,
) -> RunRecord:
    """Evaluate the trained classifier on every test set and record the run.

    With ``out_dir``, per-sample scores go to ``scores/{run_id}_{name}.csv``.
    ``t0`` is the run's ``perf_counter`` start, for ``wall_seconds``.
    """
    fingerprint = config.fingerprint
    scores_dir = None
    if out_dir is not None:
        scores_dir = Path(out_dir) / "scores"
        scores_dir.mkdir(parents=True, exist_ok=True)
    reports = {}
    for name, out_inputs in tests.items():
        dump = scores_dir / f"{run_id}_{name}.csv" if scores_dir is not None else None
        reports[name] = evaluate_ood(
            result.classifier, in_eval, out_inputs, config.budget, fingerprint=fingerprint, dump_csv=dump
        )
    return RunRecord(
        run_id=run_id,
        mode=config.mode,
        few_shots=few_shots,
        seed=run_seed,
        fingerprint=fingerprint,
        reports=reports,
        traces=result.traces,
        boundary_pool_size=(len(result.boundary_pool) if result.boundary_pool is not None else None),
        wall_seconds=time.perf_counter() - t0,
    )


def run_ablation(config: ExperimentConfig, modes=("i", "ii", "iii", "iv"), out_dir=None) -> dict:
    """Run each requested mode with the identical seed; isolate failures."""
    results: dict[str, RunRecord | dict] = {}
    for mode in modes:
        try:
            mode_cfg = config.with_updates(mode=mode)
            results[mode] = run_single(mode_cfg, run_seed=config.seed, out_dir=out_dir)
        except Exception as e:  # per-mode isolation
            results[mode] = {"error": f"{type(e).__name__}: {e}"}
    return results


def _sweep_entry(args):
    config, count, run_seed, out_dir = args
    entry_cfg = config.with_updates(few_shot_count=count)
    return count, run_single(entry_cfg, run_seed=run_seed, out_dir=out_dir)


def _sweep_entry_isolated(args):
    try:
        return "ok", _sweep_entry(args)
    except Exception as e:  # per-count isolation, also across processes
        return "err", (args[1], f"{type(e).__name__}: {e}")


def run_fewshot_sweep(config: ExperimentConfig, counts=None, out_dir=None, jobs: int = 1) -> SweepResult:
    """One pipeline + evaluation per few-shot count, seeds varied per count.

    Counts must be strictly decreasing (they may end at 0). Entries failing
    are isolated into .failures; the rest of the sweep still runs.
    """
    counts = list(config.sweep_counts if counts is None else counts)
    if not counts:
        raise ValueError("sweep needs at least one count")
    if any(counts[i] <= counts[i + 1] for i in range(len(counts) - 1)):
        raise ValueError(f"sweep counts must be strictly decreasing, got {counts}")
    if any(c < 0 for c in counts):
        raise ValueError("sweep counts must be >= 0")
    tasks = [(config, count, config.seed + i, out_dir) for i, count in enumerate(counts)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_sweep_entry_isolated, tasks))
    else:
        outcomes = [_sweep_entry_isolated(task) for task in tasks]
    entries = [payload for status, payload in outcomes if status == "ok"]
    failures = {count: message for status, (count, message) in outcomes if status == "err"}
    return SweepResult(entries=entries, failures=failures, fingerprint=config.fingerprint)


def detect_break_point(sweep: SweepResult, floor: float = 0.55) -> dict[str, int | None]:
    """Largest count whose AUROC sits below the floor, provided some strictly
    smaller recorded count has AUROC <= 0.55; None when no count dips below
    the floor (or the decay never continues downward)."""
    if not sweep.entries:
        raise ValueError("cannot detect a break point on an empty sweep")
    if not 0.5 < floor < 1.0:
        raise ValueError(f"break-point floor must lie in (0.5, 1), got {floor}")
    test_names = sweep.entries[0][1].reports.keys()
    out: dict[str, int | None] = {}
    for name in test_names:
        curve = sweep.curve(name, "auroc")
        candidates = [
            c
            for c, v in curve
            if v < floor and any(c2 < c and v2 <= 0.55 for c2, v2 in curve)
        ]
        out[name] = max(candidates) if candidates else None
    return out


def run_occ(config: ExperimentConfig, out_dir=None) -> dict:
    """One-class evaluation: rotate each mixture component as the normal class.

    The detector head is K=2 with all normals labeled class 0 (class 1 never
    populated). Few-shot outliers come from the other classes of the training
    draw; test-time OoD are the other classes of a held-out draw.
    """
    train = generate_dataset(config.normal)
    holdout = _fresh_normal_draw(config, config.normal.seed + config.eval_in_seed_offset, config.eval_in_size)
    classes = sorted(int(c) for c in np.unique(train.labels))
    if len(classes) < 2:
        raise ValueError("one-class evaluation needs at least two classes to rotate through")
    per_class: dict[int, RunRecord | dict] = {}
    for cls in classes:
        try:
            per_class[cls] = _run_occ_class(config, train, holdout, cls, out_dir)
        except Exception as e:  # per-class isolation
            per_class[cls] = {"error": f"{type(e).__name__}: {e}"}
    metric_lists: dict[str, list[float]] = {"auroc": [], "aauroc": [], "gauroc": []}
    for rec in per_class.values():
        if isinstance(rec, RunRecord):
            rep = rec.reports["occ"]
            for m in metric_lists:
                metric_lists[m].append(getattr(rep, m))
    mean = {m: (float(np.mean(v)) if v else float("nan")) for m, v in metric_lists.items()}
    return {"per_class": per_class, "mean": mean}


def _run_occ_class(config: ExperimentConfig, train: LabeledBatch, holdout: LabeledBatch, cls: int, out_dir) -> RunRecord:
    t0 = time.perf_counter()
    mask = train.labels == cls
    normals = LabeledBatch(train.inputs[mask], np.zeros(int(mask.sum()), dtype=np.int64))
    anomaly_pool = OutlierPool(train.inputs[~mask], source=FEW_SHOT_OE)
    run_seed = config.seed + cls
    count = min(config.few_shot_count, anomaly_pool.size)
    few_shot = sample_few_shots(anomaly_pool, count, seed=(run_seed, 5))
    outlier = None
    if config.outlier is not None:
        outlier = _outlier_pool(config, "data.outlier", config.outlier, normals)
    result = run_pipeline(_assemble_pipeline(config, normals, few_shot, outlier, 2, run_seed))
    run_id = f"occ{cls}-n{count}-s{run_seed}-{config.fingerprint[:8]}"
    tests = {"occ": holdout.inputs[holdout.labels != cls]}
    return _scored_record(
        config, result, run_id, count, run_seed, holdout.inputs[holdout.labels == cls], tests, out_dir, t0
    )


# --- report emission ---------------------------------------------------------

def _write_json(doc: dict, path: Path) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def _write_sidecar(path: Path, wall_seconds: float | None) -> None:
    meta = {"written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"), "wall_seconds": wall_seconds}
    path.write_text(json.dumps(meta, sort_keys=True) + "\n", encoding="utf-8")


def summary_rows(records: list[RunRecord]) -> list[list]:
    rows = []
    for rec in records:
        for test_set, rep in rec.reports.items():
            rows.append(
                [
                    rec.run_id,
                    rec.mode,
                    rec.few_shots,
                    test_set,
                    repr(rep.auroc),
                    repr(rep.aauroc),
                    repr(rep.gauroc),
                    repr(rep.epsilon),
                    rec.seed,
                ]
            )
    return rows


def emit_report(results, out_dir) -> list[Path]:
    """Write per-run result files, a flat CSV summary, and plot-data series.

    Each run's ``*.meta.json`` sidecar holds its own wall seconds.

    ``results`` may be a RunRecord, a SweepResult, an ablation dict
    (mode -> RunRecord), or an OCC dict. Returns the written paths.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records: list[RunRecord] = []
    extra: dict = {}
    sweep: SweepResult | None = None
    if isinstance(results, RunRecord):
        records = [results]
    elif isinstance(results, SweepResult):
        sweep = results
        records = [rec for _, rec in results.entries]
        if results.failures:
            extra["failures"] = {str(k): v for k, v in results.failures.items()}
    elif isinstance(results, dict) and "per_class" in results:
        records = [r for r in results["per_class"].values() if isinstance(r, RunRecord)]
        extra["occ_mean"] = results["mean"]
        extra["occ_errors"] = {
            str(c): r["error"] for c, r in results["per_class"].items() if not isinstance(r, RunRecord)
        }
    elif isinstance(results, dict):
        records = [r for r in results.values() if isinstance(r, RunRecord)]
        extra["mode_errors"] = {m: r["error"] for m, r in results.items() if not isinstance(r, RunRecord)}
    else:
        raise TypeError(f"cannot emit report for {type(results).__name__}")

    written: list[Path] = []
    for rec in records:
        path = out / f"{rec.run_id}.result.json"
        _write_json(rec.to_dict(), path)
        written.append(path)
        _write_sidecar(out / f"{rec.run_id}.meta.json", rec.wall_seconds)

    summary = out / "summary.csv"
    with summary.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_COLUMNS)
        writer.writerows(summary_rows(records))
    written.append(summary)

    if extra:
        path = out / "experiment.json"
        _write_json(extra, path)
        written.append(path)

    if sweep is not None and sweep.entries:
        plots = out / "plots"
        plots.mkdir(exist_ok=True)
        test_names = sweep.entries[0][1].reports.keys()
        for name in test_names:
            for metric in ("auroc", "aauroc", "gauroc"):
                path = plots / f"{name}_{metric}.csv"
                with path.open("w", newline="", encoding="utf-8") as fh:
                    writer = csv.writer(fh)
                    writer.writerow(["few_shots", metric])
                    for count, value in sweep.curve(name, metric):
                        writer.writerow([count, repr(value)])
                written.append(path)
    return written
