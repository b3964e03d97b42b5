"""Experiment orchestration: single runs, ablations, few-shot sweeps,
break-point detection, one-class evaluation, and report emission.

Determinism contract: a run is a pure function of (config, seed). Sweep entry
i uses seed = master seed + i, so each count reproduces in isolation. Result
files contain only deterministic content; wall-clock metadata goes to a
``*.meta.json`` sidecar.

Runs that share their data and differ only in few-shot count and seed train
as one stack in lockstep (``training.run_pipeline`` with entries): a sweep
trains the counts of each worker process as one stack, and a single run is
a stack of one. Training a stack leaves every entry's weights, reports and
result bytes equal to its run alone, and its failures too: an exception
that stops a whole stack trains its runs again one by one (``_train``), so
only the run at fault fails.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig
from .data import LabeledBatch, OutlierPool, gen_gaussian_mixture, generate_dataset, sample_few_shots
from .scoring import MetricReport, _check_in_box, evaluate_ood
from .training import MODES, PipelineConfig, PipelineResult, run_pipeline

__all__ = [
    "RunData",
    "RunRecord",
    "SweepResult",
    "score_test_sets",
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
    """The record of one multi-run command (``sweep``, ``ablate`` or ``occ``):
    ``(label, RunRecord)`` entries in run order plus ``{label: error}`` for
    the entries that failed. The label is the few-shot count, the mode or
    the class."""

    entries: list[tuple[int | str, RunRecord]]
    failures: dict[int | str, str]
    fingerprint: str
    command: str = "sweep"

    def curve(self, test_set: str, metric: str = "auroc") -> list[tuple[int, float]]:
        return [(c, getattr(rec.reports[test_set], metric)) for c, rec in self.entries]


def _fresh_normal_draw(config: ExperimentConfig, seed: int, size: int) -> LabeledBatch:
    """A fresh seeded draw from the normal distribution (held-out data)."""
    return gen_gaussian_mixture(replace(config.normal, seed=seed, size=size))


def _outlier_pool(config: ExperimentConfig, key: str, spec, normals=None) -> OutlierPool | None:
    """The data of the spec at config ``key`` as an OutlierPool, None when
    the spec is; ``normals`` is a low-frequency-noise spec's base. A CSV
    whose width is not the normal data's dim raises ConfigError naming the
    key."""
    if spec is None:
        return None
    data = generate_dataset(spec, normals=normals)
    width = data.inputs.shape[1]
    if width != config.normal.dim:
        raise ConfigError(f"{key}: has {width} columns, the normal data has dim {config.normal.dim}")
    return data if isinstance(data, OutlierPool) else OutlierPool(data.inputs)


def materialize_test_sets(config: ExperimentConfig) -> dict[str, np.ndarray]:
    """Generate every OoD test set; LFN corrupts a fresh draw of normals.

    A set with no rows (a header-only CSV) or with a row outside
    ``budget.input_box`` raises ConfigError naming its key.
    """
    out = {}
    for name, spec in config.tests.items():
        base = _fresh_normal_draw(config, spec.seed + 1, spec.size) if spec.kind == "low-frequency-noise" else None
        out[name] = _outlier_pool(config, f"data.tests.{name}", spec, base).inputs
        if len(out[name]) == 0:
            raise ConfigError(f"data.tests.{name}: has no rows")
        try:
            _check_in_box(out[name], config.budget.input_box, "budget.input_box")
        except ValueError as e:
            raise ConfigError(f"data.tests.{name}: {e}") from None
    return out


def materialize_eval_in(config: ExperimentConfig) -> np.ndarray:
    """Held-out in-distribution samples: the normal spec with a shifted seed."""
    return _fresh_normal_draw(config, config.normal.seed + config.eval_in_seed_offset, config.eval_in_size).inputs


@dataclass
class RunData:
    """Every dataset the entries of one command read, materialized once: the
    training normals and their class count, the few-shot and outlier pools
    (None when the config has none), the held-out normals and the OoD test
    sets."""

    normals: LabeledBatch
    num_classes: int
    few_shot_pool: OutlierPool | None
    outlier: OutlierPool | None
    eval_in: np.ndarray
    tests: dict[str, np.ndarray]

    @classmethod
    def materialize(cls, config: ExperimentConfig) -> RunData:
        """Read the config's data. A CSV of the wrong width, a few-shot pool
        with fewer rows than ``few_shot_count`` or the largest sweep count,
        and a test set with no rows each raise ConfigError naming the key."""
        normals = generate_dataset(config.normal)
        few_shot = _outlier_pool(config, "data.few_shot", config.few_shot, normals)
        need = max(config.few_shot_count, config.sweep_counts[0])
        if few_shot is not None and few_shot.size < need:
            raise ConfigError(f"data.few_shot: has {few_shot.size} rows, fewer than the {need} few-shots to sample")
        return cls(
            normals, len(np.unique(normals.labels)), few_shot,
            _outlier_pool(config, "data.outlier", config.outlier, normals),
            materialize_eval_in(config), materialize_test_sets(config),
        )


def score_test_sets(
    config: ExperimentConfig, model, eval_in: np.ndarray, tests: dict[str, np.ndarray], dump_stem=None
) -> dict[str, MetricReport]:
    """``evaluate_ood`` of ``model`` on every test set against ``eval_in``;
    with ``dump_stem``, per-sample scores go to ``{dump_stem}_{test}.csv``."""
    if dump_stem is not None:
        Path(dump_stem).parent.mkdir(parents=True, exist_ok=True)
    return {
        name: evaluate_ood(
            model, eval_in, out_inputs, config.budget, fingerprint=config.fingerprint,
            dump_csv=None if dump_stem is None else Path(f"{dump_stem}_{name}.csv"),
        )
        for name, out_inputs in tests.items()
    }


def _train(cfg: PipelineConfig) -> list:
    """Each entry's PipelineResult or the exception that stopped it. An
    exception ``run_pipeline`` raises for a stack of several is not one
    entry's, so each entry then trains again alone and fails alone."""
    try:
        return run_pipeline(cfg).entries
    except Exception as e:
        if len(cfg.entries) == 1:
            return [e]
        return [_train(replace(cfg, entries=[entry]))[0] for entry in cfg.entries]


def _run(config: ExperimentConfig, data: RunData, entries: list, out_dir, keep_models: bool = False) -> list:
    """Train one stack of runs on ``data`` in lockstep and score each run on
    every test set; returns per entry its RunRecord or the exception that
    stopped it.

    An entry is ``(updates, run_seed, few_shots, run_id)``: it runs
    ``config.with_updates(**updates)`` with ``few_shots`` sampled from the
    few-shot pool (None: the config's ``few_shot_count``), layers from
    config.model and every draw seeded from ``run_seed``; ``run_id`` None is
    ``{mode}-n{count}-s{seed}-{fingerprint[:8]}``. The entries must share
    everything but count and seed; the stack's settings are the first valid
    entry's. An entry fails alone, with the message of its run alone, when
    its config is invalid, its few-shots cannot be sampled, its training
    fails (``_train``) or its scoring fails. Its wall seconds are the
    stack's training time plus its own scoring time. With ``out_dir``,
    per-sample scores go to ``scores/{run_id}_{test}.csv``.
    """
    t0 = time.perf_counter()
    outcomes: list = [None] * len(entries)
    runs = {}
    for i, (updates, run_seed, few_shots, run_id) in enumerate(entries):
        try:
            cfg = config.with_updates(**updates) if updates else config
            count = cfg.few_shot_count if few_shots is None else few_shots
            few_shot = None
            if data.few_shot_pool is not None:
                few_shot = sample_few_shots(data.few_shot_pool, count, seed=(run_seed, 5))
        except Exception as e:  # this entry fails alone
            outcomes[i] = e
            continue
        run_id = run_id or f"{cfg.mode}-n{cfg.few_shot_count}-s{run_seed}-{cfg.fingerprint[:8]}"
        runs[i] = (cfg, count, run_seed, run_id, few_shot)
    if not runs:
        return outcomes
    first = next(iter(runs.values()))[0]
    d = data.normals.dim
    model = first.model
    results = _train(
        PipelineConfig(
            normals=data.normals,
            entries=[(run_seed, few_shot) for _, _, run_seed, _, few_shot in runs.values()],
            mode=first.mode,
            outlier=data.outlier,
            classifier_sizes=[d, *model["classifier_hidden"], data.num_classes],
            classifier_activation=model["classifier_activation"],
            generator_sizes=[model["latent_dim"], *model["generator_hidden"], d],
            generator_activation=model["generator_activation"],
            weights=first.weights,
            schedule=first.schedule,
            boundary_pool_size=first.boundary_pool_size,
        )
    )
    trained = time.perf_counter() - t0
    for (i, (cfg, count, run_seed, run_id, _)), result in zip(runs.items(), results):
        if isinstance(result, Exception):
            outcomes[i] = result
            continue
        t1 = time.perf_counter()
        dump_stem = None if out_dir is None else Path(out_dir) / "scores" / run_id
        try:
            reports = score_test_sets(cfg, result.classifier, data.eval_in, data.tests, dump_stem)
        except Exception as e:  # this entry fails alone
            outcomes[i] = e
            continue
        outcomes[i] = RunRecord(
            run_id=run_id,
            mode=cfg.mode,
            few_shots=count,
            seed=run_seed,
            fingerprint=cfg.fingerprint,
            reports=reports,
            traces=result.traces,
            boundary_pool_size=(len(result.boundary_pool) if result.boundary_pool is not None else None),
            result=result if keep_models else None,
            wall_seconds=trained + time.perf_counter() - t1,
        )
    return outcomes


def run_single(
    config: ExperimentConfig, run_seed: int | None = None, out_dir=None, keep_models: bool = False,
    data: RunData | None = None,
) -> RunRecord:
    """Train one pipeline and evaluate every test set against held-out normals.

    Without ``data`` the config's data is materialized first, so data the
    config points at but cannot be read fails before any training time is
    spent. A failure raises.
    """
    run_seed = config.seed if run_seed is None else run_seed
    data = RunData.materialize(config) if data is None else data
    (outcome,) = _run(config, data, [({}, run_seed, None, None)], out_dir, keep_models)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _isolated(task) -> list[RunRecord | str]:
    """One stack of a multi-run command: ``_run(*task)``, with each failed
    entry's exception turned into its message. ``task`` is one picklable
    tuple, so a process pool can map this."""
    return [rec if isinstance(rec, RunRecord) else f"{type(rec).__name__}: {rec}" for rec in _run(*task)]


def _run_entries(command: str, config: ExperimentConfig, labels: list, stacks: list, jobs: int = 1) -> SweepResult:
    """Run the entries labelled ``labels`` into one record, in label order.
    Each of ``stacks`` is ``(positions in labels, task)``, run through
    ``_isolated`` serially or over ``jobs`` processes, never more processes
    than stacks. An interrupt cancels the stacks not yet started."""
    workers = min(jobs, len(stacks))
    tasks = [task for _, task in stacks]
    if workers > 1:
        # imported here: the pool loads multiprocessing, which a serial run never needs
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            outcomes = list(pool.map(_isolated, tasks))
        finally:
            pool.shutdown(cancel_futures=True)
    else:
        outcomes = [_isolated(task) for task in tasks]
    done: list = [None] * len(labels)
    for (positions, _), recs in zip(stacks, outcomes):
        for i, rec in zip(positions, recs):
            done[i] = rec
    return SweepResult(
        entries=[(label, rec) for label, rec in zip(labels, done) if isinstance(rec, RunRecord)],
        failures={label: rec for label, rec in zip(labels, done) if isinstance(rec, str)},
        fingerprint=config.fingerprint,
        command=command,
    )


def run_ablation(config: ExperimentConfig, modes=MODES, out_dir=None) -> SweepResult:
    """Run each requested mode with the identical seed, labelled by mode;
    the data is read once for all of them, each mode is a stack of one and
    failures are isolated as ``_run`` does."""
    data = RunData.materialize(config)
    stacks = [([i], (config, data, [({"mode": mode}, config.seed, None, None)], out_dir)) for i, mode in enumerate(modes)]
    return _run_entries("ablate", config, list(modes), stacks)


def run_fewshot_sweep(config: ExperimentConfig, counts=None, out_dir=None, jobs: int = 1) -> SweepResult:
    """One pipeline + evaluation per few-shot count, seeds varied per count.

    Counts must be strictly decreasing (they may end at 0). The data is read
    once for every count. The counts are dealt round-robin to
    ``min(jobs, len(counts))`` workers, and each worker trains its counts as
    one stack in lockstep. Entries failing are isolated into .failures as
    ``_run`` does; the rest of the sweep still runs.
    """
    counts = list(config.sweep_counts if counts is None else counts)
    if not counts:
        raise ValueError("sweep needs at least one count")
    if any(counts[i] <= counts[i + 1] for i in range(len(counts) - 1)):
        raise ValueError(f"sweep counts must be strictly decreasing, got {counts}")
    if any(c < 0 for c in counts):
        raise ValueError("sweep counts must be >= 0")
    data = RunData.materialize(config)
    workers = max(1, min(jobs, len(counts)))
    stacks = []
    for w in range(workers):
        positions = list(range(w, len(counts), workers))
        entries = [({"few_shot_count": counts[i]}, config.seed + i, None, None) for i in positions]
        stacks.append((positions, (config, data, entries, out_dir)))
    return _run_entries("sweep", config, counts, stacks, jobs)


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


def run_occ(config: ExperimentConfig, out_dir=None) -> SweepResult:
    """One-class evaluation: rotate each mixture component as the normal class.

    The detector head is K=2 with all normals labeled class 0 (class 1 never
    populated). Few-shot outliers come from the other classes of the training
    draw; test-time OoD are the other classes of a held-out draw. Every
    class's data is built before any class runs. Entries are labelled by
    class, each a stack of one; a class's failure is isolated as ``_run``
    does.
    """
    train = generate_dataset(config.normal)
    holdout = _fresh_normal_draw(config, config.normal.seed + config.eval_in_seed_offset, config.eval_in_size)
    classes = sorted(int(c) for c in np.unique(train.labels))
    if len(classes) < 2:
        raise ValueError("one-class evaluation needs at least two classes to rotate through")
    stacks = []
    for i, cls in enumerate(classes):
        mask, held = train.labels == cls, holdout.labels == cls
        normals = LabeledBatch(train.inputs[mask], np.zeros(int(mask.sum()), dtype=np.int64))
        pool = OutlierPool(train.inputs[~mask])
        outlier = _outlier_pool(config, "data.outlier", config.outlier, normals)
        data = RunData(normals, 2, pool, outlier, holdout.inputs[held], {"occ": holdout.inputs[~held]})
        run_seed = config.seed + cls
        count = min(config.few_shot_count, pool.size)
        run_id = f"occ{cls}-n{count}-s{run_seed}-{config.fingerprint[:8]}"
        stacks.append(([i], (config, data, [({}, run_seed, count, run_id)], out_dir)))
    return _run_entries("occ", config, classes, stacks)


# --- report emission ---------------------------------------------------------

def _write_json(doc: dict, path: Path) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, indent=1, allow_nan=False) + "\n", encoding="utf-8")


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


# experiment.json by command: the key its failures go under ({label: error})
# and whether it is written when no entry failed; occ adds "occ_mean"
_EXPERIMENT = {"sweep": ("failures", False), "ablate": ("mode_errors", True), "occ": ("occ_errors", True)}


def _occ_mean(records: list[RunRecord]) -> dict[str, float] | None:
    """Each OCC metric averaged over the classes that ran; None when none did."""
    if not records:
        return None
    return {m: float(np.mean([getattr(r.reports["occ"], m) for r in records])) for m in ("auroc", "aauroc", "gauroc")}


def emit_report(results: RunRecord | SweepResult, out_dir) -> list[Path]:
    """Write per-run result files, a flat CSV summary, and for a SweepResult
    its ``experiment.json`` (see ``_EXPERIMENT``) and, for a sweep, the
    plot-data series.

    Each run's ``*.meta.json`` sidecar holds its own wall seconds. Returns
    the written paths.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    single = isinstance(results, RunRecord)
    records = [results] if single else [rec for _, rec in results.entries]

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
    if single:
        return written

    key, always = _EXPERIMENT[results.command]
    if always or results.failures:
        doc = {key: {str(label): error for label, error in results.failures.items()}}
        if results.command == "occ":
            doc["occ_mean"] = _occ_mean(records)
        path = out / "experiment.json"
        _write_json(doc, path)
        written.append(path)

    if results.command == "sweep" and results.entries:
        plots = out / "plots"
        plots.mkdir(exist_ok=True)
        test_names = results.entries[0][1].reports.keys()
        for name in test_names:
            for metric in ("auroc", "aauroc", "gauroc"):
                path = plots / f"{name}_{metric}.csv"
                with path.open("w", newline="", encoding="utf-8") as fh:
                    writer = csv.writer(fh)
                    writer.writerow(["few_shots", metric])
                    for count, value in results.curve(name, metric):
                        writer.writerow([count, repr(value)])
                written.append(path)
    return written
