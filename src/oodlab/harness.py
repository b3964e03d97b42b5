"""Experiment orchestration: single runs, ablations, few-shot sweeps,
break-point detection, one-class evaluation, and report emission.

Determinism contract: a run is a pure function of (config, seed). Sweep entry
i uses seed = master seed + i, so each count reproduces in isolation. Result
files contain only deterministic content; wall-clock metadata goes to a
``*.meta.json`` sidecar.

Every multi-run command is a list of runs: ``run_fewshot_sweep`` lists one
run per count, ``run_ablation`` one per mode and ``run_occ`` one per class.
One planner, ``_run_entries``, resolves each run's config once and turns
the run list into lockstep stacks (``training.run_pipeline`` with entries):
runs on the same RunData whose resolved configs differ at most in
``few_shot_count`` share a stack, dealt round-robin to the worker
processes, so a sweep trains the counts of each worker as one stack, while
modes and classes train apart; a single run is a stack of one. Training a
stack leaves every entry's weights, reports and result bytes equal to its
run alone, and its failures too. One rule covers a stack from few-shot
sampling to scoring: ``_run`` raises whatever stops any entry, and
``_isolated`` then runs the stack's entries again one by one, so only the
run at fault fails.
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
from .training import MODES, NEGATIVES, PipelineConfig, PipelineResult, run_pipeline

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
    """One trained pipeline (``result``, left out of comparisons like
    ``wall_seconds``) plus its per-test-set metric reports."""

    run_id: str
    mode: str
    few_shots: int
    seed: int
    fingerprint: str
    reports: dict[str, MetricReport]
    traces: dict
    boundary_pool_size: int | None = None
    result: PipelineResult | None = field(default=None, repr=False, compare=False)
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
    whose width is not the normal data's dim, and a set other than the
    few-shot pool with no rows (an empty outlier set would silently turn
    mode i into plain cross-entropy and mode iv into mode iii), raise
    ConfigError naming the key."""
    if spec is None:
        return None
    data = generate_dataset(spec, normals=normals)
    width = data.inputs.shape[1]
    if width != config.normal.dim:
        raise ConfigError(f"{key}: has {width} columns, the normal data has dim {config.normal.dim}")
    if not len(data.inputs) and key != "data.few_shot":  # zero few-shots is the zero-shot setting
        raise ConfigError(f"{key}: has no rows")
    return data if isinstance(data, OutlierPool) else OutlierPool(data.inputs)


def _require_pools(mode: str, **pools) -> None:
    """ConfigError naming the first of ``pools`` (few-shot or outlier data,
    by name) that mode ``mode`` draws negatives from but that is None."""
    for name, pool in pools.items():
        if name in NEGATIVES[mode] and pool is None:
            raise ConfigError(f"data.{name}: required for mode ({mode})")


def _checked_test_set(config: ExperimentConfig, key: str, inputs: np.ndarray) -> np.ndarray:
    """``inputs`` as an OoD test set: a set with no rows or with a row
    outside ``budget.input_box`` raises ConfigError naming ``key``."""
    if len(inputs) == 0:
        raise ConfigError(f"{key}: has no rows")
    try:
        _check_in_box(inputs, config.budget.input_box, "budget.input_box")
    except ValueError as e:
        raise ConfigError(f"{key}: {e}") from None
    return inputs


def materialize_test_sets(config: ExperimentConfig) -> dict[str, np.ndarray]:
    """Generate every OoD test set, checked under its key by
    ``_checked_test_set``; LFN corrupts a fresh draw of normals."""
    out = {}
    for name, spec in config.tests.items():
        base = _fresh_normal_draw(config, spec.seed + 1, spec.size) if spec.kind == "low-frequency-noise" else None
        key = f"data.tests.{name}"
        out[name] = _checked_test_set(config, key, _outlier_pool(config, key, spec, base).inputs)
    return out


def _held_out_normals(config: ExperimentConfig) -> LabeledBatch:
    """Held-out in-distribution samples and labels: the normal spec with a shifted seed."""
    return _fresh_normal_draw(config, config.normal.seed + config.eval_in_seed_offset, config.eval_in_size)


def materialize_eval_in(config: ExperimentConfig) -> np.ndarray:
    """The inputs of ``_held_out_normals``."""
    return _held_out_normals(config).inputs


@dataclass
class RunData:
    """Every dataset the entries of one command read, materialized once: the
    training normals and their class count, the few-shot and outlier pools
    (None when the config has none or no mode of the command draws them),
    the held-out normals and the OoD test sets."""

    normals: LabeledBatch
    num_classes: int
    few_shot_pool: OutlierPool | None
    outlier: OutlierPool | None
    eval_in: np.ndarray
    tests: dict[str, np.ndarray]

    @classmethod
    def materialize(cls, config: ExperimentConfig, modes, key: str, need: int) -> RunData:
        """Read the config's data for a command that runs ``modes`` and
        samples at most ``need`` few-shots, the value of config ``key``
        (``few_shot_count`` for one run or an ablation, ``sweep.counts`` for
        a sweep). A few-shot or outlier pool is read only when one of
        ``modes`` draws it (``NEGATIVES``); otherwise it is None, whatever
        the config holds. A CSV of the wrong width, a few-shot pool that was
        read, synthetic or CSV, with fewer rows than ``need``, and a test set
        with no rows each raise ConfigError naming the key."""
        normals = generate_dataset(config.normal)
        drawn = {name for mode in modes for name in NEGATIVES[mode]}
        few_shot = _outlier_pool(config, "data.few_shot", config.few_shot if "few_shot" in drawn else None, normals)
        if few_shot is not None and few_shot.size < need:
            raise ConfigError(f"data.few_shot: has {few_shot.size} rows, fewer than the {need} few-shots to sample for {key}")
        return cls(
            normals, len(set(normals.labels.tolist())), few_shot,
            _outlier_pool(config, "data.outlier", config.outlier if "outlier" in drawn else None, normals),
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


def _run(data: RunData, entries: list, out_dir) -> list[RunRecord]:
    """Train one stack of runs on ``data`` in lockstep and score each run on
    every test set; returns each entry's RunRecord, models included.

    An entry is ``(config, run_seed, few_shots, name)``, its config already
    resolved: it samples ``few_shots`` from the few-shot pool when its mode
    draws one and records the count it drew, so a mode that draws none
    samples nothing and records 0. Layers come from config.model and every
    draw is seeded from ``run_seed``. Its run id is
    ``{name}-n{drawn}-s{run_seed}-{fingerprint[:8]}``, the name None being
    the mode. The stack trains with its first entry's mode, model, weights,
    schedule and boundary pool size; ``_run_entries`` stacks only runs
    whose configs differ at most in ``few_shot_count``, which none of those
    read, and ``run_single`` runs a stack of one. Whatever stops any entry
    (a pool its mode draws that ``data`` lacks, few-shots that cannot be
    sampled, a training or a scoring error) raises and stops the whole
    stack; ``_isolated`` then runs each entry alone. An entry's wall
    seconds are the stack's training time plus its own scoring time. With
    ``out_dir``, per-sample scores go to ``scores/{run_id}_{test}.csv``.
    """
    t0 = time.perf_counter()
    first = entries[0][0]
    _require_pools(first.mode, few_shot=data.few_shot_pool, outlier=data.outlier)
    drawn = "few_shot" in NEGATIVES[first.mode]
    runs = []
    for cfg, run_seed, count, name in entries:
        count = count if drawn else 0
        few_shot = sample_few_shots(data.few_shot_pool, count, seed=(run_seed, 5)) if drawn else None
        runs.append((cfg, count, run_seed, f"{name or cfg.mode}-n{count}-s{run_seed}-{cfg.fingerprint[:8]}", few_shot))
    d = data.normals.dim
    model = first.model
    results = run_pipeline(
        PipelineConfig(
            normals=data.normals,
            entries=[(run_seed, few_shot) for _, _, run_seed, _, few_shot in runs],
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
    ).entries
    trained = time.perf_counter() - t0
    records = []
    for (cfg, count, run_seed, run_id, _), result in zip(runs, results):
        t1 = time.perf_counter()
        dump_stem = None if out_dir is None else Path(out_dir) / "scores" / run_id
        reports = score_test_sets(cfg, result.classifier, data.eval_in, data.tests, dump_stem)
        records.append(
            RunRecord(
                run_id=run_id,
                mode=cfg.mode,
                few_shots=count,
                seed=run_seed,
                fingerprint=cfg.fingerprint,
                reports=reports,
                traces=result.traces,
                boundary_pool_size=(len(result.boundary_pool) if result.boundary_pool is not None else None),
                result=result,
                wall_seconds=trained + time.perf_counter() - t1,
            )
        )
    return records


def run_single(config: ExperimentConfig, run_seed: int | None = None, out_dir=None) -> RunRecord:
    """Train one pipeline and evaluate every test set against held-out normals.

    The config's data is materialized first, so data the config points at
    but cannot be read fails before any training time is spent. A failure
    raises: the run is a stack of one ``_run``.
    """
    run_seed = config.seed if run_seed is None else run_seed
    data = RunData.materialize(config, [config.mode], "few_shot_count", config.few_shot_count)
    return _run(data, [(config, run_seed, config.few_shot_count, None)], out_dir)[0]


def _isolated(task) -> list[RunRecord | str]:
    """One stack of a multi-run command, ``_run(*task)``, under the one
    failure rule: when it raises, a stack of one gives its exception as its
    message, and a stack of several runs each entry alone through
    ``_isolated``, so only the entry at fault fails, with the message of its
    run alone. A rerun entry's wall seconds are its own run-alone time.
    ``task`` is one picklable tuple ``(data, entries, out_dir)`` of resolved
    entries, so a process pool can map this."""
    try:
        return _run(*task)
    except Exception as e:
        data, entries, out_dir = task
        if len(entries) == 1:
            return [f"{type(e).__name__}: {e}"]
        return [_isolated((data, [entry], out_dir))[0] for entry in entries]


def _run_entries(command: str, config: ExperimentConfig, runs: list, out_dir, jobs: int = 1) -> SweepResult:
    """The planner of every multi-run command: train and score ``runs`` of
    ``config`` into one record, in run order.

    A run is ``(label, data, updates, run_seed, few_shots, name)``,
    labelled by its count, mode or class. Its config,
    ``config.with_updates(**updates)`` (``--set`` keys), is resolved once,
    here, before any stack starts, so an invalid update raises ConfigError
    for the whole command; the run becomes the ``_run`` entry ``(config,
    run_seed, few_shots, name)`` on the RunData ``data``. Runs on the same
    ``data`` whose resolved documents differ at most in ``few_shot_count``
    can share a lockstep stack; seeds and counts may differ. Each such
    group is dealt round-robin to at most ``jobs`` stacks, so a worker
    trains its runs of a group as one stack. The stacks run through
    ``_isolated`` serially or over ``jobs`` processes, never more processes
    than stacks. An interrupt cancels the stacks not yet started."""
    groups: dict = {}
    entries = []
    for i, (_, data, updates, *rest) in enumerate(runs):
        cfg = config.with_updates(**updates)
        entries.append((cfg, *rest))
        shared = json.dumps({**cfg.document, "few_shot_count": None}, sort_keys=True)
        groups.setdefault((id(data), shared), []).append(i)
    jobs = max(1, jobs)
    stacks = [group[w::jobs] for group in groups.values() for w in range(min(jobs, len(group)))]
    tasks = [(runs[stack[0]][1], [entries[i] for i in stack], out_dir) for stack in stacks]
    workers = min(jobs, len(tasks))
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
    done = {}
    for stack, recs in zip(stacks, outcomes):
        done.update(zip(stack, recs))
    labelled = [(run[0], done[i]) for i, run in enumerate(runs)]
    return SweepResult(
        entries=[(label, rec) for label, rec in labelled if isinstance(rec, RunRecord)],
        failures={label: rec for label, rec in labelled if isinstance(rec, str)},
        fingerprint=config.fingerprint,
        command=command,
    )


def run_ablation(config: ExperimentConfig, modes=MODES, out_dir=None) -> SweepResult:
    """Run each requested mode with the identical seed, labelled by mode;
    the data is read once for all of them. Runs of different modes never
    share a stack, and a mode whose pool the config lacks fails alone
    (``_isolated``)."""
    data = RunData.materialize(config, modes, "few_shot_count", config.few_shot_count)
    runs = [(mode, data, {"mode": mode}, config.seed, config.few_shot_count, None) for mode in modes]
    return _run_entries("ablate", config, runs, out_dir)


def run_fewshot_sweep(config: ExperimentConfig, out_dir=None, jobs: int = 1) -> SweepResult:
    """One pipeline + evaluation per count of ``sweep.counts`` (checked at
    config load), seeds varied per count.

    A mode that draws no few-shots (``NEGATIVES``), whose counts would
    differ only by seed, and a pool the mode draws that the config lacks
    are each a ConfigError before any data is read. The data is read once
    for every count, so a few-shot pool too short for the largest count is
    a ConfigError before any training.
    The counts differ only in ``few_shot_count`` and seed, so
    ``_run_entries`` deals them round-robin to ``min(jobs, len(counts))``
    workers, each training its counts as one stack in lockstep. Entries
    failing are isolated into .failures by ``_isolated``; the rest of the
    sweep still runs.
    """
    counts = config.sweep_counts
    if "few_shot" not in NEGATIVES[config.mode]:
        raise ConfigError(f"sweep.counts: mode ({config.mode}) draws no few-shots, so there are no counts to sweep")
    _require_pools(config.mode, few_shot=config.few_shot, outlier=config.outlier)
    data = RunData.materialize(config, [config.mode], "sweep.counts", counts[0])
    runs = [(c, data, {"few_shot_count": c}, config.seed + i, c, None) for i, c in enumerate(counts)]
    return _run_entries("sweep", config, runs, out_dir, jobs)


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
    draw; test-time OoD are the other classes of a held-out draw. A mode
    that draws the outlier set without ``data.outlier`` is a ConfigError,
    and ``data.outlier`` is read only for a mode that draws it, once for
    every class (a low-frequency-noise set once per class, from that
    class's normals). Every
    class's data is built and its OoD set checked as a test set
    (``_checked_test_set``), all before any class runs. Runs are labelled by
    class; each has its own RunData, so each is a stack of one, and a
    class's failure is isolated by ``_isolated``.
    """
    _require_pools(config.mode, outlier=config.outlier)
    train = generate_dataset(config.normal)
    holdout = _held_out_normals(config)
    classes = sorted(set(train.labels.tolist()))
    if len(classes) < 2:
        raise ValueError("one-class evaluation needs at least two classes to rotate through")
    spec = config.outlier if "outlier" in NEGATIVES[config.mode] else None
    # a low-frequency-noise set corrupts each class's own normals; any other is read once for every class
    per_class = spec is not None and spec.kind == "low-frequency-noise"
    shared = None if per_class else _outlier_pool(config, "data.outlier", spec)
    runs = []
    for cls in classes:
        mask, held = train.labels == cls, holdout.labels == cls
        normals = LabeledBatch(train.inputs[mask], np.zeros(int(mask.sum()), dtype=np.int64))
        pool = OutlierPool(train.inputs[~mask])
        outlier = _outlier_pool(config, "data.outlier", spec, normals) if per_class else shared
        out_set = _checked_test_set(config, f"data.normal: the OCC out-set of class {cls}", holdout.inputs[~held])
        data = RunData(normals, 2, pool, outlier, holdout.inputs[held], {"occ": out_set})
        runs.append((cls, data, {}, config.seed + cls, min(config.few_shot_count, pool.size), f"occ{cls}"))
    return _run_entries("occ", config, runs, out_dir)


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
