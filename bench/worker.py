"""One benchmark process: set-up, timed units of work, correctness checks.

``run.py`` starts this file with BLAS threads pinned to one and the
repository's ``src`` on ``PYTHONPATH``. A unit of work is one full
``sweep`` (modes iii and ii over ``sweep.counts`` plus report emission) or
one ``eval`` pass (``evaluate_ood`` over the three OoD test sets). Units
repeat until ``--seconds`` have passed. With ``--trace 1`` the untraced
units are followed by one traced set-up and one traced unit, and the
per-layer figures come from that traced part. The last stdout line is a
JSON object.
"""

from __future__ import annotations

import argparse
import copy
import csv
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oodlab
from oodlab import autodiff, config, harness, nets, scoring, training
from tracer import Tracer, summarize

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE_CONFIG = ROOT / "configs" / "reference.json"
REFERENCE_CLASSIFIER = BENCH / "reference_classifier.ckpt"
OUT = BENCH / "_out"
WORKLOADS = ("sweep", "eval")
EVAL_ROWS = 4096
# Workload seed k moves every seed of the config by SEED_STRIDE * k, far
# enough that the per-count run seeds (seed + i) of two workload seeds never meet.
SEED_STRIDE = 1000
LAYERS = ("config", "data", "nets", "autodiff", "losses", "training", "scoring", "harness")


def workload_config(workload: str, seed: int, config_path=REFERENCE_CONFIG, eval_rows: int = EVAL_ROWS):
    """The config with its run seed and every data-spec seed shifted by the
    workload seed; ``eval`` also redraws the test sets at ``eval_rows``."""
    cfg = config.load_config(config_path)
    shift = SEED_STRIDE * (seed % 2**31)
    doc = copy.deepcopy(cfg.document["data"])
    for spec in (doc["normal"], doc["few_shot"], doc["outlier"], *doc["tests"].values()):
        if spec is not None:
            spec["seed"] += shift
    updates = {"seed": cfg.seed + shift, "data": doc}
    if workload == "eval":
        for spec in doc["tests"].values():
            spec["size"] = eval_rows
        updates["eval"] = {**cfg.document["eval"], "in_size": eval_rows}
    return cfg.with_updates(**updates)


def weights_sha256(model) -> str:
    digest = hashlib.sha256()
    for p in model.parameters():
        digest.update(p.data.tobytes())
    return digest.hexdigest()


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Sweep:
    configs: list

    @property
    def attempted(self) -> int:
        return sum(len(c.sweep_counts) for c in self.configs)

    def run(self, out: Path):
        """Both sweeps as ``oodlab sweep --jobs 1`` runs them."""
        reports, failures, written = {}, [], []
        for cfg in self.configs:
            mode_out = out / cfg.mode
            sweep = harness.run_fewshot_sweep(cfg, out_dir=mode_out, jobs=1)
            written += harness.emit_report(sweep, mode_out)
            failures += [f"{cfg.mode}/n{count}: {msg}" for count, msg in sweep.failures.items()]
            for count, rec in sweep.entries:
                for name, rep in rec.reports.items():
                    reports[f"{cfg.mode}/n{count}/{name}"] = rep
        return reports, failures, written


@dataclass
class Eval:
    config: object
    model: object
    in_eval: np.ndarray
    tests: dict

    @property
    def attempted(self) -> int:
        return len(self.tests)

    def run(self, out: Path):
        """``oodlab eval`` on the materialized test sets."""
        out.mkdir(parents=True, exist_ok=True)
        reports, failures = {}, []
        for name, inputs in self.tests.items():
            try:
                reports[name] = scoring.evaluate_ood(
                    self.model, self.in_eval, inputs, self.config.budget,
                    fingerprint=self.config.fingerprint, dump_csv=out / f"eval_{name}.csv",
                )
            except Exception as e:  # one failed test set must not hide the others
                failures.append(f"{name}: {type(e).__name__}: {e}")
        doc = {name: rep.as_dict() for name, rep in reports.items()}
        (out / "eval.result.json").write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n", encoding="utf-8")
        return reports, failures, []


def setup(workload: str, seed: int, config_path=REFERENCE_CONFIG, eval_rows: int = EVAL_ROWS):
    cfg = workload_config(workload, seed, config_path, eval_rows)
    if workload == "sweep":
        return Sweep([cfg.with_updates(mode=mode) for mode in ("iii", "ii")])
    model = nets.load_checkpoint(REFERENCE_CLASSIFIER)
    if not isinstance(model, nets.MlpClassifier):
        raise TypeError(f"{REFERENCE_CLASSIFIER} is not a classifier checkpoint")
    return Eval(cfg, model, harness.materialize_eval_in(cfg), harness.materialize_test_sets(cfg))


@dataclass
class Unit:
    """What one unit of work produced, checked outside the timed region."""

    seconds: float
    reports: dict
    failures: list
    result_sha256: dict
    classifier_sha256: list
    samples: int
    bytes_written: int
    pgd_raised: int = 0
    pgd_total: int = 0


def _report_problem(rep) -> str | None:
    values = (rep.auroc, rep.aauroc, rep.gauroc)
    if not all(math.isfinite(v) for v in values):
        return f"non-finite metrics {values}"
    if not rep.gauroc <= rep.aauroc <= rep.auroc:
        return f"ordering violated: gauroc={rep.gauroc} aauroc={rep.aauroc} auroc={rep.auroc}"
    return None


@contextmanager
def classifier_hashes(hashes: list):
    """Record the weight hash of every classifier ``run_pipeline`` trains."""
    original = harness.run_pipeline

    def run_pipeline(cfg):
        result = original(cfg)
        hashes.append(weights_sha256(result.classifier))
        return result

    harness.run_pipeline = run_pipeline
    try:
        yield
    finally:
        harness.run_pipeline = original


def run_unit(state, out: Path) -> Unit:
    hashes: list = []
    with classifier_hashes(hashes):
        t0 = time.perf_counter()
        reports, failures, written = state.run(out)
        seconds = time.perf_counter() - t0
    failures = list(failures)
    for key, rep in reports.items():
        problem = _report_problem(rep)
        if problem:
            failures.append(f"{key}: {problem}")
    results = sorted(out.rglob("*.result.json"))
    raised = total = 0
    for path in out.rglob("*.csv"):
        with path.open(newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                if row.get("set") == "out":
                    total += 1
                    raised += float(row["adv_score"]) > float(row["clean_score"])
    unit = Unit(
        seconds=seconds,
        reports={k: rep.as_dict() for k, rep in reports.items()},
        failures=failures,
        result_sha256={str(p.relative_to(out)): file_sha256(p) for p in results},
        classifier_sha256=hashes,
        samples=sum(rep.n_out for rep in reports.values()),
        bytes_written=sum(p.stat().st_size for p in written),
        pgd_raised=raised,
        pgd_total=total,
    )
    shutil.rmtree(out)
    return unit


def measure(state, seconds: float, work: Path) -> list[Unit]:
    """Units back to back until ``seconds`` have passed (at least one)."""
    units: list[Unit] = []
    start = time.perf_counter()
    while not units or time.perf_counter() - start < seconds:
        units.append(run_unit(state, work / f"unit{len(units)}"))
    return units


def _failed_items(units: list[Unit], attempted: int) -> tuple[int, list]:
    """Failed work items across units, and their messages. A unit whose
    reports or result files differ from the first unit's counts as wholly
    failed: the same code at the same seed must give the same results."""
    failed, messages = 0, []
    first = units[0]
    for unit in units:
        messages += unit.failures
        if unit is not first and (unit.reports != first.reports or unit.result_sha256 != first.result_sha256):
            failed += attempted
            messages.append("results differ between units of one run")
        else:
            failed += min(attempted, len(unit.failures))
    return failed, messages


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def install_wrappers(tracer: Tracer) -> None:
    """Each wrapper replaces the name where its caller looks it up."""
    wrap = tracer.wrap
    wrap(config, "load_config", "config.load_config")
    wrap(config.ExperimentConfig, "with_updates", "config.with_updates")
    for fn in ("generate_dataset", "gen_gaussian_mixture", "sample_few_shots"):
        wrap(harness, fn, f"data.{fn}")
    wrap(nets, "load_checkpoint", "nets.load_checkpoint")
    wrap(nets.Mlp, "forward", "nets.forward")
    wrap(nets.Mlp, "forward_array", "nets.forward_array")
    wrap(autodiff, "backward", "autodiff.backward")
    wrap(training, "classifier_loss", "losses.classifier_loss")
    wrap(training, "generator_loss", "losses.generator_loss")
    wrap(training, "train_classifier", lambda args: f"training.phase_{args.get('phase', 'a')}")
    wrap(training, "train_generator", "training.phase_b")
    wrap(training, "adam_step", "training.adam_step")
    wrap(harness, "run_pipeline", "training.run_pipeline")
    wrap(harness, "evaluate_ood", "scoring.evaluate_ood")
    wrap(scoring, "evaluate_ood", "scoring.evaluate_ood")
    wrap(scoring, "anomaly_scores", "scoring.anomaly_scores")
    wrap(scoring, "pgd_max_confidence_batch", "scoring.pgd")
    wrap(scoring, "ibp_logit_bounds", "scoring.ibp_logit_bounds")
    wrap(scoring, "certified_max_confidence", "scoring.certified_max_confidence")
    wrap(scoring, "auroc", "scoring.auroc")
    for fn in ("run_fewshot_sweep", "run_single", "emit_report", "materialize_eval_in", "materialize_test_sets"):
        wrap(harness, fn, f"harness.{fn}")


def layer_metrics(spans: list, unit: Unit, nodes: int, overhead: float) -> dict:
    s = summarize(spans)
    total, calls, steps = s["total"], s["calls"], s["phase_steps"]
    m = {
        "config.load_config.s": (total["config.load_config"], "s"),
        "data.generate_dataset.s": (total["data.generate_dataset"], "s"),
        "nets.forward_array.s": (total["nets.forward_array"], "s"),
        "nets.load_checkpoint.s": (total["nets.load_checkpoint"], "s"),
        "autodiff.backward.s": (total["autodiff.backward"], "s"),
        "autodiff.backward.calls": (calls["autodiff.backward"], "count"),
        "autodiff.nodes": (nodes, "count"),
        "losses.classifier_loss.s": (total["losses.classifier_loss"], "s"),
        "losses.generator_loss.s": (total["losses.generator_loss"], "s"),
        "training.steps": (calls["training.adam_step"], "count"),
        "training.adam_step.s": (total["training.adam_step"], "s"),
        "scoring.evaluate_ood.s": (total["scoring.evaluate_ood"], "s"),
        "scoring.pgd.s": (total["scoring.pgd"], "s"),
        "scoring.ibp.s": (total["scoring.ibp_logit_bounds"] + total["scoring.certified_max_confidence"], "s"),
        "scoring.auroc.s": (total["scoring.auroc"], "s"),
        "scoring.pgd_raised_frac": (unit.pgd_raised / unit.pgd_total if unit.pgd_total else 0.0, "1"),
        "harness.run_single.s": (total["harness.run_single"], "s"),
        "harness.emit_report.s": (total["harness.emit_report"], "s"),
        "harness.bytes_written": (unit.bytes_written, "bytes"),
        "trace.overhead_frac": (overhead, "1"),
    }
    for phase in "abc":
        name = f"training.phase_{phase}"
        m[f"{name}.s"] = (total[name], "s")
        m[f"{name}.step_us"] = (1e6 * total[name] / steps[name] if steps[name] else 0.0, "us")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (s["self"][layer], "s")
    return {name: {"value": value, "unit": u} for name, (value, u) in sorted(m.items())}


def run(workload: str, seed: int, seconds: float, trace: bool, out: Path = OUT,
        config_path=REFERENCE_CONFIG, eval_rows: int = EVAL_ROWS, state=None) -> dict:
    """Measure ``workload`` and return the result document (without
    ``setup_s``, which the launcher measures across processes)."""
    if state is None:
        state = setup(workload, seed, config_path, eval_rows)
    work = out / f"work-{os.getpid()}"
    try:
        units = measure(state, seconds, work)
        if trace:
            tracer = Tracer()
            install_wrappers(tracer)
            try:
                first_node = autodiff.Tensor(0.0).node_id
                with tracer.span("bench.setup"):
                    traced_state = setup(workload, seed, config_path, eval_rows)
                traced = run_unit(traced_state, work / "traced")
                nodes = autodiff.Tensor(0.0).node_id - first_node - 1
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    checked = units + [traced] if trace else units
    failed, messages = _failed_items(checked, state.attempted)
    times = [u.seconds for u in units]
    info = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "unit_seconds": times,
        "failures": messages[:20],
        "result_sha256": units[0].result_sha256,
        "classifier_sha256": units[0].classifier_sha256 if workload == "sweep" else [weights_sha256(state.model)],
        "environment": environment(),
    }
    if trace:
        overhead = traced.seconds / statistics.median(times) - 1.0
        tracer.write(out / f"spans-{workload}.csv")
        metrics = layer_metrics(tracer.spans, traced, nodes, overhead)
    else:
        reports = units[0].reports.values()
        metrics = {
            "wall_s": {"value": statistics.median(times), "unit": "s"},
            "ood_samples_per_s": {"value": statistics.median(units[0].samples / t for t in times), "unit": "samples/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MiB"},
        }
        for name in ("auroc", "aauroc", "gauroc"):
            metrics[f"{name}_mean"] = {"value": float(np.mean([r[name] for r in reports])) if reports else 0.0, "unit": "1"}
    attempted = state.attempted * len(checked)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics, "info": info}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="stop after set-up (a set-up time sample)")
    args = parser.parse_args(argv)
    src = Path(oodlab.__file__).resolve().parent.parent
    if src != ROOT / "src":
        raise RuntimeError(f"imported oodlab from {src}, expected {ROOT / 'src'}")
    state = setup(args.workload, args.seed)
    ready = time.monotonic()
    doc = {"ready": ready}
    if not args.setup_only:
        OUT.mkdir(exist_ok=True)
        doc.update(run(args.workload, args.seed, args.seconds, bool(args.trace), state=state))
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
