"""Smoke tests of the benchmark itself, on a tiny config.

Run from the repository root: ``python3 -m pytest -q bench/test_bench.py``.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import oodlab  # noqa: E402
import worker  # noqa: E402

TINY_DOC = {
    "seed": 3,
    "mode": "iii",
    "few_shot_count": 16,
    "boundary_pool_size": 32,
    "data": {
        "normal": {
            "kind": "gaussian-mixture",
            "dim": 2,
            "size": 120,
            "seed": 11,
            "means": [[0.0, 0.5], [-0.433, -0.25], [0.433, -0.25]],
            "cov_scale": 0.09,
        },
        "few_shot": {"kind": "ring", "dim": 2, "size": 64, "seed": 12, "r_inner": 0.85, "r_outer": 1.15},
        "outlier": {"kind": "uniform-noise", "dim": 2, "size": 128, "seed": 13, "box_lo": -1.4, "box_hi": 1.4},
        "tests": {
            "ring": {"kind": "ring", "dim": 2, "size": 48, "seed": 14, "r_inner": 0.85, "r_outer": 1.15},
            "lfn": {"kind": "low-frequency-noise", "dim": 2, "size": 48, "seed": 16, "amplitude": 1.5, "window": 2},
        },
    },
    "model": {
        "classifier_hidden": [16, 16],
        "classifier_activation": "tanh",
        "generator_hidden": [16, 16],
        "generator_activation": "tanh",
        "latent_dim": 2,
    },
    "weights": {"lam": 1.0, "mu": 1.0, "nu": 0.3, "delta": 1e-6},
    "schedule": {
        "phase_a_epochs": 8,
        "phase_b_epochs": 5,
        "phase_c_epochs": 8,
        "batch_n": 32,
        "batch_m": 32,
        "latent_n": 16,
        "proximity_q": 32,
        "lr_a": 0.003,
        "lr_b": 0.002,
        "lr_c": 0.003,
        "alternations": 1,
    },
    "budget": {
        "epsilon": 0.05,
        "pgd_steps": 8,
        "pgd_step_size": None,
        "pgd_restarts": 0,
        "tau": 0.5,
        "input_box": None,
    },
    "eval": {"in_size": 60, "in_seed_offset": 104729},
    "sweep": {"counts": [16, 4, 0], "break_floor": 0.55},
}

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture()
def tiny(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY_DOC), encoding="utf-8")
    return lambda workload, seed=1, trace=False: worker.run(
        workload, seed, 0.0, trace, out=tmp_path, config_path=path, eval_rows=64
    )


@pytest.mark.parametrize("workload", worker.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_run_reports_every_metric(tiny, workload, trace):
    doc = tiny(workload, trace=trace)
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else [m for m in SPEC["end_to_end"] if m["name"] != "setup_s"]
    assert {m["name"]: m["unit"] for m in listed} == {k: v["unit"] for k, v in doc["metrics"].items()}
    assert all(math.isfinite(v["value"]) for v in doc["metrics"].values())


def test_trace_counts_are_exact_and_wrappers_are_removed(tiny):
    originals = (oodlab.training.classifier_loss, oodlab.autodiff.backward, oodlab.harness.evaluate_ood, oodlab.nets.Mlp.forward)
    first = tiny("sweep", trace=True)["metrics"]
    second = tiny("sweep", trace=True)["metrics"]
    assert originals == (
        oodlab.training.classifier_loss, oodlab.autodiff.backward, oodlab.harness.evaluate_ood, oodlab.nets.Mlp.forward
    )
    for name in ("autodiff.nodes", "autodiff.backward.calls", "training.steps"):
        assert first[name]["value"] == second[name]["value"] > 0
    # batch_n == proximity_q, so phases A, B and C all take the same number of batches per epoch
    s = TINY_DOC["schedule"]
    batches = math.ceil(TINY_DOC["data"]["normal"]["size"] / s["batch_n"])
    mode_iii = (s["phase_a_epochs"] + s["phase_b_epochs"] + s["phase_c_epochs"]) * batches
    mode_ii = s["phase_a_epochs"] * batches
    assert first["training.steps"]["value"] == len(TINY_DOC["sweep"]["counts"]) * (mode_iii + mode_ii)


def test_quality_repeats_at_a_seed_and_moves_with_it(tiny):
    a, b, c = tiny("sweep", seed=2), tiny("sweep", seed=2), tiny("sweep", seed=3)
    quality = ("auroc_mean", "aauroc_mean", "gauroc_mean")
    assert [a["metrics"][q] for q in quality] == [b["metrics"][q] for q in quality]
    assert a["info"]["result_sha256"] == b["info"]["result_sha256"]
    assert a["info"]["classifier_sha256"] == b["info"]["classifier_sha256"]
    assert a["info"]["classifier_sha256"] != c["info"]["classifier_sha256"]


def test_launcher_fails_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    shutil.copy(BENCH / "run.py", tmp_path / "bench" / "run.py")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
