import json
import time
from pathlib import Path

import pytest

from oodlab import harness
from oodlab.config import load_config
from oodlab.harness import run_fewshot_sweep, run_single

REPO = Path(__file__).resolve().parent.parent
REFERENCE_CONFIG = REPO / "configs" / "reference.json"

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


def fail_run_seed(monkeypatch, seed: int, error: Exception) -> None:
    """Make every pipeline the harness runs with ``seed`` raise ``error``."""
    real = harness.run_pipeline

    def run_pipeline(cfg):
        if any(entry_seed == seed for entry_seed, _ in cfg.entries):
            raise error
        return real(cfg)

    monkeypatch.setattr(harness, "run_pipeline", run_pipeline)


@pytest.fixture(scope="session")
def reference_config():
    return load_config(REFERENCE_CONFIG)


@pytest.fixture()
def tiny_doc():
    return json.loads(json.dumps(TINY_DOC))


@pytest.fixture()
def tiny_config_path(tmp_path, tiny_doc):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(tiny_doc), encoding="utf-8")
    return path


@pytest.fixture(scope="session")
def reference_sweeps(reference_config):
    """Timed mode (ii) and (iii) sweeps over the reference scenario; shared by
    the acceptance criteria and the trend tests."""
    t0 = time.perf_counter()
    with_boundary = run_fewshot_sweep(reference_config)
    without_boundary = run_fewshot_sweep(reference_config.with_updates(mode="ii"))
    wall = time.perf_counter() - t0
    return {"ii": without_boundary, "iii": with_boundary, "wall_seconds": wall}


@pytest.fixture(scope="session")
def reference_ablation(reference_config):
    """Modes (iii) and (iv) at the reference few-shot count, one shared seed."""
    out = {}
    for mode in ("iii", "iv"):
        out[mode] = run_single(reference_config.with_updates(mode=mode), run_seed=reference_config.seed)
    return out
