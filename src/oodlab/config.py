"""Experiment configuration: JSON documents with defaults and overrides.

A config file is a nested key-value document. Every key has a default below;
unknown keys are rejected with their dotted path. Command-line overrides use
``dotted.key=value`` where the value is parsed as a JSON literal, then as a
comma-separated number list, then as a bare string.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .data import DatasetSpec, check_spec
from .losses import LossWeights
from .nets import ACTIVATIONS
from .scoring import RobustnessBudget
from .training import MODES, TrainSchedule

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "load_config",
    "config_from_dict",
    "parse_override",
    "DEFAULTS",
]


class ConfigError(ValueError):
    """Configuration problem; the message names the offending key."""


_DATASET_DEFAULTS = {
    "kind": "gaussian-mixture",
    "dim": 2,
    "size": 100,
    "seed": 0,
    "means": [],
    "cov_scale": 0.1,
    "r_inner": 0.8,
    "r_outer": 1.2,
    "center": [],
    "box_lo": -1.0,
    "box_hi": 1.0,
    "amplitude": 1.0,
    "window": 2,
    "path": "",
}

DEFAULTS: dict = {
    "seed": 0,
    "mode": "iii",
    "few_shot_count": 0,
    "boundary_pool_size": None,
    "model": {
        "classifier_hidden": [64, 64],
        "classifier_activation": "relu",
        "generator_hidden": [64, 64],
        "generator_activation": "relu",
        "latent_dim": 2,
    },
    "weights": {"lam": 1.0, "mu": 1.0, "nu": 1.0, "delta": 1e-6},
    "schedule": {
        "phase_a_epochs": 40,
        "phase_b_epochs": 30,
        "phase_c_epochs": 40,
        "batch_n": 64,
        "batch_m": 64,
        "latent_n": 64,
        "proximity_q": 64,
        "lr_a": 1e-3,
        "lr_b": 1e-3,
        "lr_c": 1e-3,
        "alternations": 1,
    },
    "budget": {
        "epsilon": 0.05,
        "pgd_steps": 40,
        "pgd_step_size": None,
        "pgd_restarts": 0,
        "tau": 0.5,
        "input_box": None,
    },
    "eval": {"in_size": 256, "in_seed_offset": 104729},
    "sweep": {"counts": [64, 32, 16, 8, 0], "break_floor": 0.55},
}

_DATA_ROLES = ("normal", "few_shot", "outlier", "tests")


def _merge(defaults: dict, user: dict, path: str = "") -> dict:
    """Fill defaults into the user document, rejecting unknown keys."""
    if not isinstance(user, dict):
        raise ConfigError(f"{path or 'config root'}: must be an object, got {user!r}")
    out = {}
    for key, dval in defaults.items():
        here = f"{path}.{key}" if path else key
        if key in user:
            uval = user[key]
            if isinstance(dval, dict):
                out[key] = _merge(dval, uval, here)
            else:
                out[key] = copy.deepcopy(uval)
        else:
            out[key] = copy.deepcopy(dval)
    for key in user:
        if key not in defaults:
            here = f"{path}.{key}" if path else key
            raise ConfigError(f"unknown config key '{here}'")
    return out


def _merge_document(raw: dict) -> dict:
    top = {k: v for k, v in raw.items() if k != "data"}
    merged = _merge(DEFAULTS, top)
    data = raw.get("data") or {}
    if not isinstance(data, dict):
        raise ConfigError("data: must be an object")
    for key in data:
        if key not in _DATA_ROLES:
            raise ConfigError(f"unknown config key 'data.{key}'")
    tests = data.get("tests") or {}
    if not isinstance(tests, dict):
        raise ConfigError("data.tests: must be an object")
    merged["data"] = {
        "normal": _merge(_DATASET_DEFAULTS, data.get("normal") or {}, "data.normal"),
        "few_shot": None if data.get("few_shot") is None else _merge(_DATASET_DEFAULTS, data["few_shot"], "data.few_shot"),
        "outlier": None if data.get("outlier") is None else _merge(_DATASET_DEFAULTS, data["outlier"], "data.outlier"),
        "tests": {name: _merge(_DATASET_DEFAULTS, spec or {}, f"data.tests.{name}") for name, spec in tests.items()},
    }
    return merged


def parse_override(text: str) -> tuple[str, object]:
    """Split ``dotted.key=value`` and parse the value."""
    key, sep, raw = text.partition("=")
    if not sep or not key:
        raise ConfigError(f"override '{text}' is not of the form key=value")
    raw = raw.strip()
    try:
        return key, json.loads(raw)
    except json.JSONDecodeError:
        pass
    if "," in raw:
        try:
            return key, [json.loads(p) for p in raw.split(",")]
        except json.JSONDecodeError:
            pass
    return key, raw


def _apply_override(doc: dict, key: str, value) -> None:
    parts = key.split(".")
    node = doc
    for i, part in enumerate(parts[:-1]):
        if not isinstance(node, dict) or part not in node:
            raise ConfigError(f"unknown config key '{'.'.join(parts[: i + 1])}'")
        if node[part] is None and part in ("few_shot", "outlier"):
            node[part] = copy.deepcopy(_DATASET_DEFAULTS)
        node = node[part]
        if not isinstance(node, dict):
            raise ConfigError(f"unknown config key '{key}'")
    leaf = parts[-1]
    if not isinstance(node, dict) or leaf not in node:
        raise ConfigError(f"unknown config key '{key}'")
    node[leaf] = value


@dataclass
class ExperimentConfig:
    """Validated experiment description built from a config document."""

    seed: int
    mode: str
    few_shot_count: int
    boundary_pool_size: int | None
    normal: DatasetSpec
    few_shot: DatasetSpec | None
    outlier: DatasetSpec | None
    tests: dict[str, DatasetSpec]
    model: dict
    weights: LossWeights
    schedule: TrainSchedule
    budget: RobustnessBudget
    eval_in_size: int
    eval_in_seed_offset: int
    sweep_counts: list[int]
    break_floor: float
    document: dict = field(repr=False, default_factory=dict)

    @property
    def fingerprint(self) -> str:
        canonical = json.dumps(self.document, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def with_updates(self, **top_level) -> "ExperimentConfig":
        """New config with top-level document keys replaced and re-validated."""
        doc = copy.deepcopy(self.document)
        for key, value in top_level.items():
            if key not in doc:
                raise ConfigError(f"unknown config key '{key}'")
            doc[key] = value
        return build_config(doc)


def _int(value, key: str, lo: int | None = None) -> int:
    """``value`` if it is an integer (not a bool) of at least ``lo``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key}: must be an integer, got {value!r}")
    if lo is not None and value < lo:
        raise ConfigError(f"{key}: must be >= {lo}, got {value}")
    return value


def _number(value, key: str) -> float:
    """``value`` as a float if it is a finite number (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key}: must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{key}: must be finite, got {value!r}")
    return number


def _int_list(value, key: str, lo: int) -> list[int]:
    if not isinstance(value, list):
        raise ConfigError(f"{key}: must be a list of integers, got {value!r}")
    return [_int(v, key, lo) for v in value]


def _build(section: str, cls, **kwargs):
    """``cls(**kwargs)``, with its range errors reported under ``section``."""
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{section}: {e}") from e


def _number_list(value, key: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{key}: must be a list of numbers, got {value!r}")
    return [_number(v, key) for v in value]


def _dataset_spec(doc, path, data_dim: int | None = None) -> DatasetSpec | None:
    """The spec at ``path``, type- and range-checked as its generator would.

    ``data_dim`` is the normal data's dimension (None when it is only known
    once a CSV is read): every synthetic spec must draw points of that
    dimension, and a low-frequency-noise window may not exceed it.
    """
    if doc is None:
        return None
    for name in ("dim", "size", "window"):
        _int(doc[name], f"{path}.{name}")
    _int(doc["seed"], f"{path}.seed", 0)
    for name in ("cov_scale", "r_inner", "r_outer", "box_lo", "box_hi", "amplitude"):
        _number(doc[name], f"{path}.{name}")
    if not isinstance(doc["means"], list):
        raise ConfigError(f"{path}.means: must be a list of coordinate lists, got {doc['means']!r}")
    for row in doc["means"]:
        _number_list(row, f"{path}.means")
    _number_list(doc["center"], f"{path}.center")
    if not isinstance(doc["path"], str):
        raise ConfigError(f"{path}.path: must be a string, got {doc['path']!r}")
    try:
        spec = DatasetSpec(**doc)
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"{path}: {e}") from e
    try:
        check_spec(spec, data_dim)
    except ValueError as e:
        raise ConfigError(f"{path}.{e}") from e
    if data_dim is not None and spec.kind not in ("csv", "low-frequency-noise") and spec.dim != data_dim:
        raise ConfigError(f"{path}.dim: must equal the normal data's dim {data_dim}, got {spec.dim}")
    return spec


def _check_model(model: dict) -> None:
    for part in ("classifier", "generator"):
        _int_list(model[f"{part}_hidden"], f"model.{part}_hidden", 1)
        activation = model[f"{part}_activation"]
        if activation not in ACTIVATIONS:
            raise ConfigError(f"model.{part}_activation: {activation!r} is not one of {ACTIVATIONS}")
    _int(model["latent_dim"], "model.latent_dim", 1)


def _budget(doc: dict) -> RobustnessBudget:
    kwargs = dict(doc)
    for name in ("epsilon", "tau"):
        _number(kwargs[name], f"budget.{name}")
    _int(kwargs["pgd_steps"], "budget.pgd_steps")
    _int(kwargs["pgd_restarts"], "budget.pgd_restarts")
    if kwargs["pgd_step_size"] is not None:
        _number(kwargs["pgd_step_size"], "budget.pgd_step_size")
    box = kwargs["input_box"]
    if box is not None:
        if not isinstance(box, list) or len(box) != 2:
            raise ConfigError(f"budget.input_box: must be null or a [lo, hi] pair, got {box!r}")
        kwargs["input_box"] = tuple(_number(v, "budget.input_box") for v in box)
    return _build("budget", RobustnessBudget, **kwargs)


def _schedule(doc: dict, seed: int) -> TrainSchedule:
    for name, value in doc.items():
        if name.startswith("lr_"):
            if _number(value, f"schedule.{name}") <= 0:
                raise ConfigError(f"schedule.{name}: must be positive, got {value}")
        else:
            _int(value, f"schedule.{name}")
    return _build("schedule", TrainSchedule, **doc, master_seed=seed)


def build_config(document: dict) -> ExperimentConfig:
    """Validate a fully merged document into typed objects.

    Every check names the dotted key it rejects and raises ConfigError.
    """
    doc = document
    seed = _int(doc["seed"], "seed", 0)
    if not isinstance(doc["mode"], str) or doc["mode"] not in MODES:
        raise ConfigError(f"mode: {doc['mode']!r} is not one of {MODES}")
    _int(doc["few_shot_count"], "few_shot_count", 0)
    if doc["boundary_pool_size"] is not None:
        _int(doc["boundary_pool_size"], "boundary_pool_size", 1)
    _check_model(doc["model"])
    for name, value in doc["weights"].items():
        _number(value, f"weights.{name}")
    weights = _build("weights", LossWeights, **doc["weights"])
    schedule = _schedule(doc["schedule"], seed)
    budget = _budget(doc["budget"])
    _int(doc["eval"]["in_size"], "eval.in_size", 1)
    _int(doc["eval"]["in_seed_offset"], "eval.in_seed_offset", 0)
    tests = doc["data"]["tests"]
    if not tests:
        raise ConfigError("data.tests: at least one test set is required")
    if doc["mode"] in ("ii", "iii", "iv") and doc["data"]["few_shot"] is None:
        raise ConfigError(f"data.few_shot: required for mode ({doc['mode']})")
    if doc["mode"] in ("i", "iv") and doc["data"]["outlier"] is None:
        raise ConfigError(f"data.outlier: required for mode ({doc['mode']})")
    counts = _int_list(doc["sweep"]["counts"], "sweep.counts", 0)
    if not counts:
        raise ConfigError("sweep.counts: must not be empty")
    if any(counts[i] <= counts[i + 1] for i in range(len(counts) - 1)):
        raise ConfigError(f"sweep.counts: must be strictly decreasing, got {counts}")
    floor = _number(doc["sweep"]["break_floor"], "sweep.break_floor")
    if not 0.5 < floor < 1.0:
        raise ConfigError(f"sweep.break_floor: must lie in (0.5, 1), got {floor}")
    normal = _dataset_spec(doc["data"]["normal"], "data.normal")
    if normal.kind not in ("gaussian-mixture", "csv"):
        raise ConfigError(f"data.normal.kind: must give labeled data (gaussian-mixture or csv), got '{normal.kind}'")
    data_dim = None if normal.kind == "csv" else normal.dim
    few_shot = _dataset_spec(doc["data"]["few_shot"], "data.few_shot", data_dim)
    if few_shot is not None and few_shot.kind != "csv":
        for key, count in (("few_shot_count", doc["few_shot_count"]), ("sweep.counts", counts[0])):
            if count > few_shot.size:
                raise ConfigError(f"{key}: cannot sample {count} few-shots from data.few_shot.size {few_shot.size}")
    return ExperimentConfig(
        seed=seed,
        mode=doc["mode"],
        few_shot_count=doc["few_shot_count"],
        boundary_pool_size=doc["boundary_pool_size"],
        normal=normal,
        few_shot=few_shot,
        outlier=_dataset_spec(doc["data"]["outlier"], "data.outlier", data_dim),
        tests={name: _dataset_spec(spec, f"data.tests.{name}", data_dim) for name, spec in tests.items()},
        model=doc["model"],
        weights=weights,
        schedule=schedule,
        budget=budget,
        eval_in_size=doc["eval"]["in_size"],
        eval_in_seed_offset=doc["eval"]["in_seed_offset"],
        sweep_counts=counts,
        break_floor=floor,
        document=document,
    )


def config_from_dict(raw: dict, overrides=()) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    merged = _merge_document(raw)
    for item in overrides:
        key, value = parse_override(item) if isinstance(item, str) else item
        _apply_override(merged, key, value)
    if overrides:  # an override may replace a whole section or dataset spec
        merged = _merge_document(merged)
    return build_config(merged)


def load_config(path, overrides=()) -> ExperimentConfig:
    """Read a JSON config file, apply dotted-key overrides, validate."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON ({e})") from None
    return config_from_dict(raw, overrides)
