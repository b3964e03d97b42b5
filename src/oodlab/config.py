"""Experiment configuration: JSON documents with defaults and overrides.

A config file is a nested key-value document. Every key has a default in
``DEFAULTS``; unknown keys are rejected with their dotted path. The
``weights``, ``schedule`` and ``budget`` sections and the dataset specs are
declared once, by the dataclass each builds: its field defaults, annotated
types and own range checks. Command-line overrides use ``dotted.key=value``
where the value is parsed as a JSON literal, then as a comma-separated
number list, then as a bare string.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import types
import typing
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

from .data import DatasetSpec, check_spec
from .losses import LossWeights
from .nets import ACTIVATIONS
from .scoring import RobustnessBudget
from .training import MODES, PipelineConfig, TrainSchedule

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "load_config",
    "config_from_dict",
    "dataset_spec",
    "parse_override",
    "DEFAULTS",
]


class ConfigError(ValueError):
    """Configuration problem; the message names the offending key."""


def _field_defaults(cls, omit=()) -> dict:
    """The defaults of ``cls``'s fields not named in ``omit``, as a config section."""
    return {
        f.name: f.default if f.default_factory is MISSING else f.default_factory()
        for f in fields(cls)
        if f.name not in omit
    }


# Each field's resolved annotation: the type of the value its config key takes.
_HINTS = {cls: typing.get_type_hints(cls) for cls in (LossWeights, TrainSchedule, RobustnessBudget, DatasetSpec)}

_DATASET_DEFAULTS = {"kind": "gaussian-mixture", **_field_defaults(DatasetSpec, omit=("kind",))}

DEFAULTS: dict = {
    "seed": 0,
    "mode": PipelineConfig.mode,
    "few_shot_count": 0,
    "boundary_pool_size": None,
    "model": {
        "classifier_hidden": [64, 64],
        "classifier_activation": "relu",
        "generator_hidden": [64, 64],
        "generator_activation": "relu",
        "latent_dim": 2,
    },
    "weights": _field_defaults(LossWeights),
    "schedule": _field_defaults(TrainSchedule, omit=("master_seed",)),
    "budget": _field_defaults(RobustnessBudget),
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
    data = raw.get("data", {})
    if not isinstance(data, dict):
        raise ConfigError(f"data: must be an object, got {data!r}")
    for key in data:
        if key not in _DATA_ROLES:
            raise ConfigError(f"unknown config key 'data.{key}'")
    tests = data.get("tests", {})
    if not isinstance(tests, dict):
        raise ConfigError(f"data.tests: must be an object, got {tests!r}")
    merged["data"] = {
        "normal": _merge(_DATASET_DEFAULTS, data.get("normal", {}), "data.normal"),
        "few_shot": None if data.get("few_shot") is None else _merge(_DATASET_DEFAULTS, data["few_shot"], "data.few_shot"),
        "outlier": None if data.get("outlier") is None else _merge(_DATASET_DEFAULTS, data["outlier"], "data.outlier"),
        "tests": {name: _merge(_DATASET_DEFAULTS, spec, f"data.tests.{name}") for name, spec in tests.items()},
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


def _typed(value, hint, key: str):
    """``value`` if it is a JSON value of the field annotation ``hint``: int,
    float, str, list[...], tuple[...] or X | None. A list for a tuple field
    becomes a tuple; no other value is converted."""
    if isinstance(hint, types.UnionType):
        if value is None:
            return None
        (hint,) = [arg for arg in typing.get_args(hint) if arg is not type(None)]
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint is int:
        _int(value, key)
    elif hint is float:
        _number(value, key)
    elif hint is str:
        if not isinstance(value, str):
            raise ConfigError(f"{key}: must be a string, got {value!r}")
    elif origin is list:
        if not isinstance(value, list):
            raise ConfigError(f"{key}: must be a list, got {value!r}")
        for item in value:
            _typed(item, args[0], key)
    elif origin is tuple:
        if not isinstance(value, list) or len(value) != len(args):
            raise ConfigError(f"{key}: must be a list of {len(args)} values, got {value!r}")
        return tuple(_typed(item, arg, key) for item, arg in zip(value, args))
    else:
        raise TypeError(f"{key}: unsupported field annotation {hint!r}")
    return value


def _build(section: str, cls, doc: dict, **extra):
    """``cls`` built from the config section ``doc``, each value checked
    against its field's annotation. The class's range errors start with the
    field name and are reported under ``section``."""
    hints = _HINTS[cls]
    kwargs = {name: _typed(value, hints[name], f"{section}.{name}") for name, value in doc.items()}
    try:
        return cls(**kwargs, **extra)
    except ValueError as e:
        raise ConfigError(f"{section}.{e}") from e


def _dataset_spec(doc, path, data_dim: int | None = None) -> DatasetSpec | None:
    """The spec at ``path``, type- and range-checked as its generator would.

    ``data_dim`` is the normal data's dimension (None for the normal spec
    itself): every synthetic spec must draw points of that dimension, and a
    low-frequency-noise window may not exceed it. A CSV's width is only
    known once it is read; the harness checks it then.
    """
    if doc is None:
        return None
    spec = _build(path, DatasetSpec, doc)
    try:
        check_spec(spec, data_dim)
    except ValueError as e:
        raise ConfigError(f"{path}.{e}") from e
    if data_dim is not None and spec.kind not in ("csv", "low-frequency-noise") and spec.dim != data_dim:
        raise ConfigError(f"{path}.dim: must equal the normal data's dim {data_dim}, got {spec.dim}")
    return spec


def dataset_spec(doc, key: str, data_dim: int | None) -> DatasetSpec:
    """A dataset spec written outside a config (``gen-data --spec-json``):
    the dataset defaults merged into ``doc``, then checked by
    ``_dataset_spec`` under ``key`` as a config's data spec would be."""
    return _dataset_spec(_merge(_DATASET_DEFAULTS, doc, key), key, data_dim)


def _check_model(model: dict) -> None:
    for part in ("classifier", "generator"):
        _int_list(model[f"{part}_hidden"], f"model.{part}_hidden", 1)
        activation = model[f"{part}_activation"]
        if activation not in ACTIVATIONS:
            raise ConfigError(f"model.{part}_activation: {activation!r} is not one of {ACTIVATIONS}")
    _int(model["latent_dim"], "model.latent_dim", 1)


def build_config(document: dict) -> ExperimentConfig:
    """Validate a fully merged document into typed objects.

    Every check names the dotted key it rejects and raises ConfigError.
    A rule that only some commands need is checked where their runs read
    the data: the pools a mode draws (``harness._require_pools``) and a
    few-shot pool's size (``harness.RunData.materialize``).
    """
    doc = document
    seed = _int(doc["seed"], "seed", 0)
    if not isinstance(doc["mode"], str) or doc["mode"] not in MODES:
        raise ConfigError(f"mode: {doc['mode']!r} is not one of {MODES}")
    _int(doc["few_shot_count"], "few_shot_count", 0)
    if doc["boundary_pool_size"] is not None:
        _int(doc["boundary_pool_size"], "boundary_pool_size", 1)
    _check_model(doc["model"])
    weights = _build("weights", LossWeights, doc["weights"])
    schedule = _build("schedule", TrainSchedule, doc["schedule"], master_seed=seed)
    budget = _build("budget", RobustnessBudget, doc["budget"])
    _int(doc["eval"]["in_size"], "eval.in_size", 1)
    _int(doc["eval"]["in_seed_offset"], "eval.in_seed_offset", 0)
    tests = doc["data"]["tests"]
    if not tests:
        raise ConfigError("data.tests: at least one test set is required")
    for name in tests:
        # a test set's name becomes part of the file names of its scores and plots
        if not name or any(c in name for c in "/\\\0"):
            raise ConfigError(f"data.tests.{name}: a test-set name must be nonempty and hold no path separator or NUL")
    counts = _int_list(doc["sweep"]["counts"], "sweep.counts", 0)
    if not counts:
        raise ConfigError("sweep.counts: must not be empty")
    if any(counts[i] <= counts[i + 1] for i in range(len(counts) - 1)):
        raise ConfigError(f"sweep.counts: must be strictly decreasing, got {counts}")
    floor = _number(doc["sweep"]["break_floor"], "sweep.break_floor")
    if not 0.5 < floor < 1.0:
        raise ConfigError(f"sweep.break_floor: must lie in (0.5, 1), got {floor}")
    normal_kind = doc["data"]["normal"]["kind"]
    if normal_kind != "gaussian-mixture":
        raise ConfigError(
            "data.normal.kind: must be gaussian-mixture (evaluation draws fresh normals from it), "
            f"got {normal_kind!r}"
        )
    normal = _dataset_spec(doc["data"]["normal"], "data.normal")
    return ExperimentConfig(
        seed=seed,
        mode=doc["mode"],
        few_shot_count=doc["few_shot_count"],
        boundary_pool_size=doc["boundary_pool_size"],
        normal=normal,
        few_shot=_dataset_spec(doc["data"]["few_shot"], "data.few_shot", normal.dim),
        outlier=_dataset_spec(doc["data"]["outlier"], "data.outlier", normal.dim),
        tests={name: _dataset_spec(spec, f"data.tests.{name}", normal.dim) for name, spec in tests.items()},
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
