"""Synthetic dataset generators, few-shot subsampling, and CSV persistence.

All generators are seeded and deterministic. The synthetic families are
normalized to roughly the unit box so one l-infinity radius is meaningful
across them. CSV files are UTF-8 with a header row; an optional trailing
integer column named ``label`` marks a labeled batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "LabeledBatch",
    "OutlierPool",
    "LatentBatch",
    "DatasetSpec",
    "check_spec",
    "gen_gaussian_mixture",
    "gen_ring",
    "gen_uniform_noise",
    "gen_low_frequency_noise",
    "generate_dataset",
    "sample_few_shots",
    "load_csv",
    "save_csv",
]

@dataclass
class LabeledBatch:
    """Labeled normal-class data: inputs (N, d), integer labels (N,)."""

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.inputs = np.ascontiguousarray(self.inputs, dtype=np.float64)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if self.inputs.ndim != 2 or self.labels.ndim != 1 or len(self.inputs) != len(self.labels):
            raise ValueError(
                f"labeled batch needs (N, d) inputs and (N,) labels, got {self.inputs.shape} / {self.labels.shape}"
            )

    def __len__(self) -> int:
        return len(self.inputs)

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]


@dataclass
class OutlierPool:
    """Unlabeled outlier samples. May be empty."""

    inputs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.inputs, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"outlier pool needs a (M, d) matrix, got shape {arr.shape}")
        self.inputs = np.ascontiguousarray(arr)

    def __len__(self) -> int:
        return len(self.inputs)

    @property
    def size(self) -> int:
        return len(self.inputs)


@dataclass
class LatentBatch:
    """Standard-normal latent draws with their seed for provenance."""

    values: np.ndarray
    seed: int | tuple = 0

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError(f"latent batch must be (N, latent_dim), got {self.values.shape}")

    def __len__(self) -> int:
        return len(self.values)


@dataclass
class DatasetSpec:
    """Declarative description of one synthetic (or CSV) dataset."""

    kind: str
    dim: int = 2
    size: int = 100
    seed: int = 0
    # gaussian-mixture
    means: list[list[float]] = field(default_factory=list)
    cov_scale: float = 0.1
    # ring
    r_inner: float = 0.8
    r_outer: float = 1.2
    center: list[float] = field(default_factory=list)
    # uniform-noise
    box_lo: float = -1.0
    box_hi: float = 1.0
    # low-frequency-noise
    amplitude: float = 1.0
    window: int = 2
    # csv
    path: str = ""

    KINDS = ("gaussian-mixture", "ring", "uniform-noise", "low-frequency-noise", "csv")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"kind: unknown dataset kind '{self.kind}' (one of {self.KINDS})")
        if self.kind != "csv":
            for name in ("size", "dim"):
                if getattr(self, name) < 1:
                    raise ValueError(f"{name}: must be >= 1, got {getattr(self, name)}")
        _reject_non_finite(self)


_FINITE_FIELDS = ("means", "cov_scale", "r_inner", "r_outer", "center", "box_lo", "box_hi", "amplitude")


def _reject_non_finite(spec: DatasetSpec) -> None:
    """Raise ValueError naming the first numeric spec field holding NaN or +-inf."""
    for name in _FINITE_FIELDS:
        try:
            values = np.asarray(getattr(spec, name), dtype=np.float64)
        except (TypeError, ValueError):
            continue  # a malformed value is reported by the generator that reads it
        if not np.all(np.isfinite(values)):
            raise ValueError(f"dataset spec field '{name}' has a non-finite value")


def check_spec(spec: DatasetSpec, data_dim: int | None = None) -> None:
    """Raise ValueError for a spec its generator cannot draw from; the
    message starts with the offending field's name.

    These are the range checks each generator runs before drawing (finite
    values are ``DatasetSpec``'s own check). ``data_dim`` is the dimension
    of the normals a low-frequency-noise spec corrupts, the upper end of its
    window range; None checks only the lower end.
    """
    if spec.seed < 0:
        raise ValueError(f"seed: must be >= 0, got {spec.seed}")
    if spec.kind == "gaussian-mixture":
        try:
            means = np.asarray(spec.means, dtype=np.float64)
        except (TypeError, ValueError):
            raise ValueError("means: must be a list of equal-length coordinate lists") from None
        if means.ndim != 2 or means.shape[0] < 1:
            raise ValueError("means: gaussian-mixture needs at least one component mean")
        if means.shape[1] != spec.dim:
            raise ValueError(f"means: component means have dim {means.shape[1]}, spec says {spec.dim}")
        if spec.cov_scale <= 0:
            raise ValueError(f"cov_scale: must be positive, got {spec.cov_scale}")
    elif spec.kind == "ring":
        if not (0.0 <= spec.r_inner <= spec.r_outer):
            raise ValueError(f"r_inner: ring radii must satisfy 0 <= r_inner <= r_outer, got {spec.r_inner}, {spec.r_outer}")
        if len(spec.center) not in (0, spec.dim):
            raise ValueError(f"center: has {len(spec.center)} coordinates, spec says dim {spec.dim} (or [] for the origin)")
    elif spec.kind == "uniform-noise":
        if not spec.box_lo < spec.box_hi:
            raise ValueError(f"box_lo: uniform-noise box is empty: [{spec.box_lo}, {spec.box_hi}]")
    elif spec.kind == "low-frequency-noise":
        if spec.amplitude < 0:
            raise ValueError(f"amplitude: low-frequency-noise amplitude must be >= 0, got {spec.amplitude}")
        if spec.window < 1 or (data_dim is not None and spec.window > data_dim):
            raise ValueError(f"window: smoothing window must be in [1, {data_dim or 'dim'}], got {spec.window}")
    elif spec.kind == "csv" and not spec.path:
        raise ValueError("path: a csv dataset needs a file path")


def gen_gaussian_mixture(spec: DatasetSpec) -> LabeledBatch:
    """Equal-sized isotropic Gaussian clusters, label = component index."""
    check_spec(spec)
    means = np.asarray(spec.means, dtype=np.float64)
    k = means.shape[0]
    rng = np.random.default_rng(spec.seed)
    counts = [spec.size // k + (1 if i < spec.size % k else 0) for i in range(k)]
    chunks, labels = [], []
    for i, n in enumerate(counts):
        chunks.append(means[i] + spec.cov_scale * rng.standard_normal((n, spec.dim)))
        labels.append(np.full(n, i, dtype=np.int64))
    return LabeledBatch(np.concatenate(chunks), np.concatenate(labels))


def gen_ring(spec: DatasetSpec) -> OutlierPool:
    """Spherical shell: uniform direction, radius uniform in [r_inner, r_outer]."""
    check_spec(spec)
    rng = np.random.default_rng(spec.seed)
    direction = rng.standard_normal((spec.size, spec.dim))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    radius = rng.uniform(spec.r_inner, spec.r_outer, spec.size)
    center = np.asarray(spec.center, dtype=np.float64) if len(spec.center) else np.zeros(spec.dim)
    return OutlierPool(center + direction * radius[:, None])


def gen_uniform_noise(spec: DatasetSpec) -> OutlierPool:
    check_spec(spec)
    rng = np.random.default_rng(spec.seed)
    return OutlierPool(rng.uniform(spec.box_lo, spec.box_hi, (spec.size, spec.dim)))


def _smooth_circular(noise: np.ndarray, window: int) -> np.ndarray:
    """Circular moving average across the coordinate axis."""
    out = np.zeros_like(noise)
    for k in range(window):
        out += np.roll(noise, -k, axis=1)
    return out / window


def gen_low_frequency_noise(spec: DatasetSpec, normals) -> OutlierPool:
    """Normal samples (a LabeledBatch or an OutlierPool) plus amplitude *
    smoothed Gaussian noise.

    Smoothing is a circular moving average over coordinates, which suppresses
    the high-frequency content of the perturbation; window == d makes the
    perturbation constant across coordinates for each sample.
    """
    d = normals.inputs.shape[1]
    check_spec(spec, d)
    rng = np.random.default_rng(spec.seed)
    rows = rng.integers(0, len(normals), spec.size)
    noise = _smooth_circular(rng.standard_normal((spec.size, d)), spec.window)
    return OutlierPool(normals.inputs[rows] + spec.amplitude * noise)


def generate_dataset(spec: DatasetSpec, normals: LabeledBatch | None = None):
    """Dispatch a DatasetSpec to its generator. LFN requires base normals.

    A spec with a non-finite numeric field is rejected, also one changed
    after it was built.
    """
    _reject_non_finite(spec)
    if spec.kind == "gaussian-mixture":
        return gen_gaussian_mixture(spec)
    if spec.kind == "ring":
        return gen_ring(spec)
    if spec.kind == "uniform-noise":
        return gen_uniform_noise(spec)
    if spec.kind == "low-frequency-noise":
        if normals is None:
            raise ValueError("low-frequency-noise needs a base normal batch")
        return gen_low_frequency_noise(spec, normals)
    if spec.kind == "csv":
        return load_csv(spec.path)
    raise ValueError(f"unknown dataset kind '{spec.kind}'")


def sample_few_shots(pool: OutlierPool, n: int, seed: int | tuple = 0) -> OutlierPool:
    """Uniform without-replacement subset of the pool."""
    if not 0 <= n <= pool.size:
        raise ValueError(f"cannot sample {n} few-shots from a pool of {pool.size}")
    rng = np.random.default_rng(seed)
    idx = rng.permutation(pool.size)[:n]
    return OutlierPool(pool.inputs[idx])


def save_csv(batch, path) -> None:
    """Write a LabeledBatch or OutlierPool; 17 significant digits per value."""
    d = batch.inputs.shape[1]
    labeled = isinstance(batch, LabeledBatch)
    rows = np.column_stack([batch.inputs, batch.labels]) if labeled else batch.inputs
    header = ",".join([f"x{i}" for i in range(d)] + ["label"] * labeled)
    with open(path, "w", encoding="utf-8") as fh:  # a handle: savetxt would gzip a path ending in .gz
        np.savetxt(fh, rows, fmt=["%.17g"] * d + ["%d"] * labeled, delimiter=",", header=header, comments="")


def load_csv(path):
    """Read a CSV written by save_csv (or hand-made with the same layout).

    Returns a LabeledBatch when the final header column is ``label``, else an
    OutlierPool. Malformed rows are reported with their 1-based file line;
    every format error is a ValueError naming the file.
    """
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: not UTF-8 text ({e})") from None
    if not lines:
        raise ValueError(f"{path}: empty file")
    header = [h.strip() for h in lines[0].split(",")]
    labeled = bool(header) and header[-1] == "label"
    ncols = len(header)
    if ncols < 1 or (labeled and ncols < 2):
        raise ValueError(f"{path}: header must name at least one feature column")
    rows, labels = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != ncols:
            raise ValueError(f"{path}: line {lineno}: expected {ncols} columns, found {len(parts)}")
        try:
            if labeled:
                rows.append([float(v) for v in parts[:-1]])
                labels.append(int(parts[-1]))
            else:
                rows.append([float(v) for v in parts])
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: non-numeric value") from None
        if not np.all(np.isfinite(rows[-1])):
            raise ValueError(f"{path}: line {lineno}: non-finite value")
    dim = ncols - 1 if labeled else ncols
    inputs = np.array(rows, dtype=np.float64).reshape(len(rows), dim)
    if labeled:
        return LabeledBatch(inputs, np.array(labels, dtype=np.int64))
    return OutlierPool(inputs)
