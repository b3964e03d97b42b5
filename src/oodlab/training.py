"""Optimizers and the nested train-classifier / train-generator schedule.

``NEGATIVES`` lists the negative pools each ablation mode trains against.
Phase A trains the classifier on normals plus the mode's pools other than
the boundary. When the mode lists the boundary, phase B trains the boundary
generator against the frozen classifier, and phase C regenerates a boundary
pool from fresh latents and retrains the classifier on all the mode's pools.
Everything is reseeded per epoch from the master seed so a run is a pure
function of (config, seed).

A training step zeroes the model's one flat gradient buffer, builds the
one-node loss over its flat parameter leaf (``Mlp.flat``), runs
``ad.backward`` once and hands ``adam_step`` that leaf and its gradient, so
Adam updates the whole model as one slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .data import LabeledBatch, LatentBatch, OutlierPool
from .losses import LossWeights, classifier_loss, generator_loss
from .nets import BoundaryGenerator, MlpClassifier

__all__ = [
    "AdamState",
    "adam_step",
    "TrainingError",
    "TrainSchedule",
    "sample_latent",
    "train_classifier",
    "train_generator",
    "PipelineConfig",
    "PipelineResult",
    "run_pipeline",
    "MODES",
    "NEGATIVES",
]

# The negative pools each ablation mode trains against, in draw order:
# few-shot OE samples, the generated boundary, the outlier dataset.
NEGATIVES = {
    "i": ("outlier",),
    "ii": ("few_shot",),
    "iii": ("few_shot", "boundary"),
    "iv": ("few_shot", "boundary", "outlier"),
}
MODES = tuple(NEGATIVES)


class TrainingError(RuntimeError):
    """Raised when a training step cannot proceed (non-finite loss/grad)."""


@dataclass
class AdamState:
    """Bias-corrected adaptive moments, kept as one flat vector each over
    the concatenated parameters."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))
    sizes: tuple = ()

    @classmethod
    def for_params(cls, params, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        sizes = tuple(p.data.size for p in params)
        total = sum(sizes)
        return cls(lr=lr, beta1=beta1, beta2=beta2, eps=eps, m=np.zeros(total), v=np.zeros(total), sizes=sizes)


def adam_step(params, grads, state: AdamState) -> None:
    """One in-place update; aborts with a diagnostic on non-finite gradients.

    Every operation is elementwise, so one pass over the concatenated
    gradients gives each parameter the same bits as a per-parameter update:
    ``[model.flat]`` (what training passes, one slice) and leaves over the
    per-layer views in ``model.layers`` update a model identically.
    """
    if tuple(p.data.size for p in params) != state.sizes:
        raise ValueError("optimizer state does not match the parameter list")
    g = np.concatenate([np.ravel(x) for x in grads])
    if not np.all(np.isfinite(g)):
        bad = next(i for i, x in enumerate(grads) if not np.all(np.isfinite(x)))
        raise TrainingError(f"non-finite gradient in parameter {bad}")
    state.t += 1
    c1 = 1.0 - state.beta1**state.t
    c2 = 1.0 - state.beta2**state.t
    m, v = state.m, state.v
    m *= state.beta1
    m += (1.0 - state.beta1) * g
    v *= state.beta2
    v += (1.0 - state.beta2) * g * g
    update = state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
    start = 0
    for p in params:
        stop = start + p.data.size
        p.data -= update[start:stop].reshape(p.data.shape)
        start = stop


def sample_latent(seed, n: int, latent_dim: int) -> LatentBatch:
    """n x latent_dim standard-normal draws (numpy ziggurat), seeded."""
    if n < 1:
        raise ValueError("latent batch size must be >= 1")
    rng = np.random.default_rng(seed)
    return LatentBatch(rng.standard_normal((n, latent_dim)), seed=seed)


@dataclass
class TrainSchedule:
    """Epoch counts, batch sizes, per-phase learning rates, and the master seed."""

    phase_a_epochs: int = 40
    phase_b_epochs: int = 30
    phase_c_epochs: int = 40
    batch_n: int = 64
    batch_m: int = 64
    latent_n: int = 64
    proximity_q: int = 64
    lr_a: float = 1e-3
    lr_b: float = 1e-3
    lr_c: float = 1e-3
    alternations: int = 1
    master_seed: int = 0

    def __post_init__(self):
        for name in ("phase_a_epochs", "phase_b_epochs", "phase_c_epochs"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name}: must be >= 0, got {getattr(self, name)}")
        for name in ("batch_n", "batch_m", "proximity_q", "alternations"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name}: must be >= 1, got {getattr(self, name)}")
        if self.latent_n < 2:
            raise ValueError(f"latent_n: must be >= 2 (the dispersion term needs pairs), got {self.latent_n}")
        for name in ("lr_a", "lr_b", "lr_c"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name}: must be positive and finite, got {value}")


def _epoch_rng(*key) -> np.random.Generator:
    return np.random.default_rng(tuple(int(k) for k in key))


def _draw_negatives(pools, m_total: int, rng) -> np.ndarray | None:
    """Evenly split negative mini-batch over the nonempty pools (with
    replacement), remainder to the earliest pools."""
    pools = [p for p in pools if p is not None and p.size > 0]
    if not pools or m_total < 1:
        return None
    base, extra = divmod(m_total, len(pools))
    parts = []
    for i, pool in enumerate(pools):
        take = base + (1 if i < extra else 0)
        if take:
            parts.append(pool.inputs[rng.integers(0, pool.size, take)])
    return np.concatenate(parts) if parts else None


# Per classifier phase: its TrainSchedule epochs and learning-rate fields and
# its seed index.
_CLASSIFIER_PHASES = {"a": ("phase_a_epochs", "lr_a", 0), "c": ("phase_c_epochs", "lr_c", 2)}


def train_classifier(
    model: MlpClassifier,
    normals: LabeledBatch,
    negatives,
    weights: LossWeights,
    schedule: TrainSchedule,
    phase: str = "a",
    epochs: int | None = None,
    seed_prefix: tuple | None = None,
) -> list[float]:
    """Mini-batch descent on classifier_loss; returns per-epoch mean loss.

    ``negatives`` is a sequence of OutlierPool (empty/None pools are ignored,
    leaving pure cross-entropy). Batch shuffling is reseeded per epoch.
    ``phase`` is ``"a"`` or ``"c"``.
    """
    if phase not in _CLASSIFIER_PHASES:
        raise ValueError(f"unknown classifier phase {phase!r} (one of {tuple(_CLASSIFIER_PHASES)})")
    if len(normals) < 1:
        raise ValueError("normal data source is empty")
    pools = list(negatives) if negatives else []
    epochs_field, lr_field, index = _CLASSIFIER_PHASES[phase]
    epochs = getattr(schedule, epochs_field) if epochs is None else epochs
    prefix = seed_prefix if seed_prefix is not None else (schedule.master_seed, index)
    state = AdamState.for_params([model.flat], lr=getattr(schedule, lr_field))
    trace: list[float] = []
    n = len(normals)
    for epoch in range(epochs):
        shuffle_rng = _epoch_rng(*prefix, epoch, 0)
        neg_rng = _epoch_rng(*prefix, epoch, 1)
        perm = shuffle_rng.permutation(n)
        step_losses = []
        for b, start in enumerate(range(0, n, schedule.batch_n)):
            idx = perm[start : start + schedule.batch_n]
            batch = LabeledBatch(normals.inputs[idx], normals.labels[idx])
            neg_inputs = _draw_negatives(pools, schedule.batch_m, neg_rng) if weights.lam > 0 else None
            neg = OutlierPool(neg_inputs) if neg_inputs is not None else None
            model.zero_grad()
            loss = classifier_loss(model, batch, neg, weights)
            value = loss.item()
            if not np.isfinite(value):
                raise TrainingError(f"non-finite classifier loss in phase {phase}, epoch {epoch}, batch {b}")
            ad.backward(loss)
            adam_step([model.flat], [model.flat.grad], state)
            step_losses.append(value)
        trace.append(float(np.mean(step_losses)))
    return trace


def train_generator(
    generator: BoundaryGenerator,
    classifier: MlpClassifier,
    normal_inputs: np.ndarray,
    weights: LossWeights,
    schedule: TrainSchedule,
    epochs: int | None = None,
    seed_prefix: tuple | None = None,
) -> list[float]:
    """Descent on generator_loss against the frozen classifier.

    The classifier must already be frozen; its parameters are verified
    bit-exact afterwards. Each step draws a fresh seeded latent batch and a
    fresh normal reference chunk of size proximity_q.
    """
    if not classifier.is_frozen:
        raise ValueError("classifier must be frozen before generator training")
    normal_inputs = np.asarray(normal_inputs, dtype=np.float64)
    n = len(normal_inputs)
    if n < 1:
        raise ValueError("normal data source is empty")
    epochs = schedule.phase_b_epochs if epochs is None else epochs
    prefix = seed_prefix if seed_prefix is not None else (schedule.master_seed, 1)
    before = classifier.flat.data.copy()
    state = AdamState.for_params([generator.flat], lr=schedule.lr_b)
    trace: list[float] = []
    q = min(schedule.proximity_q, n)
    for epoch in range(epochs):
        shuffle_rng = _epoch_rng(*prefix, epoch, 0)
        perm = shuffle_rng.permutation(n)
        step_losses = []
        for b, start in enumerate(range(0, n, q)):
            reference = normal_inputs[perm[start : start + q]]
            latents = sample_latent((*[int(k) for k in prefix], epoch, b, 2), schedule.latent_n, generator.latent_dim)
            generator.zero_grad()
            loss = generator_loss(generator, classifier, latents, reference, weights)
            value = loss.item()
            if not np.isfinite(value):
                raise TrainingError(f"non-finite generator loss in phase b, epoch {epoch}, batch {b}")
            ad.backward(loss)
            adam_step([generator.flat], [generator.flat.grad], state)
            step_losses.append(value)
        trace.append(float(np.mean(step_losses)))
    if not np.array_equal(before, classifier.flat.data):
        raise TrainingError("classifier parameters changed during generator training")
    return trace


@dataclass
class PipelineConfig:
    """Materialized inputs for one end-to-end run."""

    normals: LabeledBatch
    mode: str = "iii"
    few_shot: OutlierPool | None = None
    outlier: OutlierPool | None = None
    classifier_sizes: list = field(default_factory=lambda: [2, 64, 64, 3])
    classifier_activation: str = "relu"
    generator_sizes: list = field(default_factory=lambda: [2, 64, 64, 2])
    generator_activation: str = "relu"
    weights: LossWeights = field(default_factory=LossWeights)
    schedule: TrainSchedule = field(default_factory=TrainSchedule)
    seed: int = 0
    boundary_pool_size: int | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown ablation mode '{self.mode}' (one of {MODES})")
        for pool, what in (("few_shot", "a few-shot pool (it may be empty)"), ("outlier", "an outlier dataset")):
            if pool in NEGATIVES[self.mode] and getattr(self, pool) is None:
                raise ValueError(f"mode ({self.mode}) requires {what}")


@dataclass
class PipelineResult:
    classifier: MlpClassifier
    generator: BoundaryGenerator | None
    boundary_pool: OutlierPool | None
    traces: dict


def _boundary_pool_size(cfg: PipelineConfig) -> int:
    if cfg.boundary_pool_size is not None:
        return int(cfg.boundary_pool_size)
    if cfg.few_shot is not None and cfg.few_shot.size > 0:
        return cfg.few_shot.size
    return cfg.schedule.batch_m


def run_pipeline(cfg: PipelineConfig) -> PipelineResult:
    """Run the mode-gated phases and return models, boundary pool, traces.

    The negatives come from ``NEGATIVES[cfg.mode]``; a mode that does not
    list the boundary skips the generator phases entirely.
    """
    schedule = cfg.schedule
    negatives = NEGATIVES[cfg.mode]
    pools = {"few_shot": cfg.few_shot, "outlier": cfg.outlier}
    phase_a_negs = [pools[name] for name in negatives if name != "boundary"]

    classifier = MlpClassifier(cfg.classifier_sizes, activation=cfg.classifier_activation, seed=(cfg.seed * 2 + 1) % 2**32)
    traces: dict = {}
    try:
        traces["phase_a"] = train_classifier(
            classifier, cfg.normals, phase_a_negs, cfg.weights, schedule, phase="a", seed_prefix=(cfg.seed, 0)
        )
    except Exception as e:
        raise TrainingError(f"phase A failed: {e}") from e

    if "boundary" not in negatives:
        return PipelineResult(classifier, None, None, traces)

    generator = BoundaryGenerator(cfg.generator_sizes, activation=cfg.generator_activation, seed=(cfg.seed * 2 + 2) % 2**32)
    boundary = None
    for alt in range(schedule.alternations):
        classifier.freeze()
        try:
            trace_b = train_generator(
                generator, classifier, cfg.normals.inputs, cfg.weights, schedule, seed_prefix=(cfg.seed, 1, alt)
            )
        except Exception as e:
            raise TrainingError(f"phase B failed: {e}") from e
        classifier.unfreeze()
        traces.setdefault("phase_b", []).extend(trace_b)

        pool_n = _boundary_pool_size(cfg)
        latents = sample_latent((cfg.seed, 3, alt), pool_n, generator.latent_dim)
        boundary = pools["boundary"] = OutlierPool(generator.forward_array(latents.values))
        phase_c_negs = [pools[name] for name in negatives]
        try:
            trace_c = train_classifier(
                classifier, cfg.normals, phase_c_negs, cfg.weights, schedule, phase="c", seed_prefix=(cfg.seed, 2, alt)
            )
        except Exception as e:
            raise TrainingError(f"phase C failed: {e}") from e
        traces.setdefault("phase_c", []).extend(trace_c)

    return PipelineResult(classifier, generator, boundary, traces)
