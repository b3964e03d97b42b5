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

The phase trainers train a stack of models (``Mlp.stack``) in lockstep: one
stacked loss and one backward per batch, then one ``adam_step`` per entry
with that entry's own Adam state. Shuffles, negative draws and latents are
seeded per entry, so an entry's weights equal those of training it alone;
a single model trains as a stack of one. ``run_pipeline`` trains the
entries of ``PipelineConfig.entries`` this way, phase by phase.
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
    # the step's gradient, a temporary and the update, laid out like m
    scratch: np.ndarray = field(default_factory=lambda: np.zeros((3, 0)), repr=False, compare=False)

    @classmethod
    def for_params(cls, params, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        sizes = tuple(p.data.size for p in params)
        total = sum(sizes)
        return cls(
            lr=lr, beta1=beta1, beta2=beta2, eps=eps, m=np.zeros(total), v=np.zeros(total), sizes=sizes,
            scratch=np.empty((3, total)),
        )


def adam_step(params, grads, state: AdamState) -> None:
    """One in-place update; aborts with a diagnostic on non-finite gradients.

    Every operation is elementwise, so one pass over the concatenated
    gradients gives each parameter the same bits as a per-parameter update:
    ``[model.flat]`` (what training passes, one slice) and leaves over the
    per-layer views in ``model.layers`` update a model identically. The
    arithmetic is ``m = b1 m + (1 - b1) g``, ``v = b2 v + (1 - b2) g g`` and
    ``lr (m / c1) / (sqrt(v / c2) + eps)``, operation by operation in that
    order, written into ``state.scratch``.
    """
    if tuple(p.data.size for p in params) != state.sizes:
        raise ValueError("optimizer state does not match the parameter list")
    if state.scratch.shape != (3, state.m.size):
        state.scratch = np.empty((3, state.m.size))
    g, tmp, update = state.scratch
    if len(grads) == 1:
        g = np.ravel(grads[0])  # read only: no copy needed
    else:
        np.concatenate([np.ravel(x) for x in grads], out=g)
    if not np.isfinite(g).all():
        bad = next(i for i, x in enumerate(grads) if not np.all(np.isfinite(x)))
        raise TrainingError(f"non-finite gradient in parameter {bad}")
    state.t += 1
    c1 = 1.0 - state.beta1**state.t
    c2 = 1.0 - state.beta2**state.t
    m, v = state.m, state.v
    m *= state.beta1
    m += np.multiply(g, 1.0 - state.beta1, out=tmp)
    v *= state.beta2
    np.multiply(g, 1.0 - state.beta2, out=tmp)
    tmp *= g
    v += tmp
    np.divide(m, c1, out=update)
    update *= state.lr
    np.divide(v, c2, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += state.eps
    update /= tmp
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
    if not parts:
        return None
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


# Per classifier phase: its TrainSchedule epochs and learning-rate fields and
# its seed index.
_CLASSIFIER_PHASES = {"a": ("phase_a_epochs", "lr_a", 0), "c": ("phase_c_epochs", "lr_c", 2)}


def _step(stack, loss, states, live: list, errors: dict, step_losses: list, where: tuple) -> None:
    """Backpropagate one stacked loss node (one value per entry, a scalar
    for a stack of one; their sum is the root) and give each live entry its
    own ``adam_step``. An entry whose loss is not finite, or whose gradient
    ``adam_step`` rejects, leaves ``live`` with its TrainingError in
    ``errors``; the others never read its rows. ``where`` is the loss's
    ``(kind, phase, epoch, batch)``, for the message."""
    ad.backward(ad.reduce_sum(loss) if loss.data.ndim else loss)
    values, grads = loss.data.reshape(-1), stack.flat.grad.reshape(len(states), -1)
    for e in list(live):
        value = float(values[e])
        try:
            if not math.isfinite(value):
                raise TrainingError("non-finite {} loss in phase {}, epoch {}, batch {}".format(*where))
            adam_step([stack.members[e].flat], [grads[e]], states[e])
        except TrainingError as err:
            errors[e] = err
            live.remove(e)
            continue
        step_losses[e].append(value)


def _outcomes(traces: list, errors: dict, alone: bool):
    """Each entry's trace or TrainingError; a model trained alone returns
    its trace or raises its error."""
    outcomes = [errors.get(e, trace) for e, trace in enumerate(traces)]
    if not alone:
        return outcomes
    if errors:
        raise errors[0]
    return outcomes[0]


def train_classifier(
    model: MlpClassifier,
    normals: LabeledBatch,
    negatives,
    weights: LossWeights,
    schedule: TrainSchedule,
    phase: str = "a",
    epochs: int | None = None,
    seed_prefix: tuple | None = None,
) -> list:
    """Mini-batch descent on classifier_loss; returns per-epoch mean loss.

    ``negatives`` is a sequence of OutlierPool (empty/None pools are ignored,
    leaving pure cross-entropy). Batch shuffling is reseeded per epoch.
    ``phase`` is ``"a"`` or ``"c"``.

    A stack (``Mlp.stack``) trains its entries in lockstep, one stacked step
    per batch. ``negatives`` and ``seed_prefix`` then hold one pool list and
    one seed prefix per entry (every entry drawing negatives, or none), and
    the result holds each entry's trace or the TrainingError that stopped
    it; the others go on. Every entry keeps its own shuffles, negative
    draws and Adam state, so its weights and trace are those of training
    it alone, which is a stack of one.
    """
    if phase not in _CLASSIFIER_PHASES:
        raise ValueError(f"unknown classifier phase {phase!r} (one of {tuple(_CLASSIFIER_PHASES)})")
    if len(normals) < 1:
        raise ValueError("normal data source is empty")
    epochs_field, lr_field, index = _CLASSIFIER_PHASES[phase]
    epochs = getattr(schedule, epochs_field) if epochs is None else epochs
    alone = model.members is None
    if alone:
        prefix = seed_prefix if seed_prefix is not None else (schedule.master_seed, index)
        model, negatives, seed_prefix = type(model).stack([model]), [negatives], [prefix]
    if seed_prefix is None or not len(negatives) == len(seed_prefix) == len(model.members):
        raise ValueError("a stack needs one pool list and one seed prefix per entry")
    pools = [list(p) if p else [] for p in negatives]
    states = [AdamState.for_params([m.flat], lr=getattr(schedule, lr_field)) for m in model.members]
    traces: list = [[] for _ in states]
    live, errors = list(range(len(states))), {}
    n = len(normals)
    for epoch in range(epochs):
        perms = [_epoch_rng(*prefix, epoch, 0).permutation(n) for prefix in seed_prefix]
        neg_rngs = [_epoch_rng(*prefix, epoch, 1) for prefix in seed_prefix]
        step_losses: list = [[] for _ in states]
        for b, start in enumerate(range(0, n, schedule.batch_n)):
            batches, negs = [], []
            for perm, entry_pools, rng in zip(perms, pools, neg_rngs):
                idx = perm[start : start + schedule.batch_n]
                batches.append(LabeledBatch(normals.inputs[idx], normals.labels[idx]))
                neg_inputs = _draw_negatives(entry_pools, schedule.batch_m, rng) if weights.lam > 0 else None
                negs.append(OutlierPool(neg_inputs) if neg_inputs is not None else None)
            model.zero_grad()
            loss = classifier_loss(model, batches, negs, weights)
            _step(model, loss, states, live, errors, step_losses, ("classifier", phase, epoch, b))
        for e in live:
            traces[e].append(float(np.mean(step_losses[e])))
    return _outcomes(traces, errors, alone)


def train_generator(
    generator: BoundaryGenerator,
    classifier: MlpClassifier,
    normal_inputs: np.ndarray,
    weights: LossWeights,
    schedule: TrainSchedule,
    epochs: int | None = None,
    seed_prefix: tuple | None = None,
) -> list:
    """Descent on generator_loss against the frozen classifier.

    The classifier must already be frozen; its parameters are verified
    bit-exact afterwards. Each step draws a fresh seeded latent batch and a
    fresh normal reference chunk of size proximity_q.

    A stack of generators (``Mlp.stack``) trains in lockstep against the
    stack of their frozen classifiers, entry by entry, with one seed prefix
    per entry; the result holds each entry's trace or TrainingError, as in
    ``train_classifier``.
    """
    if not classifier.is_frozen:
        raise ValueError("classifier must be frozen before generator training")
    normal_inputs = np.asarray(normal_inputs, dtype=np.float64)
    n = len(normal_inputs)
    if n < 1:
        raise ValueError("normal data source is empty")
    epochs = schedule.phase_b_epochs if epochs is None else epochs
    alone = generator.members is None
    if alone:
        prefix = seed_prefix if seed_prefix is not None else (schedule.master_seed, 1)
        generator, classifier, seed_prefix = type(generator).stack([generator]), type(classifier).stack([classifier]), [prefix]
    if seed_prefix is None or len(seed_prefix) != len(generator.members):
        raise ValueError("a stack needs one seed prefix per entry")
    before = classifier.flat.data.copy()
    states = [AdamState.for_params([m.flat], lr=schedule.lr_b) for m in generator.members]
    traces: list = [[] for _ in states]
    live, errors = list(range(len(states))), {}
    q = min(schedule.proximity_q, n)
    for epoch in range(epochs):
        perms = [_epoch_rng(*prefix, epoch, 0).permutation(n) for prefix in seed_prefix]
        step_losses: list = [[] for _ in states]
        for b, start in enumerate(range(0, n, q)):
            references = [normal_inputs[p[start : start + q]] for p in perms]
            latents = [
                sample_latent((*[int(k) for k in prefix], epoch, b, 2), schedule.latent_n, generator.latent_dim)
                for prefix in seed_prefix
            ]
            generator.zero_grad()
            loss = generator_loss(generator, classifier, latents, references, weights)
            _step(generator, loss, states, live, errors, step_losses, ("generator", "b", epoch, b))
        for e in live:
            traces[e].append(float(np.mean(step_losses[e])))
    if not np.array_equal(before, classifier.flat.data):
        raise TrainingError("classifier parameters changed during generator training")
    return _outcomes(traces, errors, alone)


@dataclass
class PipelineConfig:
    """Materialized inputs for the runs of one stack trained in lockstep.

    ``entries`` lists each run's ``(seed, few_shot)``: its seed and its
    few-shot pool (None when the mode draws none). The runs share
    everything else.
    """

    normals: LabeledBatch
    entries: list
    mode: str = "iii"
    outlier: OutlierPool | None = None
    classifier_sizes: list = field(default_factory=lambda: [2, 64, 64, 3])
    classifier_activation: str = "relu"
    generator_sizes: list = field(default_factory=lambda: [2, 64, 64, 2])
    generator_activation: str = "relu"
    weights: LossWeights = field(default_factory=LossWeights)
    schedule: TrainSchedule = field(default_factory=TrainSchedule)
    boundary_pool_size: int | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown ablation mode '{self.mode}' (one of {MODES})")
        if not self.entries:
            raise ValueError("a pipeline needs at least one (seed, few_shot) entry")
        if "few_shot" in NEGATIVES[self.mode] and any(few is None for _, few in self.entries):
            raise ValueError(f"mode ({self.mode}) requires a few-shot pool (it may be empty)")
        if "outlier" in NEGATIVES[self.mode] and self.outlier is None:
            raise ValueError(f"mode ({self.mode}) requires an outlier dataset")


@dataclass
class PipelineResult:
    """The trained models, boundary pool and traces of one run, or of a stack.

    ``run_pipeline`` returns the stack's: ``classifier`` and ``generator``
    stack the models of the entries that finished (None when none did, and
    ``generator`` None in a mode without the boundary), ``boundary_pool``
    is None and ``traces`` empty, and ``entries`` holds each entry's own
    result or the TrainingError that stopped it.
    """

    classifier: MlpClassifier | None
    generator: BoundaryGenerator | None
    boundary_pool: OutlierPool | None
    traces: dict
    entries: list = field(default_factory=list)


def _boundary_pool_size(cfg: PipelineConfig, few_shot: OutlierPool | None) -> int:
    if cfg.boundary_pool_size is not None:
        return int(cfg.boundary_pool_size)
    if few_shot is not None and few_shot.size > 0:
        return few_shot.size
    return cfg.schedule.batch_m


def run_pipeline(cfg: PipelineConfig) -> PipelineResult:
    """Train the entries of ``cfg`` as one stack through the mode-gated
    phases; returns the stack's PipelineResult.

    The negatives come from ``NEGATIVES[cfg.mode]``; a mode that does not
    list the boundary skips the generator phases entirely. The entries
    train in lockstep, phase by phase (``train_classifier``,
    ``train_generator``); entries whose phase draws no negatives while
    others do (a count of 0 in phase A) train that phase as a stack of
    their own. An entry whose own step goes non-finite leaves the stack
    with ``phase X failed: ...`` in its place in ``entries``, and the rest
    go on; each entry's result equals its run alone. Anything else a phase
    raises is not one entry's: it stops the stack, raised as ``phase X
    failed: ...``.
    """
    schedule, weights = cfg.schedule, cfg.weights
    negatives = NEGATIVES[cfg.mode]
    seeds = [int(seed) for seed, _ in cfg.entries]
    pools = [{"few_shot": few, "outlier": cfg.outlier} for _, few in cfg.entries]
    classifiers = [
        MlpClassifier(cfg.classifier_sizes, activation=cfg.classifier_activation, seed=(seed * 2 + 1) % 2**32)
        for seed in seeds
    ]
    generators: list = [None] * len(seeds)
    traces: list = [{} for _ in seeds]
    errors: dict = {}

    def alive() -> list:
        return [e for e in range(len(seeds)) if e not in errors]

    def run_phase(phase: str, group: list, train) -> None:
        """``train()`` trains ``group`` as one stack and returns each
        entry's trace or TrainingError."""
        try:
            outcomes = train()
        except Exception as err:
            raise TrainingError(f"phase {phase.upper()} failed: {err}") from err
        for e, outcome in zip(group, outcomes):
            if isinstance(outcome, Exception):
                errors[e] = TrainingError(f"phase {phase.upper()} failed: {outcome}")
                errors[e].__cause__ = outcome
            else:
                traces[e].setdefault(f"phase_{phase}", []).extend(outcome)

    def classifier_phase(phase: str, names, key: tuple) -> None:
        def draws(e):
            return weights.lam > 0 and any(pools[e].get(name) is not None and pools[e][name].size > 0 for name in names)

        live = alive()
        for group in ([e for e in live if draws(e)], [e for e in live if not draws(e)]):
            if group:
                run_phase(phase, group, lambda: train_classifier(
                    MlpClassifier.stack([classifiers[e] for e in group]), cfg.normals,
                    [[pools[e].get(name) for name in names] for e in group], weights, schedule,
                    phase=phase, seed_prefix=[(seeds[e], *key) for e in group],
                ))

    classifier_phase("a", [name for name in negatives if name != "boundary"], (0,))
    for alt in range(schedule.alternations if "boundary" in negatives else 0):
        live = alive()
        for e in live:
            generators[e] = generators[e] or BoundaryGenerator(
                cfg.generator_sizes, activation=cfg.generator_activation, seed=(seeds[e] * 2 + 2) % 2**32
            )
        if live:
            frozen = MlpClassifier.stack([classifiers[e] for e in live])
            frozen.freeze()
            run_phase("b", live, lambda: train_generator(
                BoundaryGenerator.stack([generators[e] for e in live]), frozen, cfg.normals.inputs, weights,
                schedule, seed_prefix=[(seeds[e], 1, alt) for e in live],
            ))
            frozen.unfreeze()
        for e in alive():
            size = _boundary_pool_size(cfg, pools[e]["few_shot"])
            latents = sample_latent((seeds[e], 3, alt), size, generators[e].latent_dim)
            pools[e]["boundary"] = OutlierPool(generators[e].forward_array(latents.values))
        classifier_phase("c", negatives, (2, alt))

    results = [
        errors.get(e) or PipelineResult(classifiers[e], generators[e], pools[e].get("boundary"), traces[e])
        for e in range(len(seeds))
    ]
    done = [r for r in results if isinstance(r, PipelineResult)]
    return PipelineResult(
        MlpClassifier.stack([r.classifier for r in done]) if done else None,
        BoundaryGenerator.stack([r.generator for r in done]) if done and done[0].generator is not None else None,
        None, {}, results,
    )
