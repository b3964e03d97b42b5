"""Optimizers and the nested train-classifier / train-generator schedule.

``NEGATIVES`` lists the negative pools each ablation mode trains against.
Phase A trains the classifier on normals plus the mode's pools other than
the boundary. When the mode lists the boundary, phase B trains the boundary
generator against the frozen classifier, and phase C regenerates a boundary
pool from fresh latents and retrains the classifier on all the mode's pools.
Everything is reseeded per epoch from the master seed so a run is a pure
function of (config, seed).

Phases A, B and C share one table, ``PHASES``, of the schedule fields and
seed index each reads, and one descent loop, ``_descend``, over a stack of
models (``Mlp.stack``) trained in lockstep; a single model trains as a
stack of one. Per batch it zeroes the stack's one flat gradient buffer,
takes the one-node stacked loss over its flat parameter leaf
(``Mlp.flat``) from the phase trainer, runs ``ad.backward`` once and hands
each entry's ``adam_step`` that entry's row of the leaf and its gradient,
with the entry's own Adam state, so Adam updates each model as one slice.
``train_classifier`` and ``train_generator`` supply only the loss of a
batch from each entry's row picks. Shuffles, negative draws and latents
are seeded per entry, so an entry's weights equal those of training it
alone. ``run_pipeline`` trains the entries of ``PipelineConfig.entries``
this way, phase by phase. A stack fails as a whole: any entry's
TrainingError stops it, and the caller that needs each entry's own outcome
runs the entries again one by one (``harness._isolated``).
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
    "PHASES",
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


# Adam's moment decay rates and denominator epsilon, the same for every state
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Bias-corrected adaptive moments at learning rate ``lr``, kept as one
    flat vector each over the concatenated parameters."""

    lr: float = 1e-3
    t: int = 0
    m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))
    sizes: tuple = ()

    @classmethod
    def for_params(cls, params, lr: float = 1e-3):
        sizes = tuple(p.data.size for p in params)
        total = sum(sizes)
        return cls(lr=lr, m=np.zeros(total), v=np.zeros(total), sizes=sizes)


def adam_step(params, grads, state: AdamState) -> None:
    """One in-place update; aborts with a diagnostic on non-finite gradients.

    Every operation is elementwise, so one pass over the concatenated
    gradients gives each parameter the same bits as a per-parameter update:
    ``[model.flat]`` (what training passes, one slice) and leaves over the
    per-layer views in ``model.layers`` update a model identically. The
    arithmetic is ``m = b1 m + (1 - b1) g``, ``v = b2 v + (1 - b2) g g`` and
    ``lr (m / c1) / (sqrt(v / c2) + eps)``, operation by operation in that
    order.
    """
    if tuple(p.data.size for p in params) != state.sizes:
        raise ValueError("optimizer state does not match the parameter list")
    g = np.ravel(grads[0]) if len(grads) == 1 else np.concatenate([np.ravel(x) for x in grads])
    if not np.isfinite(g).all():
        bad = next(i for i, x in enumerate(grads) if not np.all(np.isfinite(x)))
        raise TrainingError(f"non-finite gradient in parameter {bad}")
    state.t += 1
    c1 = 1.0 - ADAM_BETA1**state.t
    c2 = 1.0 - ADAM_BETA2**state.t
    m, v = state.m, state.v
    m *= ADAM_BETA1
    m += g * (1.0 - ADAM_BETA1)
    v *= ADAM_BETA2
    v += g * (1.0 - ADAM_BETA2) * g
    update = m / c1 * state.lr / (np.sqrt(v / c2) + ADAM_EPS)
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


def _drawn_pools(pools, lam: float) -> list:
    """The pools among ``pools`` (OutlierPool or None) that an entry draws
    negatives from: the nonempty ones, and none when ``lam`` is 0."""
    return [p for p in pools if p is not None and p.size > 0] if lam > 0 else []


def _draw_negatives(pools, m_total: int, rng) -> np.ndarray:
    """Evenly split negative mini-batch of ``m_total`` >= 1 rows
    (``TrainSchedule.batch_m``) over ``pools``, one or more nonempty pools
    (``_drawn_pools``), with replacement; the remainder goes to the earliest
    pools."""
    base, extra = divmod(m_total, len(pools))
    parts = []
    for i, pool in enumerate(pools):
        take = base + (1 if i < extra else 0)
        if take:
            parts.append(pool.inputs[rng.integers(0, pool.size, take)])
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


# Per phase: its TrainSchedule epochs and learning-rate fields and its seed
# index, the key after the master (or run) seed of every draw the phase makes.
PHASES = {"a": ("phase_a_epochs", "lr_a", 0), "b": ("phase_b_epochs", "lr_b", 1), "c": ("phase_c_epochs", "lr_c", 2)}


def _descend(stack, seed_prefix, schedule: TrainSchedule, phase: str, n: int, size: int, batch_loss) -> list:
    """The one descent loop of phases A to C: train the entries of ``stack``
    in lockstep for the epochs and at the learning rate that ``PHASES``
    names for ``phase`` in ``schedule``; returns each entry's per-epoch mean
    loss.

    Each epoch shuffles ``range(n)`` per entry (seed ``(*prefix, epoch,
    0)``) and cuts the shuffles into batches of ``size`` rows.
    ``batch_loss(epoch, b, picks)`` returns the stacked loss node of batch
    ``b`` from each entry's row picks (one value per entry, a scalar for a
    stack of one; their sum is the root). One backward gives every entry's
    gradient, and each entry takes its own ``adam_step`` with its own Adam
    state. An entry whose loss is not finite raises TrainingError, as does a
    gradient ``adam_step`` rejects (its message then gains the step's phase,
    epoch and batch); either stops the stack.
    """
    epochs_field, lr_field, _ = PHASES[phase]
    states = [AdamState.for_params([m.flat], lr=getattr(schedule, lr_field)) for m in stack.members]
    traces: list = [[] for _ in states]
    for epoch in range(getattr(schedule, epochs_field)):
        perms = [_epoch_rng(*prefix, epoch, 0).permutation(n) for prefix in seed_prefix]
        step_losses: list = [[] for _ in states]
        for b, start in enumerate(range(0, n, size)):
            stack.zero_grad()
            loss = batch_loss(epoch, b, [perm[start : start + size] for perm in perms])
            ad.backward(ad.reduce_sum(loss) if loss.data.ndim else loss)
            values, grads = loss.data.reshape(-1), stack.flat.grad.reshape(len(states), -1)
            for e, state in enumerate(states):
                if not math.isfinite(values[e]):
                    raise TrainingError(f"non-finite {stack.kind} loss in phase {phase}, epoch {epoch}, batch {b}")
                try:
                    adam_step([stack.members[e].flat], [grads[e]], state)
                except TrainingError as error:
                    raise TrainingError(f"{error} in phase {phase}, epoch {epoch}, batch {b}") from error
                step_losses[e].append(float(values[e]))
        for trace, entry_losses in zip(traces, step_losses):
            trace.append(float(np.mean(entry_losses)))
    return traces


def train_classifier(
    model: MlpClassifier,
    normals: LabeledBatch,
    negatives,
    weights: LossWeights,
    schedule: TrainSchedule,
    phase: str = "a",
    seed_prefix: tuple | None = None,
) -> list:
    """Mini-batch descent on classifier_loss; returns per-epoch mean loss.

    ``negatives`` is a sequence of OutlierPool; the step draws from the ones
    ``_drawn_pools`` returns (none: pure cross-entropy). Batch shuffling is
    reseeded per epoch, and each epoch's negatives are drawn in batch order
    from the seed ``(*prefix, epoch, 1)``. ``phase`` is ``"a"`` or ``"c"``;
    its row of ``PHASES`` picks the schedule's epochs and learning rate, and
    the default prefix of a model trained alone, ``(master_seed, index)``.

    A stack (``Mlp.stack``) trains its entries in lockstep, one stacked step
    per batch. ``negatives`` and ``seed_prefix`` then hold one pool list and
    one seed prefix per entry, and the result holds each entry's trace. A
    stack whose entries do not all draw negatives, or all draw none, is a
    ValueError before any step. Each step gathers the stack's normals and
    labels with one index and stacks each entry's draw below its normals,
    one array for ``classifier_loss``. Every entry keeps its own shuffles,
    negative draws and Adam state, so its weights and trace are those of
    training it alone, which is a stack of one. A TrainingError in any
    entry (a non-finite loss or gradient) stops the whole stack.
    """
    if phase not in ("a", "c"):
        raise ValueError(f"unknown classifier phase {phase!r} (one of ('a', 'c'))")
    if len(normals) < 1:
        raise ValueError("normal data source is empty")
    alone = model.members is None
    if alone:
        prefix = seed_prefix if seed_prefix is not None else (schedule.master_seed, PHASES[phase][2])
        model, negatives, seed_prefix = type(model).stack([model]), [negatives], [prefix]
    if seed_prefix is None or not len(negatives) == len(seed_prefix) == len(model.members):
        raise ValueError("a stack needs one pool list and one seed prefix per entry")
    pools = [_drawn_pools(p or (), weights.lam) for p in negatives]
    if any(pools) and not all(pools):
        raise ValueError("every entry of a stack draws negatives, or none does")
    lead = model.flat.data.shape[:-1]
    neg_rngs: list = []

    def batch_loss(epoch, b, picks):
        idx = np.stack(picks)
        inputs = normals.inputs[idx]
        if pools[0]:
            if b == 0:
                neg_rngs[:] = [_epoch_rng(*prefix, epoch, 1) for prefix in seed_prefix]
            draws = np.stack([_draw_negatives(p, schedule.batch_m, rng) for p, rng in zip(pools, neg_rngs)])
            inputs = np.concatenate([inputs, draws], axis=1)
        return classifier_loss(
            model, inputs.reshape(*lead, -1, inputs.shape[-1]), normals.labels[idx].reshape(*lead, -1), weights
        )

    traces = _descend(model, seed_prefix, schedule, phase, len(normals), schedule.batch_n, batch_loss)
    return traces[0] if alone else traces


def train_generator(
    generator: BoundaryGenerator,
    classifier: MlpClassifier,
    normal_inputs: np.ndarray,
    weights: LossWeights,
    schedule: TrainSchedule,
    seed_prefix: tuple | None = None,
) -> list:
    """Descent on generator_loss against the frozen classifier: phase B,
    whose row of ``PHASES`` picks the schedule's epochs and learning rate,
    and the default prefix of a generator trained alone, ``(master_seed,
    index)``.

    The classifier must already be frozen; its parameters are verified
    bit-exact afterwards. Each step draws a fresh latent batch, seeded
    ``(*prefix, epoch, b, 2)``, and a fresh normal reference chunk of size
    proximity_q.

    A stack of generators (``Mlp.stack``) trains in lockstep against the
    stack of their frozen classifiers, entry by entry, with one seed prefix
    per entry; the result holds each entry's trace, and a TrainingError in
    any entry stops the stack, as in ``train_classifier``.
    """
    if not classifier.is_frozen:
        raise ValueError("classifier must be frozen before generator training")
    normal_inputs = np.asarray(normal_inputs, dtype=np.float64)
    n = len(normal_inputs)
    if n < 1:
        raise ValueError("normal data source is empty")
    alone = generator.members is None
    if alone:
        prefix = seed_prefix if seed_prefix is not None else (schedule.master_seed, PHASES["b"][2])
        generator, classifier, seed_prefix = type(generator).stack([generator]), type(classifier).stack([classifier]), [prefix]
    if seed_prefix is None or len(seed_prefix) != len(generator.members):
        raise ValueError("a stack needs one seed prefix per entry")
    before = classifier.flat.data.copy()

    def batch_loss(epoch, b, picks):
        latents = [
            sample_latent((*[int(k) for k in prefix], epoch, b, 2), schedule.latent_n, generator.latent_dim)
            for prefix in seed_prefix
        ]
        reference = normal_inputs[np.stack(picks)].reshape(*generator.flat.data.shape[:-1], -1, normal_inputs.shape[1])
        return generator_loss(generator, classifier, latents, reference, weights)

    traces = _descend(generator, seed_prefix, schedule, "b", n, min(schedule.proximity_q, n), batch_loss)
    if not np.array_equal(before, classifier.flat.data):
        raise TrainingError("classifier parameters changed during generator training")
    return traces[0] if alone else traces


@dataclass
class PipelineConfig:
    """Materialized inputs for the runs of one stack trained in lockstep.

    ``entries`` lists each run's ``(seed, few_shot)``: its seed and its
    few-shot pool (None when the mode draws none). The runs share
    everything else. The layer sizes, activations, weights and schedule
    have no defaults here: a config's come from ``config.DEFAULTS``. A mode
    without the pools it draws is a ValueError.
    """

    normals: LabeledBatch
    entries: list
    classifier_sizes: list
    classifier_activation: str
    generator_sizes: list
    generator_activation: str
    weights: LossWeights
    schedule: TrainSchedule
    mode: str = "iii"
    outlier: OutlierPool | None = None
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
    stack the entries' models (``generator`` None in a mode without the
    boundary), ``boundary_pool`` is None and ``traces`` empty, and
    ``entries`` holds each entry's own result, in entry order.
    """

    classifier: MlpClassifier
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
    their own. Each entry's result equals its run alone. Anything a phase
    raises, one entry's non-finite step included, stops the stack and is
    raised as ``phase X failed: ...``; ``harness._isolated`` then runs the
    entries one by one, so each fails with the message of its run alone.
    """
    schedule, weights = cfg.schedule, cfg.weights
    negatives = NEGATIVES[cfg.mode]
    seeds = [int(seed) for seed, _ in cfg.entries]
    everyone = range(len(seeds))
    pools = [{"few_shot": few, "outlier": cfg.outlier} for _, few in cfg.entries]
    classifiers = [
        MlpClassifier(cfg.classifier_sizes, activation=cfg.classifier_activation, seed=(seed * 2 + 1) % 2**32)
        for seed in seeds
    ]
    generators: list = [None] * len(seeds)
    traces: list = [{} for _ in seeds]

    def run_phase(phase: str, group, train) -> None:
        """``train()`` trains ``group`` as one stack and returns each entry's trace."""
        try:
            outcomes = train()
        except Exception as err:
            raise TrainingError(f"phase {phase.upper()} failed: {err}") from err
        for e, trace in zip(group, outcomes):
            traces[e].setdefault(f"phase_{phase}", []).extend(trace)

    def classifier_phase(phase: str, names, *alt) -> None:
        drawn = [_drawn_pools([pools[e].get(name) for name in names], weights.lam) for e in everyone]
        for group in ([e for e in everyone if drawn[e]], [e for e in everyone if not drawn[e]]):
            if group:
                run_phase(phase, group, lambda: train_classifier(
                    MlpClassifier.stack([classifiers[e] for e in group]), cfg.normals,
                    [drawn[e] for e in group], weights, schedule,
                    phase=phase, seed_prefix=[(seeds[e], PHASES[phase][2], *alt) for e in group],
                ))

    classifier_phase("a", [name for name in negatives if name != "boundary"])
    for alt in range(schedule.alternations if "boundary" in negatives else 0):
        for e in everyone:
            generators[e] = generators[e] or BoundaryGenerator(
                cfg.generator_sizes, activation=cfg.generator_activation, seed=(seeds[e] * 2 + 2) % 2**32
            )
        frozen = MlpClassifier.stack(classifiers)
        frozen.freeze()
        run_phase("b", everyone, lambda: train_generator(
            BoundaryGenerator.stack(generators), frozen, cfg.normals.inputs, weights, schedule,
            seed_prefix=[(seed, PHASES["b"][2], alt) for seed in seeds],
        ))
        frozen.unfreeze()
        for e in everyone:
            size = _boundary_pool_size(cfg, pools[e]["few_shot"])
            latents = sample_latent((seeds[e], 3, alt), size, generators[e].latent_dim)
            pools[e]["boundary"] = OutlierPool(generators[e].forward_array(latents.values))
        classifier_phase("c", negatives, alt)

    results = [PipelineResult(classifiers[e], generators[e], pools[e].get("boundary"), traces[e]) for e in everyone]
    return PipelineResult(
        MlpClassifier.stack(classifiers),
        BoundaryGenerator.stack(generators) if generators[0] is not None else None,
        None, {}, results,
    )
