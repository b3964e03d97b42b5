"""Objective terms for boundary-exposure training, exposed term by term.

Classifier side: cross-entropy on labeled normals plus a weighted negative
training term that drives the max softmax probability of outlier samples
toward the uniform floor 1/K.

Generator side: a dispersion term (latent/data distance ratios, the
anti-collapse pressure), a confidence-dominance term (generated samples must
not out-confidence paired normals), and a proximity term (stay tight to the
normal support).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import LabeledBatch, LatentBatch, OutlierPool

__all__ = [
    "LossWeights",
    "cross_entropy_term",
    "negative_training_term",
    "classifier_loss",
    "dispersion_term",
    "confidence_dominance_term",
    "proximity_term",
    "generator_loss",
    "max_softmax_prob",
]

_LOG_CLAMP = 1e-12


@dataclass(frozen=True)
class LossWeights:
    """lam: negative-training weight, mu: dominance, nu: proximity,
    delta: dispersion denominator guard."""

    lam: float = 1.0
    mu: float = 1.0
    nu: float = 1.0
    delta: float = 1e-6

    def __post_init__(self):
        vals = (self.lam, self.mu, self.nu, self.delta)
        if not all(np.isfinite(v) for v in vals):
            raise ValueError(f"loss weights must be finite, got {vals}")
        if self.lam < 0 or self.mu < 0 or self.nu < 0:
            raise ValueError("loss weights must be non-negative")
        if self.delta <= 0:
            raise ValueError("dispersion guard delta must be positive")


def max_softmax_prob(logits: Tensor) -> Tensor:
    """Rowwise max softmax probability, computed as exp(max - logsumexp)."""
    return ad.exp(ad.sub(ad.reduce_max(logits, axis=1), ad.log_sum_exp(logits, axis=1)))


def _clamp_min(t: Tensor, floor: float) -> Tensor:
    # relu(x - floor) + floor == max(x, floor), with zero gradient below it
    c = Tensor(float(floor))
    return ad.add(ad.relu(ad.sub(t, c)), c)


def cross_entropy_term(logits: Tensor, labels) -> Tensor:
    """Mean negative log softmax of the labeled class, via log-sum-exp."""
    labels = np.asarray(labels, dtype=np.int64)
    n, k = logits.shape
    if labels.ndim != 1 or len(labels) != n:
        raise ad.ShapeMismatchError("cross_entropy_term", logits.shape, labels.shape)
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        bad = labels[(labels < 0) | (labels >= k)][0]
        raise ValueError(f"label {bad} out of range for {k} classes")
    onehot = np.zeros((n, k))
    onehot[np.arange(n), labels] = 1.0
    lse_sum = ad.reduce_sum(ad.log_sum_exp(logits, axis=1))
    picked_sum = ad.reduce_sum(ad.mul(logits, Tensor(onehot)))
    return ad.scalar_mul(ad.sub(lse_sum, picked_sum), 1.0 / n)


def negative_training_term(logits: Tensor) -> Tensor:
    """Mean of -log(1 - p*) over outlier rows, p* the max softmax probability.

    1 - p* is clamped at 1e-12 before the log, so a confidently classified
    negative contributes a large but finite penalty (and zero gradient).
    """
    m = logits.shape[0]
    if m < 1:
        raise ValueError("negative_training_term needs at least one sample")
    one_minus = ad.sub(Tensor(1.0), max_softmax_prob(logits))
    return ad.scalar_mul(ad.reduce_sum(ad.log(_clamp_min(one_minus, _LOG_CLAMP))), -1.0 / m)


def classifier_loss(model, normals: LabeledBatch, negatives: OutlierPool | None, weights: LossWeights) -> Tensor:
    """Cross-entropy plus lam * negative training; pure cross-entropy when the
    negative pool is empty or lam is zero."""
    loss = cross_entropy_term(model.forward_logits(normals.inputs), normals.labels)
    if negatives is not None and negatives.size > 0 and weights.lam > 0:
        neg = negative_training_term(model.forward_logits(negatives.inputs))
        loss = ad.add(loss, ad.scalar_mul(neg, weights.lam))
    return loss


def dispersion_term(latents, outputs: Tensor, delta: float) -> Tensor:
    """Mean over all latent pairs of ||dz|| / (||dO|| + delta).

    Every row serves as anchor in turn and the per-anchor means are averaged,
    which equals the mean over unordered pairs by symmetry.
    """
    values = latents.values if isinstance(latents, LatentBatch) else np.asarray(latents, dtype=np.float64)
    n = len(values)
    if n < 2:
        raise ValueError(f"dispersion needs at least two latent samples, got {n}")
    if outputs.shape[0] != n:
        raise ad.ShapeMismatchError("dispersion_term", (n,), outputs.shape)
    ii, jj = np.triu_indices(n, k=1)
    z_dist = np.linalg.norm(values[ii] - values[jj], axis=1)
    d_norm = ad.l2_norm_of_difference(ad.gather_rows(outputs, ii), ad.gather_rows(outputs, jj))
    ratios = ad.div(Tensor(z_dist), ad.add(d_norm, Tensor(float(delta))))
    return ad.reduce_mean(ratios)


def confidence_dominance_term(generated_logits: Tensor, reference_logits: Tensor) -> Tensor:
    """Mean over row pairs of the max softmax component of the logit
    difference; 1/K when generated and reference logits coincide."""
    if generated_logits.shape != reference_logits.shape:
        raise ad.ShapeMismatchError(
            "confidence_dominance_term", generated_logits.shape, reference_logits.shape
        )
    return ad.reduce_mean(max_softmax_prob(ad.sub(generated_logits, reference_logits)))


def proximity_term(generated: Tensor, normal_reference: np.ndarray) -> Tensor:
    """Mean over generated rows of the distance to the nearest reference row.

    The nearest row is picked in numpy; on a tie the subgradient follows the
    first nearest row.
    """
    reference = np.asarray(normal_reference, dtype=np.float64)
    if len(reference) < 1:
        raise ValueError("proximity needs a non-empty normal reference")
    if reference.ndim != 2 or generated.data.ndim != 2 or reference.shape[1] != generated.shape[1]:
        raise ad.ShapeMismatchError("proximity_term", generated.shape, reference.shape)
    diff = generated.data[:, None, :] - reference[None, :, :]
    nearest = np.argmin(np.sqrt((diff * diff).sum(axis=-1)), axis=1)
    return ad.reduce_mean(ad.l2_norm_of_difference(generated, Tensor(reference[nearest])))


def generator_loss(
    generator,
    frozen_classifier,
    latents: LatentBatch,
    normal_reference: np.ndarray,
    weights: LossWeights,
    pairing_seed: int | tuple | None = None,
) -> Tensor:
    """dispersion + mu * dominance + nu * proximity, differentiable only with
    respect to generator parameters.

    The dominance reference pairs each generated row with a uniformly drawn
    row of the normal reference; the pairing is reseeded per step from the
    latent batch's seed unless a pairing_seed is given.
    """
    if not frozen_classifier.is_frozen:
        raise ValueError("classifier must be frozen (grad tracking disabled) during generator training")
    reference = np.asarray(normal_reference, dtype=np.float64)
    outputs = generator.generate(latents)
    loss = dispersion_term(latents, outputs, weights.delta)
    if weights.mu > 0:
        seed = pairing_seed if pairing_seed is not None else (_seed_key(latents.seed), 0x9E37)
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, len(reference), outputs.shape[0])
        gen_logits = frozen_classifier.forward_logits(outputs)
        ref_logits = frozen_classifier.forward_logits(reference[idx])
        loss = ad.add(loss, ad.scalar_mul(confidence_dominance_term(gen_logits, ref_logits), weights.mu))
    if weights.nu > 0:
        loss = ad.add(loss, ad.scalar_mul(proximity_term(outputs, reference), weights.nu))
    return loss


def _seed_key(seed) -> int:
    if isinstance(seed, (tuple, list)):
        key = 0
        for s in seed:
            key = (key * 1_000_003 + int(s)) % (2**63)
        return key
    return int(seed)
