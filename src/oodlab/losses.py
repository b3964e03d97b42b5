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

import functools
import math
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
        for name in ("lam", "mu", "nu"):
            value = getattr(self, name)
            if not (value >= 0 and math.isfinite(value)):
                raise ValueError(f"{name}: must be finite and non-negative, got {value}")
        if not (self.delta > 0 and math.isfinite(self.delta)):
            raise ValueError(f"delta: the dispersion guard must be finite and positive, got {self.delta}")


# Each term has a numpy core returning (value, vjp). The order of every float
# operation, gradient sums included, is part of the trained weights:
# reordering one changes them in the last bits. The fused losses match the
# composed terms up to summation order.
#
# A core takes a stack's arrays with a leading entry axis as well: every
# reduction runs along the trailing axes, row by row as for one entry, so a
# stacked value and VJP hold each entry's own bits. The VJP then takes one
# output gradient per entry.

def _over_rows(g, axes: int):
    """An upstream gradient with ``axes`` unit axes appended when it holds
    one value per stack entry, so it broadcasts over each entry's rows; a
    scalar stays a scalar, whose products are the cheaper ones."""
    return g[(..., *(None,) * axes)] if getattr(g, "ndim", 0) else g


def _row_sums(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=-1)`` with its bits. numpy reduces a last axis of fewer
    than 8 entries in order, so there adding the columns one by one gives
    the same result at a fraction of the short-axis reduction's cost; from
    8 entries numpy sums pairwise and the reduction stays."""
    # iterating x.T walks the columns; the last .T puts a stack's entry axis first again
    return functools.reduce(np.add, x.T).T if x.shape[-1] < 8 else x.sum(axis=-1)


def _log_softmax_parts(logits: np.ndarray):
    """Rowwise log-sum-exp via max-shift, with the softmax that is its gradient.

    Below 8 classes the max chains ``np.maximum`` over the columns and the
    sum is ``_row_sums``: the bits of ``max``/``sum(axis=-1)`` at a fraction
    of their cost.
    """
    m = functools.reduce(np.maximum, logits.T).T if logits.shape[-1] < 8 else logits.max(axis=-1)
    shifted = np.exp(logits - m[..., None])
    total = _row_sums(shifted)
    return m + np.log(total), shifted / total[..., None], m


def _max_softmax(logits: np.ndarray):
    """Rowwise max softmax probability exp(max - logsumexp); the subgradient
    of the max routes to the first argmax. ``vjp`` takes one gradient per row."""
    lse, soft, top = _log_softmax_parts(logits)
    y = np.exp(top - lse)

    def vjp(g):
        gy = g * y
        grad = (-gy)[..., None] * soft
        at_max = np.zeros(logits.shape)  # C-contiguous, so the reshape below is a view
        at_max.reshape(-1, logits.shape[-1])[np.arange(y.size), logits.argmax(axis=-1).ravel()] = gy.ravel()
        return grad + at_max

    return y, vjp


def _cross_entropy(logits: np.ndarray, labels):
    labels = np.asarray(labels, dtype=np.int64)
    n, k = logits.shape[-2:]
    if labels.shape != logits.shape[:-1]:
        raise ad.ShapeMismatchError("cross_entropy_term", logits.shape, labels.shape)
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        bad = labels[(labels < 0) | (labels >= k)][0]
        raise ValueError(f"label {bad} out of range for {k} classes")
    onehot = np.zeros(logits.shape)
    onehot.reshape(-1, k)[np.arange(labels.size), labels.ravel()] = 1.0
    lse, soft, _ = _log_softmax_parts(logits)
    picked = (logits * onehot).reshape(*logits.shape[:-2], n * k)
    value = (np.asarray(lse.sum(axis=-1)) - np.asarray(picked.sum(axis=-1))) * (1.0 / n)

    def vjp(g):
        gs = _over_rows(g * (1.0 / n), 2)
        return gs * soft + (-gs) * onehot

    return value, vjp


def _negative_training(logits: np.ndarray):
    m = logits.shape[-2]
    if m < 1:
        raise ValueError("negative_training_term needs at least one sample")
    y, msp_vjp = _max_softmax(logits)
    # relu(x - floor) + floor: max(x, floor) with zero gradient below the floor
    shifted = (1.0 - y) - _LOG_CLAMP
    above = shifted > 0.0
    clamped = np.where(above, shifted, 0.0) + _LOG_CLAMP
    value = np.asarray(np.log(clamped).sum(axis=-1)) * (-1.0 / m)

    def vjp(g):
        return msp_vjp(-((_over_rows(g, 1) * (-1.0 / m) / clamped) * above))

    return value, vjp


def _scatter_rows(idx: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """Sum ``rows`` (..., len(idx), d) into ``n`` rows by ``idx``: np.add.at's
    sequential accumulation order (so the same bits), at a fraction of its
    cost. Each entry of a stack bins into its own ``n`` rows, one bincount
    over entry-offset indices per column."""
    lead = rows.shape[:-2]
    entries = math.prod(lead)
    at = (idx + n * np.arange(entries)[:, None]).ravel()
    cols = [np.bincount(at, weights=rows[..., j].ravel(), minlength=entries * n) for j in range(rows.shape[-1])]
    return np.stack(cols, axis=-1).reshape(*lead, n, rows.shape[-1])


@functools.lru_cache(maxsize=8)
def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n, k=1)``, built once per n and read-only."""
    pairs = np.triu_indices(n, k=1)
    for idx in pairs:
        idx.flags.writeable = False
    return pairs


def _dispersion(outputs: np.ndarray, latents, delta: float):
    values = latents.values if isinstance(latents, LatentBatch) else np.asarray(latents, dtype=np.float64)
    n = values.shape[-2]
    if n < 2:
        raise ValueError(f"dispersion needs at least two latent samples, got {n}")
    if outputs.shape[:-1] != values.shape[:-1]:
        raise ad.ShapeMismatchError("dispersion_term", values.shape[:-1], outputs.shape)
    ii, jj = _pair_indices(n)
    dz = values.take(ii, axis=-2) - values.take(jj, axis=-2)
    z_dist = np.sqrt(_row_sums(dz * dz))  # np.linalg.norm's arithmetic, without its overhead
    diff = outputs.take(ii, axis=-2) - outputs.take(jj, axis=-2)
    d_norm = np.sqrt(_row_sums(diff * diff))
    denom = d_norm + float(delta)
    ratios = z_dist / denom
    value = np.asarray(ratios.mean(axis=-1))

    def vjp(g):
        g_denom = -np.asarray(g / ratios.shape[-1])[..., None] * z_dist / (denom * denom)
        unit = np.divide(diff, d_norm[..., None], out=np.zeros_like(diff), where=d_norm[..., None] > 0)
        scaled = unit * g_denom[..., None]
        via_jj = _scatter_rows(jj, -scaled, n)
        via_ii = _scatter_rows(ii, scaled, n)
        return via_jj + via_ii

    return value, vjp


def _dominance(generated_logits: np.ndarray, reference_logits: np.ndarray):
    if generated_logits.shape != reference_logits.shape:
        raise ad.ShapeMismatchError(
            "confidence_dominance_term", generated_logits.shape, reference_logits.shape
        )
    y, msp_vjp = _max_softmax(generated_logits - reference_logits)
    value = np.asarray(y.mean(axis=-1))

    def vjp(g):
        return msp_vjp(np.asarray(g / y.shape[-1])[..., None])

    return value, vjp


def _squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distance from every row of ``a`` to every row of ``b``, with
    the bits of ``(diff * diff).sum(axis=-1)`` over the 3-D broadcast
    difference. numpy sums a last axis of fewer than 8 entries in order, so
    there one column at a time gives the same result without the 3-D
    temporary; from 8 columns numpy sums pairwise and the broadcast stays."""
    d = a.shape[-1]
    if d >= 8:
        diff = a[..., :, None, :] - b[..., None, :, :]
        return (diff * diff).sum(axis=-1)
    total = None
    for k in range(d):
        col = a[..., :, k, None] - b[..., None, :, k]
        col *= col
        if total is None:
            total = col
        else:
            total += col
    return total


def _proximity(generated: np.ndarray, normal_reference):
    reference = np.asarray(normal_reference, dtype=np.float64)
    if generated.ndim < 2 or reference.shape[:-2] != generated.shape[:-2] or reference.shape[-1:] != generated.shape[-1:]:
        raise ad.ShapeMismatchError("proximity_term", generated.shape, reference.shape)
    if reference.shape[-2] < 1:
        raise ValueError("proximity needs a non-empty normal reference")
    squared = _squared_distances(generated, reference)
    nearest = np.sqrt(squared, out=squared).argmin(axis=-1)
    diff = generated - np.take_along_axis(reference, nearest[..., None], axis=-2)
    norm = np.sqrt(_row_sums(diff * diff))
    value = np.asarray(norm.mean(axis=-1))

    def vjp(g):
        unit = np.divide(diff, norm[..., None], out=np.zeros_like(diff), where=norm[..., None] > 0)
        return unit * np.asarray(g / norm.shape[-1])[..., None, None]

    return value, vjp


def _term(core, t: Tensor, *args) -> Tensor:
    """One tape node for a term whose only differentiable input is ``t``."""
    value, vjp = core(t.data, *args)
    return ad.node(value, (t,), lambda g: (vjp(g),))


def max_softmax_prob(logits: Tensor) -> Tensor:
    """Rowwise max softmax probability, computed as exp(max - logsumexp)."""
    return _term(_max_softmax, logits)


def cross_entropy_term(logits: Tensor, labels) -> Tensor:
    """Mean negative log softmax of the labeled class, via log-sum-exp."""
    return _term(_cross_entropy, logits, labels)


def negative_training_term(logits: Tensor) -> Tensor:
    """Mean of -log(1 - p*) over outlier rows, p* the max softmax probability.

    1 - p* is clamped at 1e-12 before the log, so a confidently classified
    negative contributes a large but finite penalty (and zero gradient).
    """
    return _term(_negative_training, logits)


def dispersion_term(latents, outputs: Tensor, delta: float) -> Tensor:
    """Mean over all latent pairs of ||dz|| / (||dO|| + delta).

    Every row serves as anchor in turn and the per-anchor means are averaged,
    which equals the mean over unordered pairs by symmetry. The subgradient
    at coinciding outputs is 0.
    """
    return _term(_dispersion, outputs, latents, delta)


def confidence_dominance_term(generated_logits: Tensor, reference_logits: Tensor) -> Tensor:
    """Mean over row pairs of the max softmax component of the logit
    difference; 1/K when generated and reference logits coincide."""
    value, vjp = _dominance(generated_logits.data, reference_logits.data)

    def both(g):
        grad = vjp(g)
        return (
            grad if generated_logits.requires_grad else None,
            -grad if reference_logits.requires_grad else None,
        )

    return ad.node(value, (generated_logits, reference_logits), both)


def proximity_term(generated: Tensor, normal_reference: np.ndarray) -> Tensor:
    """Mean over generated rows of the distance to the nearest reference row.

    The nearest row is picked in numpy; on a tie the subgradient follows the
    first nearest row, and at distance 0 it is 0.
    """
    return _term(_proximity, generated, normal_reference)


def _stacked_batches(stack, groups, pools, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """The ``(E, rows, d)`` inputs (each entry's normals, then its
    negatives when ``lam`` > 0) and ``(E, n)`` labels of a stack's
    per-entry batches, which must all have one size and all draw negatives
    or none."""
    use_negatives = pools[0] is not None and pools[0].size > 0 and lam > 0
    n, m = len(groups[0]), pools[0].size if use_negatives else 0
    one = stack.members[0]
    parts = []
    for batch, neg in zip(groups, pools):
        draws = neg is not None and neg.size > 0 and lam > 0
        if len(batch) != n or draws != use_negatives or (draws and neg.size != m):
            raise ValueError("classifier_loss: every entry of a stack takes batches of one size, with negatives in all or none")
        # each group is checked before stacking, which would raise numpy's error instead
        one._check_input(batch.inputs)
        parts.append(batch.inputs)
        if use_negatives:
            one._check_input(neg.inputs)
            parts.append(neg.inputs)
    inputs = np.concatenate(parts).reshape(len(groups), n + m, stack.input_dim)
    return inputs, np.stack([batch.labels for batch in groups])


def classifier_loss(model, normals, negatives, weights: LossWeights) -> Tensor:
    """Cross-entropy plus lam * negative training; pure cross-entropy when the
    negative pool is empty or lam is zero. One tape node over the model's
    flat parameter leaf: the negatives are stacked below the normals for one
    forward and one backprop, so the gradient equals the sum of the two
    terms' gradients up to the order of the weight-gradient row sums.

    A stack (``Mlp.stack``) takes one LabeledBatch in ``normals`` and one
    OutlierPool or None in ``negatives`` per entry, all of one shape; its
    node holds one loss per entry (a scalar for a stack of one), each with
    the bits of that entry's own loss.
    """
    groups, pools = (normals, negatives) if model.members is not None else ((normals,), (negatives,))
    if len(groups) != len(pools):
        raise ValueError(f"classifier_loss: {len(groups)} normal batches for {len(pools)} negative pools")
    use_negatives = pools[0] is not None and pools[0].size > 0 and weights.lam > 0
    n = len(groups[0])
    if len(groups) == 1:
        inputs, labels = groups[0].inputs, groups[0].labels
        if use_negatives:
            # checked before stacking, which would raise numpy's error instead
            for x in (inputs, pools[0].inputs):
                model._check_input(x)
            inputs = np.concatenate([inputs, pools[0].inputs])
    else:
        inputs, labels = _stacked_batches(model, groups, pools, weights.lam)
    logits, cache = model.forward_with_cache(inputs)
    value, ce_vjp = _cross_entropy(logits[..., :n, :], labels)
    if use_negatives:
        neg_value, nt_vjp = _negative_training(logits[..., n:, :])
        value = value + neg_value * weights.lam

    def vjp(g):
        g_logits = np.concatenate([ce_vjp(g), nt_vjp(g * weights.lam)], axis=-2) if use_negatives else ce_vjp(g)
        grad = np.empty_like(model.flat.data)
        model.backprop(cache, g_logits, grad)
        return (grad,)

    return ad.node(value, (model.flat,), vjp)


def generator_loss(
    generator,
    frozen_classifier,
    latents,
    normal_reference,
    weights: LossWeights,
    pairing_seed: int | tuple | None = None,
) -> Tensor:
    """dispersion + mu * dominance + nu * proximity, differentiable only with
    respect to generator parameters (one tape node over its flat leaf).

    The dominance reference pairs each generated row with a uniformly drawn
    row of the normal reference; the pairing is reseeded per step from the
    latent batch's seed unless a pairing_seed is given; plain-array latents
    need one when ``weights.mu > 0``.

    Stacks (``Mlp.stack``) of generators and frozen classifiers take one
    LatentBatch in ``latents`` and one reference chunk in
    ``normal_reference`` per entry, all of one shape, each paired by its own
    latent seed (so no ``pairing_seed``); the node holds one loss per entry.
    """
    if not frozen_classifier.is_frozen:
        raise ValueError("classifier must be frozen (grad tracking disabled) during generator training")
    if generator.members is not None:
        if pairing_seed is not None:
            raise ValueError("generator_loss: a stack pairs each entry by its own latent seed, so it takes no pairing_seed")
        latents, entries = list(latents), len(generator.members)
        if len(latents) != entries or not all(isinstance(z, LatentBatch) for z in latents):
            raise ValueError(f"generator_loss: a stack of {entries} takes {entries} LatentBatches")
        if len(normal_reference) != entries:
            raise ValueError(f"generator_loss: a stack of {entries} takes {entries} reference chunks")
        seeds = [(*np.ravel(z.seed).tolist(), 0x9E37) for z in latents]
        lead = generator.flat.data.shape[:-1]
        values = np.reshape([z.values for z in latents], (*lead, -1, generator.latent_dim))
        reference = np.reshape(normal_reference, (*lead, -1, generator.data_dim)).astype(np.float64, copy=False)
    else:
        if weights.mu > 0 and pairing_seed is None and not isinstance(latents, LatentBatch):
            raise ValueError("generator_loss: plain-array latents need a pairing_seed (a LatentBatch carries its own seed)")
        seeds = [pairing_seed if pairing_seed is not None else (*np.ravel(getattr(latents, "seed", 0)).tolist(), 0x9E37)]
        values = getattr(latents, "values", latents)
        reference = np.asarray(normal_reference, dtype=np.float64)
    outputs, gen_cache = generator.forward_with_cache(values)
    value, disp_vjp = _dispersion(outputs, values, weights.delta)
    dom_vjp = prox_vjp = None
    if weights.mu > 0:
        idx = [np.random.default_rng(seed).integers(0, reference.shape[-2], outputs.shape[-2]) for seed in seeds]
        paired = np.take_along_axis(reference, np.reshape(idx, (*reference.shape[:-2], -1, 1)), axis=-2)
        gen_logits, clf_cache = frozen_classifier.forward_with_cache(outputs)
        ref_logits = frozen_classifier.forward_with_cache(paired)[0]
        dom_value, dom_vjp = _dominance(gen_logits, ref_logits)
        value = value + dom_value * weights.mu
    if weights.nu > 0:
        prox_value, prox_vjp = _proximity(outputs, reference)
        value = value + prox_value * weights.nu

    def vjp(g):
        g_out = disp_vjp(g)
        if dom_vjp is not None:
            g_out += frozen_classifier.backprop(clf_cache, dom_vjp(g * weights.mu), inputs=True)
        if prox_vjp is not None:
            g_out += prox_vjp(g * weights.nu)
        grad = np.empty_like(generator.flat.data)
        generator.backprop(gen_cache, g_out, grad)
        return (grad,)

    return ad.node(value, (generator.flat,), vjp)
