"""Randomized finite-difference verification of every objective term.

Instances are tiny (d <= 8, K <= 4, hidden <= 16, batches of 2-5) and are
resampled when they land within a margin of a non-differentiable point
(relu/max kinks, nearest-neighbor ties), where central differences are
meaningless. Used by the CLI grad-check subcommand and the acceptance suite.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, check_gradients, grad_check
from .data import LatentBatch
from .losses import (
    LossWeights,
    classifier_loss,
    confidence_dominance_term,
    cross_entropy_term,
    dispersion_term,
    generator_loss,
    negative_training_term,
    proximity_term,
)
from .nets import BoundaryGenerator, MlpClassifier

__all__ = ["loss_component_checks", "COMPONENT_NAMES"]

_MARGIN = 1e-4
_MAX_RESAMPLE = 50

def _dims(rng):
    n = int(rng.integers(2, 6))
    d = int(rng.integers(2, 9))
    k = int(rng.integers(2, 5))
    hidden = int(rng.integers(2, 17))
    return n, d, k, hidden


def _rowmax_gap_ok(mat: np.ndarray) -> bool:
    """True when each row's top two entries are separated (no max ties);
    ``mat`` has at least two columns (every instance has K >= 2)."""
    part = np.sort(mat, axis=1)
    return bool(np.min(part[:, -1] - part[:, -2]) > _MARGIN)


def _nearest_ok(points: np.ndarray, reference: np.ndarray) -> bool:
    """True when every point's nearest reference row is farther than the
    margin and, with two or more reference rows, nearer than the
    second-nearest by more than the margin (no nearest-neighbor ties)."""
    dists = np.sort(np.linalg.norm(points[:, None, :] - reference[None, :, :], axis=2), axis=1)
    return bool(dists[:, 0].min() > _MARGIN and (len(reference) == 1 or np.min(dists[:, 1] - dists[:, 0]) > _MARGIN))


def _net_margins_ok(model, x: np.ndarray) -> bool:
    """True when no hidden preactivation sits within the margin of a relu kink."""
    if model.activation != "relu":
        return True
    h = np.atleast_2d(x)
    for w, b in model.layers[:-1]:
        pre = h @ w.T + b
        if np.min(np.abs(pre)) <= _MARGIN:
            return False
        h = np.maximum(pre, 0.0)
    return True


def _check_cross_entropy(rng, h, rel_tol):
    n, _, k, _ = _dims(rng)
    logits = rng.normal(0.0, 2.0, (n, k))
    labels = rng.integers(0, k, n)
    return grad_check(lambda t: cross_entropy_term(t, labels), Tensor(logits), h, rel_tol)


def _check_negative_training(rng, h, rel_tol):
    for _ in range(_MAX_RESAMPLE):
        n, _, k, _ = _dims(rng)
        logits = rng.normal(0.0, 2.0, (n, k))
        if _rowmax_gap_ok(logits):
            return grad_check(negative_training_term, Tensor(logits), h, rel_tol)
    raise RuntimeError("could not sample a tie-free negative-training instance")


def _check_dominance(rng, h, rel_tol):
    for _ in range(_MAX_RESAMPLE):
        n, _, k, _ = _dims(rng)
        gen = rng.normal(0.0, 2.0, (n, k))
        ref = rng.normal(0.0, 2.0, (n, k))
        if _rowmax_gap_ok(gen - ref):
            return grad_check(
                lambda t: confidence_dominance_term(t, Tensor(ref)), Tensor(gen), h, rel_tol
            )
    raise RuntimeError("could not sample a tie-free dominance instance")


def _check_dispersion(rng, h, rel_tol):
    n, d, _, _ = _dims(rng)
    latents = LatentBatch(rng.normal(0.0, 1.0, (n, d)), seed=0)
    outputs = rng.normal(0.0, 1.0, (n, d))
    return grad_check(lambda t: dispersion_term(latents, t, 1e-3), Tensor(outputs), h, rel_tol)


def _check_proximity(rng, h, rel_tol):
    for _ in range(_MAX_RESAMPLE):
        n, d, _, _ = _dims(rng)
        q = int(rng.integers(1, 6))
        generated = rng.normal(0.0, 1.0, (n, d))
        reference = rng.normal(0.0, 1.0, (q, d))
        if _nearest_ok(generated, reference):
            return grad_check(lambda t: proximity_term(t, reference), Tensor(generated), h, rel_tol)
    raise RuntimeError("could not sample a tie-free proximity instance")


def _check_classifier_loss(rng, h, rel_tol):
    for _ in range(_MAX_RESAMPLE):
        n, d, k, hidden = _dims(rng)
        activation = "relu" if rng.integers(0, 2) else "tanh"
        model = MlpClassifier([d, hidden, k], activation=activation, seed=int(rng.integers(0, 2**31)))
        normals, labels = rng.normal(0.0, 1.0, (n, d)), rng.integers(0, k, n)
        m = int(rng.integers(1, 5))
        negatives = rng.normal(0.0, 1.5, (m, d))
        inputs = np.concatenate([normals, negatives])
        if _net_margins_ok(model, inputs) and _rowmax_gap_ok(model.forward_array(negatives)):
            weights = LossWeights(lam=float(rng.uniform(0.2, 2.0)))
            return check_gradients(
                lambda: classifier_loss(model, inputs, labels, weights),
                model.parameters(),
                h,
                rel_tol,
            )
    raise RuntimeError("could not sample a kink-free classifier-loss instance")


def _check_generator_loss(rng, h, rel_tol):
    for _ in range(_MAX_RESAMPLE):
        n, d, k, hidden = _dims(rng)
        latent_dim = int(rng.integers(2, 5))
        gen_act = "relu" if rng.integers(0, 2) else "tanh"
        generator = BoundaryGenerator([latent_dim, hidden, d], activation=gen_act, seed=int(rng.integers(0, 2**31)))
        classifier = MlpClassifier([d, hidden, k], activation="tanh", seed=int(rng.integers(0, 2**31)))
        classifier.freeze()
        latents = LatentBatch(rng.normal(0.0, 1.0, (n, latent_dim)), seed=int(rng.integers(0, 2**31)))
        reference = rng.normal(0.0, 1.0, (int(rng.integers(2, 6)), d))
        weights = LossWeights(mu=float(rng.uniform(0.2, 2.0)), nu=float(rng.uniform(0.2, 2.0)), delta=1e-3)

        outputs = generator.forward_array(latents.values)
        i, j = np.triu_indices(n, 1)
        pair_ok = np.linalg.norm(outputs[i] - outputs[j], axis=1).min() > _MARGIN
        gen_logits = classifier.forward_array(outputs)
        ref_all = classifier.forward_array(reference)
        seed_pair = (0, int(rng.integers(0, 2**31)))
        pairing = np.random.default_rng(seed_pair).integers(0, len(reference), n)
        dom_ok = _rowmax_gap_ok(gen_logits - ref_all[pairing])
        if _nearest_ok(outputs, reference) and pair_ok and dom_ok and _net_margins_ok(generator, latents.values):
            return check_gradients(
                lambda: generator_loss(generator, classifier, latents, reference, weights, pairing_seed=seed_pair),
                generator.parameters(),
                h,
                rel_tol,
            )
    raise RuntimeError("could not sample a kink-free generator-loss instance")


_CHECKS = {
    "cross_entropy_term": _check_cross_entropy,
    "negative_training_term": _check_negative_training,
    "confidence_dominance_term": _check_dominance,
    "dispersion_term": _check_dispersion,
    "proximity_term": _check_proximity,
    "classifier_loss": _check_classifier_loss,
    "generator_loss": _check_generator_loss,
}
COMPONENT_NAMES = tuple(_CHECKS)


def loss_component_checks(rng, instances: int, h: float = 1e-5, rel_tol: float = 1e-4):
    """Yield (component name, GradCheckReport) for ``instances`` random tiny
    instances of every objective term."""
    for name, check in _CHECKS.items():
        for _ in range(instances):
            yield name, check(rng, h, rel_tol)
