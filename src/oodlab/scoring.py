"""Anomaly scoring, thresholding, and the clean/adversarial/certified AUROCs.

The anomaly score of a sample is the max softmax probability of the detector
logits; a sample is flagged out-of-distribution when the score falls below
the threshold tau. AUROC is the rank statistic P(in-score > out-score) with
ties counted 1/2. The adversarial AUROC replaces each out-sample's score by
its worst (largest) value found by projected sign-gradient ascent inside the
l-infinity ball; the guaranteed AUROC replaces it by a certified upper bound
from interval propagation. In-distribution scores stay clean throughout, so
for every out-sample clean <= adversarial <= certified, and the three AUROCs
are ordered gauroc <= aauroc <= auroc whenever epsilon > 0.

Nothing here uses the autodiff tape. Clean scores, every PGD iterate and the
interval centers come from the one forward pass training uses
(``Mlp.forward_with_cache``); the PGD input gradient is its ``backprop``
with the max-softmax VJP, and the softmax arithmetic is the loss code's.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .losses import _log_softmax_parts, _max_softmax

__all__ = [
    "IN_DISTRIBUTION",
    "OUT_OF_DISTRIBUTION",
    "RobustnessBudget",
    "ScoreSet",
    "MetricReport",
    "anomaly_score",
    "anomaly_scores",
    "classify_with_threshold",
    "calibrate_threshold",
    "auroc",
    "pgd_max_confidence",
    "pgd_max_confidence_batch",
    "ibp_logit_bounds",
    "certified_max_confidence",
    "evaluate_ood",
]

IN_DISTRIBUTION = "in-distribution"
OUT_OF_DISTRIBUTION = "ood"


@dataclass(frozen=True)
class RobustnessBudget:
    """l-infinity radius, attack parameters, and the decision threshold.

    pgd_step_size defaults to epsilon/10. input_box, when set, is a (lo, hi)
    pair clamping every input dimension.
    """

    epsilon: float = 0.05
    pgd_steps: int = 40
    pgd_step_size: float | None = None
    pgd_restarts: int = 0
    tau: float = 0.5
    input_box: tuple[float, float] | None = None

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        if self.pgd_steps < 1:
            raise ValueError("pgd_steps must be >= 1")
        if self.pgd_restarts < 0:
            raise ValueError("pgd_restarts must be >= 0")
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError("tau must lie in [0, 1]")
        if self.pgd_step_size is None:
            object.__setattr__(self, "pgd_step_size", self.epsilon / 10.0)
        elif self.pgd_step_size <= 0:
            raise ValueError("pgd_step_size must be positive")
        elif self.epsilon > 0 and self.pgd_step_size > self.epsilon:
            raise ValueError("pgd_step_size must not exceed epsilon")
        if self.input_box is not None:
            lo, hi = self.input_box
            if not lo < hi:
                raise ValueError(f"input_box is empty: [{lo}, {hi}]")


@dataclass
class ScoreSet:
    """Per-set anomaly scores plus the semantics of how they were obtained."""

    in_scores: np.ndarray
    out_scores: np.ndarray
    kind: str = "clean"  # clean | adversarial | certified-upper

    def __post_init__(self):
        self.in_scores = np.asarray(self.in_scores, dtype=np.float64)
        self.out_scores = np.asarray(self.out_scores, dtype=np.float64)
        for name, arr in (("in_scores", self.in_scores), ("out_scores", self.out_scores)):
            if arr.ndim != 1 or arr.size == 0:
                raise ValueError(f"{name} must be a non-empty 1-D array")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} has a non-finite value at index {int(np.argmin(np.isfinite(arr)))}")
            if arr.min() < 0.0 or arr.max() > 1.0:
                raise ValueError(f"{name} outside [0, 1]: min={arr.min()} max={arr.max()}")


@dataclass(frozen=True)
class MetricReport:
    """AUROC / adversarial AUROC / guaranteed AUROC for one evaluation."""

    auroc: float
    aauroc: float
    gauroc: float
    epsilon: float
    tau: float
    n_in: int
    n_out: int
    fingerprint: str = ""

    def __post_init__(self):
        for name in ("auroc", "aauroc", "gauroc"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0, 1]")
        if self.epsilon > 0 and not (self.gauroc <= self.aauroc <= self.auroc):
            raise ValueError(
                f"metric ordering violated: gauroc={self.gauroc} aauroc={self.aauroc} auroc={self.auroc}"
            )

    def as_dict(self) -> dict:
        return {
            "auroc": self.auroc,
            "aauroc": self.aauroc,
            "gauroc": self.gauroc,
            "epsilon": self.epsilon,
            "tau": self.tau,
            "n_in": self.n_in,
            "n_out": self.n_out,
            "fingerprint": self.fingerprint,
        }


def anomaly_scores(model, x: np.ndarray) -> np.ndarray:
    """Max softmax probability per row, via the stable log-sum-exp path."""
    return _max_softmax(model.forward_array(x))[0]


def anomaly_score(model, x) -> float:
    """Anomaly score of a single sample (scores near 1 look in-distribution)."""
    return float(anomaly_scores(model, np.atleast_2d(np.asarray(x, dtype=np.float64)))[0])


def classify_with_threshold(score: float, tau: float) -> str:
    """Out-of-distribution iff score < tau; a tie counts as in-distribution."""
    return OUT_OF_DISTRIBUTION if score < tau else IN_DISTRIBUTION


def calibrate_threshold(in_scores, target_tpr: float) -> float:
    """Largest tau keeping at least target_tpr of the in-scores at or above it."""
    scores = np.sort(np.asarray(in_scores, dtype=np.float64))[::-1]
    if scores.size == 0:
        raise ValueError("calibrate_threshold needs non-empty in_scores")
    if not 0.0 < target_tpr <= 1.0:
        raise ValueError("target_tpr must lie in (0, 1]")
    k = int(np.ceil(target_tpr * scores.size))
    return float(scores[k - 1])


def _rank_auroc(in_scores: np.ndarray, out_scores: np.ndarray) -> float:
    """Mann-Whitney AUROC by fractional-rank summation, ties counted 1/2."""
    n, m = in_scores.size, out_scores.size
    combined = np.concatenate([in_scores, out_scores])
    order = np.argsort(combined, kind="mergesort")
    sorted_vals = combined[order]
    # each run of equal scores [i, j] in sorted order shares the rank 0.5 * (i + j) + 1
    starts = np.flatnonzero(np.concatenate(([True], sorted_vals[1:] != sorted_vals[:-1])))
    ends = np.append(starts[1:], n + m) - 1
    ranks = np.empty(n + m, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    u = ranks[:n].sum() - n * (n + 1) / 2.0
    return float(u / (n * m))


def auroc(scores: ScoreSet) -> float:
    """Probability a random in-score exceeds a random out-score (ties 1/2)."""
    return _rank_auroc(scores.in_scores, scores.out_scores)


def _clip_ball(adv: np.ndarray, center: np.ndarray, budget: RobustnessBudget) -> np.ndarray:
    lo = center - budget.epsilon
    hi = center + budget.epsilon
    if budget.input_box is not None:
        lo = np.maximum(lo, budget.input_box[0])
        hi = np.minimum(hi, budget.input_box[1])
    return np.clip(adv, lo, hi)


def pgd_max_confidence_batch(
    model, x: np.ndarray, budget: RobustnessBudget, seed: int | tuple = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Projected sign-gradient ascent on the anomaly score, one row per sample.

    Returns ``(clean, adversarial)``: the scores of the clean start's first
    iterate (``anomaly_scores(model, x)``, bit for bit) and the max score over
    every iterate visited, so adversarial >= clean. One forward pass per
    iterate gives both its score and, through the max-softmax VJP, its input
    gradient, so a start costs pgd_steps + 1 passes; the model's parameters
    and their gradients are never touched. epsilon 0 short-circuits to the
    clean scores for both.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if budget.epsilon == 0:
        clean = anomaly_scores(model, x)
        return clean, clean
    starts = [x]
    if budget.pgd_restarts > 0:
        rng = np.random.default_rng(seed)
        for _ in range(budget.pgd_restarts):
            jitter = rng.uniform(-budget.epsilon, budget.epsilon, x.shape)
            starts.append(_clip_ball(x + jitter, x, budget))
    best = None
    for start in starts:
        adv = start.copy()
        for step in range(budget.pgd_steps + 1):
            logits, cache = model.forward_with_cache(adv)
            score, vjp = _max_softmax(logits)
            if best is None:
                clean = best = score
            else:
                best = np.maximum(best, score)
            if step == budget.pgd_steps:
                break
            grad = model.backprop(cache, vjp(np.ones(len(score))), inputs=True)
            adv = _clip_ball(adv + budget.pgd_step_size * np.sign(grad), x, budget)
    return clean, best


def pgd_max_confidence(model, x, budget: RobustnessBudget, seed: int | tuple = 0) -> float:
    """Adversarial (worst-case within the ball) anomaly score of one sample."""
    return float(pgd_max_confidence_batch(model, np.atleast_2d(np.asarray(x, dtype=np.float64)), budget, seed)[1][0])


def ibp_logit_bounds(model, x, epsilon: float, input_box: tuple[float, float] | None = None):
    """Sound per-logit intervals over the l-infinity ball of radius epsilon.

    Affine layers map intervals by center-radius arithmetic (center W.mid + b,
    radius |W|.rad); the monotone activation is applied endpoint-wise. The
    center pass uses the forward's arithmetic (``Mlp.forward_with_cache``),
    so with epsilon 0 the bounds collapse bit-exactly onto its logits.
    """
    if model.activation not in ("relu", "tanh"):
        raise ValueError(f"interval propagation supports relu/tanh, not '{model.activation}'")
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    h = np.atleast_2d(arr)
    lo = h - epsilon
    hi = h + epsilon
    if input_box is not None:
        lo = np.maximum(lo, input_box[0])
        hi = np.minimum(hi, input_box[1])
    last = len(model.layers) - 1
    for i, (w, b) in enumerate(model.layers):
        center = (lo + hi) / 2.0
        radius = (hi - lo) / 2.0
        center = center @ np.ascontiguousarray(w.T) + b
        radius = radius @ np.abs(w).T
        lo = center - radius
        hi = center + radius
        if i != last:
            lo = model.activate(lo)
            hi = model.activate(hi)
    if single:
        return lo[0], hi[0]
    return lo, hi


def certified_max_confidence(lo, hi):
    """Upper bound on the max softmax over any logit vector inside [lo, hi]:
    each candidate class takes its upper endpoint while rivals take lower."""
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    if lo.shape != hi.shape:
        raise ValueError(f"bound shapes differ: {lo.shape} vs {hi.shape}")
    if np.any(lo > hi):
        raise ValueError("inverted interval: lo > hi")
    single = lo.ndim == 1
    lo2 = np.atleast_2d(lo)
    hi2 = np.atleast_2d(hi)
    k = lo2.shape[1]
    best = np.zeros(lo2.shape[0])
    for cls in range(k):
        z = lo2.copy()
        z[:, cls] = hi2[:, cls]
        best = np.maximum(best, np.exp(hi2[:, cls] - _log_softmax_parts(z)[0]))
    return float(best[0]) if single else best


def evaluate_ood(
    model,
    in_inputs: np.ndarray,
    out_inputs: np.ndarray,
    budget: RobustnessBudget,
    fingerprint: str = "",
    dump_csv=None,
    attack_seed: int | tuple = 0,
) -> MetricReport:
    """Score both sets and report AUROC, AAUROC, and GAUROC in one pass.

    Only out-samples are attacked/certified; in-samples stay clean. When
    dump_csv is given, per-sample scores are written as
    sample_id,set,clean_score,adv_score,cert_upper.
    """
    in_inputs = np.atleast_2d(np.asarray(in_inputs, dtype=np.float64))
    out_inputs = np.atleast_2d(np.asarray(out_inputs, dtype=np.float64))
    if len(in_inputs) == 0 or len(out_inputs) == 0:
        raise ValueError("evaluate_ood needs non-empty in and out sets")
    for name, arr in (("in_inputs", in_inputs), ("out_inputs", out_inputs)):
        finite = np.isfinite(arr).all(axis=1)
        if not finite.all():
            raise ValueError(f"{name} has a non-finite value in row {int(np.argmin(finite))}")

    in_clean = anomaly_scores(model, in_inputs)
    out_clean, out_adv = pgd_max_confidence_batch(model, out_inputs, budget, seed=attack_seed)
    lo, hi = ibp_logit_bounds(model, out_inputs, budget.epsilon, input_box=budget.input_box)
    out_cert = certified_max_confidence(lo, hi)

    clean = ScoreSet(in_clean, out_clean, "clean")
    adversarial = ScoreSet(in_clean, out_adv, "adversarial")
    certified = ScoreSet(in_clean, out_cert, "certified-upper")
    report = MetricReport(
        auroc=auroc(clean),
        aauroc=auroc(adversarial),
        gauroc=auroc(certified),
        epsilon=budget.epsilon,
        tau=budget.tau,
        n_in=len(in_inputs),
        n_out=len(out_inputs),
        fingerprint=fingerprint,
    )
    if dump_csv is not None:
        lines = ["sample_id,set,clean_score,adv_score,cert_upper"]
        for i, s in enumerate(in_clean):
            v = format(s, ".17g")
            lines.append(f"in-{i},in,{v},{v},{v}")
        for i, (c, a, g) in enumerate(zip(out_clean, out_adv, certified.out_scores)):
            lines.append(f"out-{i},out,{format(c, '.17g')},{format(a, '.17g')},{format(g, '.17g')}")
        Path(dump_csv).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return report
