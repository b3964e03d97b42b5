"""Anomaly scoring and the clean/adversarial/certified AUROCs.

The anomaly score of a sample is the max softmax probability of the detector
logits (scores near 1 look in-distribution). The AUROCs rank the scores and
need no threshold: the budget's tau decides nothing and is only recorded in
reports. AUROC is the rank statistic P(in-score > out-score) with
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

Clean scores, PGD and interval bounds all run over the same row blocks
(``nets.row_blocks``, ``nets.BLOCK_ROWS`` rows each), so the PGD clean start
equals ``anomaly_scores`` and zero-radius bounds equal ``forward_array`` bit
for bit on any BLAS. Epsilon 0 runs the attack loop too: its first step is
a fixed point. With epsilon > 0 the bounds are widened by a bound on their
own rounding and the forward pass's, so clean <= adversarial <= certified
holds for the computed scores with no slack; at epsilon 0 nothing is
widened. With ``input_box`` set, a row to attack outside it has an empty
ball and raises a ValueError naming the row and the box.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .losses import _log_softmax_parts, _max_softmax
from .nets import row_blocks

# half the spacing of float64 at 1.0: the largest relative error of one rounding
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2

__all__ = [
    "RobustnessBudget",
    "ScoreSet",
    "MetricReport",
    "anomaly_scores",
    "auroc",
    "pgd_max_confidence_batch",
    "ibp_logit_bounds",
    "certified_max_confidence",
    "evaluate_ood",
    "report_scores",
]


@dataclass(frozen=True)
class RobustnessBudget:
    """l-infinity radius, attack parameters, and the threshold tau that
    reports record.

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
        if not (self.epsilon >= 0 and math.isfinite(self.epsilon)):
            raise ValueError(f"epsilon: must be finite and >= 0, got {self.epsilon}")
        if self.pgd_steps < 1:
            raise ValueError(f"pgd_steps: must be >= 1, got {self.pgd_steps}")
        if self.pgd_restarts < 0:
            raise ValueError(f"pgd_restarts: must be >= 0, got {self.pgd_restarts}")
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError(f"tau: must lie in [0, 1], got {self.tau}")
        if self.pgd_step_size is None:
            object.__setattr__(self, "pgd_step_size", self.epsilon / 10.0)
        elif not (self.pgd_step_size > 0 and math.isfinite(self.pgd_step_size)):
            raise ValueError(f"pgd_step_size: must be positive and finite, got {self.pgd_step_size}")
        elif self.epsilon > 0 and self.pgd_step_size > self.epsilon:
            raise ValueError(f"pgd_step_size: must not exceed epsilon {self.epsilon}, got {self.pgd_step_size}")
        if self.input_box is not None:
            lo, hi = self.input_box
            if not lo < hi:
                raise ValueError(f"input_box: must be a non-empty [lo, hi] range, got [{lo}, {hi}]")
            object.__setattr__(self, "input_box", (float(lo), float(hi)))


@dataclass
class ScoreSet:
    """The anomaly scores of an in-set and an out-set."""

    in_scores: np.ndarray
    out_scores: np.ndarray

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
        """Every field by name, in declaration order."""
        return asdict(self)


def anomaly_scores(model, x: np.ndarray) -> np.ndarray:
    """Max softmax probability per row, via the stable log-sum-exp path."""
    return _max_softmax(model.forward_array(x))[0]


def _rank_auroc(in_scores: np.ndarray, out_scores: np.ndarray) -> float:
    """Mann-Whitney AUROC, ties counted 1/2, by counting where each
    out-score falls among the sorted in-scores (which may come unsorted).

    ``left`` in-scores lie below an out-score and ``right`` at or below it,
    so it contributes n - (left + right) / 2 to U = n m - (sum left + sum
    right) / 2. Every term is a whole or half integer, so U is exact: the
    same float the rank-sum statistic gives.
    """
    n, m = in_scores.size, out_scores.size
    ranked = np.sort(in_scores)
    left = np.searchsorted(ranked, out_scores, side="left")
    right = np.searchsorted(ranked, out_scores, side="right")
    return float((n * m - (left.sum() + right.sum()) / 2.0) / (n * m))


def auroc(scores: ScoreSet) -> float:
    """Probability a random in-score exceeds a random out-score (ties 1/2)."""
    return _rank_auroc(scores.in_scores, scores.out_scores)


def _check_in_box(x: np.ndarray, input_box, box_name: str = "input_box") -> None:
    """Raise ValueError naming the first row of ``x`` outside ``input_box``."""
    if input_box is None:
        return
    inside = ((x >= input_box[0]) & (x <= input_box[1])).all(axis=1)
    if not inside.all():
        i = int(np.argmin(inside))
        raise ValueError(f"row {i} {x[i].tolist()} lies outside {box_name} [{input_box[0]}, {input_box[1]}]")


def _ball(center: np.ndarray, epsilon: float, input_box) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate bounds of the l-infinity ball around ``center``,
    clamped to ``input_box`` when it is set."""
    lo = center - epsilon
    hi = center + epsilon
    if input_box is not None:
        lo = np.maximum(lo, input_box[0])
        hi = np.minimum(hi, input_box[1])
    return lo, hi


def pgd_max_confidence_batch(
    model, x: np.ndarray, budget: RobustnessBudget, seed: int | tuple = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Projected sign-gradient ascent on the anomaly score, one row per sample.

    Returns ``(clean, adversarial)``: the scores of the clean start's first
    iterate (``anomaly_scores(model, x)``, bit for bit) and the max score over
    every iterate visited, so adversarial >= clean. One forward pass per
    iterate gives both its score and, through the max-softmax VJP, its input
    gradient; the model's parameters and their gradients are never touched.

    The attack runs block-major over ``row_blocks``, so a block's iterates
    stay cache-resident: all starts and steps of one block, then the next.
    The restart jitter is drawn once for all of ``x`` before the block loop,
    and each block's ball bounds are computed once. A start's first pass
    covers its whole block; after that a pass covers only the live rows. A
    row leaves the live set when its next iterate equals its current one (a
    fixed point) or its previous one (a 2-cycle): every later iterate then
    repeats a point already scored. So a start costs at most pgd_steps + 1
    passes.

    Rows never interact, but BLAS may round a row's matmul differently with
    the number of rows in the pass, so a shorter last block or a shrunken
    live set can change an adversarial score in the last bits against a run
    without the early exit. The clean scores are unaffected: the first pass
    is always the full block.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    _check_in_box(x, budget.input_box)
    starts = [x]
    if budget.pgd_restarts > 0:
        lo, hi = _ball(x, budget.epsilon, budget.input_box)
        rng = np.random.default_rng(seed)
        for _ in range(budget.pgd_restarts):
            jitter = rng.uniform(-budget.epsilon, budget.epsilon, x.shape)
            starts.append(np.clip(x + jitter, lo, hi))
    clean = np.empty(len(x))
    best = np.empty(len(x))
    for rows in row_blocks(len(x)):
        block_lo, block_hi = _ball(x[rows], budget.epsilon, budget.input_box)
        block_best = None
        for start in starts:
            # live: the block rows still moving, with their iterate, the one
            # before it and their ball bounds, compacted alike
            adv = prev = start[rows]
            live = np.arange(len(adv))
            lo, hi = block_lo, block_hi
            for step in range(budget.pgd_steps + 1):
                logits, cache = model.forward_with_cache(adv)
                score, vjp = _max_softmax(logits)
                if block_best is None:
                    clean[rows] = block_best = score
                else:
                    block_best[live] = np.maximum(block_best[live], score)
                if step == budget.pgd_steps:
                    break
                # clip(adv + step_size * sign(grad)), in the fresh gradient's buffer
                grad = model.backprop(cache, vjp(np.ones(len(score))), inputs=True)
                np.sign(grad, out=grad)
                grad *= budget.pgd_step_size
                grad += adv
                nxt = np.clip(grad, lo, hi, out=grad)
                # a row whose next iterate repeats its current (fixed point) or
                # previous one (2-cycle) only revisits points already scored
                moving = (nxt != adv).any(axis=1) & (nxt != prev).any(axis=1)
                prev, adv = adv, nxt
                if not moving.any():
                    break
                if not moving.all():
                    live, adv, prev, lo, hi = live[moving], adv[moving], prev[moving], lo[moving], hi[moving]
        best[rows] = block_best
    return clean, best


def ibp_logit_bounds(model, x, epsilon: float, input_box: tuple[float, float] | None = None):
    """Sound per-logit intervals over the l-infinity ball of radius epsilon.

    Affine layers map intervals by center-radius arithmetic (center W.mid + b,
    radius |W|.rad); the monotone activation is applied endpoint-wise. The
    center pass uses the forward's arithmetic (``Mlp.forward_with_cache``)
    over the same row blocks as ``forward_array``, so with epsilon 0 the
    bounds collapse bit-exactly onto its logits.

    With epsilon > 0 the bounds hold for the rounded logits ``forward_array``
    computes in the ball: with s = (2 fan_in + 8) u (u the unit roundoff), an
    affine layer maps the radius r + s (r + |c|), then adds s (|b| + |W.c + b|),
    and activation endpoints move outward by 8u |value| (two tanh errors).
    """
    if model.activation not in ("relu", "tanh"):
        raise ValueError(f"interval propagation supports relu/tanh, not '{model.activation}'")
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    x2 = np.atleast_2d(arr)
    _check_in_box(x2, input_box)
    layers = [(np.ascontiguousarray(w.T), np.abs(w).T, b) for w, b in model.layers]
    last = len(layers) - 1
    lo_out = np.empty((len(x2), model.output_dim))
    hi_out = np.empty_like(lo_out)
    for rows in row_blocks(len(x2)):
        lo, hi = _ball(x2[rows], epsilon, input_box)
        for i, (wt, abs_wt, b) in enumerate(layers):
            center = (lo + hi) / 2.0
            radius = (hi - lo) / 2.0
            if epsilon > 0:
                spread = (2 * len(wt) + 8) * _UNIT_ROUNDOFF
                radius += spread * (radius + np.abs(center))
            center = center @ wt + b
            radius = radius @ abs_wt
            if epsilon > 0:
                radius += spread * (np.abs(b) + np.abs(center))
            lo = center - radius
            hi = center + radius
            if i != last:
                lo = model.activate(lo)
                hi = model.activate(hi)
                if epsilon > 0:
                    lo -= 8 * _UNIT_ROUNDOFF * np.abs(lo)
                    hi += 8 * _UNIT_ROUNDOFF * np.abs(hi)
        lo_out[rows] = lo
        hi_out[rows] = hi
    if single:
        return lo_out[0], hi_out[0]
    return lo_out, hi_out


def certified_max_confidence(lo, hi):
    """Upper bound on the max softmax over any logit vector inside [lo, hi]:
    each candidate class takes its upper endpoint while rivals take lower.
    A row with lo < hi somewhere is scaled by 1 + 16u (max|logit| + K + 2),
    capped at 1, for the rounding of this softmax and ``anomaly_scores``'."""
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
    size = np.zeros(lo2.shape[0])  # max |logit| over the row's box, as lo <= hi
    wide = np.zeros(lo2.shape[0], dtype=bool)  # a zero-width row is scored as anomaly_scores scores it
    for cls in range(k):
        z = lo2.copy()
        z[:, cls] = hi2[:, cls]
        best = np.maximum(best, np.exp(hi2[:, cls] - _log_softmax_parts(z)[0]))
        size = np.maximum(size, np.maximum(-lo2[:, cls], hi2[:, cls]))
        wide |= lo2[:, cls] < hi2[:, cls]
    best = np.minimum(best * (1.0 + 16 * _UNIT_ROUNDOFF * (size + k + 2) * wide), 1.0)
    return float(best[0]) if single else best


def evaluate_ood(
    model,
    in_inputs: np.ndarray,
    out_inputs: np.ndarray,
    budget: RobustnessBudget,
    fingerprint: str = "",
    dump_csv=None,
) -> MetricReport:
    """Score both sets with the model and report AUROC, AAUROC, and GAUROC.

    Only out-samples are attacked/certified; in-samples stay clean, and are
    scored before the attack runs. The PGD attack runs at its default seed,
    0, so a report is a pure function of the model, the sets and the budget.
    ``report_scores`` ranks the four score arrays and, when dump_csv is
    given, writes the per-sample dump.
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
    out_clean, out_adv = pgd_max_confidence_batch(model, out_inputs, budget)
    lo, hi = ibp_logit_bounds(model, out_inputs, budget.epsilon, input_box=budget.input_box)
    out_cert = certified_max_confidence(lo, hi)
    return report_scores(in_clean, out_clean, out_adv, out_cert, budget, fingerprint=fingerprint, dump_csv=dump_csv)


def report_scores(
    in_scores, out_clean, out_adv, out_cert, budget: RobustnessBudget, *, fingerprint: str, dump_csv
) -> MetricReport:
    """The report of any detector's scores: ``in_scores`` on the in-set and,
    row for row on the out-set, its clean, adversarial and certified scores.

    Each out-array is checked against the in-scores as a ``ScoreSet`` and
    ranked by ``auroc``. When dump_csv is given, per-sample scores are
    written as sample_id,set,clean_score,adv_score,cert_upper at 17
    significant digits; an in-sample's three columns repeat its one score.
    """
    clean, adversarial, certified = (ScoreSet(in_scores, out) for out in (out_clean, out_adv, out_cert))
    sizes = [clean.out_scores.size, adversarial.out_scores.size, certified.out_scores.size]
    if len(set(sizes)) > 1:
        raise ValueError(f"out-score arrays differ in length (clean, adversarial, certified): {sizes}")
    report = MetricReport(
        auroc=auroc(clean), aauroc=auroc(adversarial), gauroc=auroc(certified), epsilon=budget.epsilon, tau=budget.tau,
        n_in=clean.in_scores.size, n_out=sizes[0], fingerprint=fingerprint,
    )
    if dump_csv is not None:
        # each in-score is formatted once; one %-template covers all out-rows
        # (its %d prints the float row index as an integer)
        ins = "".join(f"in-{i},in,{v},{v},{v}\n" for i, v in enumerate("%.17g" % s for s in clean.in_scores.tolist()))
        rows = np.column_stack([np.arange(report.n_out), clean.out_scores, adversarial.out_scores, certified.out_scores])
        outs = ("out-%d,out,%.17g,%.17g,%.17g\n" * len(rows)) % tuple(rows.ravel().tolist())
        Path(dump_csv).write_text("sample_id,set,clean_score,adv_score,cert_upper\n" + ins + outs, encoding="utf-8")
    return report
