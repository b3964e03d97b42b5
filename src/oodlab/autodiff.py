"""Reverse-mode automatic differentiation over small dense float64 tensors.

Values live in numpy arrays. A tape node is a tensor holding its value,
its parents and a vector-Jacobian product; leaves and constants hold no
parents and no VJP. Tensors carry monotonically increasing creation ids, so
walking recorded nodes in reverse creation order is a valid topological
order for backpropagation (parents are always created before children).
Only leaf tensors made with requires_grad=True own a ``.grad`` buffer;
gradients of intermediate nodes live in ``backward`` alone.

The tape is a thin driver. The MLP forward pass (``nets``) and each loss
term (``losses``) are one node each, built with ``node`` around a VJP
written out in numpy; ``check_gradients`` verifies those VJPs against
central finite differences, in one loop over every parameter entry
(``grad_check`` runs it over a fresh leaf). A model's parameters form one
flat leaf (``nets.Mlp.flat``), so a training step's tape is one loss node
over one leaf. The only generic primitives are ``add``, ``scalar_mul`` and
``reduce_sum``, for composing terms.

``add`` takes operands of equal shape or a scalar (shape ()) against
anything. Anything else raises ShapeMismatchError naming the primitive and
both shapes.

A computation graph belongs to one thread; tensors without grad tracking may
be shared read-only across threads. There is no internal locking.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "Tensor",
    "ShapeMismatchError",
    "node",
    "backward",
    "grad_check",
    "check_gradients",
    "GradCheckReport",
    "add",
    "scalar_mul",
    "reduce_sum",
]

_node_ids = itertools.count()


class ShapeMismatchError(ValueError):
    """Raised when operand shapes do not conform to a primitive."""

    def __init__(self, primitive: str, *shapes):
        rendered = " vs ".join(str(tuple(s)) for s in shapes)
        super().__init__(f"{primitive}: incompatible shapes {rendered}")


class Tensor:
    """A dense float64 array with optional gradient tracking.

    A recorded node holds its ``parents`` and its ``vjp``, which maps the
    gradient flowing into it to one gradient per parent (``None`` for a
    parent that needs none); leaves and constants hold ``()`` and ``None``.
    """

    __slots__ = ("data", "requires_grad", "grad", "parents", "vjp", "node_id")

    def __init__(self, data, requires_grad: bool = False):
        # np.ascontiguousarray would promote 0-d scalars to shape (1,)
        arr = np.asarray(data, dtype=np.float64, order="C")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(arr) if requires_grad else None
        self.parents: tuple[Tensor, ...] = ()
        self.vjp = None
        self.node_id = next(_node_ids)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad[...] = 0.0

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def node(data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    """A tensor holding ``data``, recorded on the tape when a parent requires
    grad; ``vjp`` is only called for a recorded node."""
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out.parents = parents
        out.vjp = vjp
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    if not (a.shape == b.shape or a.shape == () or b.shape == ()):
        raise ShapeMismatchError("add", a.shape, b.shape)
    # a scalar operand was broadcast, so its gradient is the sum of g
    return node(a.data + b.data, (a, b), lambda g: tuple(g if p.shape == g.shape else np.asarray(g.sum()) for p in (a, b)))


def scalar_mul(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return node(a.data * c, (a,), lambda g: (g * c,))


def reduce_sum(a: Tensor) -> Tensor:
    return node(np.asarray(a.data.sum()), (a,), lambda g: (np.full(a.shape, g),))


def backward(root: Tensor) -> None:
    """Accumulate d(root)/d(leaf) onto every requires_grad tensor's .grad.

    Repeated calls without zero_grad accumulate additively. Nodes are visited
    in reverse creation order, a valid topological order by construction.
    """
    if root.data.size != 1:
        raise ValueError(f"backward root must be a scalar, got shape {root.shape}")

    nodes: dict[int, Tensor] = {}
    stack = [root]
    while stack:
        t = stack.pop()
        if t.node_id in nodes:
            continue
        nodes[t.node_id] = t
        stack.extend(t.parents)

    grads: dict[int, np.ndarray] = {root.node_id: np.ones_like(root.data)}
    for nid in sorted(nodes, reverse=True):
        g = grads.pop(nid, None)
        if g is None:
            continue
        t = nodes[nid]
        if t.requires_grad and t.grad is not None:
            t.grad += g
        if t.vjp is None:
            continue
        for parent, pg in zip(t.parents, t.vjp(g)):
            if pg is None or not parent.requires_grad:
                continue
            acc = grads.get(parent.node_id)
            # kept uncopied: no gradient is written in place, so a VJP may hand one array to several parents
            grads[parent.node_id] = pg if acc is None else acc + pg


# --- gradient verification ---------------------------------------------------

@dataclass
class GradCheckReport:
    passed: bool
    max_abs_diff: float
    max_rel_diff: float
    worst_index: int  # into the checked entries laid end to end
    n_coords: int

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"grad_check {status}: max_rel={self.max_rel_diff:.3e} "
            f"max_abs={self.max_abs_diff:.3e} at index {self.worst_index} "
            f"({self.n_coords} coordinates)"
        )


_ABS_FALLBACK = 1e-8


def _compare_grads(analytic: np.ndarray, numeric: np.ndarray, rel_tol: float) -> GradCheckReport:
    abs_diff = np.abs(analytic - numeric)
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    ok = (abs_diff <= rel_tol * scale) | (abs_diff <= _ABS_FALLBACK)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(scale > 0, abs_diff / scale, 0.0)
    return GradCheckReport(
        passed=bool(ok.all()),
        max_abs_diff=float(abs_diff.max(initial=0.0)),
        max_rel_diff=float(rel.max(initial=0.0)),
        worst_index=int(np.argmax(abs_diff)),
        n_coords=int(analytic.size),
    )


def grad_check(f, point: Tensor, h: float = 1e-5, rel_tol: float = 1e-4) -> GradCheckReport:
    """``check_gradients`` for scalar-valued ``f`` at ``point``, over a fresh
    leaf holding a copy of it."""
    x = Tensor(point.data.copy(), requires_grad=True)
    return check_gradients(lambda: f(x), [x], h, rel_tol)


def check_gradients(loss_fn, params: Sequence[Tensor], h: float = 1e-5, rel_tol: float = 1e-4) -> GradCheckReport:
    """Compare the analytic gradient of ``loss_fn()`` in ``params`` against
    central finite differences with step ``h``.

    loss_fn rebuilds the scalar loss from the live parameter tensors; the
    finite-difference side perturbs one parameter entry at a time, in place.
    A coordinate passes when |analytic - numeric| is within rel_tol of the
    larger magnitude, with an absolute fallback of 1e-8 near zero. ``h`` and
    ``rel_tol`` must be positive and finite.
    """
    if not (h > 0 and math.isfinite(h)):
        raise ValueError(f"finite-difference step h must be positive and finite, got {h}")
    if not (rel_tol > 0 and math.isfinite(rel_tol)):
        raise ValueError(f"relative tolerance rel_tol must be positive and finite, got {rel_tol}")
    for p in params:
        p.zero_grad()
    root = loss_fn()
    if root.data.size != 1:
        raise ValueError("check_gradients requires a scalar-valued loss")
    backward(root)
    analytic = np.concatenate([p.grad.reshape(-1) for p in params])
    coords = [(p.data.reshape(-1), i) for p in params for i in range(p.data.size)]
    numeric = np.empty(len(coords))
    for k, (entries, i) in enumerate(coords):
        orig = entries[i]
        entries[i] = orig + h
        hi = loss_fn().item()
        entries[i] = orig - h
        lo = loss_fn().item()
        entries[i] = orig
        numeric[k] = (hi - lo) / (2.0 * h)
    return _compare_grads(analytic, numeric, rel_tol)
