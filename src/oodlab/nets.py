"""Dense networks: the K-class detector head and the boundary generator.

Weights are He-style uniform (bound sqrt(2/fan_in)) from a seeded generator,
biases zero, so identical seed+sizes reproduce bit-identical parameters.
There is no softmax inside the models; all probability normalization lives
in the loss/scoring code through a single stable log-sum-exp path.

There is one forward arithmetic, ``Mlp.forward_with_cache``: the tape node
``forward`` wraps it for training, and ``forward_array`` (scoring, PGD, the
boundary pool) returns its outputs, so every caller sees the same bits.

Models are mutable while training and need external synchronization. Scoring
reads a model's parameters without changing them or their grad flags.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

__all__ = [
    "ACTIVATIONS",
    "Mlp",
    "MlpClassifier",
    "BoundaryGenerator",
    "save_checkpoint",
    "load_checkpoint",
]

ACTIVATIONS = ("relu", "tanh")


class Mlp:
    """Fully connected net with weights stored as (fan_out, fan_in) tensors."""

    kind = "mlp"

    def __init__(self, layer_sizes, activation: str = "relu", seed: int = 0):
        sizes = [int(s) for s in layer_sizes]
        if len(sizes) < 2:
            raise ValueError(f"need at least two layer sizes, got {sizes}")
        if any(s <= 0 for s in sizes):
            raise ValueError(f"layer sizes must be positive, got {sizes}")
        if activation not in ACTIVATIONS:
            raise ValueError(f"unsupported activation '{activation}' (relu or tanh)")
        self.layer_sizes = sizes
        self.activation = activation
        self.seed = int(seed)
        rng = np.random.default_rng(self.seed)
        self.weights: list[Tensor] = []
        self.biases: list[Tensor] = []
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            bound = math.sqrt(2.0 / fan_in)
            self.weights.append(Tensor(rng.uniform(-bound, bound, (fan_out, fan_in)), requires_grad=True))
            self.biases.append(Tensor(np.zeros(fan_out), requires_grad=True))

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_dim(self) -> int:
        return self.layer_sizes[-1]

    def parameters(self) -> list[Tensor]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def freeze(self) -> None:
        for p in self.parameters():
            p.requires_grad = False
            p.grad = None

    def unfreeze(self) -> None:
        for p in self.parameters():
            p.requires_grad = True
            p.grad = np.zeros_like(p.data)

    @property
    def is_frozen(self) -> bool:
        return not any(p.requires_grad for p in self.parameters())

    def snapshot(self) -> list[np.ndarray]:
        return [p.data.copy() for p in self.parameters()]

    def _check_input(self, h: np.ndarray) -> None:
        if h.ndim != 2 or h.shape[1] != self.input_dim:
            raise ad.ShapeMismatchError(f"{self.kind}-forward", h.shape, (self.input_dim,))

    def activate(self, h: np.ndarray) -> np.ndarray:
        """The hidden-layer activation; relu's subgradient at 0 is 0."""
        return np.where(h > 0.0, h, 0.0) if self.activation == "relu" else np.tanh(h)

    def forward_with_cache(self, x) -> tuple[np.ndarray, list]:
        """Forward pass for a 2-D batch, plus the per-layer cache ``backprop`` needs.

        Each layer computes ``h @ wt + b`` with ``wt`` a contiguous copy of
        ``w.T``; ``h @ w.T`` sends small batches to OpenBLAS dgemm kernels
        that round differently. Training, scoring, PGD and the interval
        centers all use this arithmetic.
        """
        h = np.ascontiguousarray(np.atleast_2d(np.asarray(x, dtype=np.float64)))
        self._check_input(h)
        last = len(self.weights) - 1
        cache = []
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            wt = np.ascontiguousarray(w.data.T)
            cache.append((h, wt))
            h = h @ wt + b.data
            if i != last:
                h = self.activate(h)
        return h, cache

    def backprop(self, cache: list, g: np.ndarray, inputs: bool = False, params: bool = True):
        """Gradients for the output gradient ``g`` of a ``forward_with_cache`` pass.

        Returns ``(input gradient or None, [dW0, db0, dW1, ...])``. With
        ``params`` true, parameters with requires_grad get a gradient (the
        others get None); ``params=False`` skips them all. The input gradient
        is computed only when ``inputs`` is true.
        """
        grads: list = [None] * (2 * len(self.weights))
        for i in range(len(self.weights) - 1, -1, -1):
            h, wt = cache[i]
            if params and self.weights[i].requires_grad:
                grads[2 * i] = (h.T @ g).T
            if params and self.biases[i].requires_grad:
                grads[2 * i + 1] = g.sum(axis=0)
            if i == 0 and not inputs:
                return None, grads
            g = g @ wt.T
            if i > 0:  # h is the activation output of layer i - 1
                g = g * (h > 0.0) if self.activation == "relu" else g * (1.0 - h * h)
        return g, grads

    def forward(self, x) -> Tensor:
        """Forward pass for a 2-D batch (rows are samples) as one ``mlp``
        tape node over the input and every parameter."""
        xt = x if isinstance(x, Tensor) else Tensor(np.atleast_2d(np.asarray(x, dtype=np.float64)))
        out, cache = self.forward_with_cache(xt.data)

        def vjp(g):
            g_in, grads = self.backprop(cache, g, inputs=xt.requires_grad)
            return (g_in, *grads)

        return ad.node(out, "mlp", (xt, *self.parameters()), vjp)

    def forward_array(self, x: np.ndarray) -> np.ndarray:
        """Graph-free forward pass: the outputs of ``forward_with_cache``."""
        return self.forward_with_cache(x)[0]


class MlpClassifier(Mlp):
    """Discriminative model producing one logit per class."""

    kind = "classifier"

    @property
    def num_classes(self) -> int:
        return self.output_dim

    def forward_logits(self, batch) -> Tensor:
        return self.forward(batch)


class BoundaryGenerator(Mlp):
    """Maps standard-normal latents to data-space boundary candidates."""

    kind = "generator"

    @property
    def latent_dim(self) -> int:
        return self.input_dim

    @property
    def data_dim(self) -> int:
        return self.output_dim

    def generate(self, latents) -> Tensor:
        values = getattr(latents, "values", latents)
        return self.forward(values)


_CHECKPOINT_HEADER = "oodlab-mlp v1"
_KINDS = {"classifier": MlpClassifier, "generator": BoundaryGenerator}


def save_checkpoint(model: Mlp, path) -> None:
    """Textual checkpoint: header, then one row-major array per line at 17
    significant digits (round-trips float64 bit-exactly)."""
    lines = [
        _CHECKPOINT_HEADER,
        f"kind {model.kind}",
        f"activation {model.activation}",
        "layer_sizes " + " ".join(str(s) for s in model.layer_sizes),
    ]
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        lines.append(f"W{i} " + " ".join(format(v, ".17g") for v in w.data.reshape(-1)))
        lines.append(f"b{i} " + " ".join(format(v, ".17g") for v in b.data.reshape(-1)))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse_array(path, name: str, text: str) -> np.ndarray:
    """The values of one checkpoint array; each must be a finite float."""
    tokens = text.split()
    try:
        values = np.array([float(v) for v in tokens], dtype=np.float64)
    except ValueError as e:
        raise ValueError(f"{path}: array '{name}' has a non-numeric value ({e})") from None
    finite = np.isfinite(values)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"{path}: array '{name}' has a non-finite value '{tokens[i]}' at index {i}")
    return values


def load_checkpoint(path) -> Mlp:
    """Read a ``save_checkpoint`` file. A malformed header, a missing or
    misnamed array, a wrong value count, or a non-numeric or non-finite
    value raises ValueError naming the file (and the array)."""
    text = Path(path).read_text(encoding="utf-8").splitlines()
    if not text or text[0] != _CHECKPOINT_HEADER:
        raise ValueError(f"{path}: not an oodlab checkpoint")
    fields = {}
    for line in text[1:4]:
        key, _, rest = line.partition(" ")
        fields[key] = rest
    kind = fields.get("kind", "")
    if kind not in _KINDS:
        raise ValueError(f"{path}: unknown model kind '{kind}'")
    try:
        sizes = [int(s) for s in fields.get("layer_sizes", "").split()]
        model = _KINDS[kind](sizes, activation=fields.get("activation", ""), seed=0)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    expected = []
    for i, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
        expected.append((f"W{i}", (fan_out, fan_in)))
        expected.append((f"b{i}", (fan_out,)))
    if len(text) < 4 + len(expected):
        raise ValueError(f"{path}: truncated checkpoint")
    params = model.parameters()
    for (name, shape), line, p in zip(expected, text[4:], params):
        key, _, rest = line.partition(" ")
        if key != name:
            raise ValueError(f"{path}: expected array '{name}', found '{key}'")
        values = _parse_array(path, name, rest)
        if values.size != int(np.prod(shape)):
            raise ValueError(f"{path}: array '{name}' has {values.size} values, expected {int(np.prod(shape))}")
        p.data[...] = values.reshape(shape)
    return model
