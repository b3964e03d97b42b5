"""Dense networks: the K-class detector head and the boundary generator.

Weights are He-style uniform (bound sqrt(2/fan_in)) from a seeded generator,
biases zero, so identical seed+sizes reproduce bit-identical parameters.
There is no softmax inside the models; all probability normalization lives
in the loss/scoring code through a single stable log-sum-exp path.

There is one forward arithmetic, ``Mlp.forward_with_cache``: the tape node
``forward`` wraps it for training, and ``forward_array`` (scoring, PGD, the
boundary pool) returns its outputs, so every caller sees the same bits.

All parameters of a model sit in one flat vector held by one leaf Tensor,
``Mlp.flat``. A training step's tape is one loss node over that leaf: its VJP
(``Mlp.backprop``) writes one flat gradient, ``backward`` adds it to one
``.grad`` buffer, and Adam updates one slice. Checkpoints and interval
bounds read the per-layer numpy views in ``Mlp.layers``.

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
    """Fully connected net whose parameters live in one flat float64 vector.

    ``flat`` is the model's one tape leaf: layer by layer, the weight
    ``(fan_out, fan_in)`` in row-major order, then the bias. ``layers`` holds
    the matching ``(W, b)`` numpy views into ``flat.data``, so writing
    through them (in place) writes the flat vector. Grad tracking is per
    model: ``freeze``/``unfreeze`` switch the flat leaf.
    """

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
        self._layout = []  # per layer: (weight slice, weight shape, bias slice) of the flat vector
        start = 0
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            w_at = slice(start, start + fan_out * fan_in)
            b_at = slice(w_at.stop, w_at.stop + fan_out)
            self._layout.append((w_at, (fan_out, fan_in), b_at))
            start = b_at.stop
        self.flat = Tensor(np.zeros(start), requires_grad=True)
        data = self.flat.data
        self.layers: list[tuple[np.ndarray, np.ndarray]] = [
            (data[w_at].reshape(shape), data[b_at]) for w_at, shape, b_at in self._layout
        ]
        rng = np.random.default_rng(self.seed)
        for (w, _), fan_in in zip(self.layers, sizes):
            bound = math.sqrt(2.0 / fan_in)
            w[...] = rng.uniform(-bound, bound, w.shape)

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_dim(self) -> int:
        return self.layer_sizes[-1]

    def parameters(self) -> list[Tensor]:
        """The model's one tape leaf, ``[flat]``."""
        return [self.flat]

    def zero_grad(self) -> None:
        self.flat.zero_grad()

    def freeze(self) -> None:
        self.flat.requires_grad = False
        self.flat.grad = None

    def unfreeze(self) -> None:
        self.flat.requires_grad = True
        self.flat.grad = np.zeros_like(self.flat.data)

    @property
    def is_frozen(self) -> bool:
        return not self.flat.requires_grad

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
        last = len(self.layers) - 1
        cache = []
        for i, (w, b) in enumerate(self.layers):
            wt = np.ascontiguousarray(w.T)
            cache.append((h, wt))
            h = h @ wt + b
            if i != last:
                h = self.activate(h)
        return h, cache

    def backprop(self, cache: list, g: np.ndarray, grad: np.ndarray | None = None, inputs: bool = False):
        """Backpropagate the output gradient ``g`` of a ``forward_with_cache`` pass.

        With ``grad`` (a buffer laid out like ``flat``), the parameter
        gradient is written into it. Returns the input gradient when
        ``inputs`` is true, else None (and skips its cost).
        """
        for i in range(len(cache) - 1, -1, -1):
            h, wt = cache[i]
            if grad is not None:
                w_at, shape, b_at = self._layout[i]
                grad[w_at].reshape(shape)[...] = (h.T @ g).T
                grad[b_at] = g.sum(axis=0)
            if i == 0 and not inputs:
                return None
            g = g @ wt.T
            if i > 0:  # h is the activation output of layer i - 1
                g = g * (h > 0.0) if self.activation == "relu" else g * (1.0 - h * h)
        return g

    def forward(self, x) -> Tensor:
        """Forward pass for a 2-D batch (rows are samples) as one ``mlp``
        tape node over the input and the flat parameter leaf."""
        xt = x if isinstance(x, Tensor) else Tensor(np.atleast_2d(np.asarray(x, dtype=np.float64)))
        out, cache = self.forward_with_cache(xt.data)
        flat = self.flat

        def vjp(g):
            grad = np.empty_like(flat.data) if flat.requires_grad else None
            return self.backprop(cache, g, grad, inputs=xt.requires_grad), grad

        return ad.node(out, "mlp", (xt, flat), vjp)

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
    for i, (w, b) in enumerate(model.layers):
        lines.append(f"W{i} " + " ".join(format(v, ".17g") for v in w.reshape(-1)))
        lines.append(f"b{i} " + " ".join(format(v, ".17g") for v in b))
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
    arrays = [a for layer in model.layers for a in layer]
    for (name, shape), line, arr in zip(expected, text[4:], arrays):
        key, _, rest = line.partition(" ")
        if key != name:
            raise ValueError(f"{path}: expected array '{name}', found '{key}'")
        values = _parse_array(path, name, rest)
        if values.size != int(np.prod(shape)):
            raise ValueError(f"{path}: array '{name}' has {values.size} values, expected {int(np.prod(shape))}")
        arr[...] = values.reshape(shape)
    return model
