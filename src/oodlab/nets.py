"""Dense networks: the K-class detector head and the boundary generator.

Weights are He-style uniform (bound sqrt(2/fan_in)) from a seeded generator,
biases zero, so identical seed+sizes reproduce bit-identical parameters.
There is no softmax inside the models; all probability normalization lives
in the loss/scoring code through a single stable log-sum-exp path.

Models are mutable while training and need external synchronization; a
frozen model (grad tracking off) is safely shareable read-only.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

__all__ = [
    "Mlp",
    "MlpClassifier",
    "BoundaryGenerator",
    "save_checkpoint",
    "load_checkpoint",
]

_ACTIVATIONS = {"relu": ad.relu, "tanh": ad.tanh}


class Mlp:
    """Fully connected net with weights stored as (fan_out, fan_in) tensors."""

    kind = "mlp"

    def __init__(self, layer_sizes, activation: str = "relu", seed: int = 0):
        sizes = [int(s) for s in layer_sizes]
        if len(sizes) < 2:
            raise ValueError(f"need at least two layer sizes, got {sizes}")
        if any(s <= 0 for s in sizes):
            raise ValueError(f"layer sizes must be positive, got {sizes}")
        if activation not in _ACTIVATIONS:
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

    def forward(self, x) -> Tensor:
        """Forward pass for a 2-D batch (rows are samples)."""
        h = x if isinstance(x, Tensor) else Tensor(np.atleast_2d(np.asarray(x, dtype=np.float64)))
        if h.data.ndim != 2 or h.shape[1] != self.input_dim:
            raise ad.ShapeMismatchError(f"{self.kind}-forward", h.shape, (self.input_dim,))
        act = _ACTIVATIONS[self.activation]
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = ad.linear(h, w, b)
            if i != last:
                h = act(h)
        return h

    def forward_array(self, x: np.ndarray) -> np.ndarray:
        """Graph-free forward pass, same operation order as forward()."""
        h = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if h.shape[1] != self.input_dim:
            raise ad.ShapeMismatchError(f"{self.kind}-forward", h.shape, (self.input_dim,))
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w.data.T + b.data
            if i != last:
                h = np.maximum(h, 0.0) if self.activation == "relu" else np.tanh(h)
        return h


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


def load_checkpoint(path) -> Mlp:
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
    sizes = [int(s) for s in fields["layer_sizes"].split()]
    model = _KINDS[kind](sizes, activation=fields["activation"], seed=0)
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
        values = np.array([float(v) for v in rest.split()], dtype=np.float64)
        if values.size != int(np.prod(shape)):
            raise ValueError(f"{path}: array '{name}' has {values.size} values, expected {int(np.prod(shape))}")
        p.data[...] = values.reshape(shape)
    return model
