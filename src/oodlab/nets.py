"""Dense networks: the K-class detector head and the boundary generator.

Weights are He-style uniform (bound sqrt(2/fan_in)) from a seeded generator,
biases zero, so identical seed+sizes reproduce bit-identical parameters.
There is no softmax inside the models; all probability normalization lives
in the loss/scoring code through a single stable log-sum-exp path.

There is one forward arithmetic, ``Mlp.forward_with_cache``: the tape node
``forward`` wraps it for training, and ``forward_array`` (scoring, PGD, the
boundary pool) returns its outputs, so every caller sees the same bits.

Graph-free passes over many rows run in row blocks of ``BLOCK_ROWS``
(``row_blocks``), so a 48-wide activation is 384 KiB whatever the set size.
``forward_array``, PGD and interval bounds share these blocks, so their rows
see the same matmul shapes; a batch of at most ``BLOCK_ROWS`` rows is one
block and keeps the unblocked arithmetic, which covers every training
batch. Within a pass the bias add, tanh and activation derivative work in
place on the fresh matmul result.

Importing this module fixes glibc's heap policy for the process
(``_keep_heap``). By default glibc mmaps each allocation above a threshold
that starts at 128 KiB, and trims the top of the heap once 128 KiB of it is
free. Every training step and PGD iterate frees its activations (295 KiB
for a six-entry stack's 128-row batch, 384 KiB for a scoring block), so
glibc unmapped or trimmed them and faulted the same pages back in on the
next pass: 210k-290k minor page faults per reference sweep and 7k-15k per
scoring of three 4,096-row sets. With both thresholds fixed, freed pages
stay mapped and are reused. The cost is that freed memory is not returned
to the system until exit: peak RSS rose by 0.1-0.25 MiB (0.3-0.5%) on
the bench's sweep and eval workloads. Off glibc (no ``mallopt``) nothing
changes.

All parameters of a model sit in one flat vector held by one leaf Tensor,
``Mlp.flat``. A training step's tape is one loss node over that leaf: its VJP
(``Mlp.backprop``) writes one flat gradient, ``backward`` adds it to one
``.grad`` buffer, and Adam updates one slice. Checkpoints and interval
bounds read the per-layer numpy views in ``Mlp.layers``, which are computed
from ``flat`` on each access, so no copy of a model can hold stale views.

A stack (``Mlp.stack``) trains E models of one shape in lockstep: its flat
leaf is ``(E, P)``, entry e in row e, each member model rebound to a view
of its row, and its passes take ``(E, rows, d)`` batches. numpy's stacked
matmul makes one dgemm call per entry with that entry's 2-D operands, and
the bias add, activation and row sums run along the trailing axes, so each
entry gets the bits of its own 2-D pass. A pickled or copied stack keeps
its copied members as rows of its own leaf. A stack of one is its model's
own ``(P,)`` leaf, and its passes are the model's 2-D ones.

Models are mutable while training and need external synchronization. Scoring
reads a model's parameters without changing them or their grad flags.
"""

from __future__ import annotations

import ctypes
import math
import os
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

__all__ = [
    "ACTIVATIONS",
    "BLOCK_ROWS",
    "Mlp",
    "MlpClassifier",
    "BoundaryGenerator",
    "save_checkpoint",
    "load_checkpoint",
    "row_blocks",
]

ACTIVATIONS = ("relu", "tanh")
BLOCK_ROWS = 1024  # rows per graph-free block: 1,024 x 48 float64 is 384 KiB


def row_blocks(n: int) -> list[slice]:
    """Consecutive row slices of at most ``BLOCK_ROWS`` rows covering
    ``range(n)``; one (empty) slice when ``n`` is 0."""
    return [slice(i, min(i + BLOCK_ROWS, n)) for i in range(0, max(n, 1), BLOCK_ROWS)]


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameter numbers (malloc.h)


def _keep_heap(libc) -> None:
    """Fix glibc's mmap and trim thresholds, so freed pass arrays stay mapped.

    The mmap threshold is glibc's own dynamic maximum, 4 MiB per byte of a
    ``long`` (32 MiB on 64-bit), so every pass array comes from the heap,
    also a 48-entry stack's 2.4 MiB activation, while a larger allocation is
    still mapped on its own. The trim threshold is twice it, the ratio
    glibc's dynamic rule keeps, so the heap is trimmed only once 64 MiB at
    its top is free: more than a reference sweep's whole peak RSS. Setting
    either value also stops glibc from moving them. A ``libc`` without
    ``mallopt`` (not glibc) is left alone.
    """
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mmap_threshold = 4 * 1024 * 1024 * ctypes.sizeof(ctypes.c_long)
    mallopt(_M_MMAP_THRESHOLD, mmap_threshold)
    mallopt(_M_TRIM_THRESHOLD, 2 * mmap_threshold)


if os.name == "posix":  # CDLL(None), the process's own symbols, loads only there
    _keep_heap(ctypes.CDLL(None))


class Mlp:
    """Fully connected net whose parameters live in one flat float64 vector.

    ``flat`` is the model's one tape leaf: layer by layer, the weight
    ``(fan_out, fan_in)`` in row-major order, then the bias. ``layers`` returns
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
        self.members: list[Mlp] | None = None
        rng = np.random.default_rng(self.seed)
        for (w, _), fan_in in zip(self.layers, sizes):
            bound = math.sqrt(2.0 / fan_in)
            w[...] = rng.uniform(-bound, bound, w.shape)

    @property
    def layers(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-layer ``(W, b)`` views of ``flat.data``, computed on each
        access; a stack's leading entry axis leads every view."""
        data = self.flat.data
        lead = data.shape[:-1]
        return [(data[..., w_at].reshape(*lead, *shape), data[..., b_at]) for w_at, shape, b_at in self._layout]

    @classmethod
    def stack(cls, models: list[Mlp]) -> Mlp:
        """One model over the parameters of ``models`` (same sizes and
        activation), entry e in row e of an ``(E, P)`` flat leaf.

        Each model is rebound to a view of its row, so an update of the
        stack is an update of its members and the reverse. Its passes take
        ``(E, rows, d)`` inputs, entry by entry with the arithmetic of one
        model's pass. A stack of one holds its model's own flat leaf and
        takes its 2-D batches.
        """
        first = models[0]
        for m in models:
            if m.layer_sizes != first.layer_sizes or m.activation != first.activation:
                raise ValueError(
                    f"cannot stack a {m.layer_sizes} {m.activation} model with a {first.layer_sizes} {first.activation} one"
                )
        stack = cls.__new__(cls)
        stack.layer_sizes, stack.activation, stack.seed, stack._layout = (
            first.layer_sizes, first.activation, first.seed, first._layout,
        )
        stack.members = list(models)
        if len(models) == 1:
            stack.flat = first.flat
            return stack
        stack.flat = Tensor(np.stack([m.flat.data for m in models]), requires_grad=True)
        for m, row in zip(models, stack.flat.data):
            m.flat.data = row
        return stack

    def __setstate__(self, state: dict) -> None:
        """A pickled or copied stack of E > 1 rebinds its copied members to
        the rows of its own ``flat``, as ``stack`` does."""
        self.__dict__.update(state)
        if self.flat.data.ndim > 1:
            for m, row in zip(self.members, self.flat.data):
                m.flat.data = row

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
        """A batch is ``(rows, input_dim)``, and ``(E, rows, input_dim)`` for a stack of E."""
        if h.ndim < 2 or h.shape[:-2] != self.flat.data.shape[:-1] or h.shape[-1] != self.input_dim:
            raise ad.ShapeMismatchError(f"{self.kind}-forward", h.shape, (*self.flat.data.shape[:-1], self.input_dim))

    def activate(self, h: np.ndarray) -> np.ndarray:
        """The hidden-layer activation; relu's subgradient at 0 is 0."""
        return np.where(h > 0.0, h, 0.0) if self.activation == "relu" else np.tanh(h)

    def forward_with_cache(self, x) -> tuple[np.ndarray, list]:
        """Forward pass for a batch, plus the per-layer cache ``backprop`` needs.

        Each layer computes ``h @ wt + b`` with ``wt`` a contiguous copy of
        ``w.T``; ``h @ w.T`` sends small batches to OpenBLAS dgemm kernels
        that round differently. Training, scoring, PGD and the interval
        centers all use this arithmetic, and a stack's ``(E, rows, d)``
        batch runs it entry by entry (numpy's stacked matmul is one dgemm
        per entry). The bias add and activation write into the fresh matmul
        result (the same float operations as ``h @ wt + b`` and
        ``activate``); the input and cached arrays are never written.
        """
        h = np.ascontiguousarray(np.atleast_2d(np.asarray(x, dtype=np.float64)))
        self._check_input(h)
        last = len(self._layout) - 1
        cache = []
        for i, (w, b) in enumerate(self.layers):
            wt = np.ascontiguousarray(w.swapaxes(-1, -2))
            cache.append((h, wt))
            h = h @ wt
            h += b[..., None, :]
            if i == last:
                break
            if self.activation == "tanh":
                np.tanh(h, out=h)
            else:
                np.copyto(h, 0.0, where=~(h > 0.0))  # activate's relu, in place
        return h, cache

    def backprop(self, cache: list, g: np.ndarray, grad: np.ndarray | None = None, inputs: bool = False):
        """Backpropagate the output gradient ``g`` of a ``forward_with_cache`` pass.

        With ``grad`` (a buffer laid out like ``flat``), the parameter
        gradient is written into it. Returns the input gradient when
        ``inputs`` is true, else None (and skips its cost). The activation
        derivative multiplies the fresh ``g @ wt.T`` in place; the caller's
        ``g`` and the cache are never written.
        """
        for i in range(len(cache) - 1, -1, -1):
            h, wt = cache[i]
            if grad is not None:
                w_at, shape, b_at = self._layout[i]
                grad[..., w_at].reshape(*g.shape[:-2], *shape)[...] = (h.swapaxes(-1, -2) @ g).swapaxes(-1, -2)
                grad[..., b_at] = g.sum(axis=-2)
            if i == 0 and not inputs:
                return None
            g = g @ wt.swapaxes(-1, -2)
            if i == 0:
                break
            # h is the activation output of layer i - 1
            if self.activation == "relu":
                g *= h > 0.0
            else:
                d = h * h
                g *= np.subtract(1.0, d, out=d)
        return g

    def forward(self, x) -> Tensor:
        """Forward pass for a 2-D batch (rows are samples) as one tape node
        over the input and the flat parameter leaf."""
        xt = x if isinstance(x, Tensor) else Tensor(np.atleast_2d(np.asarray(x, dtype=np.float64)))
        out, cache = self.forward_with_cache(xt.data)
        flat = self.flat

        def vjp(g):
            grad = np.empty_like(flat.data) if flat.requires_grad else None
            return self.backprop(cache, g, grad, inputs=xt.requires_grad), grad

        return ad.node(out, (xt, flat), vjp)

    def forward_array(self, x: np.ndarray) -> np.ndarray:
        """Graph-free forward pass: the outputs of ``forward_with_cache``,
        one ``row_blocks`` block at a time."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return np.concatenate([self.forward_with_cache(x[rows])[0] for rows in row_blocks(len(x))])


class MlpClassifier(Mlp):
    """Discriminative model producing one logit per class."""

    kind = "classifier"

    def forward_logits(self, batch) -> Tensor:
        return self.forward(batch)


class BoundaryGenerator(Mlp):
    """Maps standard-normal latents to data-space boundary candidates."""

    kind = "generator"

    @property
    def latent_dim(self) -> int:
        return self.input_dim

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
    """Read a ``save_checkpoint`` file. Bytes that are not UTF-8, a
    malformed header, a missing or misnamed array, a wrong value count, a
    non-numeric or non-finite value, or a non-blank line after the last
    array raises ValueError naming the file (and the array or line)."""
    try:
        text = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: not UTF-8 text ({e})") from None
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
    for lineno, line in enumerate(text[4 + len(expected):], start=5 + len(expected)):
        if line.strip():
            raise ValueError(f"{path}: line {lineno}: '{line.split()[0]}' follows the last array of layer_sizes {sizes}")
    return model
