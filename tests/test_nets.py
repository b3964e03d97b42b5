import copy
import ctypes
import math
import os
import pickle
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oodlab import autodiff as ad
from oodlab import nets
from oodlab.data import LatentBatch
from oodlab.losses import cross_entropy_term
from oodlab.nets import BoundaryGenerator, MlpClassifier, load_checkpoint, save_checkpoint


def _params_equal(a, b):
    return all(np.array_equal(x.data, y.data) for x, y in zip(a.parameters(), b.parameters()))


def test_seeded_init_is_bit_identical():
    assert _params_equal(MlpClassifier([2, 16, 3], seed=7), MlpClassifier([2, 16, 3], seed=7))


def test_weight_shapes_are_out_by_in():
    model = MlpClassifier([2, 16, 3], seed=0)
    assert model.layers[0][0].shape == (16, 2)
    assert model.layers[1][0].shape == (3, 16)
    assert model.layers[0][1].shape == (16,)


def test_weight_mean_near_zero_relative_to_bound():
    # 10^4 draws with fan_in 4: the empirical mean must sit within
    # +/- 0.05 * sqrt(2/fan_in) of zero.
    model = MlpClassifier([4, 2500], seed=123)
    bound = math.sqrt(2.0 / 4.0)
    w = model.layers[0][0]
    assert w.size == 10_000
    assert abs(w.mean()) < 0.05 * bound
    assert np.abs(w).max() <= bound


def test_zeroed_network_produces_zero_logits():
    model = MlpClassifier([2, 8, 3], seed=5)
    for p in model.parameters():
        p.data[...] = 0.0
    logits = model.forward_logits(np.array([[0.3, -0.7], [1.0, 2.0]]))
    np.testing.assert_array_equal(logits.data, np.zeros((2, 3)))


def test_single_linear_layer_identity():
    model = MlpClassifier([2, 2], seed=0)
    w, b = model.layers[0]
    w[...] = np.eye(2)
    b[...] = 0.0
    logits = model.forward_logits(np.array([[3.0, 4.0]]))
    np.testing.assert_array_equal(logits.data, [[3.0, 4.0]])


def test_forward_matches_straight_line_reevaluation():
    rng = np.random.default_rng(17)
    model = MlpClassifier([3, 8, 5, 4], activation="relu", seed=99)
    x = rng.normal(size=(6, 3))
    # independent re-evaluation with frozen parameters
    h = x.copy()
    for i, (w, b) in enumerate(model.layers):
        h = h @ w.T + b
        if i != len(model.layers) - 1:
            h = np.maximum(h, 0.0)
    np.testing.assert_array_equal(model.forward_logits(x).data, h)
    np.testing.assert_array_equal(model.forward_array(x), h)


@pytest.mark.parametrize("rows", [5, 24, 4096])
@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_forward_array_is_bit_equal_to_forward_with_cache(rows, activation):
    # h @ w.T and h @ contiguous(w.T) round differently at these batch sizes
    model = MlpClassifier([2, 48, 48, 3], activation=activation, seed=5)
    x = np.random.default_rng(rows).normal(size=(rows, 2))
    assert model.forward_array(x).tobytes() == model.forward_with_cache(x)[0].tobytes()
    assert model.forward_array(x).tobytes() == model.forward(x).data.tobytes()


def test_generator_identity_pass_through():
    gen = BoundaryGenerator([2, 2], seed=0)
    w, b = gen.layers[0]
    w[...] = np.eye(2)
    b[...] = 0.0
    latents = LatentBatch(np.random.default_rng(1).normal(size=(4, 2)), seed=1)
    np.testing.assert_array_equal(gen.generate(latents).data, latents.values)


def test_zero_parameter_generator_outputs_zeros():
    gen = BoundaryGenerator([3, 8, 2], seed=2)
    for p in gen.parameters():
        p.data[...] = 0.0
    out = gen.generate(np.random.default_rng(0).normal(size=(5, 3)))
    np.testing.assert_array_equal(out.data, np.zeros((5, 2)))


def test_generate_shape_contract():
    gen = BoundaryGenerator([3, 16, 2], seed=4)
    out = gen.generate(np.zeros((5, 3)))
    assert out.shape == (5, 2)
    assert gen.latent_dim == 3


def test_dimension_mismatch_is_loud():
    model = MlpClassifier([2, 4, 3], seed=0)
    with pytest.raises(ad.ShapeMismatchError):
        model.forward_logits(np.zeros((4, 5)))


def test_invalid_layer_sizes_rejected():
    with pytest.raises(ValueError):
        MlpClassifier([3], seed=0)
    with pytest.raises(ValueError):
        MlpClassifier([3, 0, 2], seed=0)
    with pytest.raises(ValueError):
        MlpClassifier([3, 2], activation="sigmoid", seed=0)


def test_forward_gradients_pass_grad_check():
    model = MlpClassifier([3, 6, 2], activation="tanh", seed=21)
    x = np.random.default_rng(8).normal(size=(4, 3))
    labels = np.array([0, 1, 1, 0])
    report = ad.check_gradients(
        lambda: cross_entropy_term(model.forward_logits(x), labels),
        model.parameters(),
        h=1e-5,
        rel_tol=1e-4,
    )
    assert report.passed, str(report)


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    model = MlpClassifier([2, 9, 3], activation="tanh", seed=31)
    path = tmp_path / "clf.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert isinstance(loaded, MlpClassifier)
    assert loaded.layer_sizes == model.layer_sizes
    assert loaded.activation == "tanh"
    assert _params_equal(model, loaded)
    # and a second save produces identical bytes
    path2 = tmp_path / "clf2.ckpt"
    save_checkpoint(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([MlpClassifier, BoundaryGenerator]),
    st.lists(st.integers(1, 6), min_size=2, max_size=4),
    st.sampled_from(["relu", "tanh"]),
    st.data(),
)
def test_checkpoint_round_trip_is_bit_exact_for_any_values(kind, sizes, activation, data):
    values = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, -0.0, 5e-324, -1e-310])
    model = kind(sizes, activation=activation, seed=0)
    for p in model.parameters():
        p.data[...] = data.draw(arrays(np.float64, p.data.shape, elements=values))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
    assert type(loaded) is kind
    assert loaded.layer_sizes == sizes and loaded.activation == activation
    for a, b in zip(model.parameters(), loaded.parameters()):
        assert a.data.tobytes() == b.data.tobytes()


def test_generator_checkpoint_keeps_kind(tmp_path):
    gen = BoundaryGenerator([4, 6, 2], seed=11)
    path = tmp_path / "gen.ckpt"
    save_checkpoint(gen, path)
    loaded = load_checkpoint(path)
    assert isinstance(loaded, BoundaryGenerator)
    assert loaded.latent_dim == 4


def test_load_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_text("not a checkpoint\n", encoding="utf-8")
    with pytest.raises(ValueError, match="not an oodlab checkpoint"):
        load_checkpoint(path)


@pytest.mark.parametrize("token, problem", [("nan", "non-finite"), ("inf", "non-finite"), ("-inf", "non-finite"), ("0x1p3", "non-numeric"), ("abc", "non-numeric")])
def test_load_checkpoint_rejects_bad_values_naming_file_and_array(tmp_path, token, problem):
    path = tmp_path / "clf.ckpt"
    save_checkpoint(MlpClassifier([2, 4, 3], seed=1), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    values = lines[6].split()  # "W1 v0 v1 ..."
    values[3] = token
    lines[6] = " ".join(values)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"clf.ckpt: array 'W1' has a {problem} value") as info:
        load_checkpoint(path)
    assert token in str(info.value)


def test_freeze_unfreeze_round_trip():
    model = MlpClassifier([2, 4, 2], seed=0)
    model.freeze()
    assert model.is_frozen
    assert all(p.grad is None for p in model.parameters())
    logits = model.forward_logits(np.zeros((1, 2)))
    assert not logits.requires_grad
    model.unfreeze()
    assert not model.is_frozen
    assert all(p.grad is not None for p in model.parameters())


# --- flat parameter storage ----------------------------------------------------


def _assert_layers_view_flat(model):
    """Every layer's W and b share memory with the flat leaf, laid out as W0,
    b0, W1, ... with each weight (fan_out, fan_in) row-major."""
    arrays = [a for layer in model.layers for a in layer]
    np.testing.assert_array_equal(np.concatenate([a.reshape(-1) for a in arrays]), model.flat.data)
    start = 0
    for a in arrays:
        assert np.shares_memory(a, model.flat.data)
        entries = a.reshape(-1)
        first = entries[0]
        entries[0] = 7.5
        assert model.flat.data[start] == 7.5
        entries[0] = first
        start += a.size
    assert start == model.flat.size


@pytest.mark.parametrize("kind, sizes", [(MlpClassifier, [2, 5, 4, 3]), (BoundaryGenerator, [3, 7, 2])])
def test_layers_are_views_of_the_flat_vector(kind, sizes):
    model = kind(sizes, seed=4)
    assert model.flat.size == sum(o * i + o for i, o in zip(sizes, sizes[1:]))
    assert [(w.shape, b.shape) for w, b in model.layers] == [((o, i), (o,)) for i, o in zip(sizes, sizes[1:])]
    assert model.parameters() == [model.flat]
    _assert_layers_view_flat(model)


def test_load_checkpoint_writes_through_to_the_flat_vector(tmp_path):
    model = MlpClassifier([2, 6, 3], activation="tanh", seed=8)
    save_checkpoint(model, tmp_path / "m.ckpt")
    loaded = load_checkpoint(tmp_path / "m.ckpt")
    assert loaded.flat.data.tobytes() == model.flat.data.tobytes()
    _assert_layers_view_flat(loaded)


@pytest.mark.parametrize("what", ["alone", "stack-member", "stack"])
@pytest.mark.parametrize(
    "duplicate", [copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))], ids=["deepcopy", "pickle"]
)
def test_a_copied_model_keeps_its_layers_as_views_of_its_flat_vector(duplicate, what):
    """A write to a copy's flat vector, as an Adam step makes, reaches the
    copy's forward pass and leaves the original alone. A copied stack of
    two keeps its copied members as the rows of its flat vector."""
    model = MlpClassifier([2, 5, 3], seed=6)
    if what != "alone":
        stack = MlpClassifier.stack([MlpClassifier([2, 5, 3], seed=7), model])
    if what == "stack":
        written = duplicate(stack)
        assert all(np.shares_memory(a, written.flat.data) for layer in written.layers for a in layer)
        assert [np.shares_memory(m.flat.data, row) for m, row in zip(written.members, written.flat.data)] == [True, True]
        assert not np.shares_memory(written.members[0].flat.data, written.flat.data[1])
        copied = written.members[1]
    else:
        written = copied = duplicate(model)
    assert copied.flat.data.tobytes() == model.flat.data.tobytes()
    _assert_layers_view_flat(copied)
    x = np.random.default_rng(2).normal(size=(4, 2))
    before = model.forward_array(x)
    written.flat.data += 0.25
    assert not np.array_equal(copied.forward_array(x), before)
    assert np.array_equal(model.forward_array(x), before)


def test_check_gradients_perturbs_through_the_flat_vector():
    model = MlpClassifier([2, 3, 2], activation="tanh", seed=9)
    x = np.random.default_rng(3).normal(size=(4, 2))
    labels = np.array([0, 1, 1, 0])
    original = model.flat.data.copy()
    seen = []

    def loss():
        seen.append(model.flat.data.copy())
        return cross_entropy_term(model.forward_logits(x), labels)

    assert ad.check_gradients(loss, model.parameters()).passed
    # the analytic pass, then each coordinate bumped up and down in turn
    assert len(seen) == 1 + 2 * model.flat.size
    for k, bumped in enumerate(seen[1:]):
        changed = np.flatnonzero(bumped != original)
        assert changed.tolist() == [k // 2]
    assert model.flat.data.tobytes() == original.tobytes()


def test_freeze_and_unfreeze_switch_the_flat_leaf():
    model = MlpClassifier([2, 4, 2], seed=0)
    model.freeze()
    assert model.flat.grad is None and not model.flat.requires_grad
    assert not model.forward_logits(np.zeros((1, 2))).requires_grad
    model.unfreeze()
    assert model.flat.requires_grad and model.flat.grad.shape == model.flat.shape and not model.flat.grad.any()
    _assert_layers_view_flat(model)


def test_forward_node_has_the_flat_leaf_as_its_only_parameter_parent():
    model = MlpClassifier([2, 4, 3], seed=1)
    x = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    out = model.forward(x)
    assert out.parents == (x, model.flat)
    ad.backward(ad.reduce_sum(out))
    assert x.grad.any() and model.flat.grad.any()


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("inputs", [False, True])
def test_backprop_leaves_the_output_gradient_and_cache_unchanged(activation, inputs):
    model = MlpClassifier([2, 8, 8, 3], activation=activation, seed=4)
    rng = np.random.default_rng(5)
    _, cache = model.forward_with_cache(rng.normal(size=(6, 2)))
    g = rng.normal(size=(6, 3))
    g_before = g.tobytes()
    cache_before = [(h.tobytes(), wt.tobytes()) for h, wt in cache]
    model.backprop(cache, g, np.empty_like(model.flat.data), inputs=inputs)
    assert g.tobytes() == g_before
    assert [(h.tobytes(), wt.tobytes()) for h, wt in cache] == cache_before


_HAS_MALLOPT = os.name == "posix" and hasattr(ctypes.CDLL(None), "mallopt")
_FAULT_PROBE = """
import resource
import numpy as np
from oodlab.nets import Mlp, MlpClassifier
from oodlab.scoring import RobustnessBudget, pgd_max_confidence_batch
{setup}
run()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range({repeats}):
    run()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _minor_faults(setup: str, repeats: int) -> int:
    """Minor page faults of ``repeats`` calls of the ``run`` that ``setup``
    defines, after one warm-up call, in a fresh interpreter: the heap policy
    is set at import, and this process's heap history (earlier tests) moves
    glibc's default thresholds."""
    package_root = str(Path(nets.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    probe = _FAULT_PROBE.format(setup=textwrap.dedent(setup), repeats=repeats)
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    return int(out.stdout.split()[-1])


@pytest.mark.skipif(not _HAS_MALLOPT, reason="glibc's mallopt is not available")
def test_stacked_passes_reuse_their_heap_pages():
    # a sweep's six-entry classifier stack on a 128-row batch: each pass frees
    # 295 KiB activations, which glibc's default thresholds unmap or trim and
    # fault back in on the next pass (about 280 faults per pass)
    setup = """
        stack = Mlp.stack([MlpClassifier([2, 48, 48, 3], activation="tanh", seed=s) for s in range(6)])
        rng = np.random.default_rng(0)
        x, g = rng.normal(size=(6, 128, 2)), rng.normal(size=(6, 128, 3))
        grad = np.empty_like(stack.flat.data)

        def run():
            _, cache = stack.forward_with_cache(x)
            stack.backprop(cache, g, grad)
    """
    assert _minor_faults(setup, 50) < 50


@pytest.mark.skipif(not _HAS_MALLOPT, reason="glibc's mallopt is not available")
def test_a_large_pgd_attack_reuses_its_heap_pages():
    setup = """
        model = MlpClassifier([2, 48, 48, 3], activation="tanh", seed=1)
        xs = np.random.default_rng(2).uniform(-1, 1, (4096, 2))
        budget = RobustnessBudget(epsilon=0.05, pgd_steps=40)

        def run():
            pgd_max_confidence_batch(model, xs, budget)
    """
    assert _minor_faults(setup, 1) < 50


def test_keep_heap_leaves_a_library_without_mallopt_alone():
    nets._keep_heap(object())  # returns without calling or raising
