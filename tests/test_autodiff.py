import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oodlab import autodiff as ad
from oodlab.autodiff import ShapeMismatchError, Tensor
from oodlab.losses import (
    confidence_dominance_term,
    cross_entropy_term,
    dispersion_term,
    max_softmax_prob,
    negative_training_term,
    proximity_term,
)
from oodlab.nets import MlpClassifier

LN2 = 0.6931471805599453


def _square(x):
    """x * x as one hand-written node, the way nets and losses build theirs."""
    return ad.node(x.data * x.data, (x,), lambda g: (2.0 * x.data * g,))


def _net(*weights, activation="relu"):
    """An MLP with the given (fan_out, fan_in) weights and zero biases."""
    sizes = [weights[0].shape[1]] + [w.shape[0] for w in weights]
    model = MlpClassifier(sizes, activation=activation, seed=0)
    for (w, b), value in zip(model.layers, weights):
        w[...] = value
        b[...] = 0.0
    return model


def test_linear_identity():
    a = np.random.default_rng(0).normal(size=(3, 3))
    out = _net(np.eye(3)).forward(Tensor(a))
    np.testing.assert_array_equal(out.data, a)


def test_linear_gradients_match_finite_differences_in_weight_and_bias():
    rng = np.random.default_rng(3)
    model = MlpClassifier([3, 2], seed=4)
    model.layers[0][1][...] = rng.normal(size=2)
    x = rng.normal(size=(4, 3))
    labels = np.array([0, 1, 1, 0])
    report = ad.check_gradients(lambda: cross_entropy_term(model.forward(x), labels), model.parameters())
    assert report.passed, str(report)


def test_intermediate_nodes_carry_no_grad_buffer():
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    model = _net(np.ones((2, 3)))
    model.freeze()
    h = model.forward(x)
    ad.backward(ad.reduce_sum(h))
    assert h.requires_grad and h.grad is None
    np.testing.assert_array_equal(x.grad, np.full((2, 3), 2.0))


def test_relu_values():
    model = _net(np.eye(2), np.eye(2))
    np.testing.assert_array_equal(model.forward(np.array([[-1.0, 2.0]])).data, [[0.0, 2.0]])


def test_log_sum_exp_max_shift():
    # cross-entropy is logsumexp minus the picked logit; without the max
    # shift exp(1000) overflows
    out = cross_entropy_term(Tensor([[1000.0, 1000.0]]), [0])
    assert out.item() == pytest.approx(LN2, abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-50, 50), min_size=1, max_size=8),
    st.floats(-100, 100),
)
def test_log_sum_exp_shift_invariance(values, c):
    x = np.array([values])
    lhs = cross_entropy_term(Tensor(x), [0]).item()
    rhs = cross_entropy_term(Tensor(x - c), [0]).item()
    assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(c) + np.abs(x).max()))


def test_backward_square():
    x = Tensor([3.0], requires_grad=True)
    ad.backward(ad.reduce_sum(_square(x)))
    np.testing.assert_allclose(x.grad, [6.0])


def test_backward_relu_subgradient_zero_at_negative():
    x = Tensor([[-1.0, 2.0]], requires_grad=True)
    model = _net(np.eye(2), np.eye(2))
    model.freeze()
    ad.backward(ad.reduce_sum(model.forward(x)))
    np.testing.assert_array_equal(x.grad, [[0.0, 1.0]])


def test_backward_accumulates_across_calls():
    x = Tensor([2.0], requires_grad=True)
    for _ in range(2):
        ad.backward(ad.reduce_sum(_square(x)))
    np.testing.assert_allclose(x.grad, [8.0])


def test_backward_rejects_non_scalar_root():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        ad.backward(_square(x))


def test_shared_subexpression_grad():
    # d/dx of x*x + x*x = 4x
    x = Tensor([1.5], requires_grad=True)
    y = _square(x)
    ad.backward(ad.reduce_sum(ad.add(y, y)))
    np.testing.assert_allclose(x.grad, [6.0])


def test_a_vjp_may_hand_one_array_to_two_parents():
    """``backward`` keeps a parent's first gradient without copying it, so
    neither a leaf's ``.grad`` update nor a second contribution to an
    intermediate node may write into the array a VJP returned."""
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = Tensor([3.0, -1.0], requires_grad=True)
    m = ad.scalar_mul(y, 2.0)
    k = ad.scalar_mul(m, 3.0)  # created before n, so backward visits it after n
    shared = np.array([0.5, -4.0])
    n = ad.node(x.data + m.data, (x, m), lambda g: (shared, shared))  # a leaf and an intermediate node
    ad.backward(ad.reduce_sum(ad.add(n, k)))  # m: shared first, then 3 from k
    np.testing.assert_array_equal(shared, [0.5, -4.0])
    np.testing.assert_array_equal(x.grad, [0.5, -4.0])
    np.testing.assert_array_equal(y.grad, [7.0, -2.0])  # 2 * (shared + 3)


def _random_composite(rng):
    """An MLP node feeding every Tensor-level loss term."""
    model = MlpClassifier([4, 5, 3], activation="tanh", seed=int(rng.integers(0, 2**31)))
    model.freeze()
    ref = rng.normal(size=(2, 3))
    labels = rng.integers(0, 3, 2)
    latents = rng.normal(size=(2, 2))

    def f(x):
        h = model.forward(x)
        classifier_side = ad.add(cross_entropy_term(h, labels), negative_training_term(h))
        dominance = confidence_dominance_term(h, Tensor(ref))
        generator_side = ad.add(proximity_term(h, ref), dispersion_term(latents, h, 1e-3))
        return ad.add(ad.add(classifier_side, ad.scalar_mul(dominance, 0.5)), generator_side)

    return f


def test_composites_match_finite_differences_at_100_points():
    rng = np.random.default_rng(42)
    for _ in range(100):
        f = _random_composite(rng)
        point = Tensor(rng.normal(size=(2, 4)))
        report = ad.grad_check(f, point, h=1e-5, rel_tol=1e-4)
        assert report.passed, str(report)


def test_grad_check_passes_on_square():
    report = ad.grad_check(lambda t: ad.reduce_sum(_square(t)), Tensor([1.0]), h=1e-5)
    assert report.passed


def test_grad_check_detects_corrupted_gradient():
    def f(x):
        out = _square(x)
        if out.vjp is not None:  # only the analytic pass calls the VJP
            original = out.vjp
            out.vjp = lambda g: tuple(None if p is None else 1.1 * p for p in original(g))
        return ad.reduce_sum(out)

    report = ad.grad_check(f, Tensor([1.0, -2.0]), h=1e-5, rel_tol=1e-4)
    assert not report.passed
    assert report.max_rel_diff > 0.05


@pytest.mark.parametrize("h", [0.0, -1e-5])
def test_non_positive_step_is_rejected(h):
    x = Tensor([1.0], requires_grad=True)
    with pytest.raises(ValueError, match="step h must be positive"):
        ad.grad_check(lambda t: ad.reduce_sum(_square(t)), Tensor([1.0]), h=h)
    with pytest.raises(ValueError, match="step h must be positive"):
        ad.check_gradients(lambda: ad.reduce_sum(_square(x)), [x], h=h)


@pytest.mark.parametrize("h, rel_tol", [(float("nan"), 1e-4), (float("inf"), 1e-4), (1e-5, 0.0), (1e-5, -1.0), (1e-5, float("nan"))])
def test_non_finite_or_non_positive_tolerances_are_rejected(h, rel_tol):
    x = Tensor([1.0], requires_grad=True)
    with pytest.raises(ValueError, match="must be positive and finite"):
        ad.check_gradients(lambda: ad.reduce_sum(_square(x)), [x], h=h, rel_tol=rel_tol)


def test_worst_index_counts_across_params_laid_end_to_end():
    a = Tensor([1.0, -2.0], requires_grad=True)
    b = Tensor([[0.5, 3.0], [-1.0, 2.0]], requires_grad=True)
    wrong = np.array([[1.0, 1.0], [1.0, 1.3]])  # corrupt b's last entry only

    def loss():
        sq = _square(b)
        bad = ad.node(sq.data, (sq,), lambda g: (g * wrong,))
        return ad.add(ad.reduce_sum(_square(a)), ad.reduce_sum(bad))

    report = ad.check_gradients(loss, [a, b])
    assert not report.passed
    assert report.n_coords == 6 and report.worst_index == 5


def test_shape_error_names_primitive_and_shapes():
    with pytest.raises(ShapeMismatchError) as err:
        MlpClassifier([3, 2], seed=0).forward(Tensor(np.zeros((2, 2))))
    message = str(err.value)
    assert "classifier-forward" in message and "(2, 2)" in message


def test_add_takes_equal_shapes_or_a_scalar_operand():
    offset = Tensor(1.0, requires_grad=True)
    out = ad.add(offset, Tensor(np.full(5, -0.25)))
    np.testing.assert_array_equal(out.data, np.full(5, 0.75))
    ad.backward(ad.reduce_sum(out))
    assert offset.grad == 5.0
    with pytest.raises(ShapeMismatchError, match=r"add: .*\(4, 3\) vs \(3,\)"):
        ad.add(Tensor(np.zeros((4, 3))), Tensor(np.ones(3)))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-30, 30), min_size=2, max_size=12))
def test_primitives_keep_finite_inputs_finite(values):
    x = Tensor(np.array(values))
    row = Tensor(np.array([values]))
    column = Tensor(np.array(values)[:, None])
    for out in (
        ad.reduce_sum(x),
        ad.scalar_mul(x, 3.0),
        ad.add(x, x),
        MlpClassifier([1, 4, 2], activation="tanh", seed=1).forward(column),
        max_softmax_prob(row),
        cross_entropy_term(row, [0]),
        negative_training_term(row),
        confidence_dominance_term(row, Tensor(np.zeros_like(row.data))),
        proximity_term(row, np.zeros_like(row.data)),
        dispersion_term(np.arange(len(values), dtype=np.float64)[:, None], column, 1e-6),
    ):
        assert np.all(np.isfinite(out.data))


def test_reduce_max_axis_routes_gradient_to_first_argmax():
    # d max_softmax / d logits = p* (e_argmax - softmax); on a tie only the
    # first maximal logit gets the e_argmax part
    data = np.array([[1.0, 3.0, 3.0], [2.0, 0.0, 1.0]])
    x = Tensor(data, requires_grad=True)
    ad.backward(ad.reduce_sum(max_softmax_prob(x)))
    soft = np.exp(data) / np.exp(data).sum(axis=1, keepdims=True)
    first = np.eye(3)[[1, 0]]
    expected = soft.max(axis=1)[:, None] * (first - soft)
    np.testing.assert_allclose(x.grad, expected, rtol=1e-12, atol=1e-15)
    assert x.grad[0, 1] > 0 > x.grad[0, 2]


def test_l2_norm_zero_distance_has_zero_subgradient():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    ad.backward(proximity_term(a, np.ones((2, 3))))
    np.testing.assert_array_equal(a.grad, np.zeros((2, 3)))
    outputs = Tensor(np.ones((2, 3)), requires_grad=True)
    ad.backward(dispersion_term(np.array([[0.0], [1.0]]), outputs, 1e-3))
    np.testing.assert_array_equal(outputs.grad, np.zeros((2, 3)))


def test_computation_record_topology():
    x = Tensor([[1.0, 2.0]], requires_grad=True)
    y = max_softmax_prob(x)
    z = ad.reduce_sum(ad.add(y, Tensor([1.0])))
    assert y.parents == (x,) and y.vjp is not None
    assert z.vjp is not None
    assert all(p.node_id < y.node_id for p in y.parents)
