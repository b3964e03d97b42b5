import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oodlab import autodiff as ad
from oodlab.autodiff import DomainError, ShapeMismatchError, Tensor

LN2 = 0.6931471805599453


def test_linear_identity():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 3))
    out = ad.linear(Tensor(a), Tensor(np.eye(3)), Tensor(np.zeros(3)))
    np.testing.assert_array_equal(out.data, a)


def test_linear_gradients_match_finite_differences_in_weight_and_bias():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 3))
    w = rng.normal(size=(2, 3))
    b = rng.normal(size=2)

    def loss(wt, bt):
        return ad.reduce_sum(ad.tanh(ad.linear(Tensor(x), wt, bt)))

    assert ad.grad_check(lambda t: loss(t, Tensor(b)), Tensor(w)).passed
    assert ad.grad_check(lambda t: loss(Tensor(w), t), Tensor(b)).passed


def test_intermediate_nodes_carry_no_grad_buffer():
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    h = ad.relu(ad.linear(x, Tensor(np.ones((2, 3))), Tensor(np.zeros(2))))
    ad.backward(ad.reduce_sum(h))
    assert h.requires_grad and h.grad is None
    np.testing.assert_array_equal(x.grad, np.full((2, 3), 2.0))


def test_relu_values():
    out = ad.relu(Tensor([-1.0, 2.0]))
    np.testing.assert_array_equal(out.data, [0.0, 2.0])


def test_log_sum_exp_max_shift():
    out = ad.log_sum_exp(Tensor([1000.0, 1000.0]))
    assert out.item() == pytest.approx(1000.0 + LN2, abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-50, 50), min_size=1, max_size=8),
    st.floats(-100, 100),
)
def test_log_sum_exp_shift_invariance(values, c):
    x = np.array(values)
    lhs = ad.log_sum_exp(Tensor(x)).item()
    rhs = ad.log_sum_exp(Tensor(x - c)).item() + c
    assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(lhs)))


def test_backward_square():
    x = Tensor([3.0], requires_grad=True)
    ad.backward(ad.reduce_sum(ad.mul(x, x)))
    np.testing.assert_allclose(x.grad, [6.0])


def test_backward_relu_subgradient_zero_at_negative():
    x = Tensor([-1.0, 2.0], requires_grad=True)
    ad.backward(ad.reduce_sum(ad.relu(x)))
    np.testing.assert_array_equal(x.grad, [0.0, 1.0])


def test_backward_accumulates_across_calls():
    x = Tensor([2.0], requires_grad=True)
    for _ in range(2):
        ad.backward(ad.reduce_sum(ad.mul(x, x)))
    np.testing.assert_allclose(x.grad, [8.0])


def test_backward_rejects_non_scalar_root():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        ad.backward(ad.mul(x, x))


def test_shared_subexpression_grad():
    # d/dx of x*x + x*x = 4x
    x = Tensor([1.5], requires_grad=True)
    y = ad.mul(x, x)
    ad.backward(ad.reduce_sum(ad.add(y, y)))
    np.testing.assert_allclose(x.grad, [6.0])


def _random_composite(rng):
    """A three-layer composite touching most primitive kinds."""
    w1 = rng.normal(size=(5, 4))
    b1 = rng.normal(size=5)
    w2 = rng.normal(size=(3, 5))
    ref = rng.normal(size=(2, 3))

    def f(x):
        h = ad.tanh(ad.linear(x, Tensor(w1), Tensor(b1)))
        h = ad.linear(h, Tensor(w2), Tensor(np.zeros(3)))
        scores = ad.exp(ad.sub(ad.reduce_max(h, axis=1), ad.log_sum_exp(h, axis=1)))
        dist = ad.l2_norm_of_difference(h, Tensor(ref))
        ratio = ad.div(dist, ad.add(scores, Tensor(0.5)))
        return ad.add(ad.reduce_mean(ratio), ad.log(ad.add(ad.reduce_sum(ad.mul(h, h)), Tensor(1.0))))

    return f


def test_composites_match_finite_differences_at_100_points():
    rng = np.random.default_rng(42)
    for _ in range(100):
        f = _random_composite(rng)
        point = Tensor(rng.normal(size=(2, 4)))
        report = ad.grad_check(f, point, h=1e-5, rel_tol=1e-4)
        assert report.passed, str(report)


def test_grad_check_passes_on_square():
    report = ad.grad_check(lambda t: ad.reduce_sum(ad.mul(t, t)), Tensor([1.0]), h=1e-5)
    assert report.passed


def test_grad_check_detects_corrupted_gradient():
    def f(x):
        out = ad.mul(x, x)
        if out.record is not None:  # finite-difference probes carry no graph
            original = out.record.vjp
            out.record.vjp = lambda g: tuple(None if p is None else 1.1 * p for p in original(g))
        return ad.reduce_sum(out)

    report = ad.grad_check(f, Tensor([1.0, -2.0]), h=1e-5, rel_tol=1e-4)
    assert not report.passed
    assert report.max_rel_diff > 0.05


def test_shape_error_names_primitive_and_shapes():
    with pytest.raises(ShapeMismatchError) as err:
        ad.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))), Tensor(np.zeros(2)))
    message = str(err.value)
    assert "linear" in message and "(2, 3)" in message


def test_log_rejects_non_positive_input():
    with pytest.raises(DomainError, match="non-positive"):
        ad.log(Tensor([1.0, 0.0]))


def test_leading_batch_broadcast_rules():
    out = ad.add(Tensor(np.zeros((4, 3))), Tensor(np.ones(3)))
    assert out.shape == (4, 3)
    scalar = ad.sub(Tensor(1.0), Tensor(np.full(5, 0.25)))
    np.testing.assert_array_equal(scalar.data, np.full(5, 0.75))
    with pytest.raises(ShapeMismatchError):
        ad.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))
    with pytest.raises(ShapeMismatchError):
        ad.add(Tensor(np.zeros((2, 1))), Tensor(np.zeros((2, 3))))


def test_broadcast_gradient_reduces_to_parent_shape():
    bias = Tensor(np.zeros(3), requires_grad=True)
    out = ad.add(Tensor(np.ones((4, 3))), bias)
    ad.backward(ad.reduce_sum(out))
    np.testing.assert_array_equal(bias.grad, np.full(3, 4.0))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-30, 30), min_size=2, max_size=12))
def test_primitives_keep_finite_inputs_finite(values):
    x = Tensor(np.array(values))
    for out in (
        ad.relu(x),
        ad.tanh(x),
        ad.exp(x),
        ad.log_sum_exp(x),
        ad.reduce_mean(x),
        ad.reduce_sum(x),
        ad.reduce_max(x),
        ad.scalar_mul(x, 3.0),
        ad.l2_norm_of_difference(x, Tensor(np.zeros(len(values)))),
    ):
        assert np.all(np.isfinite(out.data))


def test_gather_rows_accumulates_repeated_indices():
    x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    out = ad.gather_rows(x, [0, 0, 2])
    ad.backward(ad.reduce_sum(out))
    np.testing.assert_array_equal(x.grad, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])


def test_reduce_max_axis_routes_gradient_to_first_argmax():
    x = Tensor(np.array([[1.0, 3.0, 3.0], [2.0, 0.0, 1.0]]), requires_grad=True)
    ad.backward(ad.reduce_sum(ad.reduce_max(x, axis=1)))
    np.testing.assert_array_equal(x.grad, [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])


def test_l2_norm_zero_distance_has_zero_subgradient():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    out = ad.l2_norm_of_difference(a, Tensor(np.ones((2, 3))))
    ad.backward(ad.reduce_sum(out))
    np.testing.assert_array_equal(a.grad, np.zeros((2, 3)))


def test_computation_record_topology():
    x = Tensor([1.0], requires_grad=True)
    y = ad.mul(x, x)
    z = ad.reduce_sum(ad.add(y, Tensor([1.0])))
    assert y.record is not None and y.record.kind == "elementwise-mul"
    assert z.record is not None
    assert all(p.node_id < y.node_id for p in y.record.parents)
