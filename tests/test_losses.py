import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oodlab import autodiff as ad
from oodlab.autodiff import Tensor
from oodlab.data import LabeledBatch, LatentBatch
from oodlab.losses import (
    LossWeights,
    classifier_loss,
    confidence_dominance_term,
    cross_entropy_term,
    dispersion_term,
    generator_loss,
    negative_training_term,
    proximity_term,
)
from oodlab.losses import (
    _dispersion,
    _log_softmax_parts,
    _pair_indices,
    _proximity,
    _scatter_rows,
    _squared_distances,
)
from oodlab.nets import BoundaryGenerator, MlpClassifier

LN2 = 0.6931471805599453
# frozen from a 40-digit evaluation of the closed forms
CE_123_LABEL2 = 0.4076059644443803
NEG_10_0 = 10.000045398899217
DOM_1_0_M1 = 0.6652409557748219


class TestCrossEntropy:
    def test_uniform_logits_give_ln2(self):
        for label in (0, 1):
            value = cross_entropy_term(Tensor([[0.0, 0.0]]), [label]).item()
            assert value == pytest.approx(LN2, abs=1e-12)

    def test_saturated_logits_give_zero(self):
        value = cross_entropy_term(Tensor([[1e9, 0.0]]), [0]).item()
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_three_class_frozen_value(self):
        value = cross_entropy_term(Tensor([[1.0, 2.0, 3.0]]), [2]).item()
        assert value == pytest.approx(CE_123_LABEL2, abs=1e-12)
        # independent direct evaluation
        direct = np.log(np.exp(1) + np.exp(2) + np.exp(3)) - 3.0
        assert value == pytest.approx(direct, abs=1e-12)

    def test_out_of_range_label_rejected(self):
        with pytest.raises(ValueError, match="label 3"):
            cross_entropy_term(Tensor([[0.0, 0.0, 0.0]]), [3])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.floats(-100, 100))
    def test_shift_invariance(self, seed, shift):
        rng = np.random.default_rng(seed)
        logits = rng.normal(0, 3, (4, 3))
        labels = rng.integers(0, 3, 4)
        a = cross_entropy_term(Tensor(logits), labels).item()
        b = cross_entropy_term(Tensor(logits + shift), labels).item()
        assert a == pytest.approx(b, abs=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_non_negative(self, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(0, 5, (3, 4))
        labels = rng.integers(0, 4, 3)
        assert cross_entropy_term(Tensor(logits), labels).item() >= 0.0


class TestNegativeTraining:
    def test_uniform_two_class(self):
        assert negative_training_term(Tensor([[0.0, 0.0]])).item() == pytest.approx(LN2, abs=1e-12)

    def test_uniform_four_class(self):
        value = negative_training_term(Tensor([[1.0, 1.0, 1.0, 1.0]])).item()
        assert value == pytest.approx(-np.log(0.75), abs=1e-12)

    def test_confident_negative_frozen_value(self):
        value = negative_training_term(Tensor([[10.0, 0.0]])).item()
        assert value == pytest.approx(NEG_10_0, abs=1e-9)

    def test_clamp_keeps_value_finite(self):
        value = negative_training_term(Tensor([[1e9, 0.0]])).item()
        assert np.isfinite(value)
        assert value <= -np.log(1e-12) + 1e-9

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            negative_training_term(Tensor(np.zeros((0, 2))))

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.0, 6.0), st.floats(0.05, 2.0))
    def test_monotone_in_max_softmax(self, base, bump):
        # one-dimensional family: logits [t, 0]; p* increases with t, so the
        # term must strictly increase as well
        low = negative_training_term(Tensor([[base, 0.0]])).item()
        high = negative_training_term(Tensor([[base + bump, 0.0]])).item()
        assert high > low


class TestClassifierLoss:
    def _setup(self, lam=1.0):
        """A model, 5 labelled normals, and the normals with 4 negatives below them."""
        rng = np.random.default_rng(5)
        model = MlpClassifier([2, 6, 2], activation="tanh", seed=3)
        normals = LabeledBatch(rng.normal(size=(5, 2)), rng.integers(0, 2, 5))
        inputs = np.concatenate([normals.inputs, rng.normal(size=(4, 2))])
        return model, normals, inputs, LossWeights(lam=lam)

    def test_lambda_zero_equals_pure_cross_entropy(self):
        model, normals, inputs, _ = self._setup()
        with_neg = classifier_loss(model, inputs, normals.labels, LossWeights(lam=0.0)).item()
        ce = cross_entropy_term(model.forward_logits(normals.inputs), normals.labels).item()
        assert with_neg == ce

    def test_empty_pool_equals_pure_cross_entropy(self):
        """An empty pool draws no negatives: the batch is the normals alone."""
        model, normals, _, weights = self._setup()
        loss = classifier_loss(model, normals.inputs, normals.labels, weights).item()
        ce = cross_entropy_term(model.forward_logits(normals.inputs), normals.labels).item()
        assert loss == ce

    def test_uniform_case_sums_to_two_ln2(self):
        model = MlpClassifier([2, 2], seed=0)
        for p in model.parameters():
            p.data[...] = 0.0
        loss = classifier_loss(model, np.zeros((2, 2)), [0], LossWeights(lam=1.0)).item()
        assert loss == pytest.approx(2 * LN2, abs=1e-12)

    def test_gradients_match_finite_differences(self):
        model, normals, inputs, weights = self._setup(lam=0.7)
        report = ad.check_gradients(
            lambda: classifier_loss(model, inputs, normals.labels, weights),
            model.parameters(),
        )
        assert report.passed, str(report)


class TestDispersion:
    def test_identity_map_gives_one(self):
        latents = LatentBatch(np.random.default_rng(1).normal(size=(3, 2)), seed=1)
        term = dispersion_term(latents, Tensor(latents.values), 0.0)
        assert term.item() == pytest.approx(1.0, abs=1e-12)

    def test_collapsed_outputs_blow_up(self):
        rng = np.random.default_rng(2)
        latents = LatentBatch(rng.normal(size=(4, 2)), seed=2)
        outputs = Tensor(np.zeros((4, 2)))
        term = dispersion_term(latents, outputs, 1e-6).item()
        ii, jj = np.triu_indices(4, 1)
        mean_latent = np.linalg.norm(latents.values[ii] - latents.values[jj], axis=1).mean()
        assert term == pytest.approx(mean_latent / 1e-6, rel=1e-9)
        assert term > 1e5

    def test_matches_brute_force_anchor_average(self):
        rng = np.random.default_rng(3)
        latents = LatentBatch(rng.normal(size=(5, 3)), seed=3)
        outputs = rng.normal(size=(5, 2))
        delta = 1e-3
        total = 0.0
        for a in range(5):
            inner = [
                np.linalg.norm(latents.values[a] - latents.values[j])
                / (np.linalg.norm(outputs[a] - outputs[j]) + delta)
                for j in range(5)
                if j != a
            ]
            total += np.mean(inner)
        brute = total / 5
        assert dispersion_term(latents, Tensor(outputs), delta).item() == pytest.approx(brute, rel=1e-12)

    def test_needs_two_latents(self):
        latents = LatentBatch(np.zeros((1, 2)), seed=0)
        with pytest.raises(ValueError, match="at least two"):
            dispersion_term(latents, Tensor(np.zeros((1, 2))), 1e-6)

    def test_plain_array_latents_equal_a_latent_batch(self):
        rng = np.random.default_rng(4)
        latents = LatentBatch(rng.normal(size=(5, 3)), seed=4)
        outputs = rng.normal(size=(5, 2))
        expected = dispersion_term(latents, Tensor(outputs), 1e-3).item()
        assert dispersion_term(latents.values, Tensor(outputs), 1e-3).item() == expected


class TestConfidenceDominance:
    def test_identical_logits_hit_uniform_floor(self):
        logits = Tensor(np.random.default_rng(0).normal(size=(3, 4)))
        ref = Tensor(logits.data.copy())
        assert confidence_dominance_term(logits, ref).item() == pytest.approx(0.25, abs=1e-12)

    def test_saturated_dominance(self):
        value = confidence_dominance_term(Tensor([[10.0, -10.0]]), Tensor(np.zeros((1, 2)))).item()
        assert value == pytest.approx(1.0, abs=1e-8)

    def test_frozen_three_class_value(self):
        value = confidence_dominance_term(Tensor([[1.0, 0.0, -1.0]]), Tensor(np.zeros((1, 3)))).item()
        assert value == pytest.approx(DOM_1_0_M1, abs=1e-12)
        direct = np.exp(1) / (np.exp(1) + 1 + np.exp(-1))
        assert value == pytest.approx(direct, abs=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ad.ShapeMismatchError):
            confidence_dominance_term(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3))))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(2, 5))
    def test_range_between_uniform_floor_and_one(self, seed, k):
        rng = np.random.default_rng(seed)
        value = confidence_dominance_term(
            Tensor(rng.normal(0, 3, (4, k))), Tensor(rng.normal(0, 3, (4, k)))
        ).item()
        assert 1.0 / k - 1e-12 <= value <= 1.0 + 1e-12


class TestProximity:
    def test_exact_match_contributes_zero(self):
        ref = np.array([[1.0, 2.0], [0.0, 0.0]])
        assert proximity_term(Tensor(ref[:1]), ref).item() == 0.0

    def test_three_four_five(self):
        assert proximity_term(Tensor([[3.0, 4.0]]), np.array([[0.0, 0.0]])).item() == pytest.approx(5.0)

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(9)
        generated = rng.normal(size=(6, 3))
        reference = rng.normal(size=(11, 3))
        brute = np.mean(
            [min(np.linalg.norm(g - r) for r in reference) for g in generated]
        )
        assert proximity_term(Tensor(generated), reference).item() == pytest.approx(brute, rel=1e-12)

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            proximity_term(Tensor(np.zeros((1, 2))), np.zeros((0, 2)))

    def test_tie_routes_whole_gradient_to_first_nearest_row(self):
        generated = Tensor(np.zeros((1, 2)), requires_grad=True)
        reference = np.array([[10.0, 0.0], [3.0, 4.0], [4.0, 3.0]])
        ad.backward(proximity_term(generated, reference))
        np.testing.assert_array_equal(generated.grad, [[-3.0 / 5.0, -4.0 / 5.0]])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_non_negative(self, seed):
        rng = np.random.default_rng(seed)
        value = proximity_term(Tensor(rng.normal(size=(3, 2))), rng.normal(size=(4, 2))).item()
        assert value >= 0.0


class TestGeneratorLoss:
    def _setup(self):
        rng = np.random.default_rng(12)
        generator = BoundaryGenerator([2, 8, 2], activation="tanh", seed=6)
        classifier = MlpClassifier([2, 8, 3], activation="tanh", seed=7)
        classifier.freeze()
        latents = LatentBatch(rng.normal(size=(4, 2)), seed=88)
        reference = rng.normal(size=(5, 2))
        return generator, classifier, latents, reference

    def test_weights_zero_reduce_to_dispersion(self):
        generator, classifier, latents, reference = self._setup()
        weights = LossWeights(mu=0.0, nu=0.0, delta=1e-6)
        loss = generator_loss(generator, classifier, latents, reference, weights).item()
        disp = dispersion_term(latents, generator.generate(latents), weights.delta).item()
        assert loss == disp

    def test_unfrozen_classifier_rejected(self):
        generator, classifier, latents, reference = self._setup()
        classifier.unfreeze()
        with pytest.raises(ValueError, match="frozen"):
            generator_loss(generator, classifier, latents, reference, LossWeights())

    def test_no_gradient_reaches_classifier(self):
        generator, classifier, latents, reference = self._setup()
        loss = generator_loss(generator, classifier, latents, reference, LossWeights(delta=1e-3))
        ad.backward(loss)
        assert all(p.grad is None for p in classifier.parameters())
        assert any(np.any(p.grad != 0) for p in generator.parameters())

    def test_gradients_match_finite_differences(self):
        generator, classifier, latents, reference = self._setup()
        weights = LossWeights(mu=0.8, nu=0.6, delta=1e-3)
        report = ad.check_gradients(
            lambda: generator_loss(generator, classifier, latents, reference, weights, pairing_seed=(1, 2)),
            generator.parameters(),
        )
        assert report.passed, str(report)

    def test_pairing_reseeds_with_latent_seed(self):
        generator, classifier, latents, reference = self._setup()
        weights = LossWeights(mu=1.0, nu=0.0, delta=1e-3)
        a = generator_loss(generator, classifier, latents, reference, weights).item()
        b = generator_loss(generator, classifier, latents, reference, weights).item()
        assert a == b  # same latent seed, same pairing
        other = LatentBatch(latents.values.copy(), seed=999)
        c = generator_loss(generator, classifier, other, reference, weights).item()
        assert a != c  # different seed draws a different dominance pairing

    @pytest.mark.parametrize("pairing_seed", [None, (1, 2)])
    def test_plain_array_latents_are_rejected(self, pairing_seed):
        generator, classifier, latents, reference = self._setup()
        weights = LossWeights(mu=1.0, nu=0.3, delta=1e-3)
        with pytest.raises(ValueError, match="takes a LatentBatch"):
            generator_loss(generator, classifier, latents.values, reference, weights, pairing_seed=pairing_seed)


def test_loss_weights_validation():
    with pytest.raises(ValueError):
        LossWeights(lam=-0.1)
    with pytest.raises(ValueError):
        LossWeights(delta=0.0)
    with pytest.raises(ValueError):
        LossWeights(mu=float("nan"))


def _tape_tensors_made(step) -> int:
    """Tensors created while ``step()`` runs (each takes one node id)."""
    first = Tensor(0.0).node_id
    step()
    return Tensor(0.0).node_id - first - 1


class TestOneNodeLosses:
    """classifier_loss and generator_loss against the public Tensor-level terms."""

    def _classifier(self, activation, rows):
        rng = np.random.default_rng(21)
        model = MlpClassifier([2, 16, 16, 3], activation=activation, seed=8)
        normals = LabeledBatch(rng.normal(size=(rows, 2)), rng.integers(0, 3, rows))
        negatives = rng.uniform(-1.5, 1.5, (rows, 2))
        return model, normals, negatives, LossWeights(lam=0.7)

    @staticmethod
    def _loss(model, normals, negatives, weights):
        return classifier_loss(model, np.concatenate([normals.inputs, negatives]), normals.labels, weights)

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("rows", [64, 24])
    def test_classifier_loss_matches_composed_terms(self, activation, rows):
        """The stacked pass sums the weight gradients over both groups' rows
        at once, so they match the two-forward composition up to rounding."""
        model, normals, negatives, weights = self._classifier(activation, rows)
        fused = self._loss(model, normals, negatives, weights)
        ad.backward(fused)
        fused_grads = [p.grad.copy() for p in model.parameters()]
        model.zero_grad()
        composed = ad.add(
            cross_entropy_term(model.forward_logits(normals.inputs), normals.labels),
            ad.scalar_mul(negative_training_term(model.forward_logits(negatives)), weights.lam),
        )
        ad.backward(composed)
        np.testing.assert_allclose(fused.data, composed.data, rtol=1e-12, atol=1e-15)
        for grad, p in zip(fused_grads, model.parameters()):
            np.testing.assert_allclose(grad, p.grad, rtol=1e-12, atol=1e-15)

    def test_classifier_step_is_one_forward_and_one_backprop(self, monkeypatch):
        model, normals, negatives, weights = self._classifier("tanh", 64)
        calls = []

        def counted(name):
            method = getattr(model, name)

            def call(*args, **kwargs):
                calls.append(name)
                return method(*args, **kwargs)

            return call

        for name in ("forward_with_cache", "backprop"):
            monkeypatch.setattr(model, name, counted(name))
        ad.backward(self._loss(model, normals, negatives, weights))
        assert calls == ["forward_with_cache", "backprop"]

    @pytest.mark.parametrize("wide", ["normals", "negatives"])
    def test_classifier_loss_rejects_a_group_of_another_width(self, wide):
        """One batch array of the wrong width, the normals alone or with 5
        negatives below them."""
        model, normals, _, weights = self._classifier("relu", 8)
        rows = 8 if wide == "normals" else 13
        with pytest.raises(ad.ShapeMismatchError, match="classifier-forward"):
            classifier_loss(model, np.zeros((rows, 3)), normals.labels, weights)

    def test_generator_loss_matches_composed_terms(self):
        rng = np.random.default_rng(22)
        generator = BoundaryGenerator([2, 12, 2], activation="tanh", seed=9)
        classifier = MlpClassifier([2, 12, 3], activation="relu", seed=10)
        classifier.freeze()
        latents = LatentBatch(rng.normal(size=(16, 2)), seed=5)
        reference = rng.normal(size=(20, 2))
        weights = LossWeights(mu=0.8, nu=0.4, delta=1e-6)
        fused = generator_loss(generator, classifier, latents, reference, weights, pairing_seed=(3, 4))
        ad.backward(fused)
        fused_grads = [p.grad.copy() for p in generator.parameters()]
        generator.zero_grad()
        outputs = generator.generate(latents)
        idx = np.random.default_rng((3, 4)).integers(0, len(reference), len(latents))
        dominance = confidence_dominance_term(
            classifier.forward_logits(outputs), classifier.forward_logits(reference[idx])
        )
        composed = ad.add(
            ad.add(dispersion_term(latents, outputs, weights.delta), ad.scalar_mul(dominance, weights.mu)),
            ad.scalar_mul(proximity_term(outputs, reference), weights.nu),
        )
        ad.backward(composed)
        assert fused.item() == composed.item()
        for grad, p in zip(fused_grads, generator.parameters()):
            np.testing.assert_allclose(grad, p.grad, rtol=1e-12, atol=1e-15)

    def test_one_step_makes_at_most_two_tape_tensors(self):
        model, normals, negatives, weights = self._classifier("tanh", 64)
        assert _tape_tensors_made(lambda: ad.backward(self._loss(model, normals, negatives, weights))) <= 2
        generator = BoundaryGenerator([2, 8, 2], seed=1)
        model.freeze()
        latents = LatentBatch(np.random.default_rng(2).normal(size=(8, 2)), seed=2)

        def generator_step():
            ad.backward(generator_loss(generator, model, latents, normals.inputs, LossWeights()))

        assert _tape_tensors_made(generator_step) <= 2


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 70), st.integers(1, 8), st.integers(0, 2**31 - 1))
def test_scatter_rows_is_bit_equal_to_add_at(n, d, seed):
    rng = np.random.default_rng(seed)
    ii, jj = np.triu_indices(n, k=1)
    rows = rng.normal(size=(len(ii), d)) * 10.0 ** rng.integers(-30, 30, (len(ii), 1))
    rows[rng.random(rows.shape) < 0.05] = -0.0
    for idx in (ii, jj):
        expected = np.zeros((n, d))
        np.add.at(expected, idx, rows)
        assert _scatter_rows(idx, rows, n).tobytes() == expected.tobytes()


# --- loss cores against the expressions they replaced ---------------------------


def _reference_dispersion(outputs, values, delta):
    """The dispersion core with a fresh np.triu_indices and fancy-index gathers."""
    n = len(values)
    ii, jj = np.triu_indices(n, k=1)
    z_dist = np.linalg.norm(values[ii] - values[jj], axis=1)
    diff = outputs[ii] - outputs[jj]
    d_norm = np.sqrt((diff * diff).sum(axis=-1))
    denom = d_norm + float(delta)
    ratios = z_dist / denom

    def vjp(g):
        g_denom = -np.broadcast_to(g / ratios.size, ratios.shape) * z_dist / (denom * denom)
        unit = np.divide(diff, d_norm[:, None], out=np.zeros_like(diff), where=d_norm[:, None] > 0)
        scaled = unit * g_denom[:, None]
        via_jj, via_ii = np.zeros((n, diff.shape[1])), np.zeros((n, diff.shape[1]))
        np.add.at(via_jj, jj, -scaled)
        np.add.at(via_ii, ii, scaled)
        return via_jj + via_ii

    return np.asarray(ratios.mean()), vjp


def _reference_proximity(generated, reference):
    """The proximity core with the (rows, references, d) broadcast difference."""
    diff = generated[:, None, :] - reference[None, :, :]
    nearest = np.argmin(np.sqrt((diff * diff).sum(axis=-1)), axis=1)
    diff = generated - reference[nearest]
    norm = np.sqrt((diff * diff).sum(axis=-1))

    def vjp(g):
        unit = np.divide(diff, norm[:, None], out=np.zeros_like(diff), where=norm[:, None] > 0)
        return unit * np.broadcast_to(g / norm.size, norm.shape)[:, None]

    return np.asarray(norm.mean()), vjp


def _points(rng, rows, d):
    """Rows at mixed scales, some repeated (zero distances and nearest-row ties)."""
    x = rng.normal(size=(rows, d)) * 10.0 ** rng.integers(-3, 3, (rows, 1))
    repeat = rng.random(rows) < 0.2
    x[repeat] = x[0]
    return x


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 7, 8]), st.integers(2, 40), st.integers(1, 40), st.integers(0, 2**31 - 1))
def test_phase_b_cores_are_bit_equal_to_their_reference_expressions(d, n, q, seed):
    rng = np.random.default_rng(seed)
    outputs, reference = _points(rng, n, d), _points(rng, q, d)
    latents = rng.normal(size=(n, 2))
    g = float(rng.uniform(0.1, 2.0))
    value, vjp = _dispersion(outputs, latents, 1e-6)
    ref_value, ref_vjp = _reference_dispersion(outputs, latents, 1e-6)
    assert value.tobytes() == ref_value.tobytes()
    assert vjp(g).tobytes() == ref_vjp(g).tobytes()
    value, vjp = _proximity(outputs, reference)
    ref_value, ref_vjp = _reference_proximity(outputs, reference)
    assert value.tobytes() == ref_value.tobytes()
    assert vjp(g).tobytes() == ref_vjp(g).tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(1, 50), st.integers(1, 70), st.integers(0, 2**31 - 1))
def test_squared_distances_match_the_broadcast_sum(d, n, q, seed):
    rng = np.random.default_rng(seed)
    a, b = _points(rng, n, d), _points(rng, q, d)
    diff = a[:, None, :] - b[None, :, :]
    assert _squared_distances(a, b).tobytes() == (diff * diff).sum(axis=-1).tobytes()


def test_pair_indices_are_cached_and_read_only():
    ii, jj = _pair_indices(9)
    expected = np.triu_indices(9, k=1)
    assert ii.tobytes() == expected[0].tobytes() and jj.tobytes() == expected[1].tobytes()
    assert _pair_indices(9)[0] is ii
    with pytest.raises(ValueError):
        ii[0] = 1


@pytest.mark.parametrize("k", [1, 2, 3, 7, 8, 12])
@pytest.mark.parametrize("rows", [1, 64, 1025])
def test_log_softmax_parts_match_the_axis_reductions(k, rows):
    logits = np.random.default_rng(rows * 100 + k).normal(0.0, 4.0, (rows, k))
    logits[0, 0] = -0.0  # a signed zero among the candidates for the max
    m = logits.max(axis=1, keepdims=True)
    shifted = np.exp(logits - m)
    total = shifted.sum(axis=1, keepdims=True)
    expected = (np.squeeze(m + np.log(total), axis=1), shifted / total, m[:, 0])
    for got, want in zip(_log_softmax_parts(logits), expected):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
