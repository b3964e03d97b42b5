import dataclasses

import numpy as np
import pytest

from oodlab import autodiff as ad
from oodlab import losses, training
from oodlab.autodiff import Tensor
from oodlab.data import DatasetSpec, OutlierPool, gen_gaussian_mixture, gen_ring, sample_few_shots
from oodlab.losses import LossWeights, cross_entropy_term, proximity_term
from oodlab.nets import BoundaryGenerator, MlpClassifier
from oodlab.scoring import anomaly_scores
from oodlab.training import (
    AdamState,
    PipelineConfig,
    TrainSchedule,
    TrainingError,
    _draw_negatives,
    _drawn_pools,
    _epoch_rng,
    adam_step,
    run_pipeline,
    sample_latent,
    train_classifier,
    train_generator,
)


@pytest.mark.parametrize("name, value", [("lr_a", 0.0), ("lr_b", -1.0), ("lr_c", float("nan")), ("lr_a", float("inf"))])
def test_schedule_rejects_a_learning_rate_naming_it(name, value):
    with pytest.raises(ValueError, match=f"^{name}: must be positive and finite"):
        TrainSchedule(**{name: value})


class TestAdam:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        p = Tensor([1.0, -2.0], requires_grad=True)
        state = AdamState.for_params([p], lr=0.1)
        adam_step([p], [np.zeros(2)], state)
        np.testing.assert_array_equal(p.data, [1.0, -2.0])
        assert state.t == 1

    def test_first_step_magnitude_is_learning_rate(self):
        p = Tensor([0.0], requires_grad=True)
        state = AdamState.for_params([p], lr=0.01)
        adam_step([p], [np.array([3.7])], state)
        # bias-corrected first step is lr * g / (|g| + eps)
        assert abs(p.data[0]) == pytest.approx(0.01, rel=1e-6)
        assert p.data[0] < 0

    def test_quadratic_bowl_converges(self):
        x = Tensor([3.0], requires_grad=True)
        state = AdamState.for_params([x], lr=0.05)
        for _ in range(500):
            x.zero_grad()
            ad.backward(ad.node(x.data @ x.data, (x,), lambda g: (2.0 * x.data * g,)))
            adam_step([x], [x.grad], state)
        assert abs(x.data[0]) < 1e-3

    def test_fifty_steps_equal_the_docstring_arithmetic_bit_for_bit(self):
        """Two leaves (one concatenated pass) against a transcription of
        ``adam_step``'s docstring, one fresh array per operation."""
        rng = np.random.default_rng(5)
        leaves = [Tensor(rng.normal(size=(3, 4)), requires_grad=True), Tensor(rng.normal(size=5), requires_grad=True)]
        want = np.concatenate([p.data.ravel() for p in leaves])
        state = AdamState.for_params(leaves, lr=0.02)
        b1, b2, eps = training.ADAM_BETA1, training.ADAM_BETA2, training.ADAM_EPS
        m = v = np.zeros(want.size)
        for t in range(1, 51):
            grads = [rng.normal(size=p.data.shape) * 10.0 ** rng.integers(-4, 3) for p in leaves]
            adam_step(leaves, grads, state)
            g = np.concatenate([x.ravel() for x in grads])
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            want = want - state.lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
            got = np.concatenate([p.data.ravel() for p in leaves])
            assert got.tobytes() == want.tobytes() and state.t == t

    def test_non_finite_gradient_aborts(self):
        p = Tensor([1.0], requires_grad=True)
        state = AdamState.for_params([p])
        with pytest.raises(TrainingError, match="non-finite gradient"):
            adam_step([p], [np.array([float("nan")])], state)


class TestSampleLatent:
    def test_same_seed_identical(self):
        a = sample_latent(42, 10, 3)
        b = sample_latent(42, 10, 3)
        np.testing.assert_array_equal(a.values, b.values)
        assert a.seed == 42

    def test_sample_statistics(self):
        batch = sample_latent(7, 100_000, 1)
        assert -0.02 < batch.values.mean() < 0.02
        assert 0.97 < batch.values.var() < 1.03

    def test_needs_positive_size(self):
        with pytest.raises(ValueError):
            sample_latent(0, 0, 2)


def _two_blobs(seed=1, size=200):
    spec = DatasetSpec(
        kind="gaussian-mixture", dim=2, size=size, seed=seed, means=[[-1.0, 0.0], [1.0, 0.0]], cov_scale=0.2
    )
    return gen_gaussian_mixture(spec)


class TestTrainClassifier:
    def test_linearly_separable_reaches_high_accuracy(self):
        normals = _two_blobs()
        model = MlpClassifier([2, 16, 2], seed=3)
        schedule = TrainSchedule(phase_a_epochs=50, batch_n=32, master_seed=9)
        trace = train_classifier(model, normals, [], LossWeights(), schedule, phase="a")
        accuracy = (model.forward_array(normals.inputs).argmax(1) == normals.labels).mean()
        assert accuracy >= 0.95
        assert len(trace) == 50
        assert trace[-1] < trace[0]

    def test_zero_epochs_is_identity(self):
        normals = _two_blobs()
        model = MlpClassifier([2, 8, 2], seed=5)
        before = [p.data.copy() for p in model.parameters()]
        trace = train_classifier(model, normals, [], LossWeights(), TrainSchedule(phase_a_epochs=0), phase="a")
        assert trace == []
        for p, b in zip(model.parameters(), before):
            np.testing.assert_array_equal(p.data, b)

    def test_lambda_zero_equals_run_without_negatives(self):
        normals = _two_blobs()
        negatives = OutlierPool(np.random.default_rng(0).normal(size=(20, 2)))
        schedule = TrainSchedule(phase_a_epochs=5, batch_n=32, master_seed=4)
        m1 = MlpClassifier([2, 8, 2], seed=6)
        train_classifier(m1, normals, [negatives], LossWeights(lam=0.0), schedule, phase="a")
        m2 = MlpClassifier([2, 8, 2], seed=6)
        train_classifier(m2, normals, [], LossWeights(lam=0.0), schedule, phase="a")
        for a, b in zip(m1.parameters(), m2.parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_non_finite_loss_names_batch(self):
        normals = _two_blobs()
        model = MlpClassifier([2, 8, 2], seed=5)
        model.layers[-1][0][0, 0] = float("nan")
        with pytest.raises(TrainingError, match="phase a, epoch 0, batch 0"):
            train_classifier(model, normals, [], LossWeights(), TrainSchedule(phase_a_epochs=1), phase="a")

    @pytest.mark.parametrize("phase", ["b", "A", ""])
    def test_unknown_phase_is_rejected_naming_it(self, phase):
        model = MlpClassifier([2, 8, 2], seed=5)
        with pytest.raises(ValueError, match=f"unknown classifier phase '{phase}'"):
            train_classifier(model, _two_blobs(), [], LossWeights(), TrainSchedule(), phase=phase)


class TestTrainGenerator:
    def _setup(self):
        normals = _two_blobs(seed=2)
        classifier = MlpClassifier([2, 16, 2], activation="tanh", seed=8)
        schedule = TrainSchedule(phase_a_epochs=30, phase_b_epochs=15, batch_n=32, latent_n=16, proximity_q=32, master_seed=5)
        train_classifier(classifier, normals, [], LossWeights(), schedule, phase="a")
        generator = BoundaryGenerator([2, 16, 2], activation="tanh", seed=9)
        return normals, classifier, generator, schedule

    def test_requires_frozen_classifier(self):
        normals, classifier, generator, schedule = self._setup()
        with pytest.raises(ValueError, match="frozen"):
            train_generator(generator, classifier, normals.inputs, LossWeights(), schedule)

    def test_classifier_is_bit_exact_after_training(self):
        normals, classifier, generator, schedule = self._setup()
        classifier.freeze()
        before = classifier.flat.data.copy()
        trace = train_generator(generator, classifier, normals.inputs, LossWeights(nu=0.3), schedule)
        assert classifier.flat.data.tobytes() == before.tobytes()
        assert len(trace) == schedule.phase_b_epochs

    def test_training_suppresses_confidence_of_generated_samples(self):
        # start the generator confidently inside one blob: training must pull
        # the samples toward lower-confidence boundary regions
        normals, classifier, generator, schedule = self._setup()
        classifier.freeze()
        w, b = generator.layers[-1]
        w *= 0.05
        b[...] = [1.0, 0.0]  # a blob center
        latents = sample_latent(77, 64, 2)
        score_before = anomaly_scores(classifier, generator.forward_array(latents.values)).mean()
        assert score_before > 0.9
        train_generator(generator, classifier, normals.inputs, LossWeights(mu=1.0, nu=0.3), schedule)
        score_after = anomaly_scores(classifier, generator.forward_array(latents.values)).mean()
        assert score_after < score_before

    def test_training_reduces_proximity_from_far_initialization(self):
        normals, classifier, generator, schedule = self._setup()
        classifier.freeze()
        w, b = generator.layers[-1]
        w *= 0.05
        b[...] = [4.0, 4.0]  # far off the support
        latents = sample_latent(78, 64, 2)
        prox_before = proximity_term(Tensor(generator.forward_array(latents.values)), normals.inputs).item()
        train_generator(generator, classifier, normals.inputs, LossWeights(mu=1.0, nu=0.5), schedule)
        prox_after = proximity_term(Tensor(generator.forward_array(latents.values)), normals.inputs).item()
        assert prox_after < prox_before


def _pipeline_inputs(mode="iii", few_count=8, seed=1):
    normals = gen_gaussian_mixture(
        DatasetSpec(kind="gaussian-mixture", dim=2, size=150, seed=4, means=[[0.0, 0.6], [-0.5, -0.3], [0.5, -0.3]], cov_scale=0.1)
    )
    pool = gen_ring(DatasetSpec(kind="ring", dim=2, size=64, seed=5, r_inner=0.9, r_outer=1.2))
    few = sample_few_shots(pool, few_count, seed=(seed, 5))
    outlier = OutlierPool(np.random.default_rng(6).uniform(-1.4, 1.4, (64, 2)))
    schedule = TrainSchedule(
        phase_a_epochs=6, phase_b_epochs=4, phase_c_epochs=6, batch_n=32, batch_m=32, latent_n=16, proximity_q=32, master_seed=seed
    )
    return PipelineConfig(
        normals=normals,
        entries=[(seed, few)],
        mode=mode,
        outlier=outlier,
        classifier_sizes=[2, 16, 16, 3],
        classifier_activation="tanh",
        generator_sizes=[2, 16, 16, 2],
        generator_activation="tanh",
        weights=LossWeights(lam=1.0, mu=1.0, nu=0.3),
        schedule=schedule,
        boundary_pool_size=32,
    )


def _run_alone(cfg):
    """The result of the one entry of ``cfg``."""
    (result,) = run_pipeline(cfg).entries
    return result


class TestPipeline:
    def test_mode_i_skips_generator_phases(self):
        cfg = _pipeline_inputs(mode="i")
        result = _run_alone(cfg)
        assert result.generator is None
        assert result.boundary_pool is None
        assert set(result.traces) == {"phase_a"}

    def test_mode_iii_zero_shots_trains_on_boundary_alone(self):
        cfg = _pipeline_inputs(mode="iii", few_count=0)
        result = _run_alone(cfg)
        assert result.boundary_pool is not None
        assert len(result.boundary_pool) == 32
        assert set(result.traces) == {"phase_a", "phase_b", "phase_c"}

    def test_boundary_pool_size_default_rule(self):
        cfg = _pipeline_inputs(mode="iii", few_count=8)
        cfg.boundary_pool_size = None
        assert len(_run_alone(cfg).boundary_pool) == 8  # few-shot count
        cfg0 = _pipeline_inputs(mode="iii", few_count=0)
        cfg0.boundary_pool_size = None
        assert len(_run_alone(cfg0).boundary_pool) == cfg0.schedule.batch_m

    # Each mode's phase A and phase C negatives, in draw order (None: no phase C).
    MODE_POOLS = {
        "i": (("outlier",), None),
        "ii": (("few_shot",), None),
        "iii": (("few_shot",), ("few_shot", "boundary")),
        "iv": (("few_shot", "outlier"), ("few_shot", "boundary", "outlier")),
    }

    @pytest.mark.parametrize("mode", ["i", "ii", "iii", "iv"])
    def test_phases_train_on_the_mode_pools_in_order(self, mode, monkeypatch):
        calls = []
        real = training.train_classifier

        def recording(*args, **kwargs):
            (entry_pools,) = args[2]  # the run trains as a stack of one: one pool list per entry
            calls.append((kwargs["phase"], list(entry_pools)))
            return real(*args, **kwargs)

        monkeypatch.setattr(training, "train_classifier", recording)
        cfg = _pipeline_inputs(mode=mode)
        result = _run_alone(cfg)
        pools = {"few_shot": cfg.entries[0][1], "outlier": cfg.outlier, "boundary": result.boundary_pool}
        phase_a, phase_c = self.MODE_POOLS[mode]
        expected = [("a", phase_a)] + ([("c", phase_c)] if phase_c else [])
        assert [phase for phase, _ in calls] == [phase for phase, _ in expected]
        for (_, got), (_, names) in zip(calls, expected):
            assert len(got) == len(names)
            assert all(pool is pools[name] for pool, name in zip(got, names))

    def test_mode_validation(self):
        cfg = _pipeline_inputs()
        with pytest.raises(ValueError, match="mode"):
            dataclasses.replace(cfg, mode="v")
        with pytest.raises(ValueError, match="few-shot"):
            dataclasses.replace(cfg, entries=[*cfg.entries, (2, None)], mode="ii")
        with pytest.raises(ValueError, match="outlier"):
            dataclasses.replace(cfg, mode="iv", outlier=None)
        with pytest.raises(ValueError, match="at least one"):
            dataclasses.replace(cfg, entries=[], mode="ii")

    def test_deterministic_given_seed(self):
        a = _run_alone(_pipeline_inputs(seed=11))
        b = _run_alone(_pipeline_inputs(seed=11))
        for x, y in zip(a.classifier.parameters(), b.classifier.parameters()):
            np.testing.assert_array_equal(x.data, y.data)
        for x, y in zip(a.generator.parameters(), b.generator.parameters()):
            np.testing.assert_array_equal(x.data, y.data)
        assert a.traces == b.traces
        np.testing.assert_array_equal(a.boundary_pool.inputs, b.boundary_pool.inputs)

    def test_two_alternations_repeat_phases_b_and_c(self):
        def run():
            cfg = _pipeline_inputs(seed=12)
            cfg.schedule = dataclasses.replace(cfg.schedule, alternations=2)
            return cfg, _run_alone(cfg)

        cfg, a = run()
        schedule = cfg.schedule
        assert {phase: len(trace) for phase, trace in a.traces.items()} == {
            "phase_a": schedule.phase_a_epochs,
            "phase_b": 2 * schedule.phase_b_epochs,
            "phase_c": 2 * schedule.phase_c_epochs,
        }
        latents = sample_latent((cfg.entries[0][0], 3, 1), len(a.boundary_pool), a.generator.latent_dim)
        assert a.boundary_pool.inputs.tobytes() == a.generator.forward_array(latents.values).tobytes()
        assert not a.classifier.is_frozen
        _, b = run()
        assert a.traces == b.traces
        for model in ("classifier", "generator"):
            assert getattr(a, model).flat.data.tobytes() == getattr(b, model).flat.data.tobytes()
        assert a.boundary_pool.inputs.tobytes() == b.boundary_pool.inputs.tobytes()

    def test_phase_c_never_mutates_generator(self):
        # same seed, different phase-C lengths: the generator must be
        # bit-identical, proving phase C leaves it untouched
        cfg_short = _pipeline_inputs(seed=13)
        cfg_short.schedule = TrainSchedule(
            phase_a_epochs=6, phase_b_epochs=4, phase_c_epochs=0, batch_n=32, batch_m=32, latent_n=16, proximity_q=32, master_seed=13
        )
        cfg_long = _pipeline_inputs(seed=13)
        a = _run_alone(cfg_short)
        b = _run_alone(cfg_long)
        for x, y in zip(a.generator.parameters(), b.generator.parameters()):
            np.testing.assert_array_equal(x.data, y.data)

    def test_traces_are_finite(self):
        result = _run_alone(_pipeline_inputs())
        for trace in result.traces.values():
            assert np.all(np.isfinite(trace))

    def test_full_pipeline_improves_over_classifier_only(self):
        # with zero few-shots the phase-A-only model has no negatives at all;
        # the boundary-trained model must separate the surrounding ring better
        ring_test = gen_ring(DatasetSpec(kind="ring", dim=2, size=128, seed=77, r_inner=0.9, r_outer=1.2))
        holdout = gen_gaussian_mixture(
            DatasetSpec(kind="gaussian-mixture", dim=2, size=128, seed=78, means=[[0.0, 0.6], [-0.5, -0.3], [0.5, -0.3]], cov_scale=0.1)
        )
        from oodlab.scoring import ScoreSet, auroc

        cfg_boundary = _pipeline_inputs(mode="iii", few_count=0, seed=21)
        cfg_boundary.schedule = TrainSchedule(
            phase_a_epochs=25, phase_b_epochs=20, phase_c_epochs=30, batch_n=32, batch_m=32, latent_n=32, proximity_q=32, master_seed=21
        )
        cfg_plain = _pipeline_inputs(mode="ii", few_count=0, seed=21)
        cfg_plain.schedule = cfg_boundary.schedule
        boundary = _run_alone(cfg_boundary)
        plain = _run_alone(cfg_plain)

        def ring_auroc(model):
            return auroc(
                ScoreSet(anomaly_scores(model, holdout.inputs), anomaly_scores(model, ring_test.inputs))
            )

        assert ring_auroc(boundary.classifier) > ring_auroc(plain.classifier)


# --- reference: one tape leaf per parameter ----------------------------------
#
# The loops below train with one tape leaf per parameter: ``_leaves`` makes a
# Tensor over each (W, b) view in model.layers, sharing its memory. Every loss
# node has those leaves as parents, each gets its own gradient array from a
# layer-by-layer backprop written out here, and Adam runs over the leaves.
# Trained weights must match the flat-leaf path bit for bit.


def _leaves(model):
    """[W0, b0, W1, ...] as leaf Tensors over the memory of ``model.layers``."""
    leaves = [Tensor(view, requires_grad=True) for layer in model.layers for view in layer]
    assert all(np.shares_memory(p.data, model.flat.data) for p in leaves)
    return leaves


def _per_parameter_backprop(model, cache, g, inputs=False):
    """(input gradient or None, [dW0, db0, dW1, ...]) for a forward_with_cache pass."""
    grads = [None] * (2 * len(cache))
    for i in range(len(cache) - 1, -1, -1):
        h, wt = cache[i]
        grads[2 * i] = (h.T @ g).T
        grads[2 * i + 1] = g.sum(axis=0)
        if i == 0 and not inputs:
            return None, grads
        g = g @ wt.T
        if i > 0:
            g = g * (h > 0.0) if model.activation == "relu" else g * (1.0 - h * h)
    return g, grads


def _per_parameter_forward(model, leaves, x):
    out, cache = model.forward_with_cache(x)
    return ad.node(out, tuple(leaves), lambda g: _per_parameter_backprop(model, cache, g)[1])


def _stacked_classifier_loss(logits, labels, lam):
    """classifier_loss's terms over logits whose rows are the normals, then
    the negatives stacked below them: one node with one logit gradient."""
    n = len(labels)
    value, ce_vjp = losses._cross_entropy(logits.data[:n], labels)
    neg_value, nt_vjp = losses._negative_training(logits.data[n:])
    return ad.node(value + neg_value * lam, (logits,), lambda g: (np.concatenate([ce_vjp(g), nt_vjp(g * lam)]),))


def _per_parameter_generator_loss(generator, leaves, classifier, latents, reference, weights):
    """generator_loss over the parameter leaves. The public terms would sum
    the output gradient in another association, so this uses the loss cores
    in generator_loss's order."""
    outputs, gen_cache = generator.forward_with_cache(latents.values)
    value, disp_vjp = losses._dispersion(outputs, latents, weights.delta)
    dom_vjp = prox_vjp = None
    if weights.mu > 0:
        rng = np.random.default_rng((*latents.seed, 0x9E37))
        idx = rng.integers(0, len(reference), len(outputs))
        gen_logits, clf_cache = classifier.forward_with_cache(outputs)
        dom_value, dom_vjp = losses._dominance(gen_logits, classifier.forward_array(reference[idx]))
        value = value + dom_value * weights.mu
    if weights.nu > 0:
        prox_value, prox_vjp = losses._proximity(outputs, reference)
        value = value + prox_value * weights.nu

    def vjp(g):
        g_out = disp_vjp(g)
        if dom_vjp is not None:
            g_out = g_out + _per_parameter_backprop(classifier, clf_cache, dom_vjp(g * weights.mu), inputs=True)[0]
        if prox_vjp is not None:
            g_out = g_out + prox_vjp(g * weights.nu)
        return _per_parameter_backprop(generator, gen_cache, g_out)[1]

    return ad.node(value, tuple(leaves), vjp)


def _per_parameter_step(leaves, loss, state, step_losses):
    ad.backward(loss)
    adam_step(leaves, [p.grad for p in leaves], state)
    step_losses.append(loss.item())


def _reference_train_classifier(model, normals, pools, weights, schedule, prefix):
    leaves = _leaves(model)
    state = AdamState.for_params(leaves, lr=schedule.lr_a)
    n, trace = len(normals), []
    drawn = _drawn_pools(pools, weights.lam)
    for epoch in range(schedule.phase_a_epochs):
        perm = _epoch_rng(*prefix, epoch, 0).permutation(n)
        neg_rng = _epoch_rng(*prefix, epoch, 1)
        step_losses = []
        for start in range(0, n, schedule.batch_n):
            idx = perm[start : start + schedule.batch_n]
            negatives = _draw_negatives(drawn, schedule.batch_m, neg_rng) if drawn else None
            for p in leaves:
                p.zero_grad()
            if negatives is None:
                loss = cross_entropy_term(_per_parameter_forward(model, leaves, normals.inputs[idx]), normals.labels[idx])
            else:
                logits = _per_parameter_forward(model, leaves, np.concatenate([normals.inputs[idx], negatives]))
                loss = _stacked_classifier_loss(logits, normals.labels[idx], weights.lam)
            _per_parameter_step(leaves, loss, state, step_losses)
        trace.append(float(np.mean(step_losses)))
    return trace


def _reference_train_generator(generator, classifier, normal_inputs, weights, schedule, prefix):
    leaves = _leaves(generator)
    state = AdamState.for_params(leaves, lr=schedule.lr_b)
    n, trace = len(normal_inputs), []
    q = min(schedule.proximity_q, n)
    for epoch in range(schedule.phase_b_epochs):
        perm = _epoch_rng(*prefix, epoch, 0).permutation(n)
        step_losses = []
        for b, start in enumerate(range(0, n, q)):
            reference = normal_inputs[perm[start : start + q]]
            latents = sample_latent((*prefix, epoch, b, 2), schedule.latent_n, generator.latent_dim)
            for p in leaves:
                p.zero_grad()
            loss = _per_parameter_generator_loss(generator, leaves, classifier, latents, reference, weights)
            _per_parameter_step(leaves, loss, state, step_losses)
        trace.append(float(np.mean(step_losses)))
    return trace


class TestFlatTrainingMatchesPerParameterTape:
    """88 normals in batches of 32 leave a 24-row tail batch every epoch."""

    SCHEDULE = TrainSchedule(
        phase_a_epochs=3, phase_b_epochs=3, batch_n=32, batch_m=20, latent_n=16, proximity_q=32, lr_a=3e-3, lr_b=2e-3,
        master_seed=3,
    )

    def _data(self):
        normals = _two_blobs(seed=4, size=88)
        rng = np.random.default_rng(5)
        pools = [OutlierPool(rng.uniform(-2, 2, (30, 2))), OutlierPool(rng.normal(0, 2, (9, 2)))]
        return normals, pools

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("lam", [0.7, 0.0])
    def test_train_classifier(self, activation, lam):
        normals, pools = self._data()
        weights = LossWeights(lam=lam)
        flat = MlpClassifier([2, 12, 12, 2], activation=activation, seed=6)
        reference = MlpClassifier([2, 12, 12, 2], activation=activation, seed=6)
        trace = train_classifier(flat, normals, pools, weights, self.SCHEDULE, phase="a", seed_prefix=(3, 0))
        expected = _reference_train_classifier(reference, normals, pools, weights, self.SCHEDULE, (3, 0))
        assert trace == expected
        assert flat.flat.data.tobytes() == reference.flat.data.tobytes()
        assert not np.array_equal(flat.flat.data, MlpClassifier([2, 12, 12, 2], activation=activation, seed=6).flat.data)

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("mu, nu", [(1.0, 0.3), (0.0, 0.3), (1.0, 0.0)])
    def test_train_generator(self, activation, mu, nu):
        normals, _ = self._data()
        classifier = MlpClassifier([2, 12, 2], activation="tanh", seed=7)
        warm_up = dataclasses.replace(self.SCHEDULE, phase_a_epochs=2)
        train_classifier(classifier, normals, [], LossWeights(), warm_up, phase="a")
        classifier.freeze()
        weights = LossWeights(mu=mu, nu=nu, delta=1e-6)
        flat = BoundaryGenerator([2, 12, 12, 2], activation=activation, seed=8)
        reference = BoundaryGenerator([2, 12, 12, 2], activation=activation, seed=8)
        trace = train_generator(flat, classifier, normals.inputs, weights, self.SCHEDULE, seed_prefix=(3, 1))
        expected = _reference_train_generator(reference, classifier, normals.inputs, weights, self.SCHEDULE, (3, 1))
        assert trace == expected
        assert flat.flat.data.tobytes() == reference.flat.data.tobytes()
