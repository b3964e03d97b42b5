import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oodlab import nets
from oodlab.nets import Mlp, MlpClassifier, load_checkpoint, save_checkpoint
from oodlab.scoring import (
    MetricReport,
    RobustnessBudget,
    ScoreSet,
    anomaly_scores,
    auroc,
    certified_max_confidence,
    evaluate_ood,
    evaluate_sets,
    ibp_logit_bounds,
    pgd_max_confidence_batch,
    report_scores,
)
from oodlab.losses import _max_softmax
from oodlab.scoring import _ball, _rank_auroc

# frozen from a 40-digit evaluation of the closed forms
AS_123 = 0.6652409557748219
CERT_PM1 = 0.8807970779778824


def _logit_model(weights, biases=None):
    """Single linear layer with prescribed weights (rows = classes)."""
    w = np.asarray(weights, dtype=np.float64)
    model = MlpClassifier([w.shape[1], w.shape[0]], seed=0)
    w0, b0 = model.layers[0]
    w0[...] = w
    b0[...] = 0.0 if biases is None else np.asarray(biases)
    return model


def _row_score(model, x):
    """The anomaly score of one sample, scored as a one-row batch."""
    return anomaly_scores(model, np.atleast_2d(x))[0]


def _row_attack(model, x, budget):
    """The PGD score of one sample, attacked as a one-row batch."""
    return pgd_max_confidence_batch(model, [x], budget)[1][0]


def _starts(xs, budget, seed):
    """The attack's starts: the clean inputs, then one jittered copy per
    restart, drawn for the whole set as ``pgd_max_confidence_batch`` does."""
    starts = [xs]
    lo, hi = _ball(xs, budget.epsilon, budget.input_box)
    rng = np.random.default_rng(seed)
    for _ in range(budget.pgd_restarts):
        starts.append(np.clip(xs + rng.uniform(-budget.epsilon, budget.epsilon, xs.shape), lo, hi))
    return starts, lo, hi


def _full_schedule_pgd(model, xs, budget, seed=0):
    """PGD without the early exit: every start runs pgd_steps + 1 passes over
    all of ``xs``. Returns ``(clean, adversarial)``."""
    starts, lo, hi = _starts(xs, budget, seed)
    clean = best = None
    for adv in starts:
        for step in range(budget.pgd_steps + 1):
            logits, cache = model.forward_with_cache(adv)
            score, vjp = _max_softmax(logits)
            clean = score if clean is None else clean
            best = score if best is None else np.maximum(best, score)
            if step == budget.pgd_steps:
                break
            grad = model.backprop(cache, vjp(np.ones(len(score))), inputs=True)
            adv = np.clip(adv + budget.pgd_step_size * np.sign(grad), lo, hi)
    return clean, best


# (input dim, hidden widths, classes, activation, init seed) of a small MLP
_MLPS = st.tuples(
    st.integers(1, 3),
    st.lists(st.integers(2, 8), min_size=1, max_size=2),
    st.integers(2, 4),
    st.sampled_from(["relu", "tanh"]),
    st.integers(0, 10**6),
)
# (epsilon, pgd_steps, pgd_restarts, whether to clamp to the box [-1, 1])
_ATTACKS = st.tuples(st.sampled_from([0.01, 0.05, 0.2, 0.5]), st.integers(1, 40), st.integers(0, 2), st.booleans())


def _attack_case(mlp, attack):
    d, hidden, classes, activation, init = mlp
    epsilon, steps, restarts, boxed = attack
    model = MlpClassifier([d, *hidden, classes], activation=activation, seed=init)
    budget = RobustnessBudget(
        epsilon=epsilon, pgd_steps=steps, pgd_restarts=restarts, input_box=(-1.0, 1.0) if boxed else None
    )
    return model, budget


def _pass_schedule(monkeypatch, model, xs, budget, seed):
    """Attack ``xs`` and split its forward passes by block and start:
    ``schedule[b][s]`` lists the inputs of start ``s``'s passes in block ``b``.

    A start is found by its first pass, whose input is that start's whole
    block; the starts are searched for in block-major order, so a run that
    is not block-major fails here."""
    inputs = []
    original = Mlp.forward_with_cache

    def recording(self, x):
        inputs.append(np.array(x))
        return original(self, x)

    monkeypatch.setattr(Mlp, "forward_with_cache", recording)
    pgd_max_confidence_batch(model, xs, budget, seed=seed)
    starts = _starts(xs, budget, seed)[0]
    firsts = [(b, start[rows]) for b, rows in enumerate(nets.row_blocks(len(xs))) for start in starts]
    at = []
    for _, first in firsts:
        found = [i for i in range(at[-1] + 1 if at else 0, len(inputs)) if inputs[i].tobytes() == first.tobytes()]
        assert found, "a start's first pass is missing or out of block-major order"
        at.append(found[0])
    assert at[0] == 0
    schedule = [[] for _ in nets.row_blocks(len(xs))]
    for (b, _), i, j in zip(firsts, at, at[1:] + [len(inputs)]):
        schedule[b].append(inputs[i:j])
    return schedule


def _assert_start_schedules(schedule, xs, budget):
    """Each start's passes stay inside its block's balls, begin with the whole
    block, never grow, and number at most pgd_steps + 1."""
    for rows, block in zip(nets.row_blocks(len(xs)), schedule):
        centers = xs[rows]
        sizes = [[len(p) for p in start] for start in block]
        for start, size in zip(block, sizes):
            assert size[0] == len(centers)
            assert all(a >= b for a, b in zip(size, size[1:]))
            assert len(size) <= budget.pgd_steps + 1
            for p in start:
                dist = np.abs(p[:, None, :] - centers[None, :, :]).max(axis=2).min(axis=1)
                assert np.all(dist <= budget.epsilon * (1 + 1e-12))
        assert sum(map(len, sizes)) <= (budget.pgd_restarts + 1) * (budget.pgd_steps + 1)


class TestAnomalyScore:
    def test_uniform_logits(self):
        model = _logit_model(np.zeros((2, 2)))
        assert _row_score(model, [1.0, -1.0]) == pytest.approx(0.5, abs=1e-12)

    def test_saturation(self):
        model = _logit_model([[1e9, 0.0], [0.0, 0.0]])
        assert _row_score(model, [1.0, 0.0]) == pytest.approx(1.0, abs=1e-12)

    def test_frozen_three_class_value(self):
        model = _logit_model(np.eye(3))
        assert _row_score(model, [1.0, 2.0, 3.0]) == pytest.approx(AS_123, abs=1e-12)

    def test_batch_variant_matches_scalar(self):
        # BLAS may round differently per batch shape, so compare to 1e-12
        rng = np.random.default_rng(0)
        model = MlpClassifier([3, 8, 4], seed=1)
        xs = rng.normal(size=(6, 3))
        batch = anomaly_scores(model, xs)
        for i, x in enumerate(xs):
            assert batch[i] == pytest.approx(_row_score(model, x), abs=1e-12)


def _brute_force_auroc(in_scores, out_scores):
    wins = 0.0
    for a in in_scores:
        for b in out_scores:
            if a > b:
                wins += 1.0
            elif a == b:
                wins += 0.5
    return wins / (len(in_scores) * len(out_scores))


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc(ScoreSet([0.9, 0.8], [0.1, 0.2])) == 1.0

    def test_identical_singletons_tie(self):
        assert auroc(ScoreSet([0.5], [0.5])) == 0.5

    def test_mixed_case(self):
        assert auroc(ScoreSet([0.9, 0.8], [0.85, 0.7])) == 0.75

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 60), st.integers(1, 60))
    def test_matches_brute_force_pair_counting(self, seed, n, m):
        rng = np.random.default_rng(seed)
        ins = np.round(rng.uniform(0, 1, n), 2)  # rounding forces ties
        outs = np.round(rng.uniform(0, 1, m), 2)
        assert auroc(ScoreSet(ins, outs)) == pytest.approx(_brute_force_auroc(ins, outs), abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_invariant_under_increasing_transform(self, seed):
        rng = np.random.default_rng(seed)
        ins = rng.uniform(0.01, 0.99, 25)
        outs = rng.uniform(0.01, 0.99, 30)
        base = auroc(ScoreSet(ins, outs))
        squashed = auroc(ScoreSet(ins**3, outs**3))  # strictly increasing on (0,1)
        assert base == pytest.approx(squashed, abs=1e-12)

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError):
            ScoreSet(np.array([]), np.array([0.5]))


class TestPgd:
    def test_epsilon_zero_returns_clean_score_exactly(self):
        model = MlpClassifier([2, 8, 3], seed=3)
        x = np.array([0.4, -0.2])
        budget = RobustnessBudget(epsilon=0.0)
        assert _row_attack(model, x, budget) == _row_score(model, x)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_attack_never_below_clean(self, seed):
        rng = np.random.default_rng(seed)
        model = MlpClassifier([2, 6, 3], seed=seed % 100)
        xs = rng.normal(size=(8, 2))
        budget = RobustnessBudget(epsilon=0.1, pgd_steps=5)
        clean, adv = pgd_max_confidence_batch(model, xs, budget)
        assert clean.tobytes() == anomaly_scores(model, xs).tobytes()
        assert np.all(adv >= clean)

    def test_one_dimensional_linear_scorer_reaches_ball_edge(self):
        # logits [2x, 0]: the score is monotone increasing for x > 0, so the
        # attack must land exactly on x + epsilon
        model = _logit_model([[2.0], [0.0]])
        x0 = 0.5
        budget = RobustnessBudget(epsilon=0.2, pgd_steps=40)
        attacked = _row_attack(model, [x0], budget)
        assert attacked == _row_score(model, [x0 + 0.2])

    def test_input_box_clamps_attack(self):
        model = _logit_model([[2.0], [0.0]])
        budget = RobustnessBudget(epsilon=0.5, pgd_steps=20, input_box=(0.0, 0.6))
        attacked = _row_attack(model, [0.5], budget)
        assert attacked == _row_score(model, [0.6])

    def test_random_restarts_are_seeded(self):
        model = MlpClassifier([2, 6, 3], seed=5)
        xs = np.random.default_rng(0).normal(size=(4, 2))
        budget = RobustnessBudget(epsilon=0.1, pgd_steps=5, pgd_restarts=2)
        a = pgd_max_confidence_batch(model, xs, budget, seed=9)
        b = pgd_max_confidence_batch(model, xs, budget, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_model_grads_untouched_by_attack(self, tmp_path):
        fresh = MlpClassifier([2, 6, 3], seed=5)
        save_checkpoint(fresh, tmp_path / "clf.ckpt")
        for model in (fresh, load_checkpoint(tmp_path / "clf.ckpt")):
            before_flags = [p.requires_grad for p in model.parameters()]
            before = model.flat.data.copy()
            pgd_max_confidence_batch(model, np.zeros((2, 2)), RobustnessBudget(epsilon=0.1, pgd_steps=3))
            assert [p.requires_grad for p in model.parameters()] == before_flags
            assert all(p.grad is not None and np.all(p.grad == 0) for p in model.parameters())
            assert model.flat.data.tobytes() == before.tobytes()

    @pytest.mark.parametrize("restarts", [0, 2])
    def test_one_forward_pass_per_iterate(self, restarts, monkeypatch):
        model = MlpClassifier([2, 6, 3], seed=5)
        xs = np.random.default_rng(0).normal(size=(4, 2))
        budget = RobustnessBudget(epsilon=0.1, pgd_steps=40, pgd_restarts=restarts)
        schedule = _pass_schedule(monkeypatch, model, xs, budget, seed=1)
        assert len(schedule) == 1 and len(schedule[0]) == restarts + 1
        _assert_start_schedules(schedule, xs, budget)
        # forty steps of epsilon/10 let rows settle, so starts end early
        assert any(len(start) < budget.pgd_steps + 1 for block in schedule for start in block)

    @pytest.mark.parametrize("restarts", [0, 2])
    def test_blocks_run_block_major(self, restarts, monkeypatch):
        monkeypatch.setattr(nets, "BLOCK_ROWS", 4)
        model = MlpClassifier([2, 6, 3], seed=5)
        xs = np.random.default_rng(0).normal(size=(10, 2))
        budget = RobustnessBudget(epsilon=0.1, pgd_steps=40, pgd_restarts=restarts)
        schedule = _pass_schedule(monkeypatch, model, xs, budget, seed=1)
        assert [len(block) for block in schedule] == [restarts + 1] * 3
        _assert_start_schedules(schedule, xs, budget)
        # forty steps of epsilon/10 let rows settle, so starts end early
        assert any(len(start) < budget.pgd_steps + 1 for block in schedule for start in block)

    def test_linear_scorer_stops_at_the_ball_edge(self, monkeypatch):
        # the iterate climbs 0.5 -> 0.7 in ten steps of 0.02, then sits on the
        # ball edge: eleven passes, not pgd_steps + 1 = 41
        calls = []
        original = Mlp.forward_with_cache

        def counting(self, x):
            calls.append(len(x))
            return original(self, x)

        model = _logit_model([[2.0], [0.0]])
        monkeypatch.setattr(Mlp, "forward_with_cache", counting)
        _row_attack(model, [0.5], RobustnessBudget(epsilon=0.2, pgd_steps=40))
        assert calls == [1] * 11

    @settings(max_examples=120, deadline=None)
    @given(_MLPS, _ATTACKS, st.integers(0, 2**32 - 1))
    def test_single_row_attack_equals_the_full_schedule(self, mlp, attack, seed):
        # one row keeps every pass the same size, so the exit may change no bit
        model, budget = _attack_case(mlp, attack)
        d = model.input_dim
        low, high = budget.input_box or (-1.0, 1.0)
        for x in np.random.default_rng(seed).uniform(low, high, (4, 1, d)):
            clean, adv = pgd_max_confidence_batch(model, x, budget, seed=seed)
            want_clean, want_adv = _full_schedule_pgd(model, x, budget, seed=seed)
            assert clean.tobytes() == want_clean.tobytes()
            assert adv.tobytes() == want_adv.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(_MLPS, _ATTACKS, st.integers(0, 2**32 - 1), st.integers(2, 40))
    def test_multi_row_attack_matches_the_full_schedule(self, mlp, attack, seed, rows):
        # a shrinking live set may round a row's matmul differently, so only
        # the clean start is bit-exact
        model, budget = _attack_case(mlp, attack)
        low, high = budget.input_box or (-1.0, 1.0)
        xs = np.random.default_rng(seed).uniform(low, high, (rows, model.input_dim))
        clean, adv = pgd_max_confidence_batch(model, xs, budget, seed=seed)
        cert = certified_max_confidence(*ibp_logit_bounds(model, xs, budget.epsilon, input_box=budget.input_box))
        assert clean.tobytes() == anomaly_scores(model, xs).tobytes()
        assert np.all(clean <= adv) and np.all(adv <= cert)
        want_clean, want_adv = _full_schedule_pgd(model, xs, budget, seed=seed)
        np.testing.assert_allclose(clean, want_clean, rtol=0, atol=1e-12)
        np.testing.assert_allclose(adv, want_adv, rtol=0, atol=1e-12)

    def test_blocked_restarts_match_unblocked(self, monkeypatch):
        # the restart jitter is drawn once for all rows, not per block
        model = MlpClassifier([2, 6, 3], activation="tanh", seed=5)
        xs = np.random.default_rng(3).normal(size=(10, 2))
        budget = RobustnessBudget(epsilon=0.1, pgd_steps=6, pgd_restarts=2)
        whole = pgd_max_confidence_batch(model, xs, budget, seed=4)
        monkeypatch.setattr(nets, "BLOCK_ROWS", 4)
        blocked = pgd_max_confidence_batch(model, xs, budget, seed=4)
        for a, b in zip(whole, blocked):
            np.testing.assert_allclose(b, a, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_score_order_holds_across_block_edges(self, activation, monkeypatch):
        monkeypatch.setattr(nets, "BLOCK_ROWS", 4)
        model = MlpClassifier([2, 8, 3], activation=activation, seed=2)
        xs = np.random.default_rng(8).normal(size=(10, 2))
        budget = RobustnessBudget(epsilon=0.1, pgd_steps=5, pgd_restarts=1)
        clean, adv = pgd_max_confidence_batch(model, xs, budget, seed=3)
        cert = certified_max_confidence(*ibp_logit_bounds(model, xs, budget.epsilon))
        assert clean.tobytes() == anomaly_scores(model, xs).tobytes()
        assert np.all(adv >= clean) and np.all(cert >= adv)


class TestIbp:
    def test_epsilon_zero_collapses_to_exact_logits(self):
        model = MlpClassifier([3, 8, 4], activation="relu", seed=7)
        x = np.random.default_rng(1).normal(size=(5, 3))
        lo, hi = ibp_logit_bounds(model, x, 0.0)
        exact = model.forward_array(x)
        np.testing.assert_array_equal(lo, exact)
        np.testing.assert_array_equal(hi, exact)

    @pytest.mark.parametrize("rows", [5, 24, 4096])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_epsilon_zero_is_bit_equal_to_forward_at_any_batch_size(self, rows, activation):
        model = MlpClassifier([2, 48, 48, 3], activation=activation, seed=5)
        x = np.random.default_rng(rows).normal(size=(rows, 2))
        lo, hi = ibp_logit_bounds(model, x, 0.0)
        exact = model.forward_array(x).tobytes()
        assert lo.tobytes() == exact and hi.tobytes() == exact

    @pytest.mark.parametrize("rows", [1025, 2051])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_epsilon_zero_is_bit_equal_to_forward_with_a_short_last_block(self, rows, activation):
        model = MlpClassifier([2, 48, 48, 3], activation=activation, seed=6)
        x = np.random.default_rng(rows).normal(size=(rows, 2))
        lo, hi = ibp_logit_bounds(model, x, 0.0)
        exact = model.forward_array(x).tobytes()
        assert lo.tobytes() == exact and hi.tobytes() == exact

    def test_single_affine_layer_is_exact(self):
        model = _logit_model([[1.0]])
        lo, hi = ibp_logit_bounds(model, [0.5], 0.1)
        np.testing.assert_allclose(lo, [0.4])
        np.testing.assert_allclose(hi, [0.6])

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_sound_on_random_ball_samples(self, seed):
        rng = np.random.default_rng(seed)
        model = MlpClassifier([2, 6, 3], activation="relu" if seed % 2 else "tanh", seed=seed % 997)
        x = rng.normal(size=2)
        eps = 0.1
        lo, hi = ibp_logit_bounds(model, x, eps)
        points = x + rng.uniform(-eps, eps, (1000, 2))
        logits = model.forward_array(points)
        assert np.all(logits >= lo)
        assert np.all(logits <= hi)

    @settings(max_examples=80, deadline=None)
    @given(_MLPS, _ATTACKS, st.integers(0, 2**32 - 1))
    def test_sound_under_rounding_at_corners_and_samples(self, mlp, attack, seed):
        # no slack: the bounds hold for the rounded logits and scores that
        # forward_array, anomaly_scores and PGD compute anywhere in the ball
        model, budget = _attack_case(mlp, attack)
        rng = np.random.default_rng(seed)
        low, high = budget.input_box or (-1.0, 1.0)
        xs = rng.uniform(low, high, (6, model.input_dim))
        lo, hi = ibp_logit_bounds(model, xs, budget.epsilon, input_box=budget.input_box)
        cert = certified_max_confidence(lo, hi)
        ball_lo, ball_hi = _ball(xs, budget.epsilon, budget.input_box)
        corners = [np.where(np.array(c, bool), ball_hi, ball_lo) for c in np.ndindex(*[2] * model.input_dim)]
        samples = [ball_lo + rng.uniform(0, 1, xs.shape) * (ball_hi - ball_lo) for _ in range(20)]
        for points in corners + samples:
            points = np.clip(points, ball_lo, ball_hi)
            logits = model.forward_array(points)
            assert np.all(lo <= logits) and np.all(logits <= hi)
            assert np.all(anomaly_scores(model, points) <= cert)
        assert np.all(pgd_max_confidence_batch(model, xs, budget, seed=seed)[1] <= cert)

    def test_unsupported_activation_rejected(self):
        model = MlpClassifier([2, 4, 2], seed=0)
        model.activation = "softplus"
        with pytest.raises(ValueError, match="softplus"):
            ibp_logit_bounds(model, np.zeros(2), 0.1)


class TestCertified:
    def test_degenerate_intervals_equal_anomaly_score(self):
        model = MlpClassifier([3, 8, 4], seed=9)
        x = np.random.default_rng(2).normal(size=(4, 3))
        lo, hi = ibp_logit_bounds(model, x, 0.0)
        np.testing.assert_array_equal(certified_max_confidence(lo, hi), anomaly_scores(model, x))

    def test_frozen_two_class_value(self):
        value = certified_max_confidence(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        assert value == pytest.approx(CERT_PM1, abs=1e-12)
        direct = np.exp(1) / (np.exp(1) + np.exp(-1))
        assert value == pytest.approx(direct, abs=1e-12)

    def test_pgd_cannot_beat_a_tight_bound_by_rounding(self):
        # round-to-nearest bounds left one of these rows 1.1e-16 below its PGD score
        model = MlpClassifier([1, 2, 2], activation="relu", seed=0)
        xs = np.random.default_rng(0).uniform(-1, 1, (14, 1))
        budget = RobustnessBudget(epsilon=0.01, pgd_steps=1, pgd_restarts=1)
        _, adv = pgd_max_confidence_batch(model, xs, budget, seed=0)
        cert = certified_max_confidence(*ibp_logit_bounds(model, xs, budget.epsilon))
        assert np.all(adv <= cert)

    def test_inverted_interval_rejected(self):
        with pytest.raises(ValueError, match="inverted"):
            certified_max_confidence(np.array([1.0, 0.0]), np.array([0.5, 1.0]))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_certified_dominates_pgd(self, seed):
        rng = np.random.default_rng(seed)
        model = MlpClassifier([2, 6, 3], activation="tanh", seed=seed % 911)
        xs = rng.normal(size=(5, 2))
        budget = RobustnessBudget(epsilon=0.05, pgd_steps=10)
        _, adv = pgd_max_confidence_batch(model, xs, budget)
        lo, hi = ibp_logit_bounds(model, xs, budget.epsilon)
        cert = certified_max_confidence(lo, hi)
        assert np.all(cert >= adv)


class TestEvaluate:
    def _sets(self, seed=0):
        rng = np.random.default_rng(seed)
        model = MlpClassifier([2, 8, 3], activation="tanh", seed=11)
        in_set = rng.normal(0, 0.3, (20, 2))
        out_set = rng.normal(0, 0.3, (20, 2)) + 2.0
        return model, in_set, out_set

    def test_epsilon_zero_makes_all_three_metrics_coincide_exactly(self):
        model, in_set, out_set = self._sets()
        report = evaluate_ood(model, in_set, out_set, RobustnessBudget(epsilon=0.0))
        assert report.auroc == report.aauroc == report.gauroc

    def test_metric_ordering_for_positive_epsilon(self):
        model, in_set, out_set = self._sets()
        report = evaluate_ood(model, in_set, out_set, RobustnessBudget(epsilon=0.08))
        assert report.gauroc <= report.aauroc <= report.auroc

    def test_matches_chained_component_ops(self):
        model, in_set, out_set = self._sets(seed=5)
        budget = RobustnessBudget(epsilon=0.05, pgd_steps=10)
        report = evaluate_ood(model, in_set, out_set, budget)
        in_clean = np.array([_row_score(model, x) for x in in_set])
        out_clean = np.array([_row_score(model, x) for x in out_set])
        out_adv = np.array([_row_attack(model, x, budget) for x in out_set])
        out_cert = []
        for x in out_set:
            lo, hi = ibp_logit_bounds(model, x, budget.epsilon)
            out_cert.append(certified_max_confidence(lo, hi))
        assert report.auroc == pytest.approx(auroc(ScoreSet(in_clean, out_clean)), abs=1e-12)
        assert report.aauroc == pytest.approx(auroc(ScoreSet(in_clean, out_adv)), abs=1e-12)
        assert report.gauroc == pytest.approx(auroc(ScoreSet(in_clean, np.array(out_cert))), abs=1e-12)

    def test_score_dump_schema(self, tmp_path):
        model, in_set, out_set = self._sets()
        path = tmp_path / "scores.csv"
        evaluate_ood(model, in_set, out_set, RobustnessBudget(epsilon=0.05), dump_csv=path)
        lines = path.read_text().splitlines()
        assert lines[0] == "sample_id,set,clean_score,adv_score,cert_upper"
        assert len(lines) == 1 + 40
        first_in = lines[1].split(",")
        assert first_in[0] == "in-0" and first_in[1] == "in"
        assert first_in[2] == first_in[3] == first_in[4]  # in-samples stay clean
        first_out = lines[21].split(",")
        assert first_out[0] == "out-0" and first_out[1] == "out"
        clean, adv, cert = map(float, first_out[2:])
        assert clean <= adv <= cert

    def test_score_dump_is_every_value_at_17_digits(self, tmp_path):
        model, in_set, out_set = self._sets()
        budget = RobustnessBudget(epsilon=0.05, pgd_steps=5)
        path = tmp_path / "scores.csv"
        evaluate_ood(model, in_set, out_set, budget, dump_csv=path)
        in_clean = anomaly_scores(model, in_set)
        out_clean, out_adv = pgd_max_confidence_batch(model, out_set, budget)
        out_cert = certified_max_confidence(*ibp_logit_bounds(model, out_set, budget.epsilon))
        want = ["sample_id,set,clean_score,adv_score,cert_upper"]
        want += [f"in-{i},in," + ",".join([format(v, ".17g")] * 3) for i, v in enumerate(in_clean)]
        want += [
            f"out-{i},out," + ",".join(format(v, ".17g") for v in row)
            for i, row in enumerate(zip(out_clean, out_adv, out_cert))
        ]
        assert path.read_text(encoding="utf-8") == "\n".join(want) + "\n"

    def test_report_and_dump_are_report_scores_of_the_public_pieces(self, tmp_path):
        model, in_set, out_set = self._sets(seed=3)
        budget = RobustnessBudget(epsilon=0.05, pgd_steps=5, input_box=(-2.0, 4.0))
        got = evaluate_ood(model, in_set, out_set, budget, fingerprint="fp", dump_csv=tmp_path / "a.csv")
        out_clean, out_adv = pgd_max_confidence_batch(model, out_set, budget)
        out_cert = certified_max_confidence(*ibp_logit_bounds(model, out_set, budget.epsilon, input_box=budget.input_box))
        want = report_scores(
            anomaly_scores(model, in_set), out_clean, out_adv, out_cert, budget, fingerprint="fp", dump_csv=tmp_path / "b.csv"
        )
        assert got == want
        assert (want.n_in, want.n_out, want.epsilon, want.tau) == (20, 20, 0.05, 0.5)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_report_scores_checks_each_array(self):
        budget = RobustnessBudget(epsilon=0.05)
        ins, outs = np.array([0.9, 0.8]), np.array([0.2, 0.3, 0.4])
        with pytest.raises(ValueError, match=r"differ in length \(clean, adversarial, certified\): \[3, 3, 2\]"):
            report_scores(ins, outs, outs, outs[:2], budget, fingerprint="", dump_csv=None)
        with pytest.raises(ValueError, match="out_scores has a non-finite value at index 1"):
            report_scores(ins, outs, np.array([0.2, np.nan, 0.4]), outs, budget, fingerprint="", dump_csv=None)
        with pytest.raises(ValueError, match="ordering"):
            report_scores(ins, outs, np.ones(3), outs, budget, fingerprint="", dump_csv=None)

    def test_rows_outside_the_input_box_rejected_naming_the_row(self):
        model, in_set, out_set = self._sets()
        budget = RobustnessBudget(epsilon=0.05, input_box=(-1.0, 3.0))
        out_set[4, 0] = -1.5
        with pytest.raises(ValueError, match=r"row 4 .* outside input_box \[-1.0, 3.0\]"):
            evaluate_ood(model, in_set, out_set, budget)
        with pytest.raises(ValueError, match=r"row 4 .* outside input_box \[-1.0, 3.0\]"):
            pgd_max_confidence_batch(model, out_set, budget)
        with pytest.raises(ValueError, match=r"row 4 .* outside input_box \[-1.0, 3.0\]"):
            ibp_logit_bounds(model, out_set, budget.epsilon, input_box=budget.input_box)
        # in-samples are never perturbed, so they may lie anywhere
        evaluate_ood(model, in_set - 5.0, out_set[5:], budget)

    def test_one_clean_pass_per_set(self, monkeypatch):
        # the out-set clean scores are PGD's first iterate, not a pass of their own
        calls = []
        original = Mlp.forward_with_cache

        def counting(self, x):
            calls.append(len(x))
            return original(self, x)

        model, in_set, out_set = self._sets()
        monkeypatch.setattr(Mlp, "forward_with_cache", counting)
        evaluate_ood(model, in_set[:7], out_set[:5], RobustnessBudget(epsilon=0.05, pgd_steps=3))
        assert calls == [7, 5, 5, 5, 5]

    def test_empty_sets_rejected(self):
        model, in_set, out_set = self._sets()
        with pytest.raises(ValueError):
            evaluate_ood(model, np.zeros((0, 2)), out_set, RobustnessBudget())

    def test_evaluate_sets_needs_an_out_set_and_rows_in_each(self):
        model, in_set, out_set = self._sets()
        for out_sets in ({}, {"a": out_set, "b": np.zeros((0, 2))}):
            with pytest.raises(ValueError, match="^evaluate_ood needs non-empty in and out sets$"):
                evaluate_sets(model, in_set, out_sets, RobustnessBudget(), fingerprint="", dump_csv=None)

    @pytest.mark.parametrize("side", ["in_inputs", "out_inputs"])
    def test_non_finite_input_rejected_naming_set_and_row(self, side):
        model, in_set, out_set = self._sets()
        sets = {"in_inputs": in_set, "out_inputs": out_set}
        sets[side][3, 1] = np.nan
        with pytest.raises(ValueError, match=f"{side} has a non-finite value in row 3"):
            evaluate_ood(model, sets["in_inputs"], sets["out_inputs"], RobustnessBudget())


class TestBudgetAndReportValidation:
    def test_step_size_defaults_to_tenth_of_epsilon(self):
        assert RobustnessBudget(epsilon=0.5).pgd_step_size == pytest.approx(0.05)

    def test_step_size_cannot_exceed_epsilon(self):
        with pytest.raises(ValueError):
            RobustnessBudget(epsilon=0.1, pgd_step_size=0.2)

    @pytest.mark.parametrize(
        "field, kwargs",
        [
            ("epsilon", {"epsilon": float("nan")}),
            ("epsilon", {"epsilon": float("inf")}),
            ("pgd_step_size", {"pgd_step_size": float("nan")}),
            ("pgd_step_size", {"epsilon": 0.0, "pgd_step_size": float("inf")}),
        ],
    )
    def test_non_finite_budget_rejected_naming_the_field(self, field, kwargs):
        with pytest.raises(ValueError, match=f"^{field}: "):
            RobustnessBudget(**kwargs)

    def test_tau_range_checked(self):
        with pytest.raises(ValueError):
            RobustnessBudget(tau=1.5)

    def test_scores_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            ScoreSet(np.array([0.5]), np.array([1.2]))

    def test_non_finite_scores_rejected(self):
        with pytest.raises(ValueError, match="out_scores has a non-finite value at index 1"):
            ScoreSet(np.array([0.5]), np.array([0.5, np.nan]))

    def test_report_ordering_enforced_at_construction(self):
        with pytest.raises(ValueError, match="ordering"):
            MetricReport(auroc=0.7, aauroc=0.9, gauroc=0.5, epsilon=0.05, tau=0.5, n_in=1, n_out=1)
        # epsilon 0 reports are not constrained by the chain
        MetricReport(auroc=0.7, aauroc=0.7, gauroc=0.7, epsilon=0.0, tau=0.5, n_in=1, n_out=1)


def _loop_rank_auroc(in_scores, out_scores):
    """Mann-Whitney AUROC with a per-element walk over each run of ties."""
    n, m = in_scores.size, out_scores.size
    combined = np.concatenate([in_scores, out_scores])
    order = np.argsort(combined, kind="mergesort")
    ranks = np.empty(n + m, dtype=np.float64)
    sorted_vals = combined[order]
    i = 0
    while i < n + m:
        j = i
        while j + 1 < n + m and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return float((ranks[:n].sum() - n * (n + 1) / 2.0) / (n * m))


_TIED_SCORES = st.lists(
    st.one_of(
        st.sampled_from([0.0, -0.0, 0.1, 0.25, 0.5, np.nextafter(0.5, 1.0), 0.9, 1.0]),
        st.floats(0.0, 1.0),
    ),
    min_size=1,
    max_size=400,
)


@settings(max_examples=200, deadline=None)
@given(_TIED_SCORES, _TIED_SCORES)
@example([0.5], [0.5])
@example([0.25], [0.1, 0.9, 0.25])
@example([0.1, 0.9, 0.25, -0.0], [0.0])
def test_rank_auroc_equals_the_tie_loop(in_scores, out_scores):
    a, b = np.array(in_scores), np.array(out_scores)
    assert _rank_auroc(a, b) == _loop_rank_auroc(a, b)
