import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oodlab.nets import Mlp, MlpClassifier, load_checkpoint, save_checkpoint
from oodlab.scoring import (
    IN_DISTRIBUTION,
    OUT_OF_DISTRIBUTION,
    MetricReport,
    RobustnessBudget,
    ScoreSet,
    anomaly_score,
    anomaly_scores,
    auroc,
    calibrate_threshold,
    certified_max_confidence,
    classify_with_threshold,
    evaluate_ood,
    ibp_logit_bounds,
    pgd_max_confidence,
    pgd_max_confidence_batch,
)
from oodlab.scoring import _rank_auroc

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


class TestAnomalyScore:
    def test_uniform_logits(self):
        model = _logit_model(np.zeros((2, 2)))
        assert anomaly_score(model, [1.0, -1.0]) == pytest.approx(0.5, abs=1e-12)

    def test_saturation(self):
        model = _logit_model([[1e9, 0.0], [0.0, 0.0]])
        assert anomaly_score(model, [1.0, 0.0]) == pytest.approx(1.0, abs=1e-12)

    def test_frozen_three_class_value(self):
        model = _logit_model(np.eye(3))
        assert anomaly_score(model, [1.0, 2.0, 3.0]) == pytest.approx(AS_123, abs=1e-12)

    def test_batch_variant_matches_scalar(self):
        # BLAS may round differently per batch shape, so compare to 1e-12
        rng = np.random.default_rng(0)
        model = MlpClassifier([3, 8, 4], seed=1)
        xs = rng.normal(size=(6, 3))
        batch = anomaly_scores(model, xs)
        for i, x in enumerate(xs):
            assert batch[i] == pytest.approx(anomaly_score(model, x), abs=1e-12)


class TestThreshold:
    def test_below_is_ood(self):
        assert classify_with_threshold(0.3, 0.5) == OUT_OF_DISTRIBUTION

    def test_tie_is_in_distribution(self):
        assert classify_with_threshold(0.5, 0.5) == IN_DISTRIBUTION

    def test_above_is_in_distribution(self):
        assert classify_with_threshold(0.9, 0.5) == IN_DISTRIBUTION

    def test_calibrate_constant_scores(self):
        assert calibrate_threshold(np.full(20, 0.9), 0.95) == 0.9

    def test_calibrate_deciles(self):
        deciles = np.arange(0.1, 1.05, 0.1)
        assert calibrate_threshold(deciles, 0.5) == pytest.approx(0.6)

    def test_calibrate_full_tpr_returns_min(self):
        scores = np.array([0.2, 0.8, 0.5])
        assert calibrate_threshold(scores, 1.0) == pytest.approx(0.2)

    def test_calibrate_empty_rejected(self):
        with pytest.raises(ValueError):
            calibrate_threshold(np.array([]), 0.9)


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
        assert pgd_max_confidence(model, x, budget) == anomaly_score(model, x)

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
        attacked = pgd_max_confidence(model, [x0], budget)
        assert attacked == anomaly_score(model, [x0 + 0.2])

    def test_input_box_clamps_attack(self):
        model = _logit_model([[2.0], [0.0]])
        budget = RobustnessBudget(epsilon=0.5, pgd_steps=20, input_box=(0.0, 0.6))
        attacked = pgd_max_confidence(model, [0.5], budget)
        assert attacked == anomaly_score(model, [0.6])

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
        calls = []
        original = Mlp.forward_with_cache

        def counting(self, x):
            calls.append(len(x))
            return original(self, x)

        monkeypatch.setattr(Mlp, "forward_with_cache", counting)
        model = MlpClassifier([2, 6, 3], seed=5)
        xs = np.random.default_rng(0).normal(size=(4, 2))
        budget = RobustnessBudget(epsilon=0.1, pgd_steps=7, pgd_restarts=restarts)
        pgd_max_confidence_batch(model, xs, budget, seed=1)
        assert calls == [4] * ((restarts + 1) * (budget.pgd_steps + 1))


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
        assert np.all(logits >= lo - 1e-12)
        assert np.all(logits <= hi + 1e-12)

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
        in_clean = np.array([anomaly_score(model, x) for x in in_set])
        out_clean = np.array([anomaly_score(model, x) for x in out_set])
        out_adv = np.array([pgd_max_confidence(model, x, budget) for x in out_set])
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


_TIED_SCORES = st.lists(st.sampled_from([0.0, -0.0, 0.1, 0.25, 0.5, np.nextafter(0.5, 1.0), 0.9, 1.0]), min_size=1, max_size=60)


@settings(max_examples=200, deadline=None)
@given(_TIED_SCORES, _TIED_SCORES)
def test_rank_auroc_equals_the_tie_loop(in_scores, out_scores):
    a, b = np.array(in_scores), np.array(out_scores)
    assert _rank_auroc(a, b) == _loop_rank_auroc(a, b)
