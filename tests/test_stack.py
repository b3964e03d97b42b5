"""Training runs as one stack: every entry keeps the bits of its run alone.

A stack (``Mlp.stack``) puts E models' parameters in the rows of one flat
leaf and runs their passes as one ``(E, rows, d)`` pass. numpy's stacked
matmul is one dgemm per entry and every reduction runs along trailing axes,
so a stacked pass, loss term or training step must equal the per-entry one
bit for bit, under any OpenBLAS kernel.
"""

import concurrent.futures
import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oodlab import autodiff as ad
from oodlab import harness, losses, training
from oodlab.config import config_from_dict
from oodlab.data import LabeledBatch, LatentBatch, OutlierPool
from oodlab.harness import run_ablation, run_fewshot_sweep, run_occ, run_single
from oodlab.nets import BoundaryGenerator, MlpClassifier


def _bits(*arrays) -> list[bytes]:
    return [np.ascontiguousarray(a).tobytes() for a in arrays]


def _stack_of(cls, entries: int, sizes, activation):
    """A stack of ``entries`` fresh models and an unstacked copy of each."""
    models = [cls(sizes, activation=activation, seed=10 + e) for e in range(entries)]
    alone = [copy.deepcopy(m) for m in models]
    return cls.stack(models), alone


def _as_stacked(stack, a: np.ndarray) -> np.ndarray:
    """``a`` (entries, ...) as the stack takes it: a stack of one drops the entry axis."""
    return np.reshape(a, (*stack.flat.data.shape[:-1], *a.shape[1:]))


def _per_entry(entries: int, a) -> np.ndarray:
    """A stacked result with its entry axis, also for a stack of one."""
    a = np.asarray(a)
    return a if entries > 1 else a[None]


@settings(max_examples=40, deadline=None)
@given(
    entries=st.integers(1, 6),
    activation=st.sampled_from(["relu", "tanh"]),
    classes=st.integers(2, 9),
    d=st.sampled_from([2, 8]),
    rows=st.sampled_from([(24, 64), (64, 64), (3, 5)]),
    seed=st.integers(0, 2**31 - 1),
)
def test_stacked_passes_and_terms_equal_each_entry_alone(entries, activation, classes, d, rows, seed):
    """Forward, backprop, cross-entropy, negative training and dominance on
    a classifier stack, and dispersion and proximity on generator outputs,
    with a short batch (24 normals over 64 negatives), both sides of
    ``_log_softmax_parts``' 8-class switch and both branches of
    ``_squared_distances``."""
    rng = np.random.default_rng(seed)
    n, m = rows
    stack, alone = _stack_of(MlpClassifier, entries, [d, 12, 12, classes], activation)
    x = rng.normal(size=(entries, n + m, d))
    logits, cache = stack.forward_with_cache(_as_stacked(stack, x))
    g = rng.normal(size=(entries, *logits.shape[-2:]))
    grad = np.empty_like(stack.flat.data)
    g_in = stack.backprop(cache, _as_stacked(stack, g), grad, inputs=True)
    labels = rng.integers(0, classes, (entries, n))
    ce, ce_vjp = losses._cross_entropy(logits[..., :n, :], _as_stacked(stack, labels))
    nt, nt_vjp = losses._negative_training(logits[..., n:, :])
    k = min(n, m)
    dom, dom_vjp = losses._dominance(logits[..., :k, :], logits[..., n : n + k, :])
    upstream = rng.normal(size=entries)
    up = _as_stacked(stack, upstream)
    logits, grad, g_in, ce, nt, dom = (_per_entry(entries, a) for a in (logits, grad, g_in, ce, nt, dom))
    stacked = [_per_entry(entries, vjp(up)) for vjp in (ce_vjp, nt_vjp, dom_vjp)]
    for e, model in enumerate(alone):
        out_e, cache_e = model.forward_with_cache(x[e])
        grad_e = np.empty_like(model.flat.data)
        g_in_e = model.backprop(cache_e, g[e], grad_e, inputs=True)
        assert _bits(logits[e], grad[e], g_in[e]) == _bits(out_e, grad_e, g_in_e)
        ce_e, ce_vjp_e = losses._cross_entropy(out_e[:n], labels[e])
        nt_e, nt_vjp_e = losses._negative_training(out_e[n:])
        dom_e, dom_vjp_e = losses._dominance(out_e[:k], out_e[n : n + k])
        assert _bits(ce[e], nt[e], dom[e]) == _bits(ce_e, nt_e, dom_e)
        alone_grads = [ce_vjp_e(upstream[e]), nt_vjp_e(upstream[e]), dom_vjp_e(upstream[e])]
        assert _bits(*(s[e] for s in stacked)) == _bits(*alone_grads)

    # the loss cores also take any leading entry axis of their own
    latents = rng.normal(size=(entries, n, 2))
    outputs = rng.normal(size=(entries, n, d))
    reference = rng.normal(size=(entries, m, d))
    disp, disp_vjp = losses._dispersion(outputs, latents, 1e-6)
    prox, prox_vjp = losses._proximity(outputs, reference)
    via_disp, via_prox = disp_vjp(upstream), prox_vjp(upstream)
    for e in range(entries):
        disp_e, disp_vjp_e = losses._dispersion(outputs[e], latents[e], 1e-6)
        prox_e, prox_vjp_e = losses._proximity(outputs[e], reference[e])
        assert _bits(disp[e], via_disp[e]) == _bits(disp_e, disp_vjp_e(upstream[e]))
        assert _bits(prox[e], via_prox[e]) == _bits(prox_e, prox_vjp_e(upstream[e]))


@pytest.mark.parametrize("entries", [1, 3])
def test_stacked_losses_equal_each_entry_alone(entries):
    """The fused classifier and generator losses of a stack: one value and
    one flat gradient row per entry, each that entry's own."""
    rng = np.random.default_rng(3)
    clf, clf_alone = _stack_of(MlpClassifier, entries, [2, 16, 16, 3], "tanh")
    gen, gen_alone = _stack_of(BoundaryGenerator, entries, [2, 16, 16, 2], "tanh")
    weights = losses.LossWeights(lam=0.7, mu=1.0, nu=0.3)
    # each entry's 24 labelled normals with its 64 negatives below them
    inputs = np.concatenate([rng.normal(size=(entries, 24, 2)), rng.uniform(-1.5, 1.5, (entries, 64, 2))], axis=1)
    labels = rng.integers(0, 3, (entries, 24))
    latents = [LatentBatch(rng.normal(size=(16, 2)), seed=(4, e)) for e in range(entries)]
    references = rng.normal(size=(entries, 32, 2))
    clf_loss = losses.classifier_loss(clf, _as_stacked(clf, inputs), _as_stacked(clf, labels), weights)
    (clf_grad,) = clf_loss.vjp(np.ones(clf_loss.shape))
    clf.freeze()
    gen_loss = losses.generator_loss(gen, clf, latents, _as_stacked(gen, references), weights)
    (gen_grad,) = gen_loss.vjp(np.ones(gen_loss.shape))
    clf_loss, clf_grad, gen_loss, gen_grad = (_per_entry(entries, a) for a in (clf_loss.data, clf_grad, gen_loss.data, gen_grad))
    for e in range(entries):
        one = losses.classifier_loss(clf_alone[e], inputs[e], labels[e], weights)
        assert _bits(clf_loss[e], clf_grad[e]) == _bits(one.data, one.vjp(np.ones(()))[0])
        clf_alone[e].freeze()
        one = losses.generator_loss(gen_alone[e], clf_alone[e], latents[e], references[e], weights)
        assert _bits(gen_loss[e], gen_grad[e]) == _bits(one.data, one.vjp(np.ones(()))[0])


def test_a_stack_s_losses_reject_batches_that_are_not_one_per_entry():
    rng = np.random.default_rng(4)
    clf, _ = _stack_of(MlpClassifier, 2, [2, 8, 3], "tanh")
    gen, _ = _stack_of(BoundaryGenerator, 2, [2, 8, 2], "tanh")
    weights = losses.LossWeights()
    inputs, labels = rng.normal(size=(2, 12, 2)), np.zeros((2, 8), dtype=np.int64)
    with pytest.raises(ad.ShapeMismatchError, match="classifier-forward"):
        losses.classifier_loss(clf, inputs[:1], labels[:1], weights)
    with pytest.raises(ad.ShapeMismatchError, match="classifier-forward"):
        losses.classifier_loss(clf, inputs[0], labels[0], weights)
    with pytest.raises(ad.ShapeMismatchError, match="classifier-forward"):
        losses.classifier_loss(clf, rng.normal(size=(2, 12, 3)), labels, weights)
    with pytest.raises(ad.ShapeMismatchError, match="cross_entropy_term"):
        losses.classifier_loss(clf, inputs, labels[:1], weights)
    clf.freeze()
    latents = [LatentBatch(rng.normal(size=(8, 2)), seed=(1, e)) for e in range(2)]
    references = rng.normal(size=(2, 8, 2))
    with pytest.raises(ValueError, match="no pairing_seed"):
        losses.generator_loss(gen, clf, latents, references, weights, pairing_seed=3)
    with pytest.raises(ValueError, match="takes 2 LatentBatches"):
        losses.generator_loss(gen, clf, [z.values for z in latents], references, weights)
    with pytest.raises(ValueError, match="takes 2 LatentBatches"):
        losses.generator_loss(gen, clf, latents[:1], references, weights)
    for mu in (1.0, 0.0):  # with and without the dominance pass over the reference
        with pytest.raises(ad.ShapeMismatchError):
            losses.generator_loss(gen, clf, latents, references[:1], losses.LossWeights(mu=mu))
    # each entry's own width is checked, not reshaped away: (4, 3) latents are not (6, 2) ones
    wide = [LatentBatch(rng.normal(size=(4, 3)), seed=(1, e)) for e in range(2)]
    with pytest.raises(ad.ShapeMismatchError, match="generator-forward"):
        losses.generator_loss(gen, clf, wide, references, weights)
    with pytest.raises(ad.ShapeMismatchError):
        losses.generator_loss(gen, clf, latents, rng.normal(size=(2, 8, 3)), weights)


def test_a_stack_shares_its_members_memory():
    models = [MlpClassifier([2, 8, 3], seed=s) for s in (1, 2)]
    rows = [m.flat.data.copy() for m in models]
    stack = MlpClassifier.stack(models)
    assert [m.flat.data.tobytes() for m in models] == [r.tobytes() for r in rows]
    stack.layers[0][0][1, 0, 0] = 5.0
    assert models[1].layers[0][0][0, 0] == 5.0 and models[1].flat.data[0] == 5.0
    assert all(np.shares_memory(w, stack.flat.data) for m in models for layer in m.layers for w in layer)
    one = MlpClassifier([2, 8, 3], seed=3)
    assert MlpClassifier.stack([one]).flat is one.flat  # a stack of one is its model's own 2-D leaf
    with pytest.raises(ValueError, match="cannot stack"):
        MlpClassifier.stack([one, MlpClassifier([2, 8, 3], activation="tanh")])


@pytest.mark.parametrize("mode", ["ii", "iii"])
@pytest.mark.parametrize("jobs", [1, 2])
def test_every_sweep_entry_equals_its_run_alone(tiny_doc, mode, jobs):
    """The determinism contract: a count trained in a stack (with a count of
    0 among them, which trains phase A apart) has the weights, traces and
    reports of ``run_single`` at that count and seed."""
    config = config_from_dict(tiny_doc).with_updates(mode=mode)
    sweep = run_fewshot_sweep(config, jobs=jobs)
    assert not sweep.failures and [c for c, _ in sweep.entries] == config.sweep_counts == [16, 4, 0]
    for i, (count, rec) in enumerate(sweep.entries):
        direct = run_single(config.with_updates(few_shot_count=count), run_seed=config.seed + i)
        assert rec.to_dict() == direct.to_dict()
        for model in ("classifier", "generator"):
            got, want = getattr(rec.result, model), getattr(direct.result, model)
            assert (got is None) == (want is None) == (mode == "ii" and model == "generator")
            if want is not None:
                assert got.flat.data.tobytes() == want.flat.data.tobytes()
                # a model sent back from a worker keeps its layers as views of its flat vector
                assert all(np.shares_memory(a, got.flat.data) for layer in got.layers for a in layer)


def test_an_entry_going_non_finite_fails_alone(tiny_doc, monkeypatch):
    """A NaN in one count's few-shots makes its phase-A step non-finite: it
    fails with the message of its run alone, and the other counts equal an
    unpoisoned sweep."""
    config = config_from_dict(tiny_doc)
    clean = run_fewshot_sweep(config)
    real = harness.sample_few_shots

    def poisoned(pool, n, seed):
        few = real(pool, n, seed=seed)
        if seed[0] == config.seed + 1:  # count 4
            few.inputs[0] = np.nan
        return few

    monkeypatch.setattr(harness, "sample_few_shots", poisoned)
    with pytest.raises(Exception) as alone:
        run_single(config.with_updates(few_shot_count=4), run_seed=config.seed + 1)
    message = f"{alone.type.__name__}: {alone.value}"
    assert message.startswith("TrainingError: phase A failed: non-finite")
    sweep = run_fewshot_sweep(config)
    assert sweep.failures == {4: message}
    assert [(c, rec.to_dict()) for c, rec in sweep.entries] == [(c, rec.to_dict()) for c, rec in clean.entries if c != 4]


@pytest.mark.parametrize(
    "key, message",
    [
        (1, "TrainingError: phase B failed: no latents"),  # a phase-B batch's latents: inside a phase
        (3, "RuntimeError: no latents"),  # the boundary pool's latents: between phases
    ],
    ids=["inside-phase-b", "between-phases"],
)
def test_an_exception_in_one_entry_fails_only_that_entry(tiny_doc, monkeypatch, key, message):
    """An exception that is not a non-finite step stops the whole stack;
    its counts then train again alone, so only the count at fault fails,
    with the message of its run alone."""
    config = config_from_dict(tiny_doc).with_updates(mode="iii")
    clean = run_fewshot_sweep(config)
    real = training.sample_latent

    def failing(seed, n, latent_dim):
        if seed[:2] == (config.seed + 1, key):  # count 4
            raise RuntimeError("no latents")
        return real(seed, n, latent_dim)

    monkeypatch.setattr(training, "sample_latent", failing)
    with pytest.raises(Exception) as alone:
        run_single(config.with_updates(few_shot_count=4), run_seed=config.seed + 1)
    assert f"{alone.type.__name__}: {alone.value}" == message
    sweep = run_fewshot_sweep(config)
    assert sweep.failures == {4: message}
    assert [(c, rec.to_dict()) for c, rec in sweep.entries] == [(c, rec.to_dict()) for c, rec in clean.entries if c != 4]


@pytest.mark.parametrize("site", ["sample_few_shots", "score_test_sets"])
def test_a_failure_before_or_after_training_fails_only_its_entry(tiny_doc, monkeypatch, site):
    """Few-shot sampling and scoring follow the one failure rule of training:
    the stack stops, its counts run again alone, and only the count at fault
    fails, with the message of its run alone."""
    config = config_from_dict(tiny_doc)
    clean = run_fewshot_sweep(config)
    real = getattr(harness, site)

    def failing(first, *args, **kwargs):
        # sample_few_shots(pool, count, seed=(run seed, 5)); score_test_sets(run config, ...)
        count = args[0] if site == "sample_few_shots" else first.few_shot_count
        if count == 4:  # seed config.seed + 1
            raise RuntimeError("broken entry")
        return real(first, *args, **kwargs)

    monkeypatch.setattr(harness, site, failing)
    with pytest.raises(RuntimeError, match="^broken entry$"):
        run_single(config.with_updates(few_shot_count=4), run_seed=config.seed + 1)
    sweep = run_fewshot_sweep(config)
    assert sweep.failures == {4: "RuntimeError: broken entry"}
    assert [(c, rec.to_dict()) for c, rec in sweep.entries] == [(c, rec.to_dict()) for c, rec in clean.entries if c != 4]


@pytest.mark.parametrize("command", ["ablate", "occ"])
def test_every_ablate_mode_and_occ_class_equals_its_run_alone(tiny_doc, monkeypatch, command):
    """The planner keeps runs of different modes or data apart: each mode of
    an ablation has the record and classifier bytes of ``run_single`` in
    that mode, and each OCC class those of its run trained alone by
    ``_run``, outside the planner."""
    config = config_from_dict(tiny_doc)
    if command == "ablate":
        result = run_ablation(config)
        alone = {mode: run_single(config.with_updates(mode=mode)) for mode in training.MODES}
    else:
        planned, real = [], harness._run_entries

        def recording(command, config, runs, *rest):
            planned.extend(runs)
            return real(command, config, runs, *rest)

        monkeypatch.setattr(harness, "_run_entries", recording)
        result = run_occ(config)
        alone = {run[0]: harness._run(run[1], [(config.with_updates(**run[2]), *run[3:])], None)[0] for run in planned}
    assert not result.failures and [label for label, _ in result.entries] == list(alone)
    for label, rec in result.entries:
        assert rec.to_dict() == alone[label].to_dict()
        assert rec.result.classifier.flat.data.tobytes() == alone[label].result.classifier.flat.data.tobytes()


def _recorded_stacks(monkeypatch) -> tuple[list, list]:
    """Wrap ``harness.run_pipeline``, and run the process pool in this
    process so that every worker's stacks are seen. Returns the list that
    gets each stack's ``(mode, entry seeds)`` as it trains, and the list
    that gets each pool's size."""
    stacks, started, real = [], [], harness.run_pipeline

    def recording(cfg):
        stacks.append((cfg.mode, [seed for seed, _ in cfg.entries]))
        return real(cfg)

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def map(self, fn, tasks):
            return map(fn, tasks)

        def shutdown(self, cancel_futures=False):
            pass

    monkeypatch.setattr(harness, "run_pipeline", recording)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)  # where _run_entries imports it
    return stacks, started


@pytest.mark.parametrize(
    "jobs, dealt, pool",
    [(1, [[0, 1, 2]], []), (2, [[0, 2], [1]], [2]), (5, [[0], [1], [2]], [3])],
    ids=["jobs-1", "jobs-2", "jobs-5"],
)
def test_a_sweep_trains_each_worker_s_counts_as_one_stack(tiny_doc, monkeypatch, jobs, dealt, pool):
    """One ``run_pipeline`` call per stack: counts differ only in
    ``few_shot_count`` and seed, so they are dealt round-robin and each
    worker trains its share as one stack, at one job, at two and at more
    jobs than counts; the records stay in count order."""
    config = config_from_dict(tiny_doc)
    stacks, started = _recorded_stacks(monkeypatch)
    sweep = run_fewshot_sweep(config, jobs=jobs)
    assert stacks == [("iii", [config.seed + i for i in stack]) for stack in dealt]
    assert started == pool
    assert [c for c, _ in sweep.entries] == config.sweep_counts


@pytest.mark.parametrize("command", ["ablate", "occ"])
def test_runs_of_different_modes_or_data_never_share_a_stack(tiny_doc, monkeypatch, command):
    config = config_from_dict(tiny_doc)
    stacks, _ = _recorded_stacks(monkeypatch)
    if command == "ablate":
        run_ablation(config)
        assert stacks == [(mode, [config.seed]) for mode in training.MODES]
    else:
        run_occ(config)
        assert stacks == [("iii", [config.seed + cls]) for cls in (0, 1, 2)]


@pytest.mark.parametrize("jobs", [1, 2, 9])
def test_the_planner_stacks_runs_by_data_and_updates_but_for_the_count(tiny_doc, monkeypatch, jobs):
    """One plan mixing what may share a stack with what may not: runs on
    one RunData whose resolved configs differ only in ``few_shot_count``
    (seeds 0, 2, 4 and 5, the last naming the config's own mode) share one
    stack per worker; a run in another mode (seed 1), a run on another
    RunData (seed 3) and a run with another ``weights.nu`` (seed 6) each
    train apart."""
    config = config_from_dict(tiny_doc)
    data = harness.RunData.materialize(config, training.MODES, "sweep.counts", 16)
    other = harness.RunData.materialize(config, training.MODES, "sweep.counts", 16)
    runs = [
        ("a", data, {"few_shot_count": 16}, 0, 16, None),
        ("b", data, {"few_shot_count": 16, "mode": "ii"}, 1, 16, None),
        ("c", data, {"few_shot_count": 4}, 2, 4, None),
        ("d", other, {"few_shot_count": 4}, 3, 4, None),
        ("e", data, {"few_shot_count": 0}, 4, 0, None),
        ("f", data, {"mode": config.mode, "few_shot_count": 8}, 5, 8, None),
        ("g", data, {"few_shot_count": 4, "weights.nu": 0.5}, 6, 4, None),
    ]
    stacks, _ = _recorded_stacks(monkeypatch)
    result = harness._run_entries("sweep", config, runs, None, jobs)
    shared = {1: [[0, 2, 4, 5]], 2: [[0, 4], [2, 5]], 9: [[0], [2], [4], [5]]}[jobs]
    assert stacks == [("iii", stack) for stack in shared] + [("ii", [1]), ("iii", [3]), ("iii", [6])]
    assert not result.failures and [label for label, _ in result.entries] == list("abcdefg")
    assert [rec.seed for _, rec in result.entries] == [0, 1, 2, 3, 4, 5, 6]


def _three_runs(poisoned: int | None = None) -> training.PipelineConfig:
    """A stack of three mode-iii runs on a short schedule; with
    ``poisoned``, that entry's few-shot negatives hold a NaN."""
    rng = np.random.default_rng(5)
    normals = LabeledBatch(rng.normal(size=(96, 2)), rng.integers(0, 3, 96))
    entries = []
    for e in range(3):
        few = OutlierPool(rng.uniform(-1.5, 1.5, (8, 2)))
        if e == poisoned:
            few.inputs[0] = np.nan
        entries.append((20 + e, few))
    return training.PipelineConfig(
        normals=normals, entries=entries, mode="iii", classifier_sizes=[2, 8, 3], classifier_activation="tanh",
        generator_sizes=[2, 8, 2], generator_activation="tanh", weights=losses.LossWeights(nu=0.3),
        schedule=training.TrainSchedule(
            phase_a_epochs=2, phase_b_epochs=2, phase_c_epochs=2, batch_n=32, batch_m=32, latent_n=8, proximity_q=32
        ),
        boundary_pool_size=16,
    )


@pytest.mark.parametrize(
    "poison, message",
    [
        ("weights", "non-finite classifier loss in phase a, epoch 0, batch 0"),
        # negative training clamps a NaN row's term, so only the gradient goes non-finite
        ("negatives", "non-finite gradient"),
    ],
)
def test_one_entry_going_non_finite_stops_its_stack(poison, message):
    """A stack fails as a whole; ``harness._isolated`` runs its runs again one
    by one, so each fails alone (``test_an_entry_going_non_finite_fails_alone``)."""
    cfg = _three_runs(poisoned=1 if poison == "negatives" else None)
    stack = MlpClassifier.stack([MlpClassifier([2, 8, 3], activation="tanh", seed=s) for s, _ in cfg.entries])
    if poison == "weights":
        stack.layers[-1][0][1, 0, 0] = np.nan
    with pytest.raises(training.TrainingError, match=message):
        training.train_classifier(
            stack, cfg.normals, [[few] for _, few in cfg.entries], cfg.weights, cfg.schedule,
            phase="a", seed_prefix=[(seed, 0) for seed, _ in cfg.entries],
        )


def test_a_stack_step_is_one_classifier_loss_over_one_array(monkeypatch):
    """Each lockstep step gathers the stack's normals and stacks every
    entry's negative draw below them: one call, one ``(E, n + m, d)`` batch
    and ``(E, n)`` labels."""
    cfg = _three_runs()
    stack = MlpClassifier.stack([MlpClassifier([2, 8, 3], activation="tanh", seed=s) for s, _ in cfg.entries])
    calls = []
    real = training.classifier_loss

    def recording(model, inputs, labels, weights):
        calls.append((type(inputs), inputs.shape, labels.shape))
        return real(model, inputs, labels, weights)

    monkeypatch.setattr(training, "classifier_loss", recording)
    training.train_classifier(
        stack, cfg.normals, [[few] for _, few in cfg.entries], cfg.weights, cfg.schedule,
        phase="a", seed_prefix=[(seed, 0) for seed, _ in cfg.entries],
    )
    n, m = cfg.schedule.batch_n, cfg.schedule.batch_m
    steps = cfg.schedule.phase_a_epochs * -(-len(cfg.normals) // n)
    assert calls == [(np.ndarray, (3, n + m, 2), (3, n))] * steps


def test_a_stack_mixing_drawing_and_non_drawing_entries_is_rejected_before_any_step(monkeypatch):
    cfg = _three_runs()
    stack = MlpClassifier.stack([MlpClassifier([2, 8, 3], activation="tanh", seed=s) for s, _ in cfg.entries[:2]])
    calls = []
    monkeypatch.setattr(training, "classifier_loss", lambda *args: calls.append(args))
    empty = OutlierPool(np.zeros((0, 2)))
    with pytest.raises(ValueError, match="draws negatives, or none does"):
        training.train_classifier(
            stack, cfg.normals, [[cfg.entries[0][1]], [empty]], cfg.weights, cfg.schedule,
            phase="a", seed_prefix=[(seed, 0) for seed, _ in cfg.entries[:2]],
        )
    assert calls == []


def test_a_stack_with_a_failing_entry_raises_its_phase():
    with pytest.raises(training.TrainingError) as failed:
        training.run_pipeline(_three_runs(poisoned=1))
    assert str(failed.value).startswith("phase A failed: non-finite")


def test_a_non_finite_gradient_names_its_step():
    """``adam_step`` rejects entry 1's gradient; the message gains the step's
    phase, epoch and batch, as a non-finite loss's message has them."""
    with pytest.raises(training.TrainingError) as failed:
        training.run_pipeline(_three_runs(poisoned=1))
    assert str(failed.value) == "phase A failed: non-finite gradient in parameter 0 in phase a, epoch 0, batch 0"


def test_a_clean_stack_returns_every_entry_s_result():
    result = training.run_pipeline(_three_runs())
    assert len(result.entries) == 3
    for e, entry in enumerate(result.entries):
        assert isinstance(entry, training.PipelineResult)
        for model in ("classifier", "generator"):
            assert getattr(entry, model).flat.data.tobytes() == getattr(result, model).flat.data[e].tobytes()
