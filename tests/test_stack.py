"""Training runs as one stack: every entry keeps the bits of its run alone.

A stack (``Mlp.stack``) puts E models' parameters in the rows of one flat
leaf and runs their passes as one ``(E, rows, d)`` pass. numpy's stacked
matmul is one dgemm per entry and every reduction runs along trailing axes,
so a stacked pass, loss term or training step must equal the per-entry one
bit for bit, under any OpenBLAS kernel.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oodlab import harness, losses, training
from oodlab.config import config_from_dict
from oodlab.data import LabeledBatch, LatentBatch, OutlierPool
from oodlab.harness import run_fewshot_sweep, run_single
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
    normals = [LabeledBatch(rng.normal(size=(24, 2)), rng.integers(0, 3, 24)) for _ in range(entries)]
    negatives = [OutlierPool(rng.uniform(-1.5, 1.5, (64, 2))) for _ in range(entries)]
    latents = [LatentBatch(rng.normal(size=(16, 2)), seed=(4, e)) for e in range(entries)]
    references = [rng.normal(size=(32, 2)) for _ in range(entries)]
    clf_loss = losses.classifier_loss(clf, normals, negatives, weights)
    (clf_grad,) = clf_loss.vjp(np.ones(clf_loss.shape))
    clf.freeze()
    gen_loss = losses.generator_loss(gen, clf, latents, references, weights)
    (gen_grad,) = gen_loss.vjp(np.ones(gen_loss.shape))
    clf_loss, clf_grad, gen_loss, gen_grad = (_per_entry(entries, a) for a in (clf_loss.data, clf_grad, gen_loss.data, gen_grad))
    for e in range(entries):
        one = losses.classifier_loss(clf_alone[e], normals[e], negatives[e], weights)
        assert _bits(clf_loss[e], clf_grad[e]) == _bits(one.data, one.vjp(np.ones(()))[0])
        clf_alone[e].freeze()
        one = losses.generator_loss(gen_alone[e], clf_alone[e], latents[e], references[e], weights)
        assert _bits(gen_loss[e], gen_grad[e]) == _bits(one.data, one.vjp(np.ones(()))[0])


def test_a_stack_s_losses_reject_batches_that_are_not_one_per_entry():
    rng = np.random.default_rng(4)
    clf, _ = _stack_of(MlpClassifier, 2, [2, 8, 3], "tanh")
    gen, _ = _stack_of(BoundaryGenerator, 2, [2, 8, 2], "tanh")
    weights = losses.LossWeights()
    normals = [LabeledBatch(rng.normal(size=(n, 2)), np.zeros(n, dtype=np.int64)) for n in (8, 6)]
    with pytest.raises(ValueError, match="batches of one size"):
        losses.classifier_loss(clf, normals, [None, None], weights)
    normals = [normals[0], normals[0]]
    with pytest.raises(ValueError, match="negatives in all or none"):
        losses.classifier_loss(clf, normals, [OutlierPool(rng.normal(size=(4, 2))), None], weights)
    with pytest.raises(ValueError, match="batches of one size"):
        losses.classifier_loss(clf, normals, [OutlierPool(rng.normal(size=(n, 2))) for n in (4, 5)], weights)
    clf.freeze()
    latents = [LatentBatch(rng.normal(size=(8, 2)), seed=(1, e)) for e in range(2)]
    references = [rng.normal(size=(8, 2))] * 2
    with pytest.raises(ValueError, match="no pairing_seed"):
        losses.generator_loss(gen, clf, latents, references, weights, pairing_seed=3)
    with pytest.raises(ValueError, match="takes 2 LatentBatches"):
        losses.generator_loss(gen, clf, [z.values for z in latents], references, weights)
    with pytest.raises(ValueError, match="takes 2 LatentBatches"):
        losses.generator_loss(gen, clf, latents[:1], references, weights)
    with pytest.raises(ValueError, match="takes 2 reference chunks"):
        losses.generator_loss(gen, clf, latents, references[:1], weights)


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


def _kept_models(monkeypatch):
    """Make every sweep entry keep its trained models in ``RunRecord.result``
    (a forked worker process inherits the patch)."""
    real = harness._run

    def run(config, data, entries, out_dir, keep_models=False):
        return real(config, data, entries, out_dir, True)

    monkeypatch.setattr(harness, "_run", run)


@pytest.mark.parametrize("mode", ["ii", "iii"])
@pytest.mark.parametrize("jobs", [1, 2])
def test_every_sweep_entry_equals_its_run_alone(tiny_doc, monkeypatch, mode, jobs):
    """The determinism contract: a count trained in a stack (with a count of
    0 among them, which trains phase A apart) has the weights, traces and
    reports of ``run_single`` at that count and seed."""
    config = config_from_dict(tiny_doc).with_updates(mode=mode)
    counts = [16, 4, 0]
    _kept_models(monkeypatch)
    sweep = run_fewshot_sweep(config, counts=counts, jobs=jobs)
    assert not sweep.failures and [c for c, _ in sweep.entries] == counts
    for i, (count, rec) in enumerate(sweep.entries):
        direct = run_single(config.with_updates(few_shot_count=count), run_seed=config.seed + i, keep_models=True)
        assert rec.to_dict() == direct.to_dict()
        for model in ("classifier", "generator"):
            got, want = getattr(rec.result, model), getattr(direct.result, model)
            assert (got is None) == (want is None) == (mode == "ii" and model == "generator")
            if want is not None:
                assert got.flat.data.tobytes() == want.flat.data.tobytes()


def test_an_entry_going_non_finite_fails_alone(tiny_doc, monkeypatch):
    """A NaN in one count's few-shots makes its phase-A step non-finite: it
    fails with the message of its run alone, and the other counts equal an
    unpoisoned sweep."""
    config = config_from_dict(tiny_doc)
    counts = [16, 4, 0]
    clean = run_fewshot_sweep(config, counts=counts)
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
    sweep = run_fewshot_sweep(config, counts=counts)
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
    counts = [16, 4, 0]
    clean = run_fewshot_sweep(config, counts=counts)
    real = training.sample_latent

    def failing(seed, n, latent_dim):
        if seed[:2] == (config.seed + 1, key):  # count 4
            raise RuntimeError("no latents")
        return real(seed, n, latent_dim)

    monkeypatch.setattr(training, "sample_latent", failing)
    with pytest.raises(Exception) as alone:
        run_single(config.with_updates(few_shot_count=4), run_seed=config.seed + 1)
    assert f"{alone.type.__name__}: {alone.value}" == message
    sweep = run_fewshot_sweep(config, counts=counts)
    assert sweep.failures == {4: message}
    assert [(c, rec.to_dict()) for c, rec in sweep.entries] == [(c, rec.to_dict()) for c, rec in clean.entries if c != 4]


def test_a_sweep_trains_each_worker_s_counts_as_one_stack(tiny_doc, monkeypatch):
    """One ``run_pipeline`` call per stack, holding every count of the sweep."""
    config = config_from_dict(tiny_doc)
    stacks = []
    real = harness.run_pipeline

    def recording(cfg):
        stacks.append([seed for seed, _ in cfg.entries])
        return real(cfg)

    monkeypatch.setattr(harness, "run_pipeline", recording)
    run_fewshot_sweep(config, counts=[16, 4, 0])
    assert stacks == [[config.seed, config.seed + 1, config.seed + 2]]
