import concurrent.futures
import copy
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oodlab.config import (
    DEFAULTS,
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    load_config,
    parse_override,
)
from oodlab import harness
from oodlab.data import DatasetSpec, LabeledBatch, OutlierPool, load_csv, save_csv
from oodlab.harness import (
    SUMMARY_COLUMNS,
    RunData,
    RunRecord,
    SweepResult,
    detect_break_point,
    emit_report,
    run_ablation,
    run_fewshot_sweep,
    run_occ,
    run_single,
)
from oodlab.scoring import MetricReport
from oodlab.training import MODES

from conftest import REFERENCE_CONFIG, TINY_DOC, fail_run_seed


def _fake_sweep(curve: dict[int, float], test_set: str = "t") -> SweepResult:
    entries = []
    for count, value in curve.items():
        report = MetricReport(
            auroc=value, aauroc=value, gauroc=value, epsilon=0.0, tau=0.5, n_in=10, n_out=10
        )
        entries.append(
            (
                count,
                RunRecord(
                    run_id=f"r{count}",
                    mode="ii",
                    few_shots=count,
                    seed=0,
                    fingerprint="f",
                    reports={test_set: report},
                    traces={},
                ),
            )
        )
    return SweepResult(entries=entries, failures={}, fingerprint="f")


def _outcome(overrides):
    """The tiny config's document and fingerprint under ``overrides``, or its ConfigError message."""
    try:
        config = config_from_dict(TINY_DOC, overrides)
    except ConfigError as e:
        return str(e)
    return config.document, config.fingerprint


_REPLACEABLE = [
    "weights", "schedule", "budget", "model", "eval", "sweep", "data.normal", "data.few_shot", "data.outlier", "data.tests.ring"
]


@st.composite
def _replace_then_set(draw):
    """A section or dataset spec S of the tiny document, a replacement P
    holding some of S's tiny values, and a key k of S with its tiny value or
    its default v."""
    section = draw(st.sampled_from(_REPLACEABLE))
    tiny = config_from_dict(TINY_DOC).document
    for part in section.split("."):
        tiny = tiny[part]
    defaults = DEFAULTS["data"]["normal"] if section.startswith("data.") else DEFAULTS[section]
    kept = draw(st.sets(st.sampled_from(sorted(tiny))))
    key = draw(st.sampled_from(sorted(tiny)))
    value = draw(st.sampled_from([tiny[key], defaults[key]]))
    return section, {k: tiny[k] for k in kept}, key, value


class TestBreakPoint:
    def test_reproduces_worked_example(self):
        # AUROC decays through 0.61 and reaches ~0.5 around 800 shots
        sweep = _fake_sweep({1830: 0.61, 800: 0.51, 400: 0.50})
        assert detect_break_point(sweep, floor=0.55) == {"t": 800}

    def test_no_break_point_when_all_high(self):
        sweep = _fake_sweep({64: 0.95, 32: 0.93, 16: 0.92, 0: 0.90})
        assert detect_break_point(sweep, floor=0.55) == {"t": None}

    def test_monotone_increasing_curve_has_no_break_point(self):
        sweep = _fake_sweep({64: 0.60, 32: 0.70, 16: 0.80, 0: 0.90})
        assert detect_break_point(sweep, floor=0.65) == {"t": None}

    def test_dip_without_continued_decay_is_not_a_break(self):
        # a single dip that recovers never "falls to 0.5"
        sweep = _fake_sweep({64: 0.90, 32: 0.54, 16: 0.80, 0: 0.90})
        assert detect_break_point(sweep, floor=0.55) == {"t": None}

    def test_floor_validation(self):
        sweep = _fake_sweep({1: 0.9})
        with pytest.raises(ValueError, match="floor"):
            detect_break_point(sweep, floor=0.4)

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            detect_break_point(SweepResult([], {}, "f"), floor=0.55)


class TestConfig:
    def test_defaults_fill_in(self, tiny_doc):
        del tiny_doc["weights"]
        config = config_from_dict(tiny_doc)
        assert config.weights.lam == 1.0
        assert config.budget.pgd_step_size == pytest.approx(0.005)

    def test_unknown_top_level_key(self, tiny_doc):
        tiny_doc["optimizerr"] = {}
        with pytest.raises(ConfigError, match="optimizerr"):
            config_from_dict(tiny_doc)

    def test_unknown_nested_key(self, tiny_doc):
        tiny_doc["schedule"]["phase_d_epochs"] = 3
        with pytest.raises(ConfigError, match="schedule.phase_d_epochs"):
            config_from_dict(tiny_doc)

    def test_unknown_dataset_key(self, tiny_doc):
        tiny_doc["data"]["normal"]["radius"] = 1.0
        with pytest.raises(ConfigError, match="data.normal.radius"):
            config_from_dict(tiny_doc)

    def test_override_parsing(self):
        assert parse_override("sweep.counts=8,4,0") == ("sweep.counts", [8, 4, 0])
        assert parse_override("budget.epsilon=0.1") == ("budget.epsilon", 0.1)
        assert parse_override("mode=ii") == ("mode", "ii")
        assert parse_override("budget.input_box=null") == ("budget.input_box", None)
        with pytest.raises(ConfigError, match="key=value"):
            parse_override("not-an-override")

    def test_override_application(self, tiny_doc):
        config = config_from_dict(tiny_doc, overrides=["sweep.counts=8,4,0", "mode=ii", "budget.epsilon=0.01"])
        assert config.sweep_counts == [8, 4, 0]
        assert config.mode == "ii"
        assert config.budget.epsilon == 0.01

    def test_override_unknown_key_names_it(self, tiny_doc):
        with pytest.raises(ConfigError, match="sweep.count"):
            config_from_dict(tiny_doc, overrides=["sweep.count=3"])

    def test_counts_must_strictly_decrease(self, tiny_doc):
        tiny_doc["sweep"]["counts"] = [4, 4, 0]
        with pytest.raises(ConfigError, match="decreasing"):
            config_from_dict(tiny_doc)

    def test_fingerprint_stable_and_sensitive(self, tiny_doc):
        a = config_from_dict(tiny_doc).fingerprint
        b = config_from_dict(tiny_doc).fingerprint
        assert a == b
        c = config_from_dict(tiny_doc, overrides=["seed=99"]).fingerprint
        assert a != c

    @pytest.mark.parametrize(
        "override, key",
        [
            ('few_shot_count="x"', "few_shot_count"),
            ("few_shot_count=1.5", "few_shot_count"),
            ("sweep.counts=a,b", "sweep.counts"),
            ("sweep.counts=8", "sweep.counts"),
            ("sweep.counts=[]", "sweep.counts"),
            ('eval.in_size="x"', "eval.in_size"),
            ("eval.in_size=0", "eval.in_size"),
            ('boundary_pool_size="x"', "boundary_pool_size"),
            ("boundary_pool_size=0", "boundary_pool_size"),
            ('sweep.break_floor="x"', "sweep.break_floor"),
            ("sweep.break_floor=NaN", "sweep.break_floor"),
            ('model.classifier_hidden="x"', "model.classifier_hidden"),
            ("model.classifier_hidden=[16,0]", "model.classifier_hidden"),
            ("model.latent_dim=0", "model.latent_dim"),
            ('model.classifier_activation="softplus"', "model.classifier_activation"),
            ("model.generator_activation=7", "model.generator_activation"),
            ("seed=-1", "seed"),
            ("seed=true", "seed"),
            ("budget.epsilon=NaN", "budget.epsilon"),
            ('budget.input_box="ab"', "budget.input_box"),
            ("schedule.batch_n=0", "schedule"),
            ('schedule.lr_a="x"', "schedule.lr_a"),
            ("schedule.lr_b=0", "schedule.lr_b"),
            ('weights.lam="x"', "weights.lam"),
            ('data.normal.size="x"', "data.normal.size"),
            ("model=5", "model"),
            ("data=5", "data"),
            ("data.tests=[]", "data.tests"),
            ("weights.delta=0", "weights.delta"),
            ("schedule.latent_n=1", "schedule.latent_n"),
            ("budget.tau=2", "budget.tau"),
            ("budget.input_box=[0,1,2]", "budget.input_box"),
        ],
    )
    def test_bad_value_is_config_error_naming_the_key(self, tiny_doc, override, key):
        with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
            config_from_dict(tiny_doc, overrides=[override])

    def test_section_override_replaces_it_with_defaults_filled_in(self, tiny_doc):
        overrides = ['model={"latent_dim": 3}', "data.outlier=null", 'data.tests.ring={"kind": "ring"}']
        config = config_from_dict(tiny_doc, overrides=overrides)
        assert config.model["latent_dim"] == 3
        assert config.model["classifier_hidden"] == [64, 64]
        assert config.outlier is None
        assert config.tests["ring"].seed == 0 and config.tests["ring"].r_outer == 1.2

    def test_a_key_under_a_null_dataset_spec_fills_in_its_defaults(self, tiny_doc):
        config = config_from_dict(tiny_doc, overrides=["data.outlier=null", "data.outlier.kind=ring"])
        assert config.outlier == DatasetSpec(kind="ring")

    @settings(max_examples=200, deadline=None)
    @given(_replace_then_set())
    def test_a_key_set_after_its_section_is_replaced_is_merged_into_the_replacement(self, case):
        section, replacement, key, value = case
        got = _outcome([(section, replacement), (f"{section}.{key}", value)])
        assert got == _outcome([(section, {**replacement, key: value})])

    def test_a_key_set_after_its_section_is_replaced_fills_in_a_key_the_replacement_left_out(self):
        got = load_config(REFERENCE_CONFIG, ['eval={"in_size":64}', "eval.in_seed_offset=3"])
        want = load_config(REFERENCE_CONFIG, ['eval={"in_size":64,"in_seed_offset":3}'])
        assert got.document == want.document and got.fingerprint == want.fingerprint

    def test_each_override_must_be_valid_where_it_stands(self, tiny_doc):
        with pytest.raises(ConfigError, match=r"^model: must be an object, got 5$"):
            config_from_dict(tiny_doc, overrides=["model=5", 'model={"latent_dim": 3}'])

    def test_with_updates_fills_a_partial_section_with_its_defaults(self, reference_config):
        config = reference_config.with_updates(eval={"in_size": 5})
        assert config.eval_in_size == 5 and config.eval_in_seed_offset == DEFAULTS["eval"]["in_seed_offset"]

    def test_with_updates_names_an_unknown_nested_key(self, reference_config):
        with pytest.raises(ConfigError, match=r"^unknown config key 'schedule\.lr_aa'$"):
            reference_config.with_updates(schedule={"lr_aa": 1})

    def test_with_updates_takes_a_dotted_key(self, reference_config):
        want = copy.deepcopy(reference_config.document)
        want["weights"]["nu"] = 1.0
        config = reference_config.with_updates(**{"weights.nu": 1.0})
        assert config.document == want and config.weights.nu == 1.0
        weights = {"nu": 0.5}
        reference_config.with_updates(weights=weights, **{"weights.nu": 1.0})
        assert weights == {"nu": 0.5}  # a later key writes into the config's copy, not the caller's section

    def test_fingerprints_are_pinned(self, reference_config):
        # the fingerprint is stamped on every result file; it hashes the merged
        # document, so a changed default or key changes it
        assert reference_config.fingerprint == "f9f25bd3755fa7f4bfea7a24a1eae31c77d7dc8e4f4388c9523bf1dd310c6a39"
        assert config_from_dict(TINY_DOC).fingerprint == "580b2c4f09c6cbe9a3e777924063f167182965f0ce9c5b88e652fa08051d0752"

    def test_input_box_becomes_a_pair_of_floats(self, tiny_doc):
        config = config_from_dict(tiny_doc, overrides=["budget.input_box=[-2,2]"])
        assert config.budget.input_box == (-2.0, 2.0)
        assert all(type(v) is float for v in config.budget.input_box)

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")


class TestSweepMechanics:
    def test_counts_execute_including_zero(self, tiny_doc):
        config = config_from_dict(tiny_doc, overrides=["sweep.counts=8,4,2,1,0"])
        sweep = run_fewshot_sweep(config)
        assert [c for c, _ in sweep.entries] == [8, 4, 2, 1, 0]
        assert not sweep.failures
        assert sweep.entries[-1][1].few_shots == 0

    def test_single_count_sweep_equals_direct_run(self, tiny_doc):
        config = config_from_dict(tiny_doc, overrides=["sweep.counts=[4]"])
        sweep = run_fewshot_sweep(config)
        direct = run_single(config.with_updates(few_shot_count=4), run_seed=config.seed)
        rec = sweep.entries[0][1]
        assert rec.reports.keys() == direct.reports.keys()
        for name in rec.reports:
            assert rec.reports[name] == direct.reports[name]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_few_shot_csv_too_short_for_a_count_stops_the_sweep_before_training(
        self, tiny_doc, tmp_path, monkeypatch, jobs
    ):
        """A count the pool cannot supply is found once, with the data,
        not per entry while sampling."""
        path = tmp_path / "short.csv"
        save_csv(OutlierPool(np.random.default_rng(3).uniform(-1.2, 1.2, (10, 2))), path)
        tiny_doc["data"]["few_shot"] = {"kind": "csv", "path": str(path)}
        tiny_doc["few_shot_count"] = 4  # only the largest sweep count, 16, exceeds the 10 rows
        config = config_from_dict(tiny_doc)
        calls = []
        monkeypatch.setattr(harness, "run_pipeline", calls.append)
        with pytest.raises(ConfigError, match="data.few_shot: has 10 rows, fewer than the 16 few-shots to sample"):
            run_fewshot_sweep(config, jobs=jobs)
        assert calls == []

    def test_parallel_jobs_match_serial(self, tiny_doc):
        config = config_from_dict(tiny_doc, overrides=["sweep.counts=4,0"])
        serial = run_fewshot_sweep(config)
        parallel = run_fewshot_sweep(config, jobs=2)
        for (c1, r1), (c2, r2) in zip(serial.entries, parallel.entries):
            assert c1 == c2
            assert r1.reports == r2.reports


    def test_jobs_above_the_entry_count_start_one_worker_per_entry(self, tiny_doc, monkeypatch):
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def map(self, fn, tasks):
                return map(fn, tasks)

            def shutdown(self, cancel_futures=False):
                pass

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)  # where _run_entries imports it
        sweep = run_fewshot_sweep(config_from_dict(tiny_doc, overrides=["sweep.counts=4,0"]), jobs=500)
        assert started == [2] and [c for c, _ in sweep.entries] == [4, 0]
        run_fewshot_sweep(config_from_dict(tiny_doc, overrides=["sweep.counts=[4]"]), jobs=500)
        assert started == [2]  # one entry runs in this process


class TestRunData:
    @pytest.mark.parametrize(
        "run",
        [
            run_fewshot_sweep,
            lambda c: run_ablation(c, modes=("ii", "iii")),
            run_occ,
        ],
        ids=["sweep", "ablate", "occ"],
    )
    def test_a_command_reads_the_normals_once(self, tiny_doc, monkeypatch, run):
        config = config_from_dict(tiny_doc)
        real, reads = harness.generate_dataset, []

        def generate_dataset(spec, normals=None):
            reads.append(spec == config.normal)
            return real(spec, normals=normals)

        monkeypatch.setattr(harness, "generate_dataset", generate_dataset)
        result = run(config)
        assert len(result.entries) > 1 and not result.failures
        assert sum(reads) == 1

    @pytest.mark.parametrize(
        "outlier, reads",
        [
            (None, 1),
            # a low-frequency-noise set corrupts each class's own normals
            ({"kind": "low-frequency-noise", "dim": 2, "size": 48, "seed": 17, "amplitude": 1.5, "window": 2}, 3),
        ],
        ids=["uniform-noise", "low-frequency-noise"],
    )
    def test_occ_reads_the_outlier_set_once(self, tiny_doc, monkeypatch, outlier, reads):
        if outlier is not None:
            tiny_doc["data"]["outlier"] = outlier
        config = config_from_dict(tiny_doc, overrides=["mode=iv"])
        real, built = harness.generate_dataset, []

        def generate_dataset(spec, normals=None):
            built.append(spec == config.outlier)
            return real(spec, normals=normals)

        monkeypatch.setattr(harness, "generate_dataset", generate_dataset)
        result = run_occ(config)
        assert len(result.entries) == 3 and not result.failures
        assert sum(built) == reads

    def test_a_sweep_leaves_numpy_ma_unimported(self, tiny_config_path):
        """Counting classes with ``np.unique`` would import numpy.ma (12 ms
        and 1.2 MiB in every process); a fresh interpreter shows it, as the
        test process may hold numpy.ma already."""
        package_root = str(Path(harness.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}

        def loads_numpy_ma(code: str) -> bool:
            probe = f"import sys\n{code}\nprint('numpy.ma' in sys.modules)"
            out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
            return out.stdout.split()[-1] == "True"

        if loads_numpy_ma("import numpy"):
            pytest.skip("this numpy imports numpy.ma with numpy itself")
        assert not loads_numpy_ma(
            "from oodlab.config import load_config\nfrom oodlab.harness import run_fewshot_sweep\n"
            f"assert not run_fewshot_sweep(load_config({str(tiny_config_path)!r})).failures"
        )

    @pytest.mark.parametrize("few_shot_count", [16, 4])
    def test_a_few_shot_csv_shorter_than_any_count_to_sample_is_a_config_error(self, tiny_doc, tmp_path, few_shot_count):
        path = tmp_path / "short.csv"
        save_csv(OutlierPool(np.random.default_rng(3).uniform(-1.2, 1.2, (10, 2))), path)
        tiny_doc["data"]["few_shot"] = {"kind": "csv", "path": str(path)}
        tiny_doc["few_shot_count"] = few_shot_count  # the largest sweep count is 16
        config = config_from_dict(tiny_doc)
        message = "data.few_shot: has 10 rows, fewer than the 16 few-shots to sample for sweep.counts"
        with pytest.raises(ConfigError, match=message):
            RunData.materialize(config, MODES, "sweep.counts", config.sweep_counts[0])

    def test_only_the_pools_the_modes_draw_are_read(self, tiny_doc):
        tiny_doc["data"]["few_shot"]["size"] = 8  # fewer than the 16 few-shots to sample
        config = config_from_dict(tiny_doc)
        data = RunData.materialize(config, ["iii"], "few_shot_count", 8)
        assert data.outlier is None and data.few_shot_pool.size == 8
        data = RunData.materialize(config, ["i"], "few_shot_count", config.few_shot_count)
        assert data.few_shot_pool is None and data.outlier.size == 128


class TestAblation:
    def test_mode_gating_and_shared_seed(self, tiny_doc):
        config = config_from_dict(tiny_doc)
        result = run_ablation(config, modes=("i", "ii", "iii"))
        assert not result.failures, result.failures
        records = dict(result.entries)
        assert list(records) == ["i", "ii", "iii"]
        for mode, rec in records.items():
            assert isinstance(rec, RunRecord), rec
            assert rec.seed == config.seed
        # mode (i) never builds a boundary pool, mode (iii) always does
        assert records["i"].boundary_pool_size is None
        assert "boundary_pool_size" not in records["i"].to_dict()
        assert records["iii"].boundary_pool_size == config.boundary_pool_size
        assert "phase_b" not in records["i"].traces
        assert "phase_b" in records["iii"].traces

    def test_mode_failures_are_isolated(self, tiny_doc):
        tiny_doc["data"]["outlier"] = None
        config = config_from_dict(tiny_doc)
        result = run_ablation(config, modes=("i", "ii"))
        assert list(result.failures) == ["i"] and "data.outlier" in result.failures["i"]
        assert [m for m, _ in result.entries] == ["ii"]
        assert isinstance(result.entries[0][1], RunRecord)

    def test_deterministic_reports(self, tiny_doc):
        config = config_from_dict(tiny_doc)
        a = dict(run_ablation(config, modes=("ii",)).entries)["ii"]
        b = dict(run_ablation(config, modes=("ii",)).entries)["ii"]
        assert a.reports == b.reports


def _written_occ_mean(result: SweepResult, out) -> dict:
    emit_report(result, out)
    return json.loads((out / "experiment.json").read_text())["occ_mean"]


class TestOcc:
    def test_two_class_rotation_and_mean(self, tiny_doc, tmp_path):
        tiny_doc["data"]["normal"]["means"] = [[-1.0, 0.0], [1.0, 0.0]]
        tiny_doc["few_shot_count"] = 8
        config = config_from_dict(tiny_doc)
        result = run_occ(config)
        assert [c for c, _ in result.entries] == [0, 1] and not result.failures
        per_class = [rec.reports["occ"].auroc for _, rec in result.entries]
        assert _written_occ_mean(result, tmp_path)["auroc"] == pytest.approx(np.mean(per_class), abs=1e-12)
        # the detector head is binary: scores live in [0.5, 1]
        for _, rec in result.entries:
            assert rec.reports["occ"].n_in > 0 and rec.reports["occ"].n_out > 0

    def test_a_failing_class_is_isolated(self, tiny_doc, monkeypatch, tmp_path):
        config = config_from_dict(tiny_doc)
        fail_run_seed(monkeypatch, config.seed + 1, RuntimeError("class 1 diverged"))  # class c runs with seed + c
        result = run_occ(config)
        assert result.failures == {1: "RuntimeError: class 1 diverged"}
        assert [c for c, _ in result.entries] == [0, 2]
        others = [rec for _, rec in result.entries]
        assert all(isinstance(rec, RunRecord) for rec in others)
        mean = _written_occ_mean(result, tmp_path)
        assert mean["auroc"] == pytest.approx(np.mean([r.reports["occ"].auroc for r in others]), abs=1e-12)

    def test_an_out_set_outside_the_input_box_fails_before_any_class_trains(self, tiny_doc, monkeypatch):
        config = config_from_dict(tiny_doc, overrides=["budget.input_box=[-0.5,0.5]"])
        calls = []
        monkeypatch.setattr(harness, "run_pipeline", calls.append)
        with pytest.raises(
            ConfigError, match=r"^data.normal: the OCC out-set of class 0: row \d+ .* lies outside budget.input_box"
        ):
            run_occ(config)
        assert calls == []

    def test_single_class_rejected(self, tiny_doc):
        tiny_doc["data"]["normal"]["means"] = [[0.0, 0.0]]
        config = config_from_dict(tiny_doc)
        with pytest.raises(ValueError, match="two classes"):
            run_occ(config)

    def test_indistinguishable_out_set_scores_near_half(self):
        # when the "OoD" samples follow the normal distribution exactly, any
        # detector sits at chance
        from oodlab.nets import MlpClassifier
        from oodlab.scoring import RobustnessBudget, evaluate_ood

        rng = np.random.default_rng(0)
        model = MlpClassifier([2, 16, 2], seed=1)
        in_set = rng.normal(size=(300, 2))
        out_set = rng.normal(size=(300, 2))
        report = evaluate_ood(model, in_set, out_set, RobustnessBudget(epsilon=0.0))
        assert abs(report.auroc - 0.5) < 0.05


class TestEmitReport:
    def test_result_file_round_trip(self, tiny_doc, tmp_path):
        config = config_from_dict(tiny_doc)
        record = run_single(config)
        emit_report(record, tmp_path)
        doc = json.loads((tmp_path / f"{record.run_id}.result.json").read_text())
        # recompute the summary row from the parsed result file
        with (tmp_path / "summary.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == SUMMARY_COLUMNS
        by_test = {r[3]: r for r in rows[1:]}
        for name, metrics in doc["metrics"].items():
            row = by_test[name]
            assert row[0] == doc["run_id"]
            assert row[1] == doc["mode"]
            assert int(row[2]) == doc["few_shots"]
            assert float(row[4]) == metrics["auroc"]
            assert float(row[5]) == metrics["aauroc"]
            assert float(row[6]) == metrics["gauroc"]
            assert float(row[7]) == metrics["epsilon"]
            assert int(row[8]) == doc["seed"]

    def test_sweep_plot_data_descends_with_counts(self, tiny_doc, tmp_path):
        config = config_from_dict(tiny_doc, overrides=["sweep.counts=4,1,0"])
        sweep = run_fewshot_sweep(config)
        emit_report(sweep, tmp_path)
        for name in config.tests:
            path = tmp_path / "plots" / f"{name}_auroc.csv"
            with path.open() as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["few_shots", "auroc"]
            counts = [int(r[0]) for r in rows[1:]]
            assert counts == [4, 1, 0]
            expected = [v for _, v in sweep.curve(name, "auroc")]
            assert [float(r[1]) for r in rows[1:]] == expected

    def test_sidecar_holds_the_timing_metadata(self, tiny_doc, tmp_path):
        config = config_from_dict(tiny_doc)
        record = run_single(config)
        assert record.wall_seconds > 0
        emit_report(record, tmp_path)
        meta = json.loads((tmp_path / f"{record.run_id}.meta.json").read_text())
        assert meta["wall_seconds"] == record.wall_seconds
        result = json.loads((tmp_path / f"{record.run_id}.result.json").read_text())
        assert "written_at" not in result and "wall_seconds" not in result


    def test_each_sidecar_holds_its_own_run_time(self, tiny_doc, tmp_path):
        sweep = run_fewshot_sweep(config_from_dict(tiny_doc, overrides=["sweep.counts=4,0"]))
        records = [rec for _, rec in sweep.entries]
        emit_report(sweep, tmp_path / "a")
        for rec in records:
            meta = json.loads((tmp_path / "a" / f"{rec.run_id}.meta.json").read_text())
            assert meta["wall_seconds"] == rec.wall_seconds > 0
        for i, rec in enumerate(records):
            rec.wall_seconds = 100.0 + i
        emit_report(sweep, tmp_path / "b")
        for rec in records:
            name = f"{rec.run_id}.result.json"
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
            meta = json.loads((tmp_path / "b" / f"{rec.run_id}.meta.json").read_text())
            assert meta["wall_seconds"] == rec.wall_seconds


    def test_a_non_finite_value_is_refused_not_written(self, tmp_path):
        sweep = _fake_sweep({4: 0.9})
        sweep.entries[0][1].traces = {"phase_a": [float("nan")]}
        with pytest.raises(ValueError, match="not JSON compliant"):
            emit_report(sweep, tmp_path)


class TestCsvRoles:
    def test_csv_few_shot_pool_feeds_the_pipeline(self, tiny_doc, tmp_path):
        pool = OutlierPool(np.random.default_rng(3).uniform(-1.2, 1.2, (40, 2)))
        path = tmp_path / "pool.csv"
        save_csv(pool, path)
        tiny_doc["data"]["few_shot"] = {"kind": "csv", "path": str(path)}
        tiny_doc["few_shot_count"] = 8
        config = config_from_dict(tiny_doc)
        record = run_single(config)
        assert record.few_shots == 8

    def test_csv_normal_role_is_rejected_at_config_load(self, tiny_doc, tmp_path):
        rng = np.random.default_rng(4)
        batch = LabeledBatch(rng.normal(size=(30, 2)), rng.integers(0, 3, 30))
        path = tmp_path / "normals.csv"
        save_csv(batch, path)
        tiny_doc["data"]["normal"] = {"kind": "csv", "path": str(path)}
        with pytest.raises(ConfigError, match="data.normal.kind: must be gaussian-mixture"):
            config_from_dict(tiny_doc)

    @pytest.mark.parametrize("role", ["few_shot", "outlier", "tests.ring"])
    def test_csv_of_the_wrong_width_is_a_config_error_naming_the_key(self, tiny_doc, tmp_path, role):
        path = tmp_path / "wide.csv"
        save_csv(OutlierPool(np.random.default_rng(5).uniform(-1, 1, (40, 3))), path)
        section, _, name = role.partition(".")
        spec = {"kind": "csv", "path": str(path)}
        if name:
            tiny_doc["data"][section][name] = spec
        else:
            tiny_doc["data"][section] = spec
        config = config_from_dict(tiny_doc)
        with pytest.raises(ConfigError, match=f"data.{role}: has 3 columns, the normal data has dim 2"):
            RunData.materialize(config, MODES, "few_shot_count", config.few_shot_count)

    @pytest.mark.parametrize("rows, width, message", [(0, 2, "has no rows"), (40, 3, "has 3 columns")])
    def test_bad_test_set_fails_before_training(self, tiny_doc, tmp_path, monkeypatch, rows, width, message):
        path = tmp_path / "test.csv"
        save_csv(OutlierPool(np.random.default_rng(5).uniform(-1, 1, (rows, width))), path)
        tiny_doc["data"]["tests"]["extra"] = {"kind": "csv", "path": str(path)}
        config = config_from_dict(tiny_doc)

        def no_training(_):
            raise AssertionError("training started before the test sets were read")

        monkeypatch.setattr(harness, "run_pipeline", no_training)
        with pytest.raises(ConfigError, match=f"data.tests.extra: {message}"):
            run_single(config)


def test_boundary_beats_no_boundary_at_zero_shots(reference_sweeps):
    ii = dict(reference_sweeps["ii"].curve("ring"))
    iii = dict(reference_sweeps["iii"].curve("ring"))
    assert iii[0] > ii[0]


def _leaf_keys(doc: dict, prefix: str = "") -> list[str]:
    keys = []
    for key, value in doc.items():
        here = f"{prefix}{key}"
        keys.append(here)
        if isinstance(value, dict):
            keys += _leaf_keys(value, here + ".")
    return keys


_DATASET_KEYS = ["kind", "dim", "size", "seed", "means", "cov_scale", "r_inner", "center", "box_lo", "window"]
_OVERRIDE_KEYS = (
    _leaf_keys(DEFAULTS)
    + [f"data.{role}.{k}" for role in ("normal", "few_shot", "outlier", "tests.ring") for k in _DATASET_KEYS]
    + ["data", "data.normal", "data.few_shot", "data.tests", "data.tests.ring", "bogus", "model.bogus"]
)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**30), 10**30) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(["kind", "size", "x"]), inner, max_size=2),
    max_leaves=6,
)
_OVERRIDES = st.tuples(
    st.sampled_from(_OVERRIDE_KEYS), _JSON_VALUES.map(json.dumps) | st.text(max_size=8)
).map("=".join)


@pytest.fixture(scope="module")
def tiny_config_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("config") / "tiny.json"
    path.write_text(json.dumps(TINY_DOC), encoding="utf-8")
    return path


@settings(max_examples=400, deadline=None)
@given(overrides=st.lists(_OVERRIDES, min_size=1, max_size=3))
def test_random_overrides_give_a_config_or_a_config_error(tiny_config_file, overrides):
    try:
        config = load_config(tiny_config_file, overrides)
    except ConfigError:
        return
    assert isinstance(config, ExperimentConfig)


def _at(doc: dict, key: str):
    for part in key.split("."):
        doc = doc[part]
    return doc


_REFERENCE_DOC = load_config(REFERENCE_CONFIG).document
_TINY_MERGED = config_from_dict(TINY_DOC).document
_SHARED_KEYS = sorted(set(_leaf_keys(_REFERENCE_DOC)) & set(_leaf_keys(_TINY_MERGED)))


def _tiny_override(key: str):
    """``key`` of the reference document set to its value in the tiny
    config: a leaf, or a section whole or in part."""
    value = _at(_TINY_MERGED, key)
    if not isinstance(value, dict):
        return st.just((key, value))
    part = st.sets(st.sampled_from(sorted(value))).map(lambda keys: (key, {k: value[k] for k in keys}))
    return st.just((key, value)) | part


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(_SHARED_KEYS).flatmap(_tiny_override), min_size=1, max_size=4))
def test_with_updates_is_set(reference_config, overrides):
    """``with_updates`` takes ``--set`` keys and gives the config, or the
    ConfigError, that ``--set`` gives, down to the fingerprint."""
    overrides = dict(overrides)
    try:
        want = load_config(REFERENCE_CONFIG, [f"{key}={json.dumps(value)}" for key, value in overrides.items()])
    except ConfigError as e:
        with pytest.raises(ConfigError) as got:
            reference_config.with_updates(**overrides)
        assert str(got.value) == str(e)
        return
    got = reference_config.with_updates(**overrides)
    assert got.document == want.document and got.fingerprint == want.fingerprint


_VALID_SPECS = {
    "gaussian-mixture": {"dim": 2, "size": 20, "means": [[0.0, 0.5], [1.0, -1.0]], "cov_scale": 0.1},
    "ring": {"dim": 2, "size": 20, "r_inner": 0.8, "r_outer": 1.2},
    "uniform-noise": {"dim": 2, "size": 20, "box_lo": -1.0, "box_hi": 1.0},
    "low-frequency-noise": {"dim": 2, "size": 20, "amplitude": 1.5, "window": 2},
}
_SPEC_FIELD_VALUES = {
    "kind": st.sampled_from(sorted(_VALID_SPECS)),
    "dim": st.integers(0, 3),
    "size": st.sampled_from([0, 1, 5, 20]),
    "means": st.sampled_from([[], [[0.0, 0.5]], [[0.0]], [[0.0, 1.0, 2.0]], [[0.0, 1.0], [2.0]]]),
    "cov_scale": st.sampled_from([-0.1, 0.0, 0.1]),
    "r_inner": st.sampled_from([-0.5, 0.0, 0.8, 1.5]),
    "r_outer": st.sampled_from([0.0, 1.2]),
    "center": st.sampled_from([[], [0.5], [0.5, -0.5], [0.0, 0.0, 0.0]]),
    "box_lo": st.sampled_from([-1.0, 1.0]),
    "box_hi": st.sampled_from([-1.0, 1.0, 2.0]),
    "amplitude": st.sampled_from([-1.0, 0.0, 1.5]),
    "window": st.integers(-1, 4),
}


@st.composite
def _dataset_specs(draw):
    """A valid spec of a random kind with up to three fields redrawn from
    pools around their range boundaries, or a CSV spec whose path names one
    of the ``csv_dir`` files."""
    if draw(st.integers(0, 4)) == 0:
        labeled = "_labeled" if draw(st.booleans()) else ""
        return {"kind": "csv", "path": f"w{draw(st.integers(1, 3))}{labeled}.csv"}
    kind = draw(st.sampled_from(sorted(_VALID_SPECS)))
    spec = {"kind": kind, "seed": draw(st.integers(0, 5)), **_VALID_SPECS[kind]}
    for name in draw(st.lists(st.sampled_from(sorted(_SPEC_FIELD_VALUES)), max_size=3, unique=True)):
        spec[name] = draw(_SPEC_FIELD_VALUES[name])
    return spec


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    """64-row CSVs of width 1-3, each unlabeled and labeled."""
    root = tmp_path_factory.mktemp("csv")
    rng = np.random.default_rng(6)
    for width in (1, 2, 3):
        inputs = rng.uniform(-1.2, 1.2, (64, width))
        save_csv(OutlierPool(inputs), root / f"w{width}.csv")
        save_csv(LabeledBatch(inputs, rng.integers(0, 3, 64)), root / f"w{width}_labeled.csv")
    return root


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["normal", "few_shot", "outlier", "tests"]), _dataset_specs())
def test_a_dataset_spec_either_loads_and_materializes_or_is_a_config_error(csv_dir, role, spec):
    if spec["kind"] == "csv":
        spec = {**spec, "path": str(csv_dir / spec["path"])}
    doc = json.loads(json.dumps(TINY_DOC))
    if role == "tests":
        doc["data"]["tests"]["extra"] = spec
    else:
        doc["data"][role] = spec
    try:
        config = config_from_dict(doc)
    except ConfigError:
        return
    dim = config.normal.dim
    need = config.sweep_counts[0]
    try:
        data = RunData.materialize(config, MODES, "sweep.counts", need)
    except ConfigError as e:
        if role == "few_shot" and spec["kind"] != "csv":  # a pool's size is checked where it is sampled
            assert spec["size"] < need
            assert str(e) == f"data.few_shot: has {spec['size']} rows, fewer than the {need} few-shots to sample for sweep.counts"
            return
        # a CSV's width is only known once it is read
        width = load_csv(spec["path"]).inputs.shape[1]
        assert spec["kind"] == "csv" and width != dim
        assert f"has {width} columns, the normal data has dim {dim}" in str(e)
        return
    arrays = [data.normals.inputs, data.few_shot_pool.inputs, data.outlier.inputs, data.eval_in, *data.tests.values()]
    assert all(a.ndim == 2 and a.shape[1] == dim for a in arrays)
