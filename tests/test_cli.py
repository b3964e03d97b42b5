import json
from pathlib import Path

import numpy as np
import pytest

from oodlab import harness
from oodlab.cli import dispatch
from oodlab.data import OutlierPool, load_csv, save_csv
from oodlab.nets import BoundaryGenerator, MlpClassifier, load_checkpoint, save_checkpoint

from conftest import REFERENCE_CONFIG, REPO, fail_run_seed


def _tree_bytes(root: Path) -> dict:
    """Relative path -> bytes for every file, meta sidecars excluded."""
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file() and not path.name.endswith(".meta.json"):
            out[str(path.relative_to(root))] = path.read_bytes()
    return out


class TestGenData:
    def test_writes_csv(self, tmp_path):
        out = tmp_path / "ring.csv"
        spec = '{"kind":"ring","dim":2,"size":25,"seed":4,"r_inner":0.5,"r_outer":1.0}'
        assert dispatch(["gen-data", "--spec-json", spec, "--out", str(out), "-q"]) == 0
        pool = load_csv(out)
        assert pool.inputs.shape == (25, 2)

    def test_identical_spec_gives_identical_file(self, tmp_path):
        spec = '{"kind":"uniform-noise","dim":3,"size":10,"seed":1}'
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        dispatch(["gen-data", "--spec-json", spec, "--out", str(a), "-q"])
        dispatch(["gen-data", "--spec-json", spec, "--out", str(b), "-q"])
        assert a.read_bytes() == b.read_bytes()

    def test_bad_spec_is_config_error(self, tmp_path, capsys):
        code = dispatch(["gen-data", "--spec-json", '{"kind":"moons"}', "--out", str(tmp_path / "x.csv"), "-q"])
        assert code == 2
        assert "moons" in capsys.readouterr().err

    def test_non_finite_spec_value_exits_2_naming_field(self, tmp_path, capsys):
        spec = '{"kind":"uniform-noise","dim":2,"size":5,"box_hi":Infinity}'
        assert dispatch(["gen-data", "--spec-json", spec, "--out", str(tmp_path / "x.csv"), "-q"]) == 2
        assert "box_hi" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_lfn_requires_base_csv(self, tmp_path):
        spec = '{"kind":"low-frequency-noise","dim":2,"size":5}'
        assert dispatch(["gen-data", "--spec-json", spec, "--out", str(tmp_path / "x.csv"), "-q"]) == 2

    def test_lfn_from_an_unlabeled_base_csv(self, tmp_path):
        base, out = tmp_path / "base.csv", tmp_path / "x.csv"
        save_csv(OutlierPool(np.zeros((4, 2))), base)
        spec = '{"kind":"low-frequency-noise","size":5,"seed":2}'
        assert dispatch(["gen-data", "--spec-json", spec, "--base-csv", str(base), "--out", str(out), "-q"]) == 0
        assert load_csv(out).inputs.shape == (5, 2)

    @pytest.mark.parametrize(
        "spec, field",
        [
            ('{"kind":"ring","size":5,"r_inner":1.5,"r_outer":1.2}', "r_inner"),
            ('{"kind":"uniform-noise","size":5,"seed":-1}', "seed"),
            ('{"kind":"low-frequency-noise","size":5,"window":3}', "window"),
        ],
    )
    def test_spec_the_generator_would_reject_exits_2_naming_the_field(self, tmp_path, capsys, spec, field):
        base = tmp_path / "base.csv"
        save_csv(OutlierPool(np.zeros((4, 2))), base)
        out = tmp_path / "x.csv"
        code = dispatch(["gen-data", "--spec-json", spec, "--base-csv", str(base), "--out", str(out), "-q"])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"config error: --spec-json.{field}:")
        assert not out.exists()

    @pytest.mark.parametrize(
        "spec, message",
        [
            ('{"kind":"ring","size":2.5}', "--spec-json.size: must be an integer, got 2.5"),
            ('{"kind":"ring","dim":true}', "--spec-json.dim: must be an integer, got True"),
            ('{"kind":"ring","seed":1.5}', "--spec-json.seed: must be an integer, got 1.5"),
        ],
    )
    def test_mistyped_spec_field_exits_2_naming_it(self, tmp_path, capsys, spec, message):
        out = tmp_path / "x.csv"
        assert dispatch(["gen-data", "--spec-json", spec, "--out", str(out), "-q"]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()


class TestGradCheckCommand:
    def test_passes_and_prints_discrepancy(self, capsys):
        assert dispatch(["grad-check", "--instances", "2", "--seed", "1", "-q"]) == 0
        out = capsys.readouterr().out
        assert "grad-check pass" in out and "max discrepancy" in out

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_fewer_than_one_instance_exits_2(self, capsys, count):
        assert dispatch(["grad-check", "--instances", count, "-q"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--instances" in captured.err


class TestConfigErrors:
    def test_unknown_override_key_exits_2_naming_it(self, tiny_config_path, tmp_path, capsys):
        code = dispatch(
            ["sweep", "--config", str(tiny_config_path), "--set", "bogus.key=1", "--out", str(tmp_path / "o"), "-q"]
        )
        assert code == 2
        assert "bogus" in capsys.readouterr().err

    def test_non_finite_dataset_override_exits_2(self, tiny_config_path, tmp_path, capsys):
        code = dispatch(
            ["sweep", "--config", str(tiny_config_path), "--set", "data.normal.cov_scale=nan", "--out", str(tmp_path / "o"), "-q"]
        )
        assert code == 2
        assert "cov_scale" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override, key",
        [
            ('few_shot_count="x"', "few_shot_count"),
            ("sweep.counts=a,b", "sweep.counts"),
            ('eval.in_size="x"', "eval.in_size"),
            ('boundary_pool_size="x"', "boundary_pool_size"),
            ('sweep.break_floor="x"', "sweep.break_floor"),
            ("sweep.break_floor=0.5", "sweep.break_floor"),
            ("sweep.break_floor=1", "sweep.break_floor"),
            ('model.classifier_hidden="x"', "model.classifier_hidden"),
            ("model.latent_dim=0", "model.latent_dim"),
            ('model.classifier_activation="softplus"', "model.classifier_activation"),
            ("schedule.lr_c=-1", "schedule.lr_c"),
            ("data.few_shot.seed=-1", "data.few_shot.seed"),
        ],
    )
    def test_bad_override_value_exits_2_naming_the_key(self, tiny_config_path, tmp_path, capsys, override, key):
        out = tmp_path / "o"
        code = dispatch(["sweep", "--config", str(tiny_config_path), "--set", override, "--out", str(out), "-q"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error:") and key in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "override, key",
        [
            ("data.tests.lfn.window=5", "data.tests.lfn.window"),
            ("data.normal.means=[[0,1,2]]", "data.normal.means"),
            ("data.normal.cov_scale=0", "data.normal.cov_scale"),
            ('data.normal.kind="ring"', "data.normal.kind"),
            ("data.tests.ring.r_inner=2", "data.tests.ring.r_inner"),
            ("data.tests.ring.center=[1]", "data.tests.ring.center"),
            ("data.tests.ring.dim=3", "data.tests.ring.dim"),
            ("data.outlier.box_lo=2", "data.outlier.box_lo"),
            ("data.tests.lfn.amplitude=-1", "data.tests.lfn.amplitude"),
            ('data.few_shot.kind="csv"', "data.few_shot.path"),
            ('data.normal.kind="csv"', "data.normal.kind"),
            ("sweep.counts=[100,0]", "sweep.counts"),
        ],
    )
    def test_dataset_a_generator_would_reject_exits_2_naming_the_key(self, tiny_config_path, tmp_path, capsys, override, key):
        out = tmp_path / "o"
        code = dispatch(["sweep", "--config", str(tiny_config_path), "--set", override, "--out", str(out), "-q"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error:") and key in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "override, message",
        [
            ("data.tests.ring=null", "data.tests.ring: must be an object, got None"),
            ("data.tests.ring=0", "data.tests.ring: must be an object, got 0"),
            ("data.normal=null", "data.normal: must be an object, got None"),
            ("data.normal=0", "data.normal: must be an object, got 0"),
            ("data=null", "data: must be an object, got None"),
            ("data=0", "data: must be an object, got 0"),
            ("data.tests=null", "data.tests: must be an object, got None"),
            ("data.tests=0", "data.tests: must be an object, got 0"),
        ],
    )
    def test_a_falsy_dataset_spec_exits_2_naming_its_own_key(self, tiny_config_path, tmp_path, capsys, override, message):
        # a null spec is not the default mixture, whose missing means a user never wrote
        out = tmp_path / "o"
        code = dispatch(["sweep", "--config", str(tiny_config_path), "--set", override, "--out", str(out), "-q"])
        assert code == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_train_with_a_csv_of_the_wrong_width_exits_2_naming_the_key(self, tiny_doc, tmp_path, capsys):
        wide = tmp_path / "wide.csv"
        save_csv(OutlierPool(np.random.default_rng(0).uniform(-1, 1, (40, 3))), wide)
        tiny_doc["data"]["few_shot"] = {"kind": "csv", "path": str(wide)}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(tiny_doc), encoding="utf-8")
        out = tmp_path / "o"
        code = dispatch(["train", "--config", str(path), "--out", str(out), "-q"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: data.few_shot: has 3 columns, the normal data has dim 2")
        assert not out.exists()

    def test_train_with_a_csv_shorter_than_the_few_shot_count_exits_2(self, tiny_doc, tmp_path, capsys):
        short = tmp_path / "short.csv"
        save_csv(OutlierPool(np.random.default_rng(0).uniform(-1, 1, (10, 2))), short)
        tiny_doc["data"]["few_shot"] = {"kind": "csv", "path": str(short)}
        path = tmp_path / "short.json"
        path.write_text(json.dumps(tiny_doc), encoding="utf-8")
        out = tmp_path / "o"
        code = dispatch(["train", "--config", str(path), "--out", str(out), "-q"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: data.few_shot: has 10 rows, fewer than the 16 few-shots")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, key",
        [
            (["sweep", "--jobs", "1"], "few_shot"),
            (["sweep", "--jobs", "2"], "few_shot"),
            (["ablate", "--modes", "ii,iii"], "few_shot"),
            (["occ", "--set", "mode=iv"], "outlier"),
        ],
    )
    def test_bad_csv_stops_a_multi_run_command_once_with_exit_2(self, tiny_doc, tmp_path, capsys, command, key):
        wide = tmp_path / "wide.csv"
        save_csv(OutlierPool(np.random.default_rng(0).uniform(-1, 1, (200, 3))), wide)
        tiny_doc["data"][key] = {"kind": "csv", "path": str(wide)}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(tiny_doc), encoding="utf-8")
        out = tmp_path / "o"
        code = dispatch([*command, "--config", str(path), "--out", str(out), "-q"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"config error: data.{key}: has 3 columns, the normal data has dim 2\n"
        assert not (out / "experiment.json").exists()

    def test_a_missing_data_file_stops_a_sweep_once_with_exit_1(self, tiny_doc, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        tiny_doc["data"]["few_shot"] = {"kind": "csv", "path": str(missing)}
        path = tmp_path / "missing.json"
        path.write_text(json.dumps(tiny_doc), encoding="utf-8")
        out = tmp_path / "o"
        assert dispatch(["sweep", "--config", str(path), "--out", str(out), "-q"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count(str(missing)) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sweep", "eval"])
    def test_header_only_test_csv_exits_2_naming_the_key(self, tiny_doc, tmp_path, capsys, command):
        empty = tmp_path / "empty.csv"
        empty.write_text("x0,x1\n", encoding="utf-8")
        tiny_doc["data"]["tests"]["empty"] = {"kind": "csv", "path": str(empty)}
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(tiny_doc), encoding="utf-8")
        ckpt = tmp_path / "clf.ckpt"
        save_checkpoint(MlpClassifier([2, 16, 16, 3], activation="tanh", seed=0), ckpt)
        extra = ["--classifier", str(ckpt)] if command == "eval" else []
        out = tmp_path / "o"
        code = dispatch([command, "--config", str(path), *extra, "--out", str(out), "-q"])
        assert code == 2
        assert capsys.readouterr().err == "config error: data.tests.empty: has no rows\n"
        assert not list(out.glob("*.json"))

    def test_missing_config_exits_2(self, tmp_path):
        assert dispatch(["train", "--config", str(tmp_path / "gone.json"), "--out", str(tmp_path / "o"), "-q"]) == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"data": {"bogus": {}}}', "unknown config key 'data.bogus'"),
            ("[1, 2]", "config root must be a JSON object"),
            ('{"seed": ', "invalid JSON"),
        ],
        ids=["unknown-data-key", "non-object-root", "invalid-json"],
    )
    def test_a_malformed_config_file_exits_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        out = tmp_path / "o"
        assert dispatch(["train", "--config", str(path), "--out", str(out), "-q"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err
        assert not out.exists()


class TestUsageErrors:
    def test_no_subcommand_exits_2(self, capsys):
        assert dispatch([]) == 2
        assert "usage: oodlab" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_sweep_jobs_below_one_exits_2(self, tiny_config_path, tmp_path, capsys, jobs):
        out = tmp_path / "o"
        code = dispatch(["sweep", "--config", str(tiny_config_path), "--jobs", jobs, "--out", str(out), "-q"])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: --jobs:")
        assert not out.exists()

    @pytest.mark.parametrize("modes", ["", "ii,ii", "x", "ii,,iii", "v"])
    def test_ablate_modes_must_be_distinct_known_modes(self, tiny_config_path, tmp_path, capsys, modes):
        out = tmp_path / "o"
        code = dispatch(["ablate", "--config", str(tiny_config_path), "--modes", modes, "--out", str(out), "-q"])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: --modes:")
        assert not out.exists()


class TestSweepCommand:
    def test_override_mechanics_run_three_counts(self, tiny_config_path, tmp_path):
        out = tmp_path / "runs"
        code = dispatch(
            ["sweep", "--config", str(tiny_config_path), "--set", "sweep.counts=8,4,0", "--out", str(out), "-q"]
        )
        assert code == 0
        results = sorted(p.name for p in out.glob("*.result.json"))
        assert len(results) == 3
        assert (out / "summary.csv").exists()
        assert (out / "break_points.json").exists()
        assert sorted(p.name for p in (out / "plots").glob("*.csv"))
        assert not (out / "experiment.json").exists()  # sweep writes it only when an entry failed

    def test_one_count_is_a_one_item_json_list(self, tiny_config_path, tmp_path):
        out = tmp_path / "runs"
        code = dispatch(["sweep", "--config", str(tiny_config_path), "--set", "sweep.counts=[8]", "--out", str(out), "-q"])
        assert code == 0
        assert len(list(out.glob("*.result.json"))) == 1

    def test_repeat_invocation_is_byte_identical(self, tiny_config_path, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert dispatch(["sweep", "--config", str(tiny_config_path), "--out", str(out), "-q"]) == 0
        ta, tb = _tree_bytes(a), _tree_bytes(b)
        assert ta.keys() == tb.keys()
        assert all(ta[k] == tb[k] for k in ta)

    def test_writes_only_under_out_dir(self, tiny_config_path, tmp_path, monkeypatch):
        workdir = tmp_path / "cwd"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        out = tmp_path / "only_here"
        before = set(workdir.rglob("*"))
        assert dispatch(["sweep", "--config", str(tiny_config_path), "--out", str(out), "-q"]) == 0
        assert set(workdir.rglob("*")) == before
        assert out.exists()


class TestTrainEvalCommands:
    def test_train_then_eval(self, tiny_config_path, tmp_path):
        out = tmp_path / "train"
        assert dispatch(["train", "--config", str(tiny_config_path), "--out", str(out), "-q"]) == 0
        ckpts = list(out.glob("*.classifier.ckpt"))
        assert len(ckpts) == 1
        assert list(out.glob("*.generator.ckpt"))
        eval_out = tmp_path / "eval"
        code = dispatch(
            ["eval", "--config", str(tiny_config_path), "--classifier", str(ckpts[0]), "--out", str(eval_out), "-q"]
        )
        assert code == 0
        doc = json.loads((eval_out / "eval.result.json").read_text())
        assert set(doc) == {"ring", "lfn"}
        for metrics in doc.values():
            assert 0.0 <= metrics["gauroc"] <= metrics["aauroc"] <= metrics["auroc"] <= 1.0


    def test_eval_of_a_test_set_outside_the_input_box_exits_2(self, tmp_path, capsys):
        code = dispatch([
            "eval", "--config", str(REFERENCE_CONFIG), "--classifier", str(REPO / "bench" / "reference_classifier.ckpt"),
            "--set", "budget.input_box=[-1,1]", "--out", str(tmp_path / "e"), "-q",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: data.tests.ring: row ") and "outside budget.input_box [-1.0, 1.0]" in err
        assert not (tmp_path / "e" / "eval.result.json").exists()

    def test_eval_of_non_finite_checkpoint_exits_1_naming_the_array(self, tiny_config_path, tmp_path, capsys):
        ckpt = tmp_path / "clf.ckpt"
        save_checkpoint(MlpClassifier([2, 16, 16, 3], activation="tanh", seed=0), ckpt)
        lines = ckpt.read_text(encoding="utf-8").splitlines()
        lines[4] = lines[4].split(" ", 1)[0] + " nan " + lines[4].split(" ", 2)[2]
        ckpt.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = dispatch(
            ["eval", "--config", str(tiny_config_path), "--classifier", str(ckpt), "--out", str(tmp_path / "e"), "-q"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'W0'" in err and "non-finite" in err
        assert not (tmp_path / "e" / "eval.result.json").exists()

    def test_eval_of_a_truncated_model_exits_1_naming_the_file_and_line(self, tmp_path, capsys):
        ckpt = tmp_path / "clf.ckpt"
        save_checkpoint(MlpClassifier([2, 4, 4, 3], activation="tanh", seed=0), ckpt)
        lines = ckpt.read_text(encoding="utf-8").splitlines()
        assert lines[3] == "layer_sizes 2 4 4 3"
        lines[3] = "layer_sizes 2 4 4"  # W1 is 4 x 4 either way, so only W2 and b2 are left over
        ckpt.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = dispatch(
            ["eval", "--config", str(REFERENCE_CONFIG), "--classifier", str(ckpt), "--out", str(tmp_path / "e"), "-q"]
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {ckpt}: line 9: 'W2' follows the last array of layer_sizes [2, 4, 4]\n"
        assert not (tmp_path / "e").exists()

    def test_eval_of_a_model_of_another_input_width_exits_2(self, tmp_path, capsys):
        ckpt = tmp_path / "clf.ckpt"
        save_checkpoint(MlpClassifier([3, 8, 3], seed=0), ckpt)
        code = dispatch(
            ["eval", "--config", str(REFERENCE_CONFIG), "--classifier", str(ckpt), "--out", str(tmp_path / "e"), "-q"]
        )
        assert code == 2
        assert capsys.readouterr().err == f"config error: --classifier: '{ckpt}' takes 3 inputs, the config's data has 2\n"
        assert not (tmp_path / "e").exists()

    def test_eval_of_a_generator_checkpoint_exits_2(self, tmp_path, capsys):
        ckpt = tmp_path / "gen.ckpt"
        save_checkpoint(BoundaryGenerator([2, 8, 2], seed=0), ckpt)
        code = dispatch(
            ["eval", "--config", str(REFERENCE_CONFIG), "--classifier", str(ckpt), "--out", str(tmp_path / "e"), "-q"]
        )
        assert code == 2
        assert capsys.readouterr().err == f"config error: --classifier: '{ckpt}' is not a classifier checkpoint\n"
        assert not (tmp_path / "e").exists()

    # line edits of a [2, 4, 3] classifier checkpoint: header, kind,
    # activation, layer_sizes, then W0, b0, W1 and b1
    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda ls: [ls[0], "kind widget", *ls[2:]], "unknown model kind 'widget'"),
            (lambda ls: [*ls[:3], "layer_sizes 2 four 3", *ls[4:]], "invalid literal for int()"),
            (lambda ls: ls[:-1], "truncated checkpoint"),
            (lambda ls: [*ls[:5], "c0" + ls[5][2:], *ls[6:]], "expected array 'b0', found 'c0'"),
            (lambda ls: [*ls[:5], ls[5] + " 0.5", *ls[6:]], "array 'b0' has 5 values, expected 4"),
        ],
        ids=["kind", "layer-sizes", "too-few-lines", "misnamed-array", "value-count"],
    )
    def test_eval_of_a_malformed_checkpoint_exits_1_naming_the_file(self, tmp_path, capsys, edit, message):
        ckpt = tmp_path / "clf.ckpt"
        save_checkpoint(MlpClassifier([2, 4, 3], activation="tanh", seed=0), ckpt)
        ckpt.write_text("\n".join(edit(ckpt.read_text(encoding="utf-8").splitlines())) + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as raised:
            load_checkpoint(ckpt)
        assert str(raised.value).startswith(f"{ckpt}: ") and message in str(raised.value)
        code = dispatch(
            ["eval", "--config", str(REFERENCE_CONFIG), "--classifier", str(ckpt), "--out", str(tmp_path / "e"), "-q"]
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {raised.value}\n"
        assert not (tmp_path / "e").exists()


class TestFewShotPoolSize:
    """A command checks only the few-shot counts it samples, when it reads
    the pool: on the tiny config with an 8-row synthetic pool, whose sweep
    counts start at 16."""

    SMALL_POOL = ["--set", "data.few_shot.size=8", "--set", "few_shot_count=4"]

    @pytest.mark.parametrize(
        "command", [["train"], ["ablate", "--modes", "ii"], ["occ"], ["eval"]], ids=["train", "ablate", "occ", "eval"]
    )
    def test_a_command_sampling_within_the_pool_runs(self, tiny_config_path, tmp_path, command):
        if command == ["eval"]:
            ckpt = tmp_path / "clf.ckpt"
            save_checkpoint(MlpClassifier([2, 16, 16, 3], activation="tanh", seed=0), ckpt)
            command = ["eval", "--classifier", str(ckpt)]
        out = tmp_path / "o"
        assert dispatch([*command, "--config", str(tiny_config_path), *self.SMALL_POOL, "--out", str(out), "-q"]) == 0

    def test_a_sweep_ignores_the_few_shot_count(self, tiny_config_path, tmp_path):
        overrides = ["--set", "data.few_shot.size=8", "--set", "few_shot_count=100", "--set", "sweep.counts=4,0"]
        out = tmp_path / "o"
        assert dispatch(["sweep", "--config", str(tiny_config_path), *overrides, "--out", str(out), "-q"]) == 0
        assert len(list(out.glob("*.result.json"))) == 2

    def test_a_sweep_count_above_the_pool_exits_2_before_training(self, tiny_config_path, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "run_pipeline", calls.append)
        out = tmp_path / "o"
        code = dispatch(["sweep", "--config", str(tiny_config_path), *self.SMALL_POOL, "--out", str(out), "-q"])
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: data.few_shot: has 8 rows, fewer than the 16 few-shots to sample for sweep.counts\n"
        )
        assert calls == [] and not out.exists()


class TestModePools:
    """A mode's pools are required by the commands whose runs draw them, as
    they read them: ``train``, ``sweep`` and ``occ`` exit 2 before any
    training, ``ablate`` fails only the mode that lacks one (see
    ``test_a_failing_entry_exits_1_naming_it``), and ``eval`` never asks."""

    @pytest.mark.parametrize(
        "command, overrides",
        [
            (["eval"], ["data.few_shot=null"]),
            (["occ"], ["data.few_shot=null"]),
            (["ablate", "--modes", "ii,iii"], ["mode=iv", "data.outlier=null"]),
        ],
        ids=["eval", "occ", "ablate"],
    )
    def test_a_command_that_does_not_draw_the_pool_runs_without_it(self, tiny_config_path, tmp_path, command, overrides):
        if command == ["eval"]:
            ckpt = tmp_path / "clf.ckpt"
            save_checkpoint(MlpClassifier([2, 16, 16, 3], activation="tanh", seed=0), ckpt)
            command = ["eval", "--classifier", str(ckpt)]
        sets = [arg for override in overrides for arg in ("--set", override)]
        out = tmp_path / "o"
        assert dispatch([*command, "--config", str(tiny_config_path), *sets, "--out", str(out), "-q"]) == 0

    @pytest.mark.parametrize(
        "command, overrides, message",
        [
            (["train"], ["data.few_shot=null"], "data.few_shot: required for mode (iii)"),
            (["sweep", "--jobs", "1"], ["data.few_shot=null"], "data.few_shot: required for mode (iii)"),
            (["sweep", "--jobs", "2"], ["data.few_shot=null"], "data.few_shot: required for mode (iii)"),
            (["occ"], ["mode=iv", "data.outlier=null"], "data.outlier: required for mode (iv)"),
        ],
        ids=["train", "sweep-jobs-1", "sweep-jobs-2", "occ"],
    )
    def test_a_command_whose_runs_draw_a_missing_pool_exits_2_before_training(
        self, tiny_config_path, tmp_path, capsys, monkeypatch, command, overrides, message
    ):
        calls = []
        monkeypatch.setattr(harness, "run_pipeline", calls.append)
        sets = [arg for override in overrides for arg in ("--set", override)]
        out = tmp_path / "o"
        assert dispatch([*command, "--config", str(tiny_config_path), *sets, "--out", str(out), "-q"]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert calls == [] and not list(out.glob("**/*.json"))

    @pytest.mark.parametrize(
        "command, overrides",
        [(["train"], ["mode=i"]), (["ablate", "--modes", "i,iv"], []), (["occ"], ["mode=iv"])],
        ids=["train-i", "ablate-i-iv", "occ-iv"],
    )
    def test_an_outlier_set_with_no_rows_exits_2_before_training(
        self, tiny_config_path, tmp_path, capsys, monkeypatch, command, overrides
    ):
        """An empty outlier set would turn mode i into plain cross-entropy
        and mode iv into mode iii; a command whose modes draw it stops."""
        empty = tmp_path / "empty.csv"
        empty.write_text("x0,x1\n", encoding="utf-8")
        calls = []
        monkeypatch.setattr(harness, "run_pipeline", calls.append)
        outlier = json.dumps({"kind": "csv", "path": str(empty)})
        sets = [arg for override in [*overrides, f"data.outlier={outlier}"] for arg in ("--set", override)]
        out = tmp_path / "o"
        assert dispatch([*command, "--config", str(tiny_config_path), *sets, "--out", str(out), "-q"]) == 2
        assert capsys.readouterr().err == "config error: data.outlier: has no rows\n"
        assert calls == [] and not list(out.glob("**/*.json"))

    @pytest.mark.parametrize("command", [["train"], ["sweep"]])
    def test_a_few_shot_pool_with_no_rows_is_the_zero_shot_setting(self, tiny_config_path, tmp_path, command):
        empty = tmp_path / "empty.csv"
        empty.write_text("x0,x1\n", encoding="utf-8")
        few_shot = json.dumps({"kind": "csv", "path": str(empty)})
        sets = ["--set", f"data.few_shot={few_shot}", "--set", "few_shot_count=0", "--set", "sweep.counts=[0]"]
        out = tmp_path / "o"
        assert dispatch([*command, "--config", str(tiny_config_path), *sets, "--out", str(out), "-q"]) == 0


    # data.outlier set to a CSV that does not exist
    MISSING = 'data.outlier={"kind":"csv","path":"MISSING"}'
    FEW = "config error: data.few_shot: has 8 rows, fewer than the 16 few-shots to sample for few_shot_count\n"
    NO_FILE = "error: [Errno 2] No such file or directory: 'MISSING'\n"

    @pytest.mark.parametrize(
        "command, overrides, code, message",
        [
            (["train"], ["mode=i", "data.few_shot.size=8", "few_shot_count=16"], 0, ""),
            (["ablate", "--modes", "i"], ["data.few_shot.size=8", "few_shot_count=16"], 0, ""),
            (["sweep"], ["mode=i", "data.few_shot.size=8", "sweep.counts=16,0"], 0, ""),
            (["train"], [MISSING], 0, ""),
            (["sweep"], ["mode=ii", MISSING], 0, ""),
            (["occ"], [MISSING], 0, ""),
            (["train"], ["mode=iv", MISSING], 1, NO_FILE),
            (["occ"], ["mode=iv", MISSING], 1, NO_FILE),
            (["ablate", "--modes", "ii,iii"], ["data.few_shot.size=8", "few_shot_count=16"], 2, FEW),
            (
                ["ablate", "--modes", "i,ii"], ["data.outlier=null"], 1,
                "[ablate] i failed: ConfigError: data.outlier: required for mode (i)\n",
            ),
            (["train"], ["data.few_shot=null"], 2, "config error: data.few_shot: required for mode (iii)\n"),
            (
                ["train"], ['data.tests={"a/b":{"kind":"ring","size":48}}'], 2,
                "config error: data.tests.a/b: a test-set name must be nonempty and hold no path separator or NUL\n",
            ),
        ],
        ids=[
            "train-i-small-pool", "ablate-i-small-pool", "sweep-i-small-pool", "train-iii-no-outlier-file",
            "sweep-ii-no-outlier-file", "occ-iii-no-outlier-file", "train-iv-no-outlier-file", "occ-iv-no-outlier-file",
            "ablate-ii-iii-small-pool", "ablate-i-ii-no-outlier", "train-iii-no-few-shot", "train-test-name-with-slash",
        ],
    )
    def test_a_command_opens_only_the_pools_its_modes_draw(
        self, tiny_config_path, tmp_path, capsys, monkeypatch, command, overrides, code, message
    ):
        missing = str(tmp_path / "missing.csv")
        real, calls = harness.run_pipeline, []

        def run_pipeline(cfg):
            calls.append(cfg.mode)
            return real(cfg)

        monkeypatch.setattr(harness, "run_pipeline", run_pipeline)
        sets = [arg for override in overrides for arg in ("--set", override.replace("MISSING", missing))]
        out = tmp_path / "o"
        assert dispatch([*command, "--config", str(tiny_config_path), *sets, "--out", str(out), "-q"]) == code
        assert capsys.readouterr().err == message.replace("MISSING", missing)
        if code == 2:
            assert calls == [] and not out.exists()


class TestAblateOccCommands:
    def test_ablate_writes_mode_reports(self, tiny_config_path, tmp_path):
        out = tmp_path / "abl"
        assert dispatch(["ablate", "--config", str(tiny_config_path), "--modes", "ii,iii", "--out", str(out), "-q"]) == 0
        names = {p.name for p in out.glob("*.result.json")}
        assert any(n.startswith("ii-") for n in names)
        assert any(n.startswith("iii-") for n in names)
        assert json.loads((out / "experiment.json").read_text()) == {"mode_errors": {}}

    def test_occ_runs(self, tiny_config_path, tmp_path):
        out = tmp_path / "occ"
        assert dispatch(["occ", "--config", str(tiny_config_path), "--out", str(out), "-q"]) == 0
        doc = json.loads((out / "experiment.json").read_text())
        assert "occ_mean" in doc

    def test_occ_with_an_out_set_outside_the_input_box_exits_2_before_training(
        self, tiny_config_path, tmp_path, monkeypatch, capsys
    ):
        calls = []
        monkeypatch.setattr(harness, "run_pipeline", calls.append)
        out = tmp_path / "occ"
        argv = ["occ", "--config", str(tiny_config_path), "--set", "budget.input_box=[-0.5,0.5]", "--out", str(out), "-q"]
        assert dispatch(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: data.normal: the OCC out-set of class 0: row ")
        assert "outside budget.input_box [-0.5, 0.5]" in err
        assert calls == [] and not (out / "experiment.json").exists()

    def test_occ_with_every_class_failing_exits_1_with_a_null_mean(self, tiny_config_path, tmp_path, monkeypatch):
        def diverged(cfg):
            raise RuntimeError("diverged")

        def refuse(token):
            raise AssertionError(f"{token} is not JSON")

        monkeypatch.setattr(harness, "run_pipeline", diverged)
        out = tmp_path / "occ"
        assert dispatch(["occ", "--config", str(tiny_config_path), "--out", str(out), "-q"]) == 1
        doc = json.loads((out / "experiment.json").read_text(), parse_constant=refuse)
        assert doc == {"occ_errors": {c: "RuntimeError: diverged" for c in "012"}, "occ_mean": None}

    @pytest.mark.parametrize(
        "argv, fails_seed, key, errors, ran",
        [
            # sweep entry i and occ class c run with seed + i and seed + c
            (["sweep"], 1, "failures", {"4": "RuntimeError: diverged"}, ["iii-n0", "iii-n16"]),
            (
                ["ablate", "--set", "data.outlier=null", "--set", "mode=ii"],
                None,
                "mode_errors",
                {m: f"ConfigError: data.outlier: required for mode ({m})" for m in ("i", "iv")},
                ["ii-n16", "iii-n16"],
            ),
            (["occ"], 1, "occ_errors", {"1": "RuntimeError: diverged"}, ["occ0-n16", "occ2-n16"]),
        ],
        ids=["sweep", "ablate", "occ"],
    )
    def test_a_failing_entry_exits_1_naming_it(
        self, tiny_config_path, tmp_path, monkeypatch, capsys, argv, fails_seed, key, errors, ran
    ):
        if fails_seed is not None:
            seed = json.loads(tiny_config_path.read_text())["seed"]
            fail_run_seed(monkeypatch, seed + fails_seed, RuntimeError("diverged"))
        out = tmp_path / "out"
        assert dispatch([*argv, "--config", str(tiny_config_path), "--out", str(out), "-q"]) == 1
        doc = json.loads((out / "experiment.json").read_text())
        assert doc[key] == errors
        failed = [line for line in capsys.readouterr().err.splitlines() if " failed: " in line]
        assert failed == [f"[{argv[0]}] {label} failed: {error}" for label, error in errors.items()]
        assert sorted("-".join(p.name.split("-")[:2]) for p in out.glob("*.result.json")) == ran

    @pytest.mark.parametrize("command", [["ablate", "--modes", "i,ii,iii,iv"], ["occ"]])
    def test_repeat_invocation_is_byte_identical(self, tiny_config_path, tmp_path, command):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert dispatch([*command, "--config", str(tiny_config_path), "--out", str(out), "-q"]) == 0
        ta, tb = _tree_bytes(a), _tree_bytes(b)
        assert ta.keys() == tb.keys()
        assert "summary.csv" in ta and any(k.endswith(".result.json") for k in ta)
        assert all(ta[k] == tb[k] for k in ta)
