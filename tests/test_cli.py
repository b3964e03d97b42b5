import json
from pathlib import Path

import numpy as np
import pytest

from oodlab.cli import dispatch
from oodlab.data import OutlierPool, load_csv, save_csv
from oodlab.nets import MlpClassifier, save_checkpoint


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
            ('model.classifier_hidden="x"', "model.classifier_hidden"),
            ("model.latent_dim=0", "model.latent_dim"),
            ('model.classifier_activation="softplus"', "model.classifier_activation"),
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

    def test_missing_config_exits_2(self, tmp_path):
        assert dispatch(["train", "--config", str(tmp_path / "gone.json"), "--out", str(tmp_path / "o"), "-q"]) == 2


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


class TestAblateOccCommands:
    def test_ablate_writes_mode_reports(self, tiny_config_path, tmp_path):
        out = tmp_path / "abl"
        assert dispatch(["ablate", "--config", str(tiny_config_path), "--modes", "ii,iii", "--out", str(out), "-q"]) == 0
        names = {p.name for p in out.glob("*.result.json")}
        assert any(n.startswith("ii-") for n in names)
        assert any(n.startswith("iii-") for n in names)

    def test_occ_runs(self, tiny_config_path, tmp_path):
        out = tmp_path / "occ"
        assert dispatch(["occ", "--config", str(tiny_config_path), "--out", str(out), "-q"]) == 0
        doc = json.loads((out / "experiment.json").read_text())
        assert "occ_mean" in doc
