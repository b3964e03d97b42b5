import json
from pathlib import Path

from oodlab.cli import dispatch
from oodlab.data import load_csv


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
