"""CLI contract: artifacts, exit codes, determinism, config plumbing."""

import csv
import hashlib
import importlib
import os
from dataclasses import replace

import numpy as np
import pytest

from uqnet.checkpoint import load_checkpoint, save_checkpoint
from uqnet.cli import build_parser, main, resolve_config
from uqnet.config import DatasetSection, RunConfig
from uqnet.data import splits_sha256

TINY_TRAIN = ["--kind", "blobs", "--n", "200", "--overlap", "0.3", "--dim", "2",
              "--hidden", "16", "--epochs", "2", "--batch-size", "64"]


def run(argv):
    return main(argv)


@pytest.fixture
def no_training(monkeypatch):
    """Fail the test if any command starts training."""
    def train(*args, **kwargs):
        raise AssertionError("training started")

    # the modules, not the uqnet.evaluate function that the package exports
    for module in ("uqnet.cli", "uqnet.evaluate"):
        monkeypatch.setattr(importlib.import_module(module), "train", train)


def digest_dir(path):
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


class TestGenerate:
    def test_blobs_writes_csv_and_summary(self, tmp_path, capsys):
        out = str(tmp_path / "g")
        assert run(["generate", "--kind", "blobs", "--n", "120", "--overlap", "0.4",
                    "--seed", "7", "--out", out]) == 0
        text = capsys.readouterr().out
        assert "120 examples" in text and "4 classes" in text
        assert os.path.exists(os.path.join(out, "dataset.csv"))

    def test_textures_writes_idx_pair(self, tmp_path):
        out = str(tmp_path / "g")
        assert run(["generate", "--kind", "textures", "--n", "24", "--noise", "0.2",
                    "--seed", "1", "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "images.idx"))
        assert os.path.exists(os.path.join(out, "labels.idx"))

    def test_same_command_twice_is_byte_identical(self, tmp_path):
        out = str(tmp_path / "g")
        argv = ["generate", "--kind", "blobs", "--n", "60", "--overlap", "0.2",
                "--seed", "5", "--out", out]
        assert run(argv) == 0
        first = digest_dir(out)
        assert run(argv) == 0
        assert digest_dir(out) == first

    def test_out_of_range_overlap_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["generate", "--kind", "blobs", "--overlap", "2", "--out", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_csv_kind_rejected(self, tmp_path, capsys):
        assert run(["generate", "--kind", "csv", "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestTrain:
    def test_bayesian1_checkpoint_has_single_dropout_before_head(self, tmp_path):
        out = str(tmp_path / "t")
        assert run(["train", "--variant", "bayesian1", "--dropout", "0.5", "--seed", "1",
                    "--out", out] + TINY_TRAIN) == 0
        spec, _, meta = load_checkpoint(os.path.join(out, "checkpoint.bin"))
        drops = [i for i, l in enumerate(spec.layers) if l.kind == "dropout"]
        assert drops == [len(spec.layers) - 1]
        assert spec.layers[drops[0]].p == 0.5
        assert meta["variant"] == "bayesian1"

    def test_baseline_checkpoint_has_no_dropout(self, tmp_path):
        out = str(tmp_path / "t")
        assert run(["train", "--variant", "baseline", "--seed", "1", "--out", out]
                   + TINY_TRAIN) == 0
        spec, _, _ = load_checkpoint(os.path.join(out, "checkpoint.bin"))
        assert not any(l.kind == "dropout" for l in spec.layers)

    def test_no_temp_files_remain(self, tmp_path):
        out = str(tmp_path / "t")
        assert run(["train", "--variant", "baseline", "--seed", "1", "--out", out]
                   + TINY_TRAIN) == 0
        assert not [n for n in os.listdir(out) if n.endswith(".tmp")]
        assert os.path.exists(os.path.join(out, "train_log.csv"))
        assert os.path.exists(os.path.join(out, "run_config.cfg"))

    @staticmethod
    def three_class_csv(tmp_path):
        data = str(tmp_path / "data")
        assert run(["generate", "--kind", "blobs", "--n", "90", "--classes", "3",
                    "--overlap", "0.3", "--seed", "2", "--out", data]) == 0
        return ["--kind", "csv", "--csv", os.path.join(data, "dataset.csv"),
                "--hidden", "16", "--epochs", "2", "--batch-size", "64"]

    @pytest.mark.parametrize("argv", [["train"], ["compare", "--T", "4", "--S", "4"]])
    def test_csv_class_count_other_than_classes_fails_before_training(
            self, argv, tmp_path, no_training, capsys):
        csv_train = self.three_class_csv(tmp_path)
        out = str(tmp_path / "t")
        capsys.readouterr()
        assert run(argv + ["--out", out] + csv_train) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "3 classes" in err and "dataset.classes is 4" in err and "--classes 3" in err
        assert not os.path.exists(out)

    def test_csv_trains_and_evaluates_with_its_class_count(self, tmp_path):
        out = str(tmp_path / "t")
        assert run(["train", "--classes", "3", "--out", out]
                   + self.three_class_csv(tmp_path)) == 0
        assert run(["evaluate", "--T", "4", "--out", out]) == 0


class TestEvaluate:
    def _train(self, tmp_path, variant="bayesian1"):
        out = str(tmp_path / "run")
        assert run(["train", "--variant", variant, "--seed", "2", "--out", out]
                   + TINY_TRAIN) == 0
        return out

    def test_writes_full_artifact_set(self, tmp_path):
        out = self._train(tmp_path)
        assert run(["evaluate", "--checkpoint", os.path.join(out, "checkpoint.bin"),
                    "--T", "8", "--seed", "2", "--out", out]) == 0
        for name in ("metrics.csv", "per_example.csv", "histogram.csv",
                     "uncertainty_box.svg", "uncertainty_hist.svg"):
            assert os.path.exists(os.path.join(out, name)), name

    def test_t_below_two_is_usage_error(self, tmp_path, capsys):
        out = self._train(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run(["evaluate", "--checkpoint", os.path.join(out, "checkpoint.bin"),
                 "--T", "1", "--out", out])
        assert exc.value.code == 2
        assert "T" in capsys.readouterr().err
        # the flags are checked before the checkpoint is read
        with pytest.raises(SystemExit) as exc:
            run(["evaluate", "--checkpoint", str(tmp_path / "nope.bin"), "--T", "1",
                 "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "T must be >= 2" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "o")

    def test_checkpoint_saved_with_the_analytic_space_evaluates(self, tmp_path):
        # a checkpoint saved while sigma^2 scoring existed holds its defaults
        out = self._train(tmp_path, variant="variational")
        spec, params, meta = load_checkpoint(os.path.join(out, "checkpoint.bin"))
        text = (meta["config"].replace("space = sampled", "space = analytic")
                .replace("beta = 0.01", "beta = 1.0"))
        assert "space = analytic" in text and "beta = 1.0" in text
        legacy = str(tmp_path / "legacy.bin")
        save_checkpoint(legacy, spec, params, {**meta, "config": text})
        evaluated = str(tmp_path / "eval")
        assert run(["evaluate", "--checkpoint", legacy, "--T", "4", "--S", "4",
                    "--out", evaluated]) == 0
        text = open(os.path.join(evaluated, "metrics.csv")).read()
        assert "uncertainty_method,,variational-sampled" in text
        saved = RunConfig.from_file(os.path.join(evaluated, "run_config.cfg"))
        assert saved.uncertainty.space == "sampled" and saved.training.beta == 1.0

    def test_flags_repair_a_stored_configuration(self, tmp_path, capsys):
        # S = 1 was legal beside the removed analytic space, which ignored S
        out = self._train(tmp_path, variant="variational")
        spec, params, meta = load_checkpoint(os.path.join(out, "checkpoint.bin"))
        text = (meta["config"].replace("space = sampled", "space = analytic")
                .replace("\nS = 100\n", "\nS = 1\n"))
        assert "space = analytic" in text and "\nS = 1\n" in text
        legacy = str(tmp_path / "legacy.bin")
        save_checkpoint(legacy, spec, params, {**meta, "config": text})
        repaired = tmp_path / "repaired"
        assert run(["evaluate", "--checkpoint", legacy, "--S", "4", "--T", "4",
                    "--out", str(repaired)]) == 0
        assert "\nS = 4\n" in (repaired / "run_config.cfg").read_text()
        capsys.readouterr()
        # without --S the stored S = 1 stands: a failed run that names the checkpoint
        refused = tmp_path / "refused"
        assert run(["evaluate", "--checkpoint", legacy, "--T", "4", "--out", str(refused)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {legacy}: ") and err.count("\n") == 1
        assert "S >= 2, got 1" in err
        assert not refused.exists()

    def test_baseline_reports_entropy_method(self, tmp_path):
        out = self._train(tmp_path, variant="baseline")
        assert run(["evaluate", "--checkpoint", os.path.join(out, "checkpoint.bin"),
                    "--out", out]) == 0
        text = open(os.path.join(out, "metrics.csv")).read()
        assert "uncertainty_method,,entropy" in text

    def test_missing_checkpoint_is_single_line_failure(self, tmp_path, capsys):
        assert run(["evaluate", "--checkpoint", str(tmp_path / "nope.bin"),
                    "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("header, message", [
        (b"[]", "header is not a JSON object"),
        (b'{"format": 1}', "malformed header: missing key 'spec'"),
    ], ids=["array", "no-spec"])
    def test_malformed_checkpoint_header_is_single_line_failure(self, header, message,
                                                                tmp_path, capsys):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"UQNNCKP1" + len(header).to_bytes(8, "little") + header)
        out = tmp_path / "o"
        assert run(["evaluate", "--checkpoint", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: {message}\n"
        assert not out.exists()

    def test_reuses_training_dataset_config_from_checkpoint(self, tmp_path, capsys):
        out = self._train(tmp_path)
        # no dataset flags here: the embedded config must reproduce the split
        assert run(["evaluate", "--checkpoint", os.path.join(out, "checkpoint.bin"),
                    "--T", "8", "--out", out]) == 0
        assert "30 examples" in capsys.readouterr().out  # 15% of 200

    def test_config_file_layers_only_its_keys_over_checkpoint(self, tmp_path, capsys):
        out = self._train(tmp_path)
        path = tmp_path / "t.cfg"
        path.write_text("[uncertainty]\nT = 7\n")
        assert run(["evaluate", "--checkpoint", os.path.join(out, "checkpoint.bin"),
                    "--config", str(path), "--out", out]) == 0
        assert "30 examples" in capsys.readouterr().out
        saved = RunConfig.from_file(os.path.join(out, "run_config.cfg"))
        assert saved.uncertainty.T == 7
        assert (saved.seed, saved.dataset.n, saved.model.hidden) == (2, 200, 16)

    def test_other_seed_rescores_the_training_split(self, tmp_path):
        out = self._train(tmp_path)   # bayesian1 at seed 2
        columns = {}
        for seed in ("2", "4"):
            assert run(["evaluate", "--checkpoint", os.path.join(out, "checkpoint.bin"),
                        "--T", "8", "--seed", seed, "--out", str(tmp_path / seed)]) == 0
            with open(tmp_path / seed / "per_example.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            columns[seed] = ([r["true"] for r in rows], [r["score"] for r in rows])
        assert columns["4"][0] == columns["2"][0]   # the same test split
        assert columns["4"][1] != columns["2"][1]   # other MC masks


class TestDatasetFingerprint:
    CSV_TRAIN = ["--kind", "csv", "--hidden", "16", "--epochs", "2", "--batch-size", "64"]

    @staticmethod
    def make_csv(tmp_path):
        assert run(["generate", "--kind", "blobs", "--n", "200", "--overlap", "0.3",
                    "--seed", "3", "--out", str(tmp_path / "data")]) == 0
        return str(tmp_path / "data" / "dataset.csv")

    def train_on(self, csv_path, out, variant="bayesian1"):
        assert run(["train", "--variant", variant, "--csv", csv_path, "--seed", "3",
                    "--out", out] + self.CSV_TRAIN) == 0
        return os.path.join(out, "checkpoint.bin")

    @staticmethod
    def edit_first_value(csv_path):
        with open(csv_path) as fh:
            lines = fh.read().splitlines()
        first, rest = lines[1].split(",", 1)
        lines[1] = f"{float(first) + 0.5!r},{rest}"
        with open(csv_path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    def test_train_stores_the_split_digest(self, tmp_path):
        csv_path = self.make_csv(tmp_path)
        ckpt = self.train_on(csv_path, str(tmp_path / "run"))
        _, _, meta = load_checkpoint(ckpt)
        cfg = RunConfig.from_text(meta["config"])
        assert meta["dataset_sha256"] == splits_sha256(cfg.make_splits())

    def test_evaluate_refuses_edited_data(self, tmp_path, capsys):
        csv_path = self.make_csv(tmp_path)
        ckpt = self.train_on(csv_path, str(tmp_path / "run"))
        self.edit_first_value(csv_path)
        capsys.readouterr()
        assert run(["evaluate", "--checkpoint", ckpt, "--T", "4",
                    "--out", str(tmp_path / "eval")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "differ" in err and ckpt in err

    def compare_argv(self, csv_path, tmp_path):
        """``uqnet compare`` over the four variants trained on ``csv_path``."""
        ckpt_dir = tmp_path / "ckpts"
        ckpt_dir.mkdir()
        for variant in ("baseline", "bayesian1", "bayesian2", "variational"):
            ckpt = self.train_on(csv_path, str(tmp_path / variant), variant)
            os.rename(ckpt, str(ckpt_dir / f"{variant}.bin"))
        return ["compare", "--checkpoint-dir", str(ckpt_dir), "--T", "4", "--S", "4",
                "--out", str(tmp_path / "c")]

    def test_compare_checkpoint_dir_hashes_a_shared_split_once(self, tmp_path, monkeypatch):
        argv = self.compare_argv(self.make_csv(tmp_path), tmp_path)
        cli = importlib.import_module("uqnet.cli")
        calls = []
        monkeypatch.setattr(cli, "splits_sha256", lambda splits: calls.append(1) or splits_sha256(splits))
        assert run(argv) == 0
        assert len(calls) == 1

    def test_compare_checkpoint_dir_refuses_edited_data(self, tmp_path, capsys):
        csv_path = self.make_csv(tmp_path)
        argv = self.compare_argv(csv_path, tmp_path)
        assert run(argv) == 0
        self.edit_first_value(csv_path)
        capsys.readouterr()
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "differ" in err and "baseline.bin" in err

    def test_checkpoint_without_digest_evaluates_as_before(self, tmp_path):
        csv_path = self.make_csv(tmp_path)
        ckpt = self.train_on(csv_path, str(tmp_path / "run"))
        spec, params, meta = load_checkpoint(ckpt)
        legacy = str(tmp_path / "legacy.bin")
        save_checkpoint(legacy, spec, params,
                        {k: v for k, v in meta.items() if k != "dataset_sha256"})
        outs = {}
        for name, path in (("keyed", ckpt), ("legacy", legacy)):
            outs[name] = str(tmp_path / name)
            assert run(["evaluate", "--checkpoint", path, "--T", "4",
                        "--out", outs[name]]) == 0
        keyed, legacy_digests = digest_dir(outs["keyed"]), digest_dir(outs["legacy"])
        keyed.pop("run_config.cfg"), legacy_digests.pop("run_config.cfg")   # holds --out
        assert keyed == legacy_digests
        # legacy checkpoints are not checked: edited data is evaluated as it was before
        self.edit_first_value(csv_path)
        assert run(["evaluate", "--checkpoint", legacy, "--T", "4",
                    "--out", outs["legacy"]]) == 0


class TestCompare:
    def test_multi_seed_table_has_aggregate_rows(self, tmp_path):
        out = str(tmp_path / "c")
        assert run(["compare", "--seeds", "2", "--seed", "0", "--T", "4", "--S", "4",
                    "--out", out] + TINY_TRAIN) == 0
        rows = open(os.path.join(out, "comparison.csv")).read().splitlines()
        assert rows[0].startswith("variant,seed,")
        cells = [r.split(",")[:2] for r in rows[1:]]
        assert ["baseline", "mean"] in cells and ["baseline", "range"] in cells
        assert ["variational", "0"] in cells and ["variational", "1"] in cells

    def test_per_variant_figures_written(self, tmp_path):
        out = str(tmp_path / "c")
        assert run(["compare", "--T", "4", "--S", "4", "--out", out] + TINY_TRAIN) == 0
        for variant in ("baseline", "bayesian1", "bayesian2", "variational"):
            assert os.path.exists(os.path.join(out, f"uncertainty_hist_{variant}.svg"))
            assert os.path.exists(os.path.join(out, f"histogram_{variant}.csv"))

    def test_missing_variant_checkpoint_named_in_error(self, tmp_path, capsys):
        ckpt_dir = tmp_path / "ckpts"
        ckpt_dir.mkdir()
        out = str(tmp_path / "c")
        run_dir = str(tmp_path / "b1")
        assert run(["train", "--variant", "baseline", "--seed", "1", "--out", run_dir]
                   + TINY_TRAIN) == 0
        os.rename(os.path.join(run_dir, "checkpoint.bin"), str(ckpt_dir / "baseline.bin"))
        assert run(["compare", "--checkpoint-dir", str(ckpt_dir), "--out", out]) == 1
        assert "bayesian1" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--hidden", "0"], "out_dim >= 1, got 0"), (["--hidden", "-3"], "out_dim >= 1, got -3"),
        (["--classes", "1"], "at least two classes")], ids=["hidden0", "hidden-3", "classes1"])
    def test_unusable_model_fails_before_out_is_written(self, flags, message, tmp_path,
                                                       no_training, capsys):
        out = str(tmp_path / "c")
        assert run(["compare", "--T", "4", "--S", "4", "--out", out] + TINY_TRAIN + flags) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and message in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("seeds", ["0", "-2"])
    def test_seeds_below_one_is_usage_error(self, seeds, tmp_path, no_training, capsys):
        out = str(tmp_path / "c")
        with pytest.raises(SystemExit) as exc:
            run(["compare", "--seeds", seeds, "--out", out] + TINY_TRAIN)
        assert exc.value.code == 2
        assert "seeds must be >= 1" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("seeds", ["1", "3"])
    def test_seeds_with_checkpoint_dir_is_usage_error(self, seeds, tmp_path, capsys):
        out = str(tmp_path / "c")
        with pytest.raises(SystemExit) as exc:
            run(["compare", "--checkpoint-dir", str(tmp_path), "--seeds", seeds, "--out", out])
        assert exc.value.code == 2
        assert "not allowed with" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_checkpoint_dir_makes_one_split_per_dataset(self, tmp_path, monkeypatch):
        from uqnet import artifacts
        from uqnet.evaluate import evaluate, make_comparison_row

        ckpt_dir = tmp_path / "ckpts"
        ckpt_dir.mkdir()
        seeds = {"baseline": 1, "bayesian1": 1, "bayesian2": 2, "variational": 2}
        for variant, seed in seeds.items():
            run_dir = str(tmp_path / variant)
            assert run(["train", "--variant", variant, "--seed", str(seed), "--out", run_dir]
                       + TINY_TRAIN) == 0
            os.rename(os.path.join(run_dir, "checkpoint.bin"), str(ckpt_dir / f"{variant}.bin"))

        # each checkpoint is scored on its own split, with the flags over its own config
        rows = []
        for variant in seeds:
            spec, params, meta = load_checkpoint(str(ckpt_dir / f"{variant}.bin"))
            base = RunConfig.from_text(meta["config"])
            scoring = base.with_overrides({"uncertainty": {"T": "4", "S": "4"}})
            metrics, report = evaluate(params, spec, base.make_splits()[2],
                                       scoring.eval_config())
            rows.append(make_comparison_row(variant, str(base.seed), metrics, report))
        reference = str(tmp_path / "reference.csv")
        artifacts.write_comparison_csv(rows, reference)

        calls = []
        make_splits = RunConfig.make_splits

        def counted(self):
            calls.append(self.seed)
            return make_splits(self)

        monkeypatch.setattr(RunConfig, "make_splits", counted)
        out = str(tmp_path / "c")
        assert run(["compare", "--checkpoint-dir", str(ckpt_dir), "--T", "4", "--S", "4",
                    "--out", out]) == 0
        assert calls == [1, 2]
        with open(reference, "rb") as a, open(os.path.join(out, "comparison.csv"), "rb") as b:
            assert a.read() == b.read()

    def test_checkpoint_dir_reproduces_training_compare(self, tmp_path):
        ckpt_dir = tmp_path / "ckpts"
        ckpt_dir.mkdir()
        for variant in ("baseline", "bayesian1", "bayesian2", "variational"):
            run_dir = str(tmp_path / variant)
            assert run(["train", "--variant", variant, "--seed", "3", "--out", run_dir]
                       + TINY_TRAIN) == 0
            os.rename(os.path.join(run_dir, "checkpoint.bin"), str(ckpt_dir / f"{variant}.bin"))
        scored, trained = str(tmp_path / "scored"), str(tmp_path / "trained")
        assert run(["compare", "--checkpoint-dir", str(ckpt_dir), "--T", "4", "--S", "4",
                    "--out", scored]) == 0
        assert run(["compare", "--seed", "3", "--T", "4", "--S", "4", "--out", trained]
                   + TINY_TRAIN) == 0
        a, b = digest_dir(scored), digest_dir(trained)
        a.pop("run_config.cfg"), b.pop("run_config.cfg")
        assert len(a) == 13 and a == b
        # the scored run records the checkpoints' data (seed 3, n 200), not the defaults
        written = RunConfig.from_file(os.path.join(scored, "run_config.cfg"))
        assert written.seed == 3 and written.dataset.n == 200
        assert written == replace(RunConfig.from_file(os.path.join(trained, "run_config.cfg")),
                                  out=scored)

    def test_each_layering_validates_once(self, tmp_path, monkeypatch):
        ckpt_dir = tmp_path / "ckpts"
        ckpt_dir.mkdir()
        for variant in ("baseline", "bayesian1", "bayesian2", "variational"):
            run_dir = str(tmp_path / variant)
            assert run(["train", "--variant", variant, "--seed", "3", "--out", run_dir]
                       + TINY_TRAIN) == 0
            os.rename(os.path.join(run_dir, "checkpoint.bin"), str(ckpt_dir / f"{variant}.bin"))
        path = tmp_path / "s.cfg"
        path.write_text("[uncertainty]\nT = 4\nS = 4\n")

        calls = []
        validate = RunConfig.validate

        def counted(self):
            calls.append(self)
            return validate(self)

        monkeypatch.setattr(RunConfig, "validate", counted)
        # once for the command's --config and flags alone, then once per checkpoint
        # for its saved config, --config and the flags together
        assert run(["evaluate", "--checkpoint", str(ckpt_dir / "bayesian1.bin"),
                    "--config", str(path), "--T", "8", "--out", str(tmp_path / "e")]) == 0
        assert len(calls) == 2
        calls.clear()
        assert run(["compare", "--checkpoint-dir", str(ckpt_dir), "--config", str(path),
                    "--out", str(tmp_path / "c")]) == 0
        assert len(calls) == 5

    def test_training_compare_builds_each_dataset_once(self, tmp_path, monkeypatch):
        calls = []
        make_dataset = RunConfig.make_dataset

        def counted(self):
            calls.append(self.seed)
            return make_dataset(self)

        monkeypatch.setattr(RunConfig, "make_dataset", counted)
        assert run(["compare", "--seeds", "2", "--seed", "5", "--T", "4", "--S", "4",
                    "--out", str(tmp_path / "c")] + TINY_TRAIN) == 0
        assert calls == [5, 6]


class TestDeterminism:
    def test_full_pipeline_repeat_is_byte_identical(self, tmp_path):
        out = str(tmp_path / "run")

        def pipeline():
            assert run(["train", "--variant", "bayesian1", "--seed", "9", "--out", out]
                       + TINY_TRAIN) == 0
            assert run(["evaluate", "--checkpoint", os.path.join(out, "checkpoint.bin"),
                        "--T", "8", "--workers", "3", "--seed", "9", "--out", out]) == 0

        pipeline()
        first = digest_dir(out)
        pipeline()
        assert digest_dir(out) == first

    def test_persisted_config_reexecutes_identically(self, tmp_path):
        a = str(tmp_path / "a")
        assert run(["train", "--variant", "variational", "--seed", "4", "--beta", "0.1",
                    "--out", a] + TINY_TRAIN) == 0
        b = str(tmp_path / "b")
        assert run(["train", "--config", os.path.join(a, "run_config.cfg"),
                    "--out", b]) == 0
        ca = open(os.path.join(a, "checkpoint.bin"), "rb").read()
        cb = open(os.path.join(b, "checkpoint.bin"), "rb").read()
        # identical except for the embedded out path inside the config text
        assert hashlib.sha256(ca).hexdigest() != "" and len(ca) == len(cb)
        _, pa, _ = load_checkpoint(os.path.join(a, "checkpoint.bin"))
        _, pb, _ = load_checkpoint(os.path.join(b, "checkpoint.bin"))
        for name in pa.names():
            np.testing.assert_array_equal(pa[name].data, pb[name].data)


class TestHelpAndErrors:
    @pytest.mark.parametrize("cmd", ["generate", "train", "evaluate", "compare"])
    def test_help_documents_flags(self, cmd, capsys):
        with pytest.raises(SystemExit) as exc:
            run([cmd, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert "--seed" in text and "--out" in text and "--config" in text

    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["train", "--frobnicate", "1"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("error:")


class TestRunConfig:
    def test_text_round_trip(self):
        cfg = RunConfig()
        assert RunConfig.from_text(cfg.to_text()) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            RunConfig.from_text("[dataset]\nflavor = spicy\n")
        with pytest.raises(ValueError, match=r"^unknown config key run\.flavor$"):
            RunConfig.from_text("[run]\nflavor = spicy\n")

    def test_run_section_text(self):
        cfg = RunConfig.from_text("[run]\nseed = 7\nout = runs/x\n")
        assert (cfg.seed, cfg.out) == (7, "runs/x")
        assert cfg.to_text().startswith("[run]\nseed = 7\nout = runs/x\n\n[dataset]\n")

    def test_legacy_analytic_space_reads_as_sampled(self):
        assert RunConfig.from_text("[uncertainty]\nspace = analytic\n").uncertainty.space == "sampled"

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError, match="unknown config section"):
            RunConfig.from_text("[wormhole]\nx = 1\n")

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("[run]\nseed = 3\n[dataset]\nn = 50\noverlap = 0.1\n")
        cfg = RunConfig.from_file(str(path))
        assert cfg.seed == 3 and cfg.dataset.n == 50
        merged = cfg.with_overrides({"dataset": {"n": "99"}})
        assert merged.dataset.n == 99
        assert merged.dataset.overlap == 0.1

    def test_override_parses_as_the_declared_field_type(self):
        # a config built in code may hold an int in a float field; the
        # override still parses as the field's type, float
        cfg = RunConfig(dataset=DatasetSection(overlap=1)).with_overrides(
            {"dataset": {"overlap": "0.5"}})
        assert cfg.dataset.overlap == 0.5

    @pytest.mark.parametrize("flags, text, message", [
        (["--T", "1"], None, "T must be >= 2, got 1"),
        (["--workers", "0"], None, "workers must be >= 1, got 0"),
        (["--overlap", "2"], None, "dataset.overlap must lie in [0, 1], got 2.0"),
        (["--epochs", "0"], None, "epochs must be >= 1, got 0"),
        (["--batch-size", "0"], None, "batch_size must be >= 1, got 0"),
        (["--S", "1"], None, "S >= 2, got 1"),
        (["--space", "analytic"], None, "invalid choice: 'analytic'"),
        ([], "[uncertainty]\nspace = bogus\n", "unknown scoring space 'bogus'"),
        ([], "[uncertainty]\nworkers = 0\n", "workers must be >= 1, got 0"),
        ([], "[training]\noptimizer = bogus\n", "unknown optimizer kind 'bogus'"),
        (["--lr", "nan"], None, "config key training.lr: 'nan' is not a finite number"),
        (["--train-frac", "nan"], None,
         "config key dataset.train_frac: 'nan' is not a finite number"),
        ([], "[training]\nbeta = inf\n", "config key training.beta: 'inf' is not a finite number"),
        ([], "[model]\nvariant = bogus\n",
         "model.variant must be one of ('baseline', 'bayesian1', 'bayesian2', 'variational'), "
         "got 'bogus'"),
        (["--lr", "-1"], None, "lr must be >= 0, got -1.0"),
        (["--momentum", "1.5"], None, "momentum must lie in [0, 1), got 1.5"),
        (["--beta1", "1"], None, "beta1 must lie in [0, 1), got 1.0"),
        ([], "[training]\nbeta2 = -0.1\n", "beta2 must lie in [0, 1), got -0.1"),
        (["--beta", "-1"], None, "beta must be >= 0, got -1.0"),
    ], ids=["T", "workers", "overlap", "epochs", "batch-size", "S", "analytic-space",
            "file-space", "file-workers", "file-optimizer", "nan-lr", "nan-train-frac",
            "file-inf-beta", "file-variant", "negative-lr", "momentum", "beta1",
            "file-beta2", "negative-beta"])
    def test_rejected_setting_is_usage_error(self, flags, text, message, tmp_path,
                                             no_training, capsys):
        out = str(tmp_path / "c")
        argv = ["compare", "--out", out] + TINY_TRAIN + flags
        if text is not None:
            (tmp_path / "c.cfg").write_text(text)
            argv += ["--config", str(tmp_path / "c.cfg")]
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and message in err
        assert not os.path.exists(out)

    def test_flag_repairs_an_invalid_config_value(self, tmp_path):
        # the file and the flags are validated once, together, so the flag wins
        f = tmp_path / "f.cfg"
        f.write_text("[dataset]\noverlap = 2\n")
        out = tmp_path / "g"
        assert run(["generate", "--config", str(f), "--overlap", "0.3", "--n", "40",
                    "--out", str(out)]) == 0
        assert "\noverlap = 0.3\n" in (out / "run_config.cfg").read_text()
        g = tmp_path / "g.cfg"
        g.write_text("[uncertainty]\nS = 1\n")
        args = build_parser().parse_args(["compare", "--config", str(g), "--S", "4"])
        assert resolve_config(args).uncertainty.S == 4

    @pytest.mark.parametrize("command", ["compare", "train", "evaluate"])
    def test_unreadable_config_file_is_usage_error(self, command, tmp_path, no_training,
                                                   capsys):
        out = str(tmp_path / "c")
        with pytest.raises(SystemExit) as exc:
            run([command, "--config", str(tmp_path / "missing.cfg"), "--out", out])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "missing.cfg" in err
        assert not os.path.exists(out)

    def test_unknown_space_in_file_fails_before_training(self, tmp_path, no_training, capsys):
        path = tmp_path / "c.cfg"
        path.write_text("[uncertainty]\nspace = bogus\n")
        out = str(tmp_path / "c")
        with pytest.raises(SystemExit) as exc:
            run(["compare", "--config", str(path), "--out", out] + TINY_TRAIN)
        assert exc.value.code == 2
        assert "space 'bogus'" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_one_variational_draw_fails_before_training(self, tmp_path, no_training, capsys):
        out = str(tmp_path / "c")
        with pytest.raises(SystemExit) as exc:
            run(["compare", "--S", "1", "--out", out] + TINY_TRAIN)
        assert exc.value.code == 2
        assert "S >= 2" in capsys.readouterr().err
        assert not os.path.exists(out)
        # S = 1 is rejected in any config, a legacy one included
        with pytest.raises(ValueError, match="S >= 2, got 1"):
            RunConfig.from_text("[uncertainty]\nspace = analytic\nS = 1\n")

    @pytest.mark.parametrize("flag", ["--epochs", "--batch-size"])
    def test_bad_training_config_leaves_no_out(self, flag, tmp_path, no_training, capsys):
        out = str(tmp_path / "c")
        with pytest.raises(SystemExit) as exc:
            run(["compare", "--out", out] + TINY_TRAIN + [flag, "0"])
        assert exc.value.code == 2
        assert f"{flag[2:].replace('-', '_')} must be >= 1" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_is_usage_error(self, workers, tmp_path, no_training, capsys):
        out = str(tmp_path / "c")
        with pytest.raises(SystemExit) as exc:
            run(["compare", "--workers", workers, "--out", out] + TINY_TRAIN)
        assert exc.value.code == 2
        assert "workers must be >= 1" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_workers_below_one_in_file_fails_before_training(self, tmp_path, no_training,
                                                              capsys):
        path = tmp_path / "c.cfg"
        path.write_text("[uncertainty]\nworkers = 0\n")
        out = str(tmp_path / "c")
        with pytest.raises(SystemExit) as exc:
            run(["compare", "--config", str(path), "--out", out] + TINY_TRAIN)
        assert exc.value.code == 2
        assert "workers must be >= 1" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="overlap"):
            RunConfig.from_text("[dataset]\noverlap = 1.5\n")
        with pytest.raises(ValueError, match="T must be"):
            RunConfig.from_text("[uncertainty]\nT = 1\n")
        with pytest.raises(ValueError, match="unknown optimizer kind 'bogus'"):
            RunConfig.from_text("[training]\noptimizer = bogus\n")


# one valid value for every config key, and the flag that sets it; each is
# not the default, except for space, whose one legal value is its default
SETTING_FLAGS = {
    "seed": ("--seed", "7"), "out": ("--out", "runs/x"),
    "kind": ("--kind", "textures"), "n": ("--n", "99"), "classes": ("--classes", "3"),
    "overlap": ("--overlap", "0.25"), "dim": ("--dim", "5"), "noise": ("--noise", "0.5"),
    "size": ("--size", "8"), "csv_path": ("--csv", "d.csv"),
    "images_path": ("--images", "i.idx"), "labels_path": ("--labels", "l.idx"),
    "label_column": ("--label-column", "y"), "train_frac": ("--train-frac", "0.6"),
    "val_frac": ("--val-frac", "0.2"), "test_frac": ("--test-frac", "0.2"),
    "backbone": ("--backbone", "miniresnet"), "variant": ("--variant", "bayesian2"),
    "dropout": ("--dropout", "0.25"), "hidden": ("--hidden", "32"),
    "optimizer": ("--optimizer", "sgd-momentum"), "lr": ("--lr", "0.01"),
    "momentum": ("--momentum", "0.5"), "beta1": ("--beta1", "0.8"),
    "beta2": ("--beta2", "0.99"), "epochs": ("--epochs", "3"),
    "batch_size": ("--batch-size", "16"), "beta": ("--beta", "0.1"),
    "T": ("--T", "8"), "S": ("--S", "6"), "space": ("--space", "sampled"),
    "workers": ("--workers", "2"),
}


class TestSettingFlags:
    @pytest.mark.parametrize("command, sections", [
        ("generate", ("run", "dataset")),
        ("train", ("run", "dataset", "model", "training")),
        ("evaluate", ("run", "dataset", "uncertainty")),
        ("compare", ("run", "dataset", "model", "training", "uncertainty")),
    ])
    def test_each_key_is_a_flag_that_resolves_like_the_file_key(self, command, sections,
                                                                 tmp_path):
        parser = build_parser()
        path = tmp_path / "c.cfg"
        for section in sections:
            for key in RunConfig().section(section):
                flag, value = SETTING_FLAGS[key]
                path.write_text(f"[{section}]\n{key} = {value}\n")
                by_flag = resolve_config(parser.parse_args([command, flag, value]))
                by_file = resolve_config(parser.parse_args([command, "--config", str(path)]))
                assert by_flag == by_file, f"{command} {flag}"
                assert (by_flag != RunConfig()) == (key != "space"), f"{command} {flag}"

    def test_unparsable_flag_and_file_key_fail_alike(self, tmp_path, capsys):
        path = tmp_path / "c.cfg"
        path.write_text("[dataset]\nn = abc\n")
        out = tmp_path / "g"
        errors = []
        for extra in (["--n", "abc"], ["--config", str(path)]):
            with pytest.raises(SystemExit) as exc:
                run(["generate", "--out", str(out)] + extra)
            assert exc.value.code == 2
            errors.append(capsys.readouterr().err)
        assert errors == ["error: config key dataset.n: cannot parse 'abc' as int\n"] * 2
        assert not out.exists()
