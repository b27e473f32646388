"""Training loop: determinism, logging, divergence, capacity sanity check."""

import importlib

import numpy as np
import pytest

from uqnet.data import Dataset, SplitSpec, split, synth_blobs
from uqnet.layers import build_model, eval_heads, mlp_spec
from uqnet.optim import OptimizerConfig
from uqnet.tensor import Tensor, cross_entropy
from uqnet.train import TrainConfig, TrainingDivergedError, train
from uqnet.uncertainty import kld_from_logvar


def quick_splits(seed=0, n=600, overlap=0.2):
    ds = synth_blobs(n, 4, overlap=overlap, dim=2, seed=seed)
    return split(ds, SplitSpec(0.7, 0.15, 0.15, seed=seed))


class TestDeterminism:
    def test_identical_runs_produce_identical_parameters(self):
        tr, va, _ = quick_splits()
        spec = mlp_spec(2, variant="bayesian1", hidden=32)
        cfg = TrainConfig(OptimizerConfig("adam", lr=1e-3), epochs=4, batch_size=64)

        results = []
        for _ in range(2):
            params = build_model(spec, 7)
            results.append(train(params, spec, tr, va, cfg, seed=7))
        for name in results[0].params.names():
            np.testing.assert_array_equal(results[0].params[name].data,
                                          results[1].params[name].data)
        assert results[0].log == results[1].log

    def test_zero_lr_leaves_parameters_unchanged(self):
        tr, va, _ = quick_splits()
        spec = mlp_spec(2, variant="baseline", hidden=32)
        params = build_model(spec, 0)
        before = {n: t.data.copy() for n, t in params.tensors.items()}
        cfg = TrainConfig(OptimizerConfig("adam", lr=0.0), epochs=2, batch_size=64)
        train(params, spec, tr, va, cfg, seed=0)
        for name, data in before.items():
            np.testing.assert_array_equal(params[name].data, data)


class TestLog:
    def test_two_records_per_epoch_with_exact_additivity(self):
        tr, va, _ = quick_splits()
        spec = mlp_spec(2, variant="variational", hidden=32)
        params = build_model(spec, 1)
        cfg = TrainConfig(OptimizerConfig("adam"), epochs=3, batch_size=64, beta=0.5)
        result = train(params, spec, tr, va, cfg, seed=1)
        assert len(result.log) == 6
        for stats in result.log:
            assert stats.split in ("train", "val")
            bd = stats.loss
            assert bd.total == bd.cross_entropy + bd.kld_weight * bd.kld
        # the epoch-end loss is the objective at eps = 0: CE of mu, exactly
        mu, logvar = (Tensor(a) for a in eval_heads(params, spec, va.inputs))
        last = result.log[-1].loss
        assert last.cross_entropy == float(cross_entropy(mu, va.labels))
        assert last.kld == float(kld_from_logvar(mu, logvar))

    @pytest.mark.parametrize("variant", ["baseline", "bayesian2", "variational"])
    def test_train_rows_are_the_weighted_mean_of_the_steps(self, monkeypatch, variant):
        tr, va, _ = quick_splits()
        calls, evals = [], []
        module = importlib.import_module("uqnet.train")
        objective, deterministic_eval = module.objective, module._deterministic_eval

        def recording_objective(out, logvar, targets, beta, eps):
            loss, bd = objective(out, logvar, targets, beta, eps)
            logits = np.asarray(getattr(out, "data", out))
            calls.append((bd, len(targets), int((logits.argmax(axis=1) == targets).sum())))
            return loss, bd

        def recording_eval(params, spec, ds, beta):
            evals.append(ds)
            return deterministic_eval(params, spec, ds, beta)

        monkeypatch.setattr(module, "objective", recording_objective)
        monkeypatch.setattr(module, "_deterministic_eval", recording_eval)
        spec = mlp_spec(2, variant=variant, hidden=32)
        cfg = TrainConfig(OptimizerConfig("adam"), epochs=3, batch_size=64, beta=0.5)
        result = train(build_model(spec, 5), spec, tr, va, cfg, seed=5)

        assert len(evals) == cfg.epochs and all(ds is va for ds in evals)
        steps = -(-tr.n // cfg.batch_size)
        assert len(calls) == cfg.epochs * (steps + 1)   # the steps, then the val eval
        rows = [s for s in result.log if s.split == "train"]
        for epoch, row in enumerate(rows):
            epoch_calls = calls[epoch * (steps + 1):(epoch + 1) * (steps + 1)]
            assert epoch_calls[-1][1] == va.n
            ce = kld = 0.0
            correct = 0
            for bd, n, hits in epoch_calls[:-1]:
                ce += bd.cross_entropy * n
                kld += bd.kld * n
                correct += hits
            assert row.loss.cross_entropy == ce / tr.n
            assert row.loss.kld == kld / tr.n
            assert row.accuracy == correct / tr.n
            bd = row.loss
            assert bd.kld_weight == (0.5 if variant == "variational" else 0.0)
            assert bd.total == bd.cross_entropy + bd.kld_weight * bd.kld
        assert result.final_train_loss == rows[-1].loss.total

    def test_best_epoch_tracks_max_val_accuracy(self):
        tr, va, _ = quick_splits()
        spec = mlp_spec(2, variant="baseline", hidden=32)
        params = build_model(spec, 2)
        cfg = TrainConfig(OptimizerConfig("adam", lr=3e-3), epochs=6, batch_size=64)
        result = train(params, spec, tr, va, cfg, seed=2)
        val_acc = [s.accuracy for s in result.log if s.split == "val"]
        assert val_acc[result.best_epoch] == max(val_acc)

    def test_non_variational_records_zero_kld(self):
        tr, va, _ = quick_splits()
        spec = mlp_spec(2, variant="bayesian1", hidden=32)
        params = build_model(spec, 3)
        result = train(params, spec, tr, va, TrainConfig(epochs=1), seed=3)
        assert all(s.loss.kld == 0.0 for s in result.log)


class TestCapacity:
    def test_memorizes_32_examples_within_500_steps(self):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.normal(size=(32, 8)), rng.integers(0, 4, size=32),
                     [f"c{k}" for k in range(4)], "test")
        spec = mlp_spec(8, variant="baseline")
        params = build_model(spec, 0)
        # full-batch: one step per epoch, so 500 epochs = 500 steps
        cfg = TrainConfig(OptimizerConfig("adam", lr=3e-3), epochs=500, batch_size=32)
        result = train(params, spec, ds, ds, cfg, seed=0)
        train_ce = [s.loss.cross_entropy for s in result.log if s.split == "train"]
        assert min(train_ce) < 0.01


class TestFailureModes:
    def test_divergence_reports_step(self):
        tr, va, _ = quick_splits()
        spec = mlp_spec(2, variant="baseline", hidden=32)
        params = build_model(spec, 4)
        cfg = TrainConfig(OptimizerConfig("sgd-momentum", lr=1e150, momentum=0.0),
                          epochs=3, batch_size=64)
        with pytest.raises(TrainingDivergedError, match="step"):
            train(params, spec, tr, va, cfg, seed=4)

    def test_epochs_must_be_positive(self):
        tr, va, _ = quick_splits()
        spec = mlp_spec(2, hidden=32)
        with pytest.raises(ValueError, match="epochs"):
            train(build_model(spec, 0), spec, tr, va, TrainConfig(epochs=0), seed=0)

    @pytest.mark.parametrize("batch_size", [0, -4])
    def test_batch_size_must_be_positive(self, batch_size):
        tr, va, _ = quick_splits()
        spec = mlp_spec(2, hidden=32)
        params = build_model(spec, 0)
        with pytest.raises(ValueError, match="batch_size"):
            train(params, spec, tr, va, TrainConfig(epochs=1, batch_size=batch_size), seed=0)

    def test_input_shape_mismatch(self):
        tr, va, _ = quick_splits()
        spec = mlp_spec(3, hidden=32)
        with pytest.raises(ValueError, match="inputs"):
            train(build_model(spec, 0), spec, tr, va, TrainConfig(epochs=1), seed=0)

    def test_class_count_mismatch(self):
        ds = synth_blobs(120, 3, overlap=0.2, dim=2, seed=0)
        tr, va, _ = split(ds, SplitSpec(0.7, 0.15, 0.15, seed=0))
        spec = mlp_spec(2, 4, hidden=16)
        with pytest.raises(ValueError, match="dataset has 3 classes, model expects 4"):
            train(build_model(spec, 0), spec, tr, va, TrainConfig(epochs=1), seed=0)
