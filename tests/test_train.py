"""Training loop: determinism, logging, divergence, capacity sanity check."""

import hashlib
import importlib
import os
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

import uqnet
from uqnet import rng as _rng
from uqnet.data import Dataset, SplitSpec, split, synth_blobs
from uqnet.layers import body_forward, build_model, eval_heads, head_forward, miniresnet_spec, mlp_spec
from uqnet.losses import objective
from uqnet.optim import OptimizerConfig
from uqnet.tensor import NonFiniteError, Tensor, cross_entropy
from uqnet.train import TrainConfig, TrainingDivergedError, train
from uqnet.uncertainty import kld_from_logvar, mc_probs


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


def blas_work_digest() -> str:
    """sha256 of a MiniResNet bayesian2's parameters after one training step
    on 32 16x16 images and of its 4-pass ``mc_probs`` on 32 more. Its conv
    GEMMs (256 x 144 x 16 and larger) are big enough for OpenBLAS to split
    over threads."""
    x = np.random.default_rng(0).normal(size=(64, 1, 16, 16))
    ds = Dataset(x[:32], np.arange(32) % 4, ["a", "b", "c", "d"])
    spec = miniresnet_spec((1, 16, 16), 4, "bayesian2")
    cfg = TrainConfig(OptimizerConfig("adam", lr=1e-3), epochs=1, batch_size=32)
    params = train(build_model(spec, 0), spec, ds, ds, cfg, seed=0).params
    h = hashlib.sha256()
    for name in sorted(params.tensors):
        h.update(params[name].data.tobytes())
    h.update(mc_probs(params, spec, x[32:], T=4, seed=0).tobytes())
    return h.hexdigest()


class TestBlasThreads:
    def test_one_blas_thread_gives_the_bits_of_the_default_count(self):
        # This process runs OpenBLAS at its default thread count (one a
        # core) unless the environment says otherwise; the subprocess runs
        # the same training step and MC passes on one thread.
        tests = os.path.dirname(os.path.abspath(__file__))
        src = os.path.dirname(os.path.dirname(os.path.abspath(uqnet.__file__)))
        path = [tests, src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(path)}
        one = subprocess.run([sys.executable, "-c", "import test_train; print(test_train.blas_work_digest())"],
                             env=env, capture_output=True, text=True, check=True).stdout.strip()
        assert one == blas_work_digest()


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
                     [f"c{k}" for k in range(4)])
        spec = mlp_spec(8, variant="baseline")
        params = build_model(spec, 0)
        # full-batch: one step per epoch, so 500 epochs = 500 steps
        cfg = TrainConfig(OptimizerConfig("adam", lr=3e-3), epochs=500, batch_size=32)
        result = train(params, spec, ds, ds, cfg, seed=0)
        train_ce = [s.loss.cross_entropy for s in result.log if s.split == "train"]
        assert min(train_ce) < 0.01


def _graph_nodes(root):
    """Every node of the graph that ends at the tensor ``root`` (``root``,
    the op nodes and the leaves that take a gradient), walked as
    ``tests/test_memory.py``'s ``graph_nodes`` walks it."""
    seen, nodes, stack = set(), [], [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def _dtype_step(spec, x, y):
    """One training step as ``train`` runs it; returns the input tensor, the
    body features, the head outputs, the loss, the parameters and the
    optimizer."""
    params = build_model(spec, 0)
    opt = OptimizerConfig().build(params)
    x = Tensor(x)
    h = body_forward(params, spec, x, _rng.PassRng(0, 0, _rng.NS_TRAIN_DROPOUT))
    out, logvar = head_forward(params, spec, h)
    eps = None if logvar is None else np.random.default_rng(1).standard_normal(out.shape)
    loss, _ = objective(out, logvar, y, 1.0, eps)
    opt.zero_grad()
    loss.backward()
    opt.step()
    return x, h, (out, logvar), loss, params, opt


class TestActivationDtypes:
    """A float32 spec keeps its body's activations float32; parameters, their
    gradients, Adam's state, the head outputs and the loss stay float64."""

    def _check_float64_outside_the_body(self, heads, loss, params, opt):
        for t in (*(t for t in heads if t is not None), loss):
            assert t.data.dtype == np.float64
        for name, p in params.tensors.items():
            assert p.data.dtype == p.grad.dtype == np.float64, name
            assert opt.m[name].dtype == opt.v[name].dtype == np.float64, name

    def _check_float32_step(self, spec, x_data, variant):
        assert spec.dtype == "float32"
        _, h, heads, loss, params, opt = _dtype_step(spec, x_data, np.arange(len(x_data)) % 4)
        body = _graph_nodes(h)   # the input takes no gradient, so it is no node
        param_ids = {id(p) for p in params.tensors.values()}
        assert any(t.op == "mul" for t in body) == (variant == "bayesian2")   # dropout ran
        for node in body:
            want = np.float64 if id(node) in param_ids else np.float32
            assert node.dtype == want, (node.op, node.dtype)
        self._check_float64_outside_the_body(heads, loss, params, opt)

    @pytest.mark.parametrize("variant", ["bayesian2", "variational"])
    def test_float32_miniresnet_step(self, variant):
        spec = miniresnet_spec((1, 8, 8), 4, variant)
        self._check_float32_step(spec, np.random.default_rng(0).normal(size=(6, 1, 8, 8)), variant)

    @pytest.mark.parametrize("variant", ["bayesian2", "variational"])
    def test_float32_mlp_step(self, variant):
        # The linear layers' float64 weights and biases enter the body
        # through float32 casts, so every body node but the parameters is float32.
        spec = mlp_spec(5, 4, variant, hidden=8)
        self._check_float32_step(spec, np.random.default_rng(0).normal(size=(6, 5)), variant)

    def test_mlp_step_stays_float64(self):
        spec = replace(mlp_spec(5, 4, "bayesian2", hidden=8), dtype="float64")
        x_data = np.random.default_rng(0).normal(size=(6, 5))
        _, _, heads, loss, params, opt = _dtype_step(spec, x_data, np.arange(6) % 4)
        for node in _graph_nodes(loss):
            assert node.dtype == np.float64, node.op
        self._check_float64_outside_the_body(heads, loss, params, opt)


class TestFailureModes:
    def test_divergence_reports_step(self):
        tr, va, _ = quick_splits()
        spec = mlp_spec(2, variant="baseline", hidden=32)
        params = build_model(spec, 4)
        cfg = TrainConfig(OptimizerConfig("sgd-momentum", lr=1e150, momentum=0.0),
                          epochs=3, batch_size=64)
        with pytest.raises(TrainingDivergedError, match="step"):
            train(params, spec, tr, va, cfg, seed=4)

    def _replay_names_step_and_op(self, dtype, op):
        # The step runs with per-op checks deferred; its non-finite loss makes
        # it run again with them on, which names the op that per-op checking
        # names, at the same step, without a numpy warning on the way. The
        # first step leaves weights near 1e150: a float64 body's first
        # matmul overflows, and a float32 body's cast of the stem's weight.
        tr, va, _ = quick_splits()
        spec = replace(mlp_spec(2, variant="baseline", hidden=32), dtype=dtype)
        params = build_model(spec, 4)
        cfg = TrainConfig(OptimizerConfig("sgd-momentum", lr=1e150, momentum=0.0),
                          epochs=3, batch_size=64)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(TrainingDivergedError,
                               match=rf"step 1 \(epoch 0\): op '{op}' produced non-finite values") as info:
                train(params, spec, tr, va, cfg, seed=4)
        assert (info.value.step, info.value.epoch) == (1, 0)
        assert isinstance(info.value.__cause__, NonFiniteError)

    def test_divergence_replay_names_step_and_op(self):
        self._replay_names_step_and_op("float64", "matmul")

    def test_divergence_replay_names_the_cast_in_a_float32_body(self):
        self._replay_names_step_and_op("float32", "cast")

    def test_backward_only_non_finite_gradient_names_parameter(self):
        # Every forward value is finite, but the stem's weight gradient
        # (huge inputs times a huge back-propagated gradient) overflows.
        rng = np.random.default_rng(0)
        ds = Dataset(rng.normal(size=(16, 2)) * 1e12, np.arange(16) % 4,
                     ["a", "b", "c", "d"])
        spec = mlp_spec(2, variant="baseline", hidden=8)
        params = build_model(spec, 0)
        for name in params.names():
            params[name].data[...] = 0.0
        params["body.0.b"].data[...] = 1e-300
        params["head.fc.w"].data[...] = rng.normal(size=params["head.fc.w"].shape) * 1e300
        before = {n: params[n].data.copy() for n in params.names()}
        cfg = TrainConfig(OptimizerConfig("sgd-momentum", lr=0.1, momentum=0.0),
                          epochs=1, batch_size=16)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(TrainingDivergedError,
                               match=r"step 0 \(epoch 0\): gradient of 'body.0.w' is not finite"):
                train(params, spec, ds, ds, cfg, seed=0)
        for name in params.names():   # the step was not applied
            np.testing.assert_array_equal(params[name].data, before[name])

    def test_overflowed_logvar_is_not_hidden_by_the_clip(self):
        # The variational head clips its log-variance; an Inf from its matmul
        # must still fail the once-per-step check and be named on replay, as
        # per-op checks name it, rather than train on at the clip's bound.
        rng = np.random.default_rng(0)
        ds = Dataset(rng.normal(size=(64, 2)), np.arange(64) % 4, ["a", "b", "c", "d"])
        spec = mlp_spec(2, variant="variational", hidden=8)
        params = build_model(spec, 0)
        params["head.logvar.w"].data[...] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(TrainingDivergedError,
                               match=r"step 0 \(epoch 0\): op 'matmul' produced non-finite values"):
                train(params, spec, ds, ds, TrainConfig(epochs=1, batch_size=32), seed=0)
            with pytest.raises(NonFiniteError, match="op 'matmul'"):
                eval_heads(params, spec, ds.inputs)

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
