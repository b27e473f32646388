"""Bounded memory in evaluation and training.

Evaluation: the peak of ``evaluate`` does not grow with the test set beyond
the arrays that hold its outputs. Training: a graph-mode forward holds little
more than its nodes' values until the backward (``conv2d`` keeps its input,
not its im2col patches), and a whole training step peaks near two graphs'
values (the backward releases intermediate gradients as it goes)."""

import dataclasses
import tracemalloc

import numpy as np

from uqnet import rng
from uqnet.data import Dataset
from uqnet.evaluate import EvalConfig, evaluate
from uqnet.layers import (block_rows, body_forward, build_model, head_forward, miniresnet_spec,
                          model_forward)
from uqnet.losses import objective
from uqnet.optim import OptimizerConfig
from uqnet.tensor import Tensor, _windows, cross_entropy

T, CLASSES = 3, 4


def evaluate_peak(spec, params, n, cfg=EvalConfig(T=T, seed=0)):
    """Peak bytes traced while evaluating n examples (inputs built beforehand)."""
    x = np.random.default_rng(n).normal(size=(n,) + spec.input_shape)
    ds = Dataset(x, np.arange(n) % CLASSES, [f"c{k}" for k in range(CLASSES)], "test")
    tracemalloc.start()
    try:
        evaluate(params, spec, ds, cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def output_bytes(n, draws=T):
    """Generous bound on the arrays that scale with n by design: the per-example
    report rows, plus the [draws, n, C] MC passes and their variance
    temporaries, or with ``draws=1`` the [n, C] head outputs and their softmax."""
    return 8 * n * (4 * draws * CLASSES + 16)


def test_miniresnet_mc_evaluation_peak_does_not_grow_with_n():
    spec = miniresnet_spec((1, 16, 16), CLASSES, "bayesian2")
    params = build_model(spec, 0)
    assert 640 >= 10 * block_rows(spec)   # N = 640 runs in many blocks
    small = evaluate_peak(spec, params, 64)
    large = evaluate_peak(spec, params, 640)
    assert large - output_bytes(640) <= 1.25 * small, (small, large)


def test_sampled_variational_evaluation_peak_does_not_grow_with_n():
    # The S draws are scored one row block at a time, so nothing of size
    # [S, N, C] exists; the [S, 640, C] draw alone would be 2 MB.
    spec = miniresnet_spec((1, 16, 16), CLASSES, "variational")
    params = build_model(spec, 0)
    cfg = EvalConfig(S=100, seed=0, space="sampled")
    assert 640 >= 10 * block_rows(spec)
    small = evaluate_peak(spec, params, 64, cfg)
    large = evaluate_peak(spec, params, 640, cfg)
    assert large - output_bytes(640, draws=1) <= 1.25 * small, (small, large)


def test_conv_windows_leave_no_traced_memory_behind():
    # numpy's sliding_window_view reads __array_interface__, whose keys churn
    # CPython's interned-string table; every few tens of thousands of calls
    # the table is rebuilt, and tracemalloc counts the new table (1 to 2 MB)
    # against whichever test is tracing. conv2d's windows must not do that.
    a = np.zeros((2, 5, 5, 3), np.float32)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for _ in range(100_000):
            _windows(a, 1, 3)
        grown = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert grown < 64 << 10, grown


def node_value_bytes(root):
    """Summed nbytes of the distinct base arrays of every node value in the
    graph that ends at ``root``."""
    seen, bases, stack = set(), {}, [root]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        base = t.data
        while base.base is not None:
            base = base.base
        bases[id(base)] = base.nbytes
        stack.extend(t._parents)
    return sum(bases.values())


def test_miniresnet_training_graph_holds_only_its_node_values():
    spec = miniresnet_spec((1, 16, 16), CLASSES, "bayesian2")
    params = build_model(spec, 0)
    x = np.random.default_rng(0).normal(size=(32,) + spec.input_shape)
    y = np.arange(32) % CLASSES
    tracemalloc.start()
    try:
        pass_rng = rng.PassRng(0, 0, rng.NS_TRAIN_DROPOUT)
        loss = cross_entropy(model_forward(params, spec, Tensor(x), pass_rng), y)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    values = node_value_bytes(loss)
    assert held <= 1.25 * values, (held, values)


def test_float32_miniresnet_graph_is_about_half_the_float64_one():
    # The float32 preset keeps its body's activations and dropout masks in
    # float32; only the parameters, the head and the loss are float64.
    spec = miniresnet_spec((1, 16, 16), CLASSES, "bayesian2")
    x = np.random.default_rng(0).normal(size=(32,) + spec.input_shape)
    y = np.arange(32) % CLASSES
    values = {}
    for dtype in ("float32", "float64"):
        s = dataclasses.replace(spec, conv_dtype=dtype)
        pass_rng = rng.PassRng(0, 0, rng.NS_TRAIN_DROPOUT)
        loss = cross_entropy(model_forward(build_model(s, 0), s, Tensor(x), pass_rng), y)
        values[dtype] = node_value_bytes(loss)
    assert values["float32"] <= 0.55 * values["float64"], values


def test_miniresnet_training_step_peak_stays_near_two_graphs():
    # train() holds the previous step's graph through ``loss`` and ``out``
    # until the next step's forward rebinds them, so two graphs briefly
    # coexist. Beyond them, a step's backward holds only the gradients it is
    # passing on and one conv's rebuilt patches (3.1x the node values when
    # every intermediate gradient stayed until the backward returned).
    spec = miniresnet_spec((1, 16, 16), CLASSES, "bayesian2")
    params = build_model(spec, 0)
    opt = OptimizerConfig().build(params)
    x = np.random.default_rng(0).normal(size=(64,) + spec.input_shape)
    y = np.arange(64) % CLASSES
    tracemalloc.start()
    try:
        for step in range(2):   # the body of train()'s step loop, batch 32
            if step == 1:
                tracemalloc.reset_peak()
            rows = slice(32 * step, 32 * (step + 1))
            pass_rng = rng.PassRng(0, step, rng.NS_TRAIN_DROPOUT)
            out, logvar = head_forward(params, spec, body_forward(params, spec, Tensor(x[rows]),
                                                                  pass_rng))
            loss, _ = objective(out, logvar, y[rows], 1.0, None)
            opt.zero_grad()
            loss.backward()
            opt.step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    values = node_value_bytes(loss)
    assert peak <= 2.2 * values, (peak, values)
