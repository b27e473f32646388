"""Bounded memory in evaluation and training.

Evaluation: the peak of ``evaluate`` does not grow with the test set beyond
the arrays that hold its outputs. Training: a graph-mode forward holds little
more than the arrays its backward closures read until the backward, about
half of every activation it makes (``conv2d`` keeps its input, not its
im2col patches), a conv's backward holds one chunk of patches at a time,
never a whole patch matrix, and a whole training step peaks near two
graphs (the backward releases intermediate gradients as it goes)."""

import dataclasses
import math
import tracemalloc
import types

import numpy as np

from uqnet import rng
from uqnet.data import Dataset
from uqnet.evaluate import EvalConfig, evaluate
from uqnet.layers import (block_rows, body_forward, build_model, head_forward, infer_shapes,
                          miniresnet_spec, model_forward)
from uqnet.losses import objective
from uqnet.optim import OptimizerConfig
from uqnet import tensor
from uqnet.tensor import Tensor, _windows, conv2d, cross_entropy

T, CLASSES = 3, 4


def evaluate_peak(spec, params, n, cfg=EvalConfig(T=T, seed=0)):
    """Peak bytes traced while evaluating n examples (inputs built beforehand)."""
    x = np.random.default_rng(n).normal(size=(n,) + spec.input_shape)
    ds = Dataset(x, np.arange(n) % CLASSES, [f"c{k}" for k in range(CLASSES)])
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
    cfg = EvalConfig(S=100, seed=0)
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


def graph_nodes(root):
    """Every node of the graph that ends at the tensor ``root``: ``root``,
    the op nodes, and the leaves, each its own node."""
    seen, nodes, stack = set(), [], [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def saved_arrays(fn):
    """The arrays a backward closure keeps, followed into the functions it
    keeps. Asserts that the only tensors it reaches are leaves, which it
    keeps as their own nodes: never an op result's tensor."""
    arrays, fns = [], [fn]
    while fns:
        for cell in fns.pop().__closure__ or ():
            value = cell.cell_contents
            for v in value if isinstance(value, tuple) else (value,):
                if isinstance(v, np.ndarray):
                    arrays.append(v)
                elif isinstance(v, Tensor):
                    assert v.op == "leaf", v
                elif isinstance(v, types.FunctionType):
                    fns.append(v)
    return arrays


def saved_bytes(root):
    """Summed nbytes of the distinct base arrays that the backward closures
    of the graph ending at ``root`` keep."""
    bases = {}
    for node in graph_nodes(root):
        for base in saved_arrays(node._backward) if node._backward is not None else ():
            while base.base is not None:
                base = base.base
            bases[id(base)] = base.nbytes
    return sum(bases.values())


def body_activation_bytes(spec, n):
    """Bytes of the arrays a graph-mode forward of the body makes at batch
    ``n``, counted from ``infer_shapes`` in the body's dtype: the cast input,
    an output per conv3x3, relu and pooling, a mask and a product per
    dropout, and per conv residual block its two convs, the relu between
    them, the sum, the relu after it and, when the channel count changes,
    the projection. A graph that kept every value would hold all of them."""
    per_layer = {"conv3x3": 1, "relu": 1, "global-avg-pool": 1, "dropout": 2}
    shapes = infer_shapes(spec)
    arrays = math.prod(shapes[0])
    for layer, shape in zip(spec.layers, shapes[1:]):
        if layer.kind == "residual-block":
            count = 5 + (layer.in_ch != layer.out_ch)
        else:
            count = per_layer[layer.kind]
        arrays += count * math.prod(shape)
    return n * arrays * np.dtype(spec.conv_dtype).itemsize


def training_forward(spec):
    """The batch-32 cross-entropy of a training forward of ``spec``, and the
    bytes tracemalloc holds once it is built (the parameters and input are
    made beforehand)."""
    params = build_model(spec, 0)
    x = np.random.default_rng(0).normal(size=(32,) + spec.input_shape)
    y = np.arange(32) % CLASSES
    tracemalloc.start()
    try:
        pass_rng = rng.PassRng(0, 0, rng.NS_TRAIN_DROPOUT)
        loss = cross_entropy(model_forward(params, spec, Tensor(x), pass_rng), y)
        return loss, tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_miniresnet_training_graph_holds_only_what_its_closures_save():
    # Nothing but the arrays the backward closures read outlives the
    # forward: the op results' tensors are gone with the intermediates.
    loss, held = training_forward(miniresnet_spec((1, 16, 16), CLASSES, "bayesian2"))
    saved = saved_bytes(loss)
    assert held <= 1.25 * saved, (held, saved)


def test_miniresnet_training_graph_keeps_about_half_the_activations():
    # A node keeps what its backward reads: relu its output, dropout's mul
    # its mask, a conv its input (which the relu or the product before it
    # keeps anyway); the convs' outputs, the sums and the pooling keep no
    # array. A graph that kept every value held all of body_activation_bytes.
    spec = miniresnet_spec((1, 16, 16), CLASSES, "bayesian2")
    loss, held = training_forward(spec)
    activations = body_activation_bytes(spec, 32)
    saved = saved_bytes(loss)
    assert saved <= 0.55 * activations, (saved, activations)
    assert held <= 0.55 * activations, (held, activations)


def test_float32_miniresnet_graph_is_about_half_the_float64_one():
    # The float32 preset keeps its body's activations and dropout masks in
    # float32; only the parameters, the head and the loss are float64.
    spec = miniresnet_spec((1, 16, 16), CLASSES, "bayesian2")
    saved = {dtype: saved_bytes(training_forward(dataclasses.replace(spec, conv_dtype=dtype))[0])
             for dtype in ("float32", "float64")}
    assert saved["float32"] <= 0.55 * saved["float64"], saved


def test_conv2d_backward_holds_one_patch_chunk_at_a_time():
    # The MiniResNet's widest conv at batch 32: float32, 16 -> 16 channels,
    # 3 x 3 on 16 x 16 images. Its whole [8192, 144] patch matrix would be
    # 4.7 MB; the backward builds dW's and dX's patches in row chunks of
    # about _CONV_CHUNK_BYTES instead. Above the gradients it returns, it may
    # hold one chunk of patches (up to 1.5 chunks when a short tail joins the
    # chunk before it) with the chunk's float64 rows of the output gradient
    # (2/9 of a chunk here), the padded input or the padded gradient (the same
    # size here), and the output gradient's channels-last copy (smaller than
    # the padded input): within two chunks and two padded inputs.
    rng = np.random.default_rng(0)
    n, c, size = 32, 16, 16
    x = Tensor(rng.normal(size=(n, c, size, size)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.normal(size=(c, c, 3, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=c), requires_grad=True)
    y = conv2d(x, w, b)
    g = rng.normal(size=y.shape).astype(np.float32)   # NCHW: the backward copies it channels-last
    tracemalloc.start()
    try:
        y._backward(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = x.grad.nbytes + w.grad.nbytes + b.grad.nbytes
    padded = n * (size + 2) ** 2 * c * x.data.itemsize
    assert peak - returned <= 2 * tensor._CONV_CHUNK_BYTES + 2 * padded, (peak, returned, padded)


def test_miniresnet_training_step_peak_stays_near_two_graphs():
    # train() holds the previous step's graph through ``loss`` and ``out``
    # until the next step's forward rebinds them, so two graphs briefly
    # coexist, each within 0.55 of body_activation_bytes. Beyond them, a
    # step holds its parameter gradients and Adam's state and, in the
    # backward, only the gradients it is passing on, or in a conv the
    # working set bounded above: two patch chunks and two padded inputs.
    # A graph that kept every value peaked here at 20.3 MB, 2.08 times the
    # activations; the peak comes in the second step's forward.
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
    state = sum(3 * p.data.nbytes for p in params.tensors.values())   # grad, m and v
    padded = 32 * 18 * 18 * 16 * 4   # the widest conv's padded float32 input
    bound = (2 * 0.55 * body_activation_bytes(spec, 32) + state
             + 2 * tensor._CONV_CHUNK_BYTES + 2 * padded)
    assert peak <= bound, (peak, bound)
