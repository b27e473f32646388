"""Bounded evaluation memory: the peak of ``evaluate`` does not grow with
the test set beyond the arrays that hold its outputs."""

import tracemalloc

import numpy as np

from uqnet.data import Dataset
from uqnet.evaluate import EvalConfig, evaluate
from uqnet.layers import block_rows, build_model, miniresnet_spec

T, CLASSES = 3, 4


def evaluate_peak(spec, params, n):
    """Peak bytes traced while evaluating n examples (inputs built beforehand)."""
    x = np.random.default_rng(n).normal(size=(n,) + spec.input_shape)
    ds = Dataset(x, np.arange(n) % CLASSES, [f"c{k}" for k in range(CLASSES)], "test")
    tracemalloc.start()
    try:
        evaluate(params, spec, ds, EvalConfig(T=T, seed=0))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def output_bytes(n):
    """Generous bound on the arrays that scale with n by design: the [T, n, C]
    passes and their variance temporaries, plus the per-example report rows."""
    return 8 * n * (4 * T * CLASSES + 16)


def test_miniresnet_mc_evaluation_peak_does_not_grow_with_n():
    spec = miniresnet_spec((1, 16, 16), CLASSES, "bayesian2")
    params = build_model(spec, 0)
    assert 640 >= 10 * block_rows(spec)   # N = 640 runs in many blocks
    small = evaluate_peak(spec, params, 64)
    large = evaluate_peak(spec, params, 640)
    assert large - output_bytes(640) <= 1.25 * small, (small, large)
