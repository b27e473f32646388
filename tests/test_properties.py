"""Property tests over the pure numeric functions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uqnet.layers as layers
from uqnet.layers import block_rows, build_model, mlp_spec, model_forward
from uqnet.metrics import ClassificationMetrics
from uqnet.report import build_report
from uqnet.rng import NS_EVAL_DROPOUT, PassRng
from uqnet.tensor import no_grad
from uqnet.uncertainty import kld, mc_probs, np_softmax, predictive_entropy

finite = st.floats(allow_nan=False, allow_infinity=False)


@given(st.lists(st.tuples(st.floats(-5, 5), st.floats(0.01, 10.0)), min_size=1, max_size=8))
def test_kld_is_nonnegative(pairs):
    mu = np.array([m for m, _ in pairs])
    s2 = np.array([s for _, s in pairs])
    assert kld(mu, s2) >= 0.0


@given(st.integers(1, 6), st.data())
def test_entropy_bounded_by_log_c(c, data):
    weights = np.array(data.draw(st.lists(st.floats(1e-6, 1.0), min_size=c, max_size=c)))
    p = weights / weights.sum()
    h = predictive_entropy(p)
    assert -1e-12 <= h <= np.log(c) + 1e-9


@settings(deadline=None)
@given(st.integers(0, 10 ** 6), st.floats(0.01, 1000.0))
def test_ratio_scale_invariance(seed, scale):
    rng = np.random.default_rng(seed)
    n = 40
    y_true = rng.integers(0, 3, size=n)
    y_pred = rng.integers(0, 3, size=n)
    if (y_true == y_pred).all() or (y_true != y_pred).all():
        return  # ratio undefined for single-group outcomes
    scores = rng.uniform(0.01, 1.0, size=n)
    ent = np.zeros(n)
    base = build_report(y_true, y_pred, scores, ent, "mc-dropout").ratio
    scaled = build_report(y_true, y_pred, scale * scores, ent, "mc-dropout").ratio
    assert abs(base - scaled) <= 1e-9 * max(base, scaled)


@given(st.integers(2, 5), st.integers(1, 60), st.integers(0, 10 ** 6))
def test_metrics_stay_in_unit_interval(c, n, seed):
    rng = np.random.default_rng(seed)
    m = ClassificationMetrics.from_predictions(
        rng.integers(0, c, size=n), rng.integers(0, c, size=n), c)
    for arr in (m.precision, m.recall, m.f1):
        assert np.all((arr >= 0.0) & (arr <= 1.0))
    assert 0.0 <= m.accuracy <= 1.0
    assert m.confusion.sum() == n


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6), st.integers(2, 8), st.integers(1, 16),
       st.sampled_from(["bayesian1", "bayesian2"]), st.integers(2, 16))
def test_prefix_cached_mc_equals_independent_passes(model_seed, mc_seed, T, batch, variant, hidden):
    spec = mlp_spec(3, variant=variant, hidden=hidden)
    params = build_model(spec, model_seed)
    x = np.random.default_rng(model_seed).normal(size=(batch, 3))
    with no_grad():
        reference = np.stack([
            np_softmax(model_forward(params, spec, x, PassRng(mc_seed, t, NS_EVAL_DROPOUT)).data)
            for t in range(T)
        ])
    assert np.array_equal(mc_probs(params, spec, x, T, mc_seed), reference)


@settings(deadline=None, max_examples=25)
@given(st.integers(1, 100), st.integers(2, 6), st.sampled_from([16, 32, 48]),
       st.sampled_from(["bayesian1", "bayesian2"]), st.integers(2, 16), st.integers(0, 10 ** 6))
def test_blocked_mc_equals_one_block(n, T, rows, variant, hidden, seed):
    spec = mlp_spec(3, variant=variant, hidden=hidden)
    params = build_model(spec, seed)
    x = np.random.default_rng(seed).normal(size=(n, 3))
    whole = mc_probs(params, spec, x, T, seed)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(layers, "_BLOCK_BYTES", rows * layers._example_bytes(spec))
        assert block_rows(spec) == rows
        blocked = mc_probs(params, spec, x, T, seed)
    assert blocked.tobytes() == whole.tobytes()
