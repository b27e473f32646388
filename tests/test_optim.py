"""Optimizer update rules."""

import numpy as np

from uqnet.layers import ModelParams
from uqnet.optim import Adam, OptimizerConfig, SGD
from uqnet.tensor import Tensor


def one_param(value, grad=None):
    t = Tensor(np.asarray(value, dtype=float), requires_grad=True)
    if grad is not None:
        t.grad = np.asarray(grad, dtype=float)
    return ModelParams({"w": t}, seed=0)


class TestSGD:
    def test_plain_step_formula(self):
        params = one_param([2.0, -1.0], grad=[0.5, 0.25])
        SGD(params, lr=0.1, momentum=0.0).step()
        np.testing.assert_allclose(params["w"].data, [2.0 - 0.05, -1.0 - 0.025])

    def test_momentum_accumulates(self):
        params = one_param([0.0], grad=[1.0])
        opt = SGD(params, lr=1.0, momentum=0.5)
        opt.step()                      # v = 1,    w = -1
        params["w"].grad = np.array([1.0])
        opt.step()                      # v = 1.5,  w = -2.5
        np.testing.assert_allclose(params["w"].data, [-2.5])

    def test_zero_lr_is_identity(self):
        params = one_param([3.0], grad=[10.0])
        opt = SGD(params, lr=0.0)
        for _ in range(5):
            opt.step()
        np.testing.assert_array_equal(params["w"].data, [3.0])

    def test_none_grad_skipped(self):
        params = one_param([1.0])
        SGD(params, lr=0.1).step()
        np.testing.assert_array_equal(params["w"].data, [1.0])


class TestAdam:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        params = one_param([1.0, 2.0], grad=[0.0, 0.0])
        opt = Adam(params, lr=0.1)
        for _ in range(3):
            opt.step()
        np.testing.assert_array_equal(params["w"].data, [1.0, 2.0])

    def test_first_step_matches_reference(self):
        g = np.array([0.3, -2.0])
        params = one_param([1.0, 1.0], grad=g.copy())
        lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
        Adam(params, lr, b1, b2, eps).step()
        m_hat = (1 - b1) * g / (1 - b1)
        v_hat = (1 - b2) * g * g / (1 - b2)
        expected = np.array([1.0, 1.0]) - lr * m_hat / (np.sqrt(v_hat) + eps)
        np.testing.assert_allclose(params["w"].data, expected, rtol=0, atol=0)

    def test_two_steps_match_reference(self):
        g1 = np.array([0.5])
        g2 = np.array([-0.25])
        params = one_param([0.0], grad=g1.copy())
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        opt = Adam(params, lr, b1, b2, eps)
        opt.step()
        params["w"].grad = g2.copy()
        opt.step()

        m = np.zeros(1)
        v = np.zeros(1)
        w = np.zeros(1)
        for t, g in ((1, g1), (2, g2)):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            w = w - lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        np.testing.assert_allclose(params["w"].data, w, rtol=0, atol=0)


class TestOptimizerConfig:
    def test_builds_both_kinds(self):
        params = one_param([0.0])
        assert isinstance(OptimizerConfig("adam").build(params), Adam)
        assert isinstance(OptimizerConfig("sgd-momentum", lr=0.1).build(params), SGD)

    def test_rejects_unknown_kind(self):
        import pytest
        with pytest.raises(ValueError, match="unknown optimizer"):
            OptimizerConfig("lbfgs")

    def test_rejects_nonpositive_eps(self):
        import pytest
        for eps in (0.0, -1e-8):
            with pytest.raises(ValueError, match=f"eps must be > 0, got {eps}"):
                OptimizerConfig(eps=eps)

    def test_five_steps_byte_identical_to_formula(self):
        # The in-place update keeps the formula's operation order, so
        # parameters and both moments match it bit for bit; a parameter
        # without a gradient is skipped and keeps zero moments.
        rng = np.random.default_rng(0)
        # weights at the scale of one update, so a rounding change in the step shows
        w0, u0 = 0.01 * rng.normal(size=(3, 4)), rng.normal(size=5)
        params = ModelParams({"w": Tensor(w0.copy(), requires_grad=True),
                              "u": Tensor(u0.copy(), requires_grad=True)}, seed=0)
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        opt = Adam(params, lr, b1, b2, eps)
        w, m, v = w0.copy(), np.zeros_like(w0), np.zeros_like(w0)
        for t in range(1, 6):
            g = rng.normal(size=w0.shape)
            params["w"].grad = g.copy()
            opt.step()
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * (g * g)
            m_hat = m / (1 - b1 ** t)
            v_hat = v / (1 - b2 ** t)
            w -= lr * m_hat / (np.sqrt(v_hat) + eps)
        for got, want in ((params["w"].data, w), (opt.m["w"], m), (opt.v["w"], v),
                          (params["u"].data, u0), (opt.m["u"], np.zeros(5)), (opt.v["u"], np.zeros(5))):
            assert got.tobytes() == want.tobytes()
