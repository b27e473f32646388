"""Loss values, loss breakdown additivity, composite-loss gradients."""

import numpy as np

from uqnet.losses import LossBreakdown, cross_entropy, variational_loss, variational_loss_graph
from uqnet.rng import NS_EVAL_NOISE, stream
from uqnet.tensor import Tensor, check_gradient
from uqnet.uncertainty import VariationalOutput


class TestVariationalLoss:
    def test_beta_zero_reduces_to_cross_entropy(self):
        out = VariationalOutput(np.array([2.0, -1.0]), np.array([0.5, 0.5]))
        bd = variational_loss(out, target=0, beta=0.0, eps=np.zeros(2))
        assert bd.total == bd.cross_entropy
        assert bd.kld > 0.0  # recorded even though unweighted

    def test_kld_zero_point(self):
        out = VariationalOutput(np.zeros(4), np.ones(4))
        bd = variational_loss(out, target=1, beta=1.0, eps=np.zeros(4))
        assert bd.kld == 0.0
        assert bd.total == bd.cross_entropy

    def test_two_class_worked_example(self):
        # mu [1, 0], sigma2 [1, 1], eps 0, target 0:
        # CE = -log softmax([1, 0])[0] = log(1 + e^-1); KLD = 0.5
        out = VariationalOutput(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        bd = variational_loss(out, target=0, beta=1.0, eps=np.zeros(2))
        ce = np.log(1.0 + np.exp(-1.0))
        assert abs(bd.cross_entropy - ce) < 1e-12
        assert abs(bd.kld - 0.5) < 1e-12
        assert abs(bd.total - (ce + 0.5)) < 1e-12

    def test_noisy_sample_shifts_ce_only(self):
        out = VariationalOutput(np.array([1.0, 0.0]), np.array([4.0, 4.0]))
        eps = np.array([0.5, -0.5])
        bd = variational_loss(out, target=0, beta=1.0, eps=eps)
        # sample = mu + 2 * eps = [2, -1]
        expected_ce = -np.log(np.exp(2.0) / (np.exp(2.0) + np.exp(-1.0)))
        assert abs(bd.cross_entropy - expected_ce) < 1e-12

    def test_default_noise_is_evaluation_draw_0(self):
        out = VariationalOutput(np.array([1.0, 0.0, -0.5]), np.array([4.0, 0.5, 2.0]))
        for seed in (0, 3):
            eps = stream(seed, NS_EVAL_NOISE, 0).standard_normal(3)
            bd = variational_loss(out, target=2, beta=0.5, seed=seed)
            assert bd == variational_loss(out, target=2, beta=0.5, eps=eps)
            assert bd != variational_loss(out, target=2, beta=0.5, eps=np.zeros(3))


class TestGraphLoss:
    def _setup(self, seed=0):
        rng = np.random.default_rng(seed)
        mu = rng.normal(size=(3, 4))
        logvar = rng.normal(scale=0.5, size=(3, 4))
        targets = rng.integers(0, 4, size=3)
        eps = rng.standard_normal((3, 4))
        return mu, logvar, targets, eps

    def test_breakdown_additivity_is_exact(self):
        mu, logvar, targets, eps = self._setup()
        for beta in (0.0, 0.25, 1.0, 3.0):
            total, bd = variational_loss_graph(Tensor(mu), Tensor(logvar), targets, beta, eps)
            assert bd.total == bd.cross_entropy + bd.kld_weight * bd.kld
            assert float(total) == bd.total

    def test_gradient_wrt_mu(self):
        mu, logvar, targets, eps = self._setup(1)
        lv = Tensor(logvar)

        def f(m):
            total, _ = variational_loss_graph(m, lv, targets, 1.0, eps)
            return total

        assert check_gradient(f, mu) < 1e-4

    def test_gradient_wrt_logvar(self):
        mu, logvar, targets, eps = self._setup(2)
        m = Tensor(mu)

        def f(lv):
            total, _ = variational_loss_graph(m, lv, targets, 1.0, eps)
            return total

        assert check_gradient(f, logvar) < 1e-4

    def test_gradient_with_various_betas(self):
        mu, logvar, targets, eps = self._setup(3)
        for beta in (0.0, 0.5, 2.0):
            err = check_gradient(
                lambda m: variational_loss_graph(m, Tensor(logvar), targets, beta, eps)[0], mu)
            assert err < 1e-4


class TestBreakdown:
    def test_plain_has_zero_kld(self):
        bd = LossBreakdown.plain(1.25)
        assert bd == LossBreakdown(1.25, 1.25, 0.0, 0.0)

    def test_compose(self):
        bd = LossBreakdown.compose(1.0, 0.5, 2.0)
        assert bd.total == 2.0
