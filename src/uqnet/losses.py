"""Loss functions and the composite variational objective."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, cross_entropy, no_grad
from .uncertainty import VariationalOutput, kld_from_logvar, noise_draw

__all__ = ["cross_entropy", "LossBreakdown", "variational_loss", "variational_loss_graph"]


@dataclass(frozen=True)
class LossBreakdown:
    """total = cross_entropy + kld_weight * kld, recorded term by term."""

    total: float
    cross_entropy: float
    kld: float
    kld_weight: float

    @classmethod
    def compose(cls, ce: float, kld_value: float, beta: float) -> "LossBreakdown":
        return cls(ce + beta * kld_value, ce, kld_value, beta)

    @classmethod
    def plain(cls, ce: float, beta: float = 0.0) -> "LossBreakdown":
        return cls(ce, ce, 0.0, beta)


def variational_loss_graph(mu: Tensor, logvar: Tensor, targets, beta: float,
                           eps: np.ndarray) -> tuple[Tensor, LossBreakdown]:
    """Training objective from graph tensors: CE on one reparameterized
    sample per example, plus beta times the batch-mean KLD.

    ``eps`` is [batch, C] standard-normal noise; gradients flow into both
    heads through the sample y = mu + exp(logvar/2) * eps.
    """
    sample = mu + (logvar * 0.5).exp() * Tensor(eps)
    ce_t = cross_entropy(sample, targets)
    kld_t = kld_from_logvar(mu, logvar)
    total_t = ce_t + float(beta) * kld_t
    return total_t, LossBreakdown.compose(float(ce_t), float(kld_t), float(beta))


def variational_loss(out: VariationalOutput, target: int, beta: float,
                     eps: np.ndarray | None = None, seed: int = 0) -> LossBreakdown:
    """Single-example loss CE(mu + sigma*eps) + beta*KLD: the batch-of-one
    :func:`variational_loss_graph` with logvar = log(sigma2)."""
    if eps is None:
        eps = noise_draw(seed, 0, out.mu.shape).epsilon
    with no_grad():
        _, breakdown = variational_loss_graph(
            Tensor(out.mu[None, :]), Tensor(np.log(out.sigma2)[None, :]),
            np.array([int(target)]), beta, np.asarray(eps, dtype=np.float64).reshape(1, -1))
    return breakdown
