"""Loss functions and the one training objective of both heads."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, _as_tensor, cross_entropy, no_grad
from .uncertainty import VariationalOutput, _batched_eval_noise, kld_from_logvar

__all__ = ["cross_entropy", "LossBreakdown", "objective", "variational_loss", "variational_loss_graph"]


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
    def plain(cls, ce: float) -> "LossBreakdown":
        return cls(ce, ce, 0.0, 0.0)


def variational_loss_graph(mu: Tensor, logvar: Tensor, targets, beta: float,
                           eps: np.ndarray) -> tuple[Tensor, LossBreakdown]:
    """Training objective from graph tensors: CE on one reparameterized
    sample per example, plus beta times the batch-mean KLD.

    ``eps`` is [batch, C] standard-normal noise, or a scalar 0 to take the
    CE at the mean; gradients flow into both heads through the sample
    y = mu + exp(logvar/2) * eps.
    """
    sample = mu + (logvar * 0.5).exp() * Tensor(eps)
    ce_t = cross_entropy(sample, targets)
    kld_t = kld_from_logvar(mu, logvar)
    total_t = ce_t + float(beta) * kld_t
    return total_t, LossBreakdown.compose(float(ce_t), float(kld_t), float(beta))


def objective(out, logvar, targets, beta: float, eps) -> tuple[Tensor, LossBreakdown]:
    """The training objective of either head, from :func:`uqnet.layers.head_forward`
    tensors or :func:`uqnet.layers.eval_heads` arrays: the cross-entropy of the
    logits ``out`` when ``logvar`` is None, else :func:`variational_loss_graph`
    with ``mu = out`` (``beta`` and ``eps`` apply to that case only)."""
    if logvar is None:
        ce = cross_entropy(out, targets)
        return ce, LossBreakdown.plain(float(ce))
    return variational_loss_graph(_as_tensor(out), _as_tensor(logvar), targets, beta, eps)


def variational_loss(out: VariationalOutput, target: int, beta: float,
                     eps: np.ndarray | None = None, seed: int = 0) -> LossBreakdown:
    """Single-example loss CE(mu + sigma*eps) + beta*KLD: the batch-of-one
    :func:`variational_loss_graph` with logvar = log(sigma2). ``eps``
    defaults to evaluation-noise draw 0 of ``seed``."""
    if eps is None:
        eps = _batched_eval_noise(seed, 1, out.mu.shape)[0]
    with no_grad():
        _, breakdown = variational_loss_graph(
            Tensor(out.mu[None, :]), Tensor(np.log(out.sigma2)[None, :]),
            np.array([int(target)]), beta, np.asarray(eps, dtype=np.float64).reshape(1, -1))
    return breakdown
