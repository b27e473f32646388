"""Optimizers over named parameter tensors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import ModelParams

OPTIMIZERS = ("adam", "sgd-momentum")   # OptimizerConfig.kind


class SGD:
    """Stochastic gradient descent with classical momentum."""

    def __init__(self, params: ModelParams, lr: float = 0.01, momentum: float = 0.0):
        self.params = params
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.velocity = {n: np.zeros_like(t.data) for n, t in params.tensors.items()}

    def zero_grad(self):
        self.params.zero_grad()

    def step(self):
        for name, p in self.params.tensors.items():
            if p.grad is None:
                continue
            v = self.momentum * self.velocity[name] + p.grad
            self.velocity[name] = v
            p.data -= self.lr * v


class Adam:
    """Adam with bias correction (lr 1e-3, betas 0.9/0.999, eps 1e-8 by default).

    The update runs in place through two preallocated scratch buffers, in
    the operation order of the textbook formula, so it is byte-identical to
    it without allocating temporaries.
    """

    def __init__(self, params: ModelParams, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.m = {n: np.zeros_like(t.data) for n, t in params.tensors.items()}
        self.v = {n: np.zeros_like(t.data) for n, t in params.tensors.items()}
        # two scratch rows sized to the largest parameter, shared by all of them
        self._scratch = np.empty((2, max((t.data.size for t in params.tensors.values()), default=0)))
        self.t = 0

    def zero_grad(self):
        self.params.zero_grad()

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, p in self.params.tensors.items():
            g = p.grad
            if g is None:
                continue
            m, v = self.m[name], self.v[name]
            a, b = (row[:g.size].reshape(g.shape) for row in self._scratch)
            # m = b1 * m + (1 - b1) * g
            m *= b1
            np.multiply(g, 1 - b1, out=a)
            m += a
            # v = b2 * v + (1 - b2) * (g * g)
            v *= b2
            np.multiply(g, g, out=a)
            a *= 1 - b2
            v += a
            # p -= lr * m_hat / (sqrt(v_hat) + eps)
            np.divide(m, 1 - b1 ** self.t, out=a)
            a *= self.lr
            np.divide(v, 1 - b2 ** self.t, out=b)
            np.sqrt(b, out=b)
            b += self.eps
            a /= b
            p.data -= a


@dataclass(frozen=True)
class OptimizerConfig:
    kind: str = "adam"          # one of OPTIMIZERS
    lr: float = 1e-3
    momentum: float = 0.9       # sgd only
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def build(self, params: ModelParams):
        if self.kind not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer kind {self.kind!r}, expected one of {OPTIMIZERS}")
        if self.kind == "adam":
            return Adam(params, self.lr, self.beta1, self.beta2, self.eps)
        return SGD(params, self.lr, self.momentum)
