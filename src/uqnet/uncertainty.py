"""Predictive-uncertainty machinery.

Two mechanisms produce a posterior over class predictions:

* Monte Carlo dropout: run T stochastic forward passes with dropout active
  at evaluation time, softmax each pass, and treat the sample mean as the
  prediction and the per-class sample variance as the uncertainty.
* Variational head: two linear heads on the shared feature vector predict
  the mean and log-variance of a Gaussian over class scores; samples are
  drawn by the reparameterization y = mu + sigma * eps with eps ~ N(0, I),
  and training regularizes the head toward N(0, I) via the closed-form
  KL divergence.

Scalar uncertainty is the mean over classes of the per-class variance of
the probability samples: the T softmaxed passes of MC dropout, or the S
softmaxed reparameterized draws of the variational head.
Each mechanism has one batched implementation, and one posterior type holds
a batch or one example under the same labelling and scoring rules; the
single-example API is its N = 1 case and returns the bytes of row 0.
``evaluate`` scores a variational batch with :func:`sampled_scores`, which
draws and reduces one row block at a time and returns the bytes of scoring
all [S, N, C] draws at once.
Both heads themselves are computed by :mod:`uqnet.layers`
(``head_forward`` and ``eval_heads``); this module only samples and scores
their outputs.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .layers import (MC_VARIANTS, ModelParams, ModelSpec, _budget_rows, body_forward,
                     eval_heads, head_forward, row_blocks)
from .tensor import Tensor, _deferred_checks, _row_chunks, _run_deferred, no_grad


@dataclass
class PosteriorSamples:
    """T class-probability draws for one example ([T, C]) or a batch ([T, N, C]);
    their mean, unbiased variance and count are derived on access."""

    samples: np.ndarray   # [T, C] or [T, N, C], each row a softmax output

    def __post_init__(self):
        if self.samples.ndim not in (2, 3):
            raise ValueError(f"expected [T, C] or [T, N, C] samples, got {self.samples.shape}")
        if not np.isfinite(self.samples).all():
            raise ValueError("sample probabilities must be finite")
        row_sums = self.samples.sum(axis=-1)
        if np.abs(row_sums - 1.0).max() > 1e-9:
            raise ValueError("each sample row must sum to 1")
        if self.samples.min() < 0.0 or self.samples.max() > 1.0:
            raise ValueError("sample probabilities must lie in [0, 1]")

    @property
    def T(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> np.ndarray:
        return self.samples.mean(axis=0)

    @property
    def variance(self) -> np.ndarray:
        return unbiased_variance(self.samples)

    @property
    def predicted_label(self):
        return _label(self.mean)

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "PosteriorSamples":
        return cls(np.asarray(samples, dtype=np.float64))


@dataclass
class VariationalOutput:
    """Gaussian posterior over the class scores of one example or a batch, with optional draws."""

    mu: np.ndarray                 # [C] or [N, C]
    sigma2: np.ndarray             # shaped like mu, strictly positive
    samples: np.ndarray | None = None  # [S, *mu.shape]

    def __post_init__(self):
        _check_gaussian(self.mu, self.sigma2)

    @property
    def predicted_label(self):
        return _label(self.mu)


def _check_gaussian(mu: np.ndarray, sigma2: np.ndarray) -> None:
    if not (np.isfinite(mu).all() and np.isfinite(sigma2).all()):
        raise ValueError("mu and sigma2 must be finite")
    if np.any(sigma2 <= 0):
        raise ValueError("sigma2 must be strictly positive")


def _label(scores: np.ndarray):
    """Argmax over classes: an int for one example, an [N] array for a batch."""
    label = scores.argmax(axis=-1)
    return int(label) if label.ndim == 0 else label


def np_softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def unbiased_variance(samples: np.ndarray) -> np.ndarray:
    """Unbiased variance across axis 0, exactly 0 where all draws are equal.

    Plain ``var(ddof=1)`` leaves ~1e-33 of rounding noise on bit-identical
    rows, but a degenerate posterior must score exactly zero.
    """
    var = samples.var(axis=0, ddof=1)
    var[np.all(samples == samples[0], axis=0)] = 0.0
    return var


def variance_score(samples: np.ndarray) -> np.ndarray:
    """Score of [T, ..., C] probability draws (MC dropout, variational draws):
    mean over classes of the unbiased per-class variance, shape [...].
    The unbiased variance of one draw is undefined, so T must be at least 2."""
    if len(samples) < 2:
        raise ValueError(f"variance scoring needs at least 2 draws, got {len(samples)}")
    return unbiased_variance(samples).mean(axis=-1)


# -- Monte Carlo dropout -------------------------------------------------------


def mc_probs(params: ModelParams, spec: ModelSpec, x, T: int, seed: int,
             workers: int = 1) -> np.ndarray:
    """Stacked softmax outputs of T dropout-active passes: [T, batch, C].

    The batch runs in row blocks (:func:`uqnet.layers.row_blocks`), so
    memory stays bounded at any batch size. In each block, every layer
    before the first dropout is deterministic, so it runs once and all
    passes share its output read-only: the whole body for bayesian1, the
    stem for bayesian2. Each pass then runs the rest of the body and the
    head, drawing its masks from streams keyed by (seed, t, layer) that it
    keeps across blocks, so the result is bit-identical to T independent
    full-batch passes no matter how the passes are scheduled; with
    ``workers > 1`` they run on one thread pool for the whole call.

    Each pass checks its logits for NaN/Inf once per block, not each op
    (``tensor._run_deferred``); the shared prefix is checked through them.
    When a check fails, that pass runs again from the first row with per-op
    checks to name the op.
    """
    if spec.variant not in MC_VARIANTS:
        raise ValueError(f"MC dropout needs a bayesian1/bayesian2 model, got {spec.variant!r}")
    if T < 2:
        raise ValueError(f"T must be >= 2 (variance is undefined otherwise), got {T}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    first = spec.dropout_positions()[0]
    blocks = row_blocks(spec, x)
    pass_rngs = [_rng.PassRng(seed, t, _rng.NS_EVAL_DROPOUT) for t in range(T)]
    out = np.empty((T, blocks[-1][0].stop, spec.n_classes))

    def replay(t: int, stop: int) -> None:
        """Pass t again over the rows before ``stop``, whole and from fresh
        streams, which redraws the masks it drew."""
        pass_rng = _rng.PassRng(seed, t, _rng.NS_EVAL_DROPOUT)
        for rows, xb in blocks:
            if rows.start < stop:
                head_forward(params, spec, body_forward(params, spec, xb, pass_rng))

    with ThreadPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        for rows, xb in blocks:
            with no_grad(), _deferred_checks():
                prefix = body_forward(params, spec, xb, stop=first)

            def one_pass(t: int) -> None:
                with no_grad():
                    logits, _ = _run_deferred(
                        lambda: head_forward(params, spec, body_forward(params, spec, prefix,
                                                                        pass_rngs[t], start=first)),
                        ("logits",), lambda: replay(t, rows.stop))
                out[t, rows] = np_softmax(logits.data)

            list((pool.map if pool else map)(one_pass, range(T)))
    return out


def mc_predict(params: ModelParams, spec: ModelSpec, x, T: int, seed: int,
               workers: int = 1) -> PosteriorSamples:
    """Posterior over class probabilities for a single input."""
    probs = mc_probs(params, spec, x, T, seed, workers)
    if probs.shape[1] != 1:
        raise ValueError("mc_predict takes a single example; use mc_probs for batches")
    return PosteriorSamples.from_samples(probs[:, 0, :])


# -- variational head ----------------------------------------------------------


def _batched_eval_noise(seed: int, S: int, shape, gens: list | None = None) -> np.ndarray:
    """[S, *shape] standard-normal evaluation noise: draw i continues
    ``gens[i]``, the generator on evaluation-noise stream (seed, i). A call
    without ``gens`` starts the S streams. A caller that draws a batch in
    row blocks passes one list, empty at first, to every block's call; the
    first call fills it, so each block's draws continue where the previous
    block's stopped and together they equal one full-batch draw."""
    gens = [] if gens is None else gens
    if not gens:
        gens += [_rng.stream(seed, _rng.NS_EVAL_NOISE, i) for i in range(S)]
    eps = np.empty((S, *shape))
    for gen, draw in zip(gens, eps):
        gen.standard_normal(out=draw)
    return eps


def reparameterized_samples(mu: np.ndarray, sigma2: np.ndarray, S: int, seed: int,
                            eps: np.ndarray | None = None) -> np.ndarray:
    """S draws of mu + sigma * eps with eps ~ N(0, I): [S, C], or [S, N, C] for a batch.

    ``eps`` overrides the generated noise (e.g. forcing eps = 0 must return
    mu exactly); otherwise draw i comes from its (seed, i)-keyed stream.
    """
    mu = np.asarray(mu, dtype=np.float64)
    sigma2 = np.asarray(sigma2, dtype=np.float64)
    _check_gaussian(mu, sigma2)
    if eps is None:
        eps = _batched_eval_noise(seed, S, mu.shape)
    else:
        eps = np.atleast_2d(np.asarray(eps, dtype=np.float64))
    return mu + np.sqrt(sigma2) * eps


def sampled_scores(mu: np.ndarray, sigma2: np.ndarray, S: int, seed: int) -> np.ndarray:
    """Variational scores of a batch, [N], from its [N, C] head outputs:
    the bytes of ``variance_score(np_softmax(reparameterized_samples(mu,
    sigma2, S, seed)))`` without its [S, N, C] arrays.

    The rows run in blocks sized like :func:`uqnet.layers.row_blocks`, the
    evaluation byte budget over one row's S * C draws. Each block's noise
    comes from :func:`_batched_eval_noise` with one list of generators for
    the whole call, so together the blocks' draws equal one full-batch
    draw; every later step is per element or per row, so each block's
    scores are the bytes of those rows of the unblocked result.
    """
    mu, sigma2 = np.asarray(mu), np.asarray(sigma2)
    if mu.ndim != 2:
        raise ValueError(f"expected [N, C] head outputs, got {mu.shape}")
    if S < 2:
        raise ValueError("variational scoring needs at least 2 reparameterized draws")
    n, c = mu.shape
    gens = []
    scores = np.empty(n)
    for rows in _row_chunks(n, _budget_rows(8 * S * c)):
        eps = _batched_eval_noise(seed, S, (rows.stop - rows.start, c), gens)
        draws = reparameterized_samples(mu[rows], sigma2[rows], S, seed, eps)
        scores[rows] = variance_score(np_softmax(draws))
    return scores


def variational_outputs(params: ModelParams, spec: ModelSpec, x) -> tuple[np.ndarray, np.ndarray]:
    """(mu, sigma2) arrays of shape [batch, C], computed in row blocks with
    no graph recording."""
    if spec.head != "variational":
        raise ValueError(f"model variant {spec.variant!r} has no variational head")
    mu, logvar = eval_heads(params, spec, x)
    return mu, np.exp(logvar)


def variational_forward(params: ModelParams, spec: ModelSpec, x, S: int = 0,
                        seed: int = 0, eps: np.ndarray | None = None) -> VariationalOutput:
    """Head outputs for a single input, with S reparameterized draws.

    S = 0 returns only (mu, sigma2). The predicted label is argmax(mu).
    """
    if S < 0:
        raise ValueError("S must be nonnegative")
    mu, sigma2 = variational_outputs(params, spec, x)
    if mu.shape[0] != 1:
        raise ValueError("variational_forward takes a single example; use variational_outputs for batches")
    post = VariationalOutput(mu[0], sigma2[0])
    if S > 0 or eps is not None:
        post.samples = reparameterized_samples(post.mu, post.sigma2, S, seed, eps)
    return post


# -- closed-form KL divergence ---------------------------------------------------


def kld(mu, sigma2):
    """KL(N(mu, diag sigma2) || N(0, I)) = -1/2 sum(1 + log s2 - mu^2 - s2):
    the one-row :func:`kld_from_logvar` with logvar = log sigma2.

    Accepts plain arrays (returns a float) or Tensors (returns a scalar
    Tensor so gradients flow to both arguments). Zero exactly at mu = 0,
    sigma2 = 1.
    """
    mu_t = mu if isinstance(mu, Tensor) else Tensor(mu)
    s2_t = sigma2 if isinstance(sigma2, Tensor) else Tensor(sigma2)
    if np.any(s2_t.data <= 0):
        raise ValueError("sigma2 must be strictly positive")
    out = kld_from_logvar(mu_t.reshape((1, -1)), s2_t.log().reshape((1, -1)))
    return out if isinstance(mu, Tensor) or isinstance(sigma2, Tensor) else float(out)


def kld_from_logvar(mu: Tensor, logvar: Tensor) -> Tensor:
    """Batch-mean KLD from graph tensors parameterized as log sigma^2."""
    batch = mu.shape[0]
    term = 1.0 + logvar - mu.square() - logvar.exp()
    return term.sum() * (-0.5 / batch)


# -- scalar scores -----------------------------------------------------------------


def uncertainty_score(post):
    """Reduce a posterior to its nonnegative uncertainty: a float for one
    example, an [N] array for a batch.

    The mean over classes of the per-class variance of the probability
    samples: the MC dropout passes, or the variational draws pushed through
    softmax. Either needs at least 2 draws (:func:`variance_score`).
    """
    if isinstance(post, PosteriorSamples):
        score = variance_score(post.samples)
    elif not isinstance(post, VariationalOutput):
        raise TypeError(f"cannot score {type(post).__name__}")
    elif post.samples is None:
        raise ValueError("variational scoring needs reparameterized draws")
    else:
        score = variance_score(np_softmax(post.samples))
    return float(score) if np.ndim(score) == 0 else score


def predictive_entropy(probs):
    """Shannon entropy -sum(p log p) over the last axis, with 0 log 0 = 0:
    a float for one [C] vector, an array of shape [...] for [..., C]."""
    p = np.asarray(probs, dtype=np.float64)
    if np.any(p < 0):
        raise ValueError("probabilities must be nonnegative")
    sums = np.atleast_1d(p.sum(axis=-1))
    off = np.abs(sums - 1.0) > 1e-6
    if off.any():
        raise ValueError(f"probabilities must sum to 1, got {sums[off][0]}")
    entropy = -(p * np.log(p, out=np.zeros_like(p), where=p > 0)).sum(axis=-1)
    return float(entropy) if p.ndim == 1 else entropy
