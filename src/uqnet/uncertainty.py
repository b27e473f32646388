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

Scalar uncertainty is the mean over classes of the per-class variance
(probability-space for MC dropout and the sampled variational mode,
logit-space sigma^2 for the analytic variational mode).
Each mechanism has one batched implementation; the single-example API is
its N = 1 case and returns the bytes of row 0 of a one-example batch.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .layers import DropoutMode, ModelParams, ModelSpec, body_forward, model_forward
from .tensor import Tensor, no_grad

# log sigma^2 is clamped to this range: guarantees positive sigma^2 and
# keeps the KLD term finite early in training
LOGVAR_MIN = -10.0
LOGVAR_MAX = 10.0

MC_VARIANTS = ("bayesian1", "bayesian2")


@dataclass
class PosteriorSamples:
    """T stochastic class-probability vectors plus their mean and variance."""

    samples: np.ndarray   # [T, C], each row a softmax output
    mean: np.ndarray      # [C]
    variance: np.ndarray  # [C], unbiased across the T rows
    T: int

    def __post_init__(self):
        if self.samples.ndim != 2 or self.samples.shape[0] != self.T:
            raise ValueError(f"expected [T={self.T}, C] samples, got {self.samples.shape}")
        row_sums = self.samples.sum(axis=1)
        if np.abs(row_sums - 1.0).max() > 1e-9:
            raise ValueError("each sample row must sum to 1")
        if self.samples.min() < 0.0 or self.samples.max() > 1.0:
            raise ValueError("sample probabilities must lie in [0, 1]")
        if self.variance.min() < -1e-15:
            raise ValueError("variance must be nonnegative")

    @property
    def predicted_label(self) -> int:
        return int(self.mean.argmax())

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "PosteriorSamples":
        samples = np.asarray(samples, dtype=np.float64)
        return cls(samples, samples.mean(axis=0), unbiased_variance(samples), samples.shape[0])


@dataclass
class VariationalOutput:
    """Gaussian posterior over class scores, with optional reparameterized draws."""

    mu: np.ndarray                 # [C]
    sigma2: np.ndarray             # [C], strictly positive
    samples: np.ndarray | None = None  # [S, C]

    def __post_init__(self):
        if np.any(self.sigma2 <= 0):
            raise ValueError("sigma2 must be strictly positive")

    @property
    def predicted_label(self) -> int:
        return int(self.mu.argmax())


@dataclass(frozen=True)
class NoiseDraw:
    """A standard-normal vector, reproducible from (seed, index)."""

    epsilon: np.ndarray
    seed: int
    index: int


@dataclass(frozen=True)
class UncertaintyScore:
    value: float
    method: str  # mc-dropout | variational-analytic | variational-sampled | entropy

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("uncertainty must be nonnegative")


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
    """Score of [T, ..., C] probability draws (MC dropout, sampled variational):
    mean over classes of the unbiased per-class variance, shape [...]."""
    return unbiased_variance(samples).mean(axis=-1)


# -- Monte Carlo dropout -------------------------------------------------------


def mc_probs(params: ModelParams, spec: ModelSpec, x, T: int, seed: int,
             workers: int = 1) -> np.ndarray:
    """Stacked softmax outputs of T dropout-active passes: [T, batch, C].

    Pass t draws its masks from streams keyed by (seed, t, layer), so the
    result is identical no matter how the passes are scheduled; with
    ``workers > 1`` they run on a thread pool.
    """
    if spec.variant not in MC_VARIANTS:
        raise ValueError(f"MC dropout needs a bayesian1/bayesian2 model, got {spec.variant!r}")
    if T < 2:
        raise ValueError(f"T must be >= 2 (variance is undefined otherwise), got {T}")

    def one_pass(t: int) -> np.ndarray:
        with no_grad():
            logits = model_forward(params, spec, x, DropoutMode.EVAL_SAMPLING,
                                   _rng.PassRng(seed, t, _rng.NS_EVAL_DROPOUT))
        return np_softmax(logits.data)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            passes = list(pool.map(one_pass, range(T)))
    else:
        passes = [one_pass(t) for t in range(T)]
    return np.stack(passes)


def mc_predict(params: ModelParams, spec: ModelSpec, x, T: int, seed: int,
               workers: int = 1) -> PosteriorSamples:
    """Posterior over class probabilities for a single input."""
    probs = mc_probs(params, spec, x, T, seed, workers)
    if probs.shape[1] != 1:
        raise ValueError("mc_predict takes a single example; use mc_probs for batches")
    return PosteriorSamples.from_samples(probs[:, 0, :])


# -- variational head ----------------------------------------------------------


def noise_draw(seed: int, index: int, shape) -> NoiseDraw:
    """Evaluation-noise draw ``index``; streams fill sequentially, so a
    (1, C) draw equals a (C,) draw."""
    eps = _rng.stream(seed, _rng.NS_EVAL_NOISE, index).standard_normal(shape)
    return NoiseDraw(eps, int(seed), int(index))


def _batched_eval_noise(seed: int, S: int, shape) -> np.ndarray:
    """[S, *shape] standard-normal draws; draw i is ``noise_draw(seed, i, shape)``."""
    return np.stack([noise_draw(seed, i, shape).epsilon for i in range(S)])


def reparameterized_samples(mu: np.ndarray, sigma2: np.ndarray, S: int, seed: int,
                            eps: np.ndarray | None = None) -> np.ndarray:
    """S draws of mu + sigma * eps with eps ~ N(0, I): [S, C], or [S, N, C] for a batch.

    ``eps`` overrides the generated noise (e.g. forcing eps = 0 must return
    mu exactly); otherwise draw i comes from its (seed, i)-keyed stream.
    """
    mu = np.asarray(mu, dtype=np.float64)
    sigma2 = np.asarray(sigma2, dtype=np.float64)
    if np.any(sigma2 <= 0):
        raise ValueError("sigma2 must be strictly positive")
    if eps is None:
        eps = _batched_eval_noise(seed, S, mu.shape)
    else:
        eps = np.atleast_2d(np.asarray(eps, dtype=np.float64))
    return mu + np.sqrt(sigma2) * eps


def variational_heads(params: ModelParams, spec: ModelSpec, x,
                      mode: DropoutMode = DropoutMode.EVAL_DETERMINISTIC,
                      pass_rng: _rng.PassRng | None = None) -> tuple[Tensor, Tensor]:
    """Graph-mode (mu, log sigma^2) tensors of shape [batch, C]."""
    if spec.head != "variational":
        raise ValueError(f"model variant {spec.variant!r} has no variational head")
    h = body_forward(params, spec, x, mode, pass_rng)
    mu = h @ params["head.mu.w"] + params["head.mu.b"]
    logvar = (h @ params["head.logvar.w"] + params["head.logvar.b"]).clip(LOGVAR_MIN, LOGVAR_MAX)
    return mu, logvar


def variational_outputs(params: ModelParams, spec: ModelSpec, x) -> tuple[np.ndarray, np.ndarray]:
    """(mu, sigma2) arrays of shape [batch, C] with no graph recording."""
    with no_grad():
        mu, logvar = variational_heads(params, spec, x)
    return mu.data, np.exp(logvar.data)


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
    mu, sigma2 = mu[0], sigma2[0]
    samples = None
    if S > 0 or eps is not None:
        samples = reparameterized_samples(mu, sigma2, S, seed, eps)
    return VariationalOutput(mu, sigma2, samples)


# -- closed-form KL divergence ---------------------------------------------------


def kld(mu, sigma2):
    """KL(N(mu, diag sigma2) || N(0, I)) = -1/2 sum(1 + log s2 - mu^2 - s2).

    Accepts plain arrays (returns a float) or Tensors (returns a scalar
    Tensor so gradients flow to both arguments). Always nonnegative, zero
    exactly at mu = 0, sigma2 = 1.
    """
    mu_t = mu if isinstance(mu, Tensor) else Tensor(mu)
    s2_t = sigma2 if isinstance(sigma2, Tensor) else Tensor(sigma2)
    if np.any(s2_t.data <= 0):
        raise ValueError("sigma2 must be strictly positive")
    out = (1.0 + s2_t.log() - mu_t.square() - s2_t).sum() * -0.5
    return out if isinstance(mu, Tensor) or isinstance(sigma2, Tensor) else float(out)


def kld_from_logvar(mu: Tensor, logvar: Tensor) -> Tensor:
    """Batch-mean KLD from graph tensors parameterized as log sigma^2."""
    batch = mu.shape[0]
    term = 1.0 + logvar - mu.square() - logvar.exp()
    return term.sum() * (-0.5 / batch)


# -- scalar scores -----------------------------------------------------------------


def uncertainty_score(post, space: str = "analytic") -> UncertaintyScore:
    """Reduce a posterior to a single nonnegative uncertainty value.

    MC dropout: mean over classes of the per-class probability variance.
    Variational: mean predicted sigma^2 (logit space) in ``analytic`` mode;
    in ``sampled`` mode the draws are pushed through softmax and scored like
    MC dropout.
    """
    if isinstance(post, PosteriorSamples):
        return UncertaintyScore(float(variance_score(post.samples)), "mc-dropout")
    if isinstance(post, VariationalOutput):
        if space == "analytic":
            return UncertaintyScore(float(post.sigma2.mean()), "variational-analytic")
        if space == "sampled":
            if post.samples is None or len(post.samples) < 2:
                raise ValueError("sampled scoring needs at least 2 reparameterized draws")
            return UncertaintyScore(float(variance_score(np_softmax(post.samples))),
                                    "variational-sampled")
        raise ValueError(f"unknown scoring space {space!r}")
    raise TypeError(f"cannot score {type(post).__name__}")


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
