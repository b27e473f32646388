"""Minibatch training with per-epoch logging and best-validation selection."""

from __future__ import annotations

from dataclasses import dataclass, field

from . import rng as _rng
from .data import Dataset
from .layers import ModelParams, ModelSpec, body_forward, eval_heads, head_forward
from .losses import LossBreakdown, objective
from .optim import OptimizerConfig
from .tensor import NonFiniteError, Tensor, _check_deferred, _deferred_checks


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite; carries the offending step and epoch."""

    def __init__(self, step: int, epoch: int, detail: str):
        super().__init__(f"training diverged at step {step} (epoch {epoch}): {detail}")
        self.step = step
        self.epoch = epoch


@dataclass(frozen=True)
class TrainConfig:
    optimizer: OptimizerConfig = OptimizerConfig()
    epochs: int = 20
    batch_size: int = 64
    beta: float = 0.01  # KLD weight for the variational variant

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.beta < 0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    split: str  # "train" | "val"
    loss: LossBreakdown
    accuracy: float


@dataclass
class TrainResult:
    params: ModelParams          # best-validation snapshot
    log: list[EpochStats] = field(default_factory=list)
    best_epoch: int = 0
    # total of the last epoch's train row: the mean step objective with
    # dropout and noise on, as the steps saw it before each update
    final_train_loss: float = float("nan")


def _deterministic_eval(params: ModelParams, spec: ModelSpec, ds: Dataset,
                        beta: float) -> tuple[LossBreakdown, float]:
    """Loss and accuracy with dropout off; variational CE is taken at eps = 0.

    Called once per epoch, on the validation split. The forward runs in row
    blocks; the losses are taken over the whole split.
    """
    out, logvar = eval_heads(params, spec, ds.inputs)
    _, breakdown = objective(out, logvar, ds.labels, beta, 0.0)
    return breakdown, float((out.argmax(axis=1) == ds.labels).mean())


def train(params: ModelParams, spec: ModelSpec, train_ds: Dataset, val_ds: Dataset,
          cfg: TrainConfig, seed: int) -> TrainResult:
    """Train in place; return the best-validation parameter snapshot and log.

    Each epoch logs two rows. The ``train`` row is the example-weighted mean
    of the epoch's step objectives (dropout on, reparameterization noise on,
    accuracy from the step's logits or ``mu``), taken before each update; it
    is not comparable to the ``val`` row, which :func:`_deterministic_eval`
    computes with dropout off and eps = 0 and which alone selects the best
    epoch.

    Fully deterministic in (initial params, datasets, cfg, seed): batch
    order, dropout masks, and reparameterization noise all come from
    streams keyed by the seed and the step/epoch index. Each step's ops skip
    their own finite checks; the step's loss and parameter gradients are
    checked once before the update (``tensor._check_deferred``). A failure
    runs the step's forward again with per-op checks, on the same
    parameters, batch, dropout masks and noise, and raises
    :class:`TrainingDivergedError` naming the first non-finite op, or else
    the first parameter whose gradient went non-finite in the backward.
    """
    if spec.input_shape != train_ds.input_shape:
        raise ValueError(f"model expects inputs {spec.input_shape}, "
                         f"dataset provides {train_ds.input_shape}")
    if train_ds.n_classes != spec.n_classes:
        raise ValueError(f"dataset has {train_ds.n_classes} classes, "
                         f"model expects {spec.n_classes}")

    opt = cfg.optimizer.build(params)
    result = TrainResult(params=params)   # epoch 0 replaces it with a snapshot
    best_key: tuple[float, float] | None = None  # (accuracy, -loss), earliest epoch wins ties
    step = 0

    for epoch in range(cfg.epochs):
        ce_sum = kld_sum = 0.0   # example-weighted sums over the epoch's steps
        correct = 0
        order = _rng.stream(seed, _rng.NS_TRAIN_SHUFFLE, epoch).permutation(train_ds.n)
        for lo in range(0, train_ds.n, cfg.batch_size):
            idx = order[lo:lo + cfg.batch_size]
            y = train_ds.labels[idx]

            def forward():
                x = Tensor(train_ds.inputs[idx])
                pass_rng = _rng.PassRng(seed, step, _rng.NS_TRAIN_DROPOUT)
                out, logvar = head_forward(params, spec, body_forward(params, spec, x, pass_rng))
                eps = (None if logvar is None else
                       _rng.stream(seed, _rng.NS_TRAIN_NOISE, step).standard_normal(out.shape))
                return (out, logvar, *objective(out, logvar, y, cfg.beta, eps))

            # Rebinding out and loss frees the previous step's graph only
            # here, so two graphs coexist during this forward. Dropping it
            # after opt.step() (loss = out = None) lowered the peak RSS,
            # but glibc then trimmed and refaulted the heap every step:
            # on the benchmark's conv-train, 114k-137k minor faults per
            # training against 8k, and 10-20 % more train time.
            with _deferred_checks():
                out, logvar, loss, breakdown = forward()
                opt.zero_grad()
                loss.backward()
            try:
                _check_deferred([("loss", loss.data),
                                 *((f"gradient of {name!r}", t.grad) for name, t in params.tensors.items()
                                   if t.grad is not None)], forward)
            except NonFiniteError as e:
                raise TrainingDivergedError(step, epoch, str(e)) from e
            ce_sum += breakdown.cross_entropy * len(idx)
            kld_sum += breakdown.kld * len(idx)
            correct += int((out.data.argmax(axis=1) == y).sum())
            opt.step()
            step += 1

        ce, kld = ce_sum / train_ds.n, kld_sum / train_ds.n
        train_loss = (LossBreakdown.plain(ce) if logvar is None
                      else LossBreakdown.compose(ce, kld, cfg.beta))
        val_loss, val_acc = _deterministic_eval(params, spec, val_ds, cfg.beta)
        result.log.append(EpochStats(epoch, "train", train_loss, correct / train_ds.n))
        result.log.append(EpochStats(epoch, "val", val_loss, val_acc))
        result.final_train_loss = train_loss.total

        key = (val_acc, -val_loss.total)
        if best_key is None or key > best_key:
            best_key = key
            result.params = params.copy()
            result.best_epoch = epoch

    return result
