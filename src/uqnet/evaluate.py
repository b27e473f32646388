"""Test-set evaluation and the four-variant comparison.

Predictions follow the variant's rule: argmax of the MC-mean probabilities
for the dropout variants, argmax of the predicted mean for the variational
variant, argmax of the logits for the baseline. Uncertainty scores follow
:func:`uqnet.uncertainty.uncertainty_score`; the baseline has no sampling
mechanism, so its score column carries predictive entropy instead and is
excluded from ratio comparisons against the sampling variants.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset
from .layers import ModelParams, ModelSpec, build_model, model_forward
from .metrics import ClassificationMetrics
from .report import UncertaintyReport, build_report
from .tensor import no_grad
from .train import TrainConfig, TrainResult, train
from .uncertainty import (
    MC_VARIANTS,
    _batched_eval_noise,
    mc_probs,
    np_softmax,
    predictive_entropy,
    reparameterized_samples,
    variance_score,
    variational_outputs,
)


@dataclass(frozen=True)
class EvalConfig:
    T: int = 100          # MC dropout passes
    S: int = 100          # variational draws (sampled scoring mode)
    seed: int = 0
    space: str = "analytic"   # variational scoring: "analytic" | "sampled"
    workers: int = 1


def evaluate(params: ModelParams, spec: ModelSpec, test: Dataset,
             cfg: EvalConfig = EvalConfig()) -> tuple[ClassificationMetrics, UncertaintyReport]:
    """Classification metrics plus the uncertainty-separation report."""
    if test.n_classes != spec.n_classes:
        raise ValueError(f"dataset has {test.n_classes} classes, model expects {spec.n_classes}")
    x = test.inputs

    if spec.variant in MC_VARIANTS:
        passes = mc_probs(params, spec, x, cfg.T, cfg.seed, cfg.workers)   # [T, N, C]
        mean_probs = passes.mean(axis=0)
        scores = variance_score(passes)
        pred = mean_probs.argmax(axis=1)
        method = "mc-dropout"
    elif spec.variant == "variational":
        mu, sigma2 = variational_outputs(params, spec, x)                  # [N, C] each
        mean_probs = np_softmax(mu)
        pred = mu.argmax(axis=1)
        if cfg.space == "analytic":
            scores = sigma2.mean(axis=1)
            method = "variational-analytic"
        elif cfg.space == "sampled":
            if cfg.S < 2:
                raise ValueError("sampled scoring needs S >= 2")
            eps = _batched_eval_noise(cfg.seed, cfg.S, mu.shape)           # [S, N, C]
            draws = reparameterized_samples(mu, sigma2, cfg.S, cfg.seed, eps)
            scores = variance_score(np_softmax(draws))
            method = "variational-sampled"
        else:
            raise ValueError(f"unknown scoring space {cfg.space!r}")
    elif spec.variant == "baseline":
        with no_grad():
            logits = model_forward(params, spec, x)
        mean_probs = np_softmax(logits.data)
        pred = mean_probs.argmax(axis=1)
        scores = predictive_entropy(mean_probs)
        method = "entropy"
    else:
        raise ValueError(f"unknown variant {spec.variant!r}")

    entropies = scores if method == "entropy" else predictive_entropy(mean_probs)
    metrics = ClassificationMetrics.from_predictions(test.labels, pred, spec.n_classes)
    report = build_report(test.labels, pred, scores, entropies, method)
    return metrics, report


# -- variant comparison ---------------------------------------------------------


@dataclass(frozen=True)
class ComparisonRow:
    variant: str
    seed: str                 # seed number, or "mean" / "range" aggregate tags
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    mean_uncertainty_correct: float | None
    mean_uncertainty_incorrect: float | None
    ratio: float | None


@dataclass
class VariantRun:
    variant: str
    seed: int
    result: TrainResult
    metrics: ClassificationMetrics
    report: UncertaintyReport


def make_comparison_row(variant: str, seed: str, metrics: ClassificationMetrics,
                        report: UncertaintyReport) -> ComparisonRow:
    return ComparisonRow(
        variant, seed, metrics.accuracy, metrics.macro_precision, metrics.macro_recall,
        metrics.macro_f1, report.mean_uncertainty_correct, report.mean_uncertainty_incorrect,
        report.ratio,
    )


def compare_variants(make_splits, make_spec, train_cfg: TrainConfig, eval_cfg: EvalConfig,
                     seeds, variants=("baseline", "bayesian1", "bayesian2", "variational"),
                     ) -> tuple[list[ComparisonRow], list[VariantRun]]:
    """Train and evaluate every variant on shared per-seed splits.

    ``make_splits(seed)`` returns (train, val, test) datasets and
    ``make_spec(variant)`` the architecture; each seed drives data,
    initialization, and training randomness for all variants alike.
    Returns one row per (variant, seed) plus mean/range aggregate rows per
    variant when several seeds are given.
    """
    seeds = list(seeds)
    rows: list[ComparisonRow] = []
    runs: list[VariantRun] = []
    by_variant: dict[str, list[ComparisonRow]] = {v: [] for v in variants}

    for seed in seeds:
        train_ds, val_ds, test_ds = make_splits(seed)
        for variant in variants:
            spec = make_spec(variant)
            params = build_model(spec, seed)
            result = train(params, spec, train_ds, val_ds, train_cfg, seed)
            metrics, report = evaluate(result.params, spec, test_ds,
                                       replace(eval_cfg, seed=seed))
            runs.append(VariantRun(variant, seed, result, metrics, report))
            row = make_comparison_row(variant, str(seed), metrics, report)
            rows.append(row)
            by_variant[variant].append(row)

    if len(seeds) > 1:
        for variant in variants:
            group = by_variant[variant]
            for tag, agg in (("mean", np.mean), ("range", np.ptp)):
                def stat(values):
                    vals = [v for v in values if v is not None and np.isfinite(v)]
                    return float(agg(vals)) if len(vals) == len(values) else None
                rows.append(ComparisonRow(
                    variant, tag,
                    float(agg([r.accuracy for r in group])),
                    float(agg([r.macro_precision for r in group])),
                    float(agg([r.macro_recall for r in group])),
                    float(agg([r.macro_f1 for r in group])),
                    stat([r.mean_uncertainty_correct for r in group]),
                    stat([r.mean_uncertainty_incorrect for r in group]),
                    stat([r.ratio for r in group]),
                ))
    return rows, runs
