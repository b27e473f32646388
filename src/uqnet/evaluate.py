"""Test-set evaluation and the four-variant comparison.

A sampling variant's predictions and scores are its test-set posterior's
``predicted_label`` (argmax of the MC-mean probabilities, or of the
predicted mean) and :func:`uqnet.uncertainty.uncertainty_score`: the rules
that score one example. The baseline predicts the argmax of its softmax
probabilities (rounding in the softmax can tie two classes whose logits
differ, so this is not always the argmax of the logits); it has no
sampling mechanism, so its score column carries predictive entropy and is
excluded from ratio comparisons against the sampling variants.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .data import Dataset
from .layers import MC_VARIANTS, VARIANTS, ModelParams, ModelSpec, build_model, eval_heads
from .metrics import ClassificationMetrics
from .report import UncertaintyReport, build_report
from .train import TrainConfig, TrainResult, train
from .uncertainty import (
    PosteriorSamples,
    VariationalOutput,
    _batched_eval_noise,   # unused here; perfbench/tracer.py times it under this module
    mc_probs,
    np_softmax,
    predictive_entropy,
    sampled_scores,
    uncertainty_score,
    variational_outputs,
)

SPACES = ("sampled",)   # the one legal value of EvalConfig.space


@dataclass(frozen=True)
class EvalConfig:
    T: int = 100          # MC dropout passes
    S: int = 100          # variational draws
    seed: int = 0
    space: str = "sampled"    # variational scoring: the variance of the S draws
    workers: int = 1

    def __post_init__(self):
        if self.T < 2:
            raise ValueError(f"T must be >= 2, got {self.T}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.space not in SPACES:
            raise ValueError(f"unknown scoring space {self.space!r}, expected one of {SPACES}")
        if self.S < 2:
            raise ValueError(f"variational scoring needs S >= 2, got {self.S}")


def evaluate(params: ModelParams, spec: ModelSpec, test: Dataset,
             cfg: EvalConfig = EvalConfig()) -> tuple[ClassificationMetrics, UncertaintyReport]:
    """Classification metrics plus the uncertainty-separation report."""
    if test.n_classes != spec.n_classes:
        raise ValueError(f"dataset has {test.n_classes} classes, model expects {spec.n_classes}")
    x = test.inputs

    if spec.variant == "baseline":
        probs = np_softmax(eval_heads(params, spec, x)[0])
        pred, method = probs.argmax(axis=1), "entropy"
        scores = entropies = predictive_entropy(probs)
    else:
        if spec.variant in MC_VARIANTS:
            post = PosteriorSamples(mc_probs(params, spec, x, cfg.T, cfg.seed, cfg.workers))
            probs, method, scores = post.mean, "mc-dropout", uncertainty_score(post)
        else:
            mu, sigma2 = variational_outputs(params, spec, x)              # [N, C] each
            post = VariationalOutput(mu, sigma2)
            probs, method = np_softmax(mu), "variational-sampled"
            scores = sampled_scores(mu, sigma2, cfg.S, cfg.seed)
        pred, entropies = post.predicted_label, predictive_entropy(probs)

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
                     seeds, variants=VARIANTS) -> tuple[list[ComparisonRow], list[VariantRun]]:
    """Train and evaluate every variant on shared per-seed splits.

    ``make_splits(seed)`` returns (train, val, test) datasets and
    ``make_spec(variant)`` the architecture; each seed drives data,
    initialization, and training randomness for all variants alike.
    Returns one row per (variant, seed) plus mean/range aggregate rows per
    variant when several seeds are given.
    """
    seeds, variants = list(seeds), list(variants)
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
                def stat(name):   # undefined unless every seed's value is finite
                    values = [getattr(r, name) for r in group]
                    vals = [v for v in values if v is not None and np.isfinite(v)]
                    return float(agg(vals)) if len(vals) == len(values) else None
                rows.append(ComparisonRow(variant, tag, *(
                    stat(f.name) for f in fields(ComparisonRow)[2:])))
    return rows, runs
