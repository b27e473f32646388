"""Uncertainty-separation report: scores joined with correctness.

The report splits per-example uncertainty scores into the correctly and
incorrectly predicted groups and summarizes them with group means, their
ratio R = mean(incorrect) / mean(correct), quartiles, and a shared-bin
relative-frequency histogram, which is the evidence format for the claim
that misclassified inputs carry higher predictive uncertainty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HISTOGRAM_BINS = 30


@dataclass(frozen=True)
class GroupSummary:
    count: int
    mean: float
    quartiles: tuple[float, float, float, float, float]  # min, q1, median, q3, max


@dataclass
class UncertaintyReport:
    method: str                       # scoring method tag for the score column
    y_true: np.ndarray                # [N]
    y_pred: np.ndarray                # [N]
    scores: np.ndarray                # [N] uncertainty score per example
    entropies: np.ndarray             # [N] predictive entropy per example
    correct_group: GroupSummary | None
    incorrect_group: GroupSummary | None
    ratio: float | None               # None marks "undefined" (an empty group)
    hist_edges: np.ndarray            # [HISTOGRAM_BINS + 1], shared by both groups
    hist_correct: np.ndarray          # [HISTOGRAM_BINS] relative frequencies
    hist_incorrect: np.ndarray

    @property
    def mean_uncertainty_correct(self) -> float | None:
        return self.correct_group.mean if self.correct_group else None

    @property
    def mean_uncertainty_incorrect(self) -> float | None:
        return self.incorrect_group.mean if self.incorrect_group else None


def _summarize(values: np.ndarray) -> GroupSummary | None:
    if values.size == 0:
        return None
    q = np.quantile(values, [0.0, 0.25, 0.5, 0.75, 1.0])
    return GroupSummary(int(values.size), float(values.mean()), tuple(float(v) for v in q))


def build_report(y_true, y_pred, scores, entropies, method: str) -> UncertaintyReport:
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    entropies = np.asarray(entropies, dtype=np.float64)
    n = y_true.size
    if not (y_pred.size == scores.size == entropies.size == n):
        raise ValueError("per-example arrays must have equal length")
    if n == 0:
        raise ValueError("cannot report on an empty evaluation set")
    if not np.isfinite(scores).all():
        raise ValueError("uncertainty scores must be finite")
    if not np.isfinite(entropies).all():
        raise ValueError("entropies must be finite")
    if scores.min() < 0:
        raise ValueError("uncertainty scores must be nonnegative")

    correct = y_true == y_pred
    s_correct = scores[correct]
    s_incorrect = scores[~correct]

    ratio: float | None = None
    if s_correct.size and s_incorrect.size:
        u_t = float(s_correct.mean())
        u_f = float(s_incorrect.mean())
        ratio = math.inf if u_t == 0.0 and u_f > 0.0 else (None if u_t == 0.0 else u_f / u_t)

    hi = float(scores.max())
    if hi <= 0.0:
        hi = 1.0  # degenerate all-zero scores: keep well-formed bins
    edges = np.linspace(0.0, hi, HISTOGRAM_BINS + 1)

    def rel_freq(values: np.ndarray) -> np.ndarray:
        if values.size == 0:
            return np.zeros(HISTOGRAM_BINS)
        counts, _ = np.histogram(values, bins=edges)
        return counts / values.size

    return UncertaintyReport(
        method=method,
        y_true=y_true,
        y_pred=y_pred,
        scores=scores,
        entropies=entropies,
        correct_group=_summarize(s_correct),
        incorrect_group=_summarize(s_incorrect),
        ratio=ratio,
        hist_edges=edges,
        hist_correct=rel_freq(s_correct),
        hist_incorrect=rel_freq(s_incorrect),
    )
