"""CSV and SVG artifact writers with stable, documented schemas.

All numeric cells use ``repr`` of the float value, which round-trips
exactly: re-running a pipeline with the same config yields byte-identical
files.

Schemas:

* metrics.csv      -- metric,class,value (per-class rows, ``macro`` rows,
                      whole-set rows with an empty class column)
* per_example.csv  -- id,true,predicted,correct,score,entropy
* histogram.csv    -- bin_lo,bin_hi,freq_correct,freq_incorrect
* comparison.csv   -- variant,seed,accuracy,macro_precision,macro_recall,
                      macro_f1,mean_uncertainty_correct,
                      mean_uncertainty_incorrect,ratio
* train_log.csv    -- epoch,split,total,cross_entropy,kld,accuracy; the
                      ``train`` row is the example-weighted mean of the
                      epoch's step objectives (dropout and noise on), the
                      ``val`` row a deterministic pass; they are not comparable

An undefined ratio (a group is empty) is written as ``undefined``.
"""

from __future__ import annotations

import math
from dataclasses import fields

from .evaluate import ComparisonRow
from .metrics import ClassificationMetrics
from .report import UncertaintyReport
from .svg import boxplot_svg, histogram_svg
from .train import EpochStats


def _cell(v) -> str:
    if v is None:
        return "undefined"
    if isinstance(v, float):
        if math.isinf(v):
            return "inf"
        return repr(v)
    return str(v)


def write_metrics_csv(metrics: ClassificationMetrics, report: UncertaintyReport, path: str) -> None:
    rows = [("metric", "class", "value")]
    c = metrics.confusion.shape[0]
    for name, values in (("precision", metrics.precision), ("recall", metrics.recall),
                         ("f1", metrics.f1)):
        for k in range(c):
            rows.append((name, str(k), _cell(float(values[k]))))
        rows.append((name, "macro", _cell(float(values.mean()))))
    rows.append(("accuracy", "", _cell(metrics.accuracy)))
    for i in range(c):
        for j in range(c):
            rows.append((f"confusion_{i}_{j}", "", str(int(metrics.confusion[i, j]))))
    rows.append(("mean_uncertainty_correct", "", _cell(report.mean_uncertainty_correct)))
    rows.append(("mean_uncertainty_incorrect", "", _cell(report.mean_uncertainty_incorrect)))
    rows.append(("uncertainty_ratio", "", _cell(report.ratio)))
    rows.append(("uncertainty_method", "", report.method))
    _write(path, rows)


def write_per_example_csv(report: UncertaintyReport, path: str) -> None:
    rows = [("id", "true", "predicted", "correct", "score", "entropy")]
    for i in range(len(report.y_true)):
        true, pred = int(report.y_true[i]), int(report.y_pred[i])
        rows.append((str(i), str(true), str(pred), str(int(true == pred)),
                     _cell(float(report.scores[i])), _cell(float(report.entropies[i]))))
    _write(path, rows)


def write_histogram_csv(report: UncertaintyReport, path: str) -> None:
    rows = [("bin_lo", "bin_hi", "freq_correct", "freq_incorrect")]
    for b in range(len(report.hist_correct)):
        rows.append((_cell(float(report.hist_edges[b])), _cell(float(report.hist_edges[b + 1])),
                     _cell(float(report.hist_correct[b])), _cell(float(report.hist_incorrect[b]))))
    _write(path, rows)


def write_comparison_csv(rows_in: list[ComparisonRow], path: str) -> None:
    names = [f.name for f in fields(ComparisonRow)]
    _write(path, [names] + [[_cell(getattr(r, name)) for name in names] for r in rows_in])


def write_train_log_csv(log: list[EpochStats], path: str) -> None:
    rows = [("epoch", "split", "total", "cross_entropy", "kld", "accuracy")]
    for s in log:
        rows.append((str(s.epoch), s.split, _cell(s.loss.total), _cell(s.loss.cross_entropy),
                     _cell(s.loss.kld), _cell(s.accuracy)))
    _write(path, rows)


def write_report_figures(report: UncertaintyReport, box_path: str, hist_path: str,
                         title_suffix: str = "") -> None:
    groups = []
    for label, summary in (("true", report.correct_group), ("false", report.incorrect_group)):
        if summary is not None:
            groups.append((label, summary.quartiles))
    with open(box_path, "w", encoding="utf-8") as fh:
        fh.write(boxplot_svg(groups, f"uncertainty by correctness{title_suffix}"))
    series = [("true", report.hist_correct), ("false", report.hist_incorrect)]
    with open(hist_path, "w", encoding="utf-8") as fh:
        fh.write(histogram_svg(report.hist_edges, series,
                               f"uncertainty distribution{title_suffix}"))


def _write(path: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(",".join(row) + "\n")
