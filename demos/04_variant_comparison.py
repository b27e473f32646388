"""All four variants side by side on the same data, plus figure export.

Run: python demos/04_variant_comparison.py   (~2 minutes)
Writes comparison.csv and per-variant SVGs under demos/out/.
"""

import os

from uqnet import (
    EvalConfig, SplitSpec, TrainConfig, OptimizerConfig,
    compare_variants, mlp_spec, split, synth_blobs,
)
from uqnet.artifacts import write_comparison_csv, write_report_figures

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)


def make_splits(seed):
    ds = synth_blobs(2000, 4, overlap=0.4, dim=2, seed=seed)
    return split(ds, SplitSpec(0.7, 0.15, 0.15, seed=seed))


def make_spec(variant):
    return mlp_spec(2, variant=variant, hidden=64)


train_cfg = TrainConfig(OptimizerConfig("adam", lr=1e-3), epochs=20, batch_size=64, beta=0.01)
eval_cfg = EvalConfig(T=100, S=100)

rows, runs = compare_variants(make_splits, make_spec, train_cfg, eval_cfg, seeds=[0])

print(f"{'variant':12s} {'acc':>6s} {'macroF1':>8s} {'U_true':>9s} {'U_false':>9s} {'R':>6s}")
for row in rows:
    ratio = "  -" if row.ratio is None else f"{row.ratio:6.2f}"
    print(f"{row.variant:12s} {row.accuracy:6.3f} {row.macro_f1:8.3f} "
          f"{row.mean_uncertainty_correct:9.4f} {row.mean_uncertainty_incorrect:9.4f} {ratio}")

write_comparison_csv(rows, os.path.join(OUT, "comparison.csv"))
for run in runs:
    write_report_figures(run.report,
                         os.path.join(OUT, f"uncertainty_box_{run.variant}.svg"),
                         os.path.join(OUT, f"uncertainty_hist_{run.variant}.svg"),
                         title_suffix=f" ({run.variant})")
print(f"\nwrote comparison.csv and figures to {OUT}")
print("(the baseline row's uncertainty column is predictive entropy; it has "
      "no sampling mechanism, so its ratio is not comparable to the others)")
