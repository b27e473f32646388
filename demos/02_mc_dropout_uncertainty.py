"""Monte Carlo dropout: sample a label posterior by keeping dropout on at
evaluation time, then check that errors carry more uncertainty.

Run: python demos/02_mc_dropout_uncertainty.py   (~1 minute)
"""

import numpy as np

from uqnet import (
    EvalConfig, SplitSpec, TrainConfig, OptimizerConfig,
    build_model, evaluate, mc_predict, mlp_spec, split, synth_blobs, train,
    uncertainty_score,
)

SEED = 0
print("== train a dropout classifier on 4 overlapping Gaussian clusters ==")
ds = synth_blobs(3000, 4, overlap=0.4, dim=2, seed=SEED)
tr, va, te = split(ds, SplitSpec(0.7, 0.15, 0.15, seed=SEED))
spec = mlp_spec(2, variant="bayesian1", hidden=64)
params = build_model(spec, SEED)
cfg = TrainConfig(OptimizerConfig("adam", lr=1e-3), epochs=20, batch_size=64)
result = train(params, spec, tr, va, cfg, SEED)
val = [s for s in result.log if s.split == "val"][result.best_epoch]
print(f"best val accuracy {val.accuracy:.3f} at epoch {result.best_epoch}")

print("\n== posterior for an easy point vs a boundary point ==")
c0 = ds.inputs[ds.labels == 0].mean(axis=0)
c1 = ds.inputs[ds.labels == 1].mean(axis=0)
for name, x in (("easy", c0), ("boundary", (c0 + c1) / 2.0)):
    post = mc_predict(result.params, spec, x, T=100, seed=SEED)
    print(f"{name:9s} mean probs {np.round(post.mean, 3)}  "
          f"uncertainty {uncertainty_score(post):.4f}")

print("\n== uncertainty split by correctness over the test set ==")
metrics, report = evaluate(result.params, spec, te, EvalConfig(T=100, seed=SEED))
print(f"test accuracy {metrics.accuracy:.3f}")
print(f"mean uncertainty correct   {report.mean_uncertainty_correct:.4f}")
print(f"mean uncertainty incorrect {report.mean_uncertainty_incorrect:.4f}")
print(f"ratio R (incorrect / correct) = {report.ratio:.2f}")
