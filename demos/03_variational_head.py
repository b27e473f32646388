"""The variational output head: a Gaussian over class scores, trained with
one reparameterized sample per step plus an analytic KL-divergence pull
toward N(0, I).

Run: python demos/03_variational_head.py   (~1 minute)
"""

import numpy as np

from uqnet import (
    EvalConfig, SplitSpec, TrainConfig, OptimizerConfig,
    build_model, evaluate, kld, mlp_spec, reparameterized_samples, split,
    synth_blobs, train, variational_forward,
)

print("== the closed-form KL divergence ==")
print(f"kld(mu=0, s2=1)        = {kld(np.zeros(4), np.ones(4))}")
print(f"kld(mu=[1,0], s2=[1,1]) = {kld([1.0, 0.0], [1.0, 1.0])}")
print(f"kld(mu=0, s2=4)        = {kld([0.0], [4.0]):.4f}  "
      f"(= (4 - 1 - ln 4) / 2)")

print("\n== the reparameterization trick: y = mu + sigma * eps ==")
mu = np.array([1.0, 0.0, 0.0, 0.0])
s2 = np.array([0.04, 0.09, 0.25, 1.0])
draws = reparameterized_samples(mu, s2, 100_000, seed=1)
print(f"sample mean     {np.round(draws.mean(axis=0), 3)}  (target mu {mu})")
print(f"sample variance {np.round(draws.var(axis=0, ddof=1), 3)}  (target s2 {s2})")

SEED = 0
print("\n== train the variational variant ==")
ds = synth_blobs(3000, 4, overlap=0.4, dim=2, seed=SEED)
tr, va, te = split(ds, SplitSpec(0.7, 0.15, 0.15, seed=SEED))
spec = mlp_spec(2, variant="variational", hidden=64)
params = build_model(spec, SEED)
cfg = TrainConfig(OptimizerConfig("adam", lr=1e-3), epochs=20, batch_size=64, beta=0.01)
result = train(params, spec, tr, va, cfg, SEED)
last = [s for s in result.log if s.split == "train"][-1].loss
print(f"last epoch's mean step objective {last.total:.4f} = CE {last.cross_entropy:.4f} "
      f"+ beta {last.kld_weight} * KLD {last.kld:.4f}")

print("\n== head output for one input ==")
out = variational_forward(result.params, spec, te.inputs[0], S=5, seed=SEED)
print(f"mu      {np.round(out.mu, 3)}")
print(f"sigma^2 {np.round(out.sigma2, 3)}")
print(f"draws   {np.round(out.samples, 3)}")

print("\n== uncertainty: the variance of 100 draws pushed through softmax ==")
metrics, report = evaluate(result.params, spec, te, EvalConfig(S=100, seed=SEED))
ratio = "undefined" if report.ratio is None else f"{report.ratio:.2f}"
print(f"accuracy {metrics.accuracy:.3f}, ratio R = {ratio}")
