"""Command-line pipeline: generate, train, evaluate, compare.

Every run is driven by a :class:`~uqnet.config.RunConfig`; ``--config``
loads one from a file and explicit flags override it. All outputs land
under the configured output directory, and the resolved configuration is
written there as ``run_config.cfg`` so the run can be repeated exactly.

Exit codes: 0 when every requested artifact was written, 2 for usage
errors, 1 for any other failure; failures print one machine-parsable
``error: ...`` line on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace

from . import artifacts
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import SECTIONS, RunConfig
from .data import DataError, save_csv, save_idx
from .evaluate import compare_variants, evaluate
from .layers import VARIANTS, build_model
from .tensor import NonFiniteError
from .train import TrainingDivergedError, train

USAGE_EXIT = 2
FAILURE_EXIT = 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one parsable line instead of usage dump
        print(f"error: {message}", file=sys.stderr)
        sys.exit(USAGE_EXIT)


def _unit_float(raw: str) -> float:
    v = float(raw)
    if not (0.0 <= v <= 1.0):
        raise argparse.ArgumentTypeError(f"value must lie in [0, 1], got {raw}")
    return v


def _mc_passes(raw: str) -> int:
    v = int(raw)
    if v < 2:
        raise argparse.ArgumentTypeError(f"T must be >= 2, got {raw}")
    return v


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="uqnet", description="Train small classifiers and measure "
                                               "whether misclassified inputs carry higher "
                                               "predictive uncertainty.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="run configuration file")
        p.add_argument("--seed", type=int, help="master seed for data, init, training, eval")
        p.add_argument("--out", help="output directory (all artifacts land here)")

    def dataset_flags(p):
        p.add_argument("--kind", choices=["blobs", "textures", "csv", "idx"])
        p.add_argument("--n", type=int, help="number of synthetic examples")
        p.add_argument("--classes", type=int)
        p.add_argument("--overlap", type=_unit_float, help="blobs: cluster overlap in [0, 1]")
        p.add_argument("--dim", type=int, help="blobs: input dimension")
        p.add_argument("--noise", type=float, help="textures: pixel noise level")
        p.add_argument("--size", type=int, help="textures: image side length")
        p.add_argument("--csv", dest="csv_path", help="csv dataset path")
        p.add_argument("--images", dest="images_path", help="idx images path")
        p.add_argument("--labels", dest="labels_path", help="idx labels path")
        p.add_argument("--label-column", dest="label_column")
        p.add_argument("--train-frac", dest="train_frac", type=float)
        p.add_argument("--val-frac", dest="val_frac", type=float)
        p.add_argument("--test-frac", dest="test_frac", type=float)

    def model_flags(p):
        p.add_argument("--variant", choices=list(VARIANTS))
        p.add_argument("--backbone", choices=["mlp", "miniresnet"])
        p.add_argument("--dropout", type=float, help="dropout rate p in [0, 1)")
        p.add_argument("--hidden", type=int, help="mlp hidden width")

    def training_flags(p):
        p.add_argument("--optimizer", choices=["adam", "sgd-momentum"])
        p.add_argument("--lr", type=float)
        p.add_argument("--momentum", type=float)
        p.add_argument("--epochs", type=int)
        p.add_argument("--batch-size", dest="batch_size", type=int)
        p.add_argument("--beta", type=float, help="KLD weight for the variational loss")

    def uncertainty_flags(p):
        p.add_argument("--T", type=_mc_passes, help="MC dropout passes (>= 2)")
        p.add_argument("--S", type=int, help="variational reparameterized draws")
        p.add_argument("--space", choices=["analytic", "sampled"],
                       help="variational uncertainty space")
        p.add_argument("--workers", type=int, help="threads for MC passes")

    p = sub.add_parser("generate", help="write a synthetic dataset to disk")
    common(p)
    dataset_flags(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train one variant and write a checkpoint")
    common(p)
    dataset_flags(p)
    model_flags(p)
    training_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on the test split")
    common(p)
    dataset_flags(p)
    uncertainty_flags(p)
    p.add_argument("--checkpoint", help="checkpoint file (default: <out>/checkpoint.bin)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="train and evaluate all four variants")
    common(p)
    dataset_flags(p)
    model_flags(p)
    training_flags(p)
    uncertainty_flags(p)
    p.add_argument("--seeds", type=int, default=None,
                   help="number of seeds (seed, seed+1, ...); default 1")
    p.add_argument("--checkpoint-dir", dest="checkpoint_dir",
                   help="evaluate existing <dir>/<variant>.bin checkpoints instead of training")
    p.set_defaults(func=cmd_compare)
    return parser


# -- config assembly -------------------------------------------------------------


def resolve_config(args, base: RunConfig | None = None) -> RunConfig:
    """The keys of the config file (if any) layered over ``base`` (default:
    the defaults), then flags on top."""
    cfg = base or RunConfig()
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = cfg.with_text(fh.read())
    flags: dict[str, dict[str, str]] = {"run": {}}
    if getattr(args, "seed", None) is not None:
        flags["run"]["seed"] = str(args.seed)
    if getattr(args, "out", None):
        flags["run"]["out"] = args.out
    for section in SECTIONS:
        names = (f.name for f in fields(getattr(cfg, section)))
        flags[section] = {key: str(getattr(args, key)) for key in names
                          if getattr(args, key, None) is not None}
    return cfg.with_overrides(flags)


def _prepare_out(cfg: RunConfig) -> str:
    os.makedirs(cfg.out, exist_ok=True)
    cfg.to_file(os.path.join(cfg.out, "run_config.cfg"))
    return cfg.out


# -- commands ---------------------------------------------------------------------


def cmd_generate(args) -> int:
    cfg = resolve_config(args)
    if cfg.dataset.kind not in ("blobs", "textures"):
        raise ValueError(f"generate supports synthetic kinds (blobs, textures), "
                         f"got {cfg.dataset.kind!r}")
    ds = cfg.make_dataset()
    out = _prepare_out(cfg)
    if cfg.dataset.kind == "blobs":
        path = os.path.join(out, "dataset.csv")
        save_csv(ds, path)
        written = [path]
    else:
        images = os.path.join(out, "images.idx")
        labels = os.path.join(out, "labels.idx")
        save_idx(ds, images, labels)
        written = [images, labels]
    balance = " ".join(f"{name}:{count}" for name, count in
                       zip(ds.class_names, ds.class_counts()))
    print(f"generated {ds.n} examples, {ds.n_classes} classes ({balance})")
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_train(args) -> int:
    cfg = resolve_config(args)
    train_ds, val_ds, _ = cfg.make_splits()
    spec = cfg.make_spec(train_ds.input_shape)
    params = build_model(spec, cfg.seed)
    result = train(params, spec, train_ds, val_ds, cfg.train_config(), cfg.seed)

    out = _prepare_out(cfg)
    ckpt = os.path.join(out, "checkpoint.bin")
    meta = {
        "seed": cfg.seed,
        "epochs": cfg.training.epochs,
        "final_loss": result.final_train_loss,
        "best_epoch": result.best_epoch,
        "variant": spec.variant,
        "config": cfg.to_text(),
    }
    save_checkpoint(ckpt, spec, result.params, meta)
    artifacts.write_train_log_csv(result.log, os.path.join(out, "train_log.csv"))
    val = [s for s in result.log if s.split == "val"][result.best_epoch]
    print(f"trained {spec.variant} for {cfg.training.epochs} epochs; "
          f"best val accuracy {val.accuracy:.4f} at epoch {result.best_epoch}")
    print(f"wrote {ckpt}")
    return 0


def cmd_evaluate(args) -> int:
    flags_cfg = resolve_config(args)
    ckpt_path = args.checkpoint or os.path.join(flags_cfg.out, "checkpoint.bin")
    spec, params, meta = load_checkpoint(ckpt_path)

    base = RunConfig.from_text(meta["config"]) if "config" in meta else RunConfig()
    cfg = resolve_config(args, base=base)
    _, _, test_ds = cfg.make_splits()
    metrics, report = evaluate(params, spec, test_ds, cfg.eval_config())

    out = _prepare_out(cfg)
    artifacts.write_metrics_csv(metrics, report, os.path.join(out, "metrics.csv"))
    artifacts.write_per_example_csv(report, os.path.join(out, "per_example.csv"))
    artifacts.write_histogram_csv(report, os.path.join(out, "histogram.csv"))
    artifacts.write_report_figures(report, os.path.join(out, "uncertainty_box.svg"),
                                   os.path.join(out, "uncertainty_hist.svg"),
                                   title_suffix=f" ({spec.variant})")
    ratio = "undefined" if report.ratio is None else f"{report.ratio:.3f}"
    print(f"evaluated {spec.variant} on {test_ds.n} examples: "
          f"accuracy {metrics.accuracy:.4f}, uncertainty ratio {ratio}")
    print(f"wrote {out}/metrics.csv per_example.csv histogram.csv "
          f"uncertainty_box.svg uncertainty_hist.svg")
    return 0


def cmd_compare(args) -> int:
    cfg = resolve_config(args)
    n_seeds = args.seeds or 1
    seeds = [cfg.seed + i for i in range(n_seeds)]
    out = _prepare_out(cfg)

    if args.checkpoint_dir:
        rows, reports = _compare_from_checkpoints(cfg, args.checkpoint_dir)
    else:
        def make_splits(seed):
            return replace(cfg, seed=seed).make_splits()

        probe = cfg.make_dataset()

        def make_spec(variant):
            return cfg.make_spec(probe.input_shape, variant)

        rows, runs = compare_variants(make_splits, make_spec, cfg.train_config(),
                                      cfg.eval_config(), seeds)
        reports = {run.variant: run.report for run in runs if run.seed == seeds[0]}

    artifacts.write_comparison_csv(rows, os.path.join(out, "comparison.csv"))
    for variant, report in reports.items():
        artifacts.write_histogram_csv(report, os.path.join(out, f"histogram_{variant}.csv"))
        artifacts.write_report_figures(
            report, os.path.join(out, f"uncertainty_box_{variant}.svg"),
            os.path.join(out, f"uncertainty_hist_{variant}.svg"),
            title_suffix=f" ({variant})")
    for row in rows:
        ratio = "undefined" if row.ratio is None else f"{row.ratio:.3f}"
        print(f"{row.variant:12s} seed={row.seed:6s} accuracy={row.accuracy:.4f} "
              f"macro_f1={row.macro_f1:.4f} ratio={ratio}")
    print(f"wrote {out}/comparison.csv")
    return 0


def _compare_from_checkpoints(cfg: RunConfig, ckpt_dir: str):
    from .evaluate import make_comparison_row
    rows = []
    reports = {}
    for variant in VARIANTS:
        path = os.path.join(ckpt_dir, f"{variant}.bin")
        if not os.path.exists(path):
            raise FileNotFoundError(f"missing checkpoint for variant {variant!r}: {path}")
        spec, params, meta = load_checkpoint(path)
        base = RunConfig.from_text(meta["config"]) if "config" in meta else cfg
        _, _, test_ds = base.make_splits()
        metrics, report = evaluate(params, spec, test_ds, cfg.eval_config())
        rows.append(make_comparison_row(variant, str(base.seed), metrics, report))
        reports[variant] = report
    return rows, reports


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, TypeError, KeyError, OSError, CheckpointError, DataError,
            TrainingDivergedError, NonFiniteError) as e:
        print(f"error: {e}", file=sys.stderr)
        return FAILURE_EXIT


if __name__ == "__main__":
    sys.exit(main())
