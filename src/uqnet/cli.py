"""Command-line pipeline: generate, train, evaluate, compare.

Every run is driven by a :class:`~uqnet.config.RunConfig`; ``--config``
loads one from a file and explicit flags override it. All outputs land
under the configured output directory, and the resolved configuration is
written there as ``run_config.cfg`` so the run can be repeated exactly.

Exit codes: 0 when every requested artifact was written; 2 when the parser
or the run configuration rejects the flags or ``--config``; 1 when the run
fails (data, checkpoint, model spec or training). A failure prints one
machine-parsable ``error: ...`` line on stderr and writes nothing.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import NoReturn

from . import artifacts
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import DATASET_KINDS, SECTIONS, RunConfig, read_config, saved_seed
from .data import DataError, save_csv, save_idx, splits_sha256
from .evaluate import SPACES, compare_variants, evaluate, make_comparison_row
from .layers import BACKBONES, VARIANTS, build_model
from .optim import OPTIMIZERS
from .tensor import NonFiniteError
from .train import TrainingDivergedError, train

USAGE_EXIT = 2
FAILURE_EXIT = 1


def _usage_error(message) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)   # one parsable line, no usage dump
    sys.exit(USAGE_EXIT)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _usage_error(message)


def _int_at_least(lo: int, name: str):
    def integer(raw: str) -> int:
        v = int(raw)
        if v < lo:
            raise argparse.ArgumentTypeError(f"{name} must be >= {lo}, got {raw}")
        return v
    return integer


# The commands and the config sections whose keys each takes as flags ([run] is
# taken by all). Each key is one flag, ``--`` + the key with ``_`` -> ``-``
# unless _FLAG_NAMES names it; its string goes through RunConfig.with_overrides,
# which parses a flag exactly as it parses the same key in a --config file.
COMMAND_SECTIONS = {
    "generate": ("dataset",),
    "train": ("dataset", "model", "training"),
    "evaluate": ("dataset", "uncertainty"),
    "compare": ("dataset", "model", "training", "uncertainty"),
}
_FLAG_NAMES = {"csv_path": "--csv", "images_path": "--images", "labels_path": "--labels"}
_CHOICES = {"kind": DATASET_KINDS, "variant": VARIANTS, "backbone": BACKBONES,
            "optimizer": OPTIMIZERS, "space": SPACES}
_HELP = {
    "seed": "master seed for data, init, training, eval",
    "out": "output directory (all artifacts land here)",
    "n": "number of synthetic examples",
    "overlap": "blobs: cluster overlap in [0, 1]",
    "dim": "blobs: input dimension",
    "noise": "textures: pixel noise level",
    "size": "textures: image side length",
    "csv_path": "csv dataset path",
    "images_path": "idx images path",
    "labels_path": "idx labels path",
    "dropout": "dropout rate p in [0, 1)",
    "hidden": "mlp hidden width",
    "beta": "KLD weight for the variational loss",
    "T": "MC dropout passes (>= 2)",
    "S": "variational reparameterized draws",
    "space": "variational scoring: the variance of the S softmaxed draws",
    "workers": "threads for MC passes",
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="uqnet", description="Train small classifiers and measure "
                                               "whether misclassified inputs carry higher "
                                               "predictive uncertainty.")
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = RunConfig()
    commands = {
        "generate": ("write a synthetic dataset to disk", cmd_generate),
        "train": ("train one variant and write a checkpoint", cmd_train),
        "evaluate": ("evaluate a checkpoint on the test split", cmd_evaluate),
        "compare": ("train and evaluate all four variants", cmd_compare),
    }
    for command, (help_text, func) in commands.items():
        p = sub.add_parser(command, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--config", help="run configuration file")
        for section in ("run",) + COMMAND_SECTIONS[command]:
            for key in defaults.section(section):
                flag = _FLAG_NAMES.get(key, "--" + key.replace("_", "-"))
                p.add_argument(flag, dest=key, choices=_CHOICES.get(key), help=_HELP.get(key))

    p = sub.choices["evaluate"]
    p.add_argument("--checkpoint", help="checkpoint file (default: <out>/checkpoint.bin)")
    p = sub.choices["compare"]
    # checkpoints carry their own seed; --seeds has no default value so that
    # argparse also refuses an explicit --seeds 1 beside --checkpoint-dir
    source = p.add_mutually_exclusive_group()
    source.add_argument("--seeds", type=_int_at_least(1, "seeds"),
                        help="number of seeds (seed, seed+1, ...); default 1")
    source.add_argument("--checkpoint-dir", dest="checkpoint_dir",
                        help="evaluate existing <dir>/<variant>.bin checkpoints "
                             "instead of training")
    return parser


# -- config assembly -------------------------------------------------------------


def resolve_config(args, saved: str | None = None) -> RunConfig:
    """The defaults, a checkpoint's ``saved`` config text (if any), the config file and
    the flags, layered in that order and validated once. A rejected value or unreadable
    config file is a usage error; over ``saved`` text the flags did not repair, it is raised."""
    try:
        text = Path(args.config).read_text(encoding="utf-8") if args.config else None
        return read_config(saved, text, {
            section: {key: getattr(args, key) for key in RunConfig().section(section)
                      if getattr(args, key, None) is not None}
            for section in SECTIONS})
    except (OSError, ValueError) as e:
        if saved is not None:
            raise
        _usage_error(e)


def _score_checkpoint(args, path: str, splits: dict):
    """Load and score the checkpoint at ``path``: it fixes the data, the flags the scoring.

    Its saved config, ``--config`` and the flags are layered in one call, so a flag
    repairs a saved value that no longer validates; a ValueError names ``path``. The
    saved ``run.seed`` (without a saved config, the resolved seed) regenerates the
    splits, which the stored digest checks; ``splits`` caches each split with its
    digest by (dataset, seed), so checkpoints sharing a split hash it once.
    Returns (resolved config, spec, data seed, metrics, report).
    """
    spec, params, meta = load_checkpoint(path)
    saved = meta.get("config")
    try:
        cfg = resolve_config(args, saved)
        seed = cfg.seed if saved is None else saved_seed(saved)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e
    key = (cfg.dataset, seed)
    if key not in splits:
        regenerated = replace(cfg, seed=seed).make_splits()
        splits[key] = regenerated, splits_sha256(regenerated)
    (_, _, test), digest = splits[key]
    trained = meta.get("dataset_sha256")   # absent from checkpoints older than the digest
    if trained is not None and digest != trained:
        raise DataError(f"{path}: the regenerated dataset splits differ from the ones "
                        f"the checkpoint was trained on (sha256 {digest[:12]}, "
                        f"trained on {trained[:12]})")
    metrics, report = evaluate(params, spec, test, cfg.eval_config())
    return cfg, spec, seed, metrics, report


def _write_report(report, out: str, variant: str, tag: str = "") -> None:
    """histogram<tag>.csv, uncertainty_box<tag>.svg and uncertainty_hist<tag>.svg."""
    artifacts.write_histogram_csv(report, os.path.join(out, f"histogram{tag}.csv"))
    artifacts.write_report_figures(report, os.path.join(out, f"uncertainty_box{tag}.svg"),
                                   os.path.join(out, f"uncertainty_hist{tag}.svg"),
                                   title_suffix=f" ({variant})")


def _ratio_text(ratio: float | None) -> str:
    return "undefined" if ratio is None else f"{ratio:.3f}"


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
    splits = cfg.make_splits()
    train_ds, val_ds, _ = splits
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
        "dataset_sha256": splits_sha256(splits),
    }
    save_checkpoint(ckpt, spec, result.params, meta)
    artifacts.write_train_log_csv(result.log, os.path.join(out, "train_log.csv"))
    val = [s for s in result.log if s.split == "val"][result.best_epoch]
    print(f"trained {spec.variant} for {cfg.training.epochs} epochs; "
          f"best val accuracy {val.accuracy:.4f} at epoch {result.best_epoch}")
    print(f"wrote {ckpt}")
    return 0


def cmd_evaluate(args) -> int:
    flags = resolve_config(args)   # a rejected flag is a usage error before any loading
    ckpt_path = args.checkpoint or os.path.join(flags.out, "checkpoint.bin")
    cfg, spec, _, metrics, report = _score_checkpoint(args, ckpt_path, {})

    out = _prepare_out(cfg)
    artifacts.write_metrics_csv(metrics, report, os.path.join(out, "metrics.csv"))
    artifacts.write_per_example_csv(report, os.path.join(out, "per_example.csv"))
    _write_report(report, out, spec.variant)
    print(f"evaluated {spec.variant} on {len(report.y_true)} examples: "
          f"accuracy {metrics.accuracy:.4f}, uncertainty ratio {_ratio_text(report.ratio)}")
    print(f"wrote {out}/metrics.csv per_example.csv histogram.csv "
          f"uncertainty_box.svg uncertainty_hist.svg")
    return 0


def cmd_compare(args) -> int:
    cfg = resolve_config(args)

    if args.checkpoint_dir:
        rows, reports, splits = [], {}, {}   # checkpoints of one run share one split
        for variant in VARIANTS:
            path = os.path.join(args.checkpoint_dir, f"{variant}.bin")
            if not os.path.exists(path):
                raise FileNotFoundError(f"missing checkpoint for variant {variant!r}: {path}")
            scored, _, seed, metrics, reports[variant] = _score_checkpoint(args, path, splits)
            if not rows:   # run_config.cfg describes the data the first checkpoint fixed
                cfg = replace(scored, seed=seed, out=cfg.out)
            rows.append(make_comparison_row(variant, str(seed), metrics, reports[variant]))
    else:
        first = cfg.make_splits()   # also gives the input shape

        def make_splits(seed):
            return first if seed == cfg.seed else replace(cfg, seed=seed).make_splits()

        def make_spec(variant):
            return cfg.make_spec(first[0].input_shape, variant)

        seeds = [cfg.seed + i for i in range(args.seeds or 1)]
        rows, runs = compare_variants(make_splits, make_spec, cfg.train_config(),
                                      cfg.eval_config(), seeds)
        reports = {run.variant: run.report for run in runs if run.seed == cfg.seed}

    out = _prepare_out(cfg)   # only once every variant is scored
    artifacts.write_comparison_csv(rows, os.path.join(out, "comparison.csv"))
    for variant, report in reports.items():
        _write_report(report, out, variant, f"_{variant}")
    for row in rows:
        print(f"{row.variant:12s} seed={row.seed:6s} accuracy={row.accuracy:.4f} "
              f"macro_f1={row.macro_f1:.4f} ratio={_ratio_text(row.ratio)}")
    print(f"wrote {out}/comparison.csv")
    return 0


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
