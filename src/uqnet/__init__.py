"""uqnet: uncertainty-aware neural classifiers on a numpy autodiff stack.

The library trains small residual classifiers from scratch and measures
predictive uncertainty two ways: Monte Carlo dropout (dropout active at
evaluation time, sample mean as prediction, sample variance as
uncertainty) and a variational Gaussian output head trained with the
reparameterization trick plus an analytic KL-divergence penalty. The
evaluation harness reports whether misclassified inputs receive higher
uncertainty than correctly classified ones.
"""

from .tensor import (
    Tensor,
    NonFiniteError,
    ShapeError,
    no_grad,
    conv2d,
    global_avg_pool,
    check_gradient,
)
from .layers import (
    LayerSpec,
    ModelSpec,
    ModelParams,
    build_model,
    body_forward,
    eval_heads,
    forward_range,
    head_forward,
    model_forward,
    row_blocks,
    dropout,
    mlp_spec,
    miniresnet_spec,
    validate_spec,
    VARIANTS,
)
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .data import (
    DataError,
    Dataset,
    SplitSpec,
    load_csv,
    load_idx,
    save_csv,
    save_idx,
    split,
    synth_blobs,
    synth_textures,
)
from .uncertainty import (
    PosteriorSamples,
    VariationalOutput,
    kld,
    mc_predict,
    mc_probs,
    predictive_entropy,
    reparameterized_samples,
    uncertainty_score,
    variational_forward,
)
from .optim import Adam, OptimizerConfig, SGD
from .losses import LossBreakdown, cross_entropy, objective, variational_loss
from .metrics import ClassificationMetrics, confusion_matrix
from .report import UncertaintyReport, build_report
from .train import TrainConfig, TrainResult, TrainingDivergedError, train
from .evaluate import ComparisonRow, EvalConfig, compare_variants, evaluate
from .config import RunConfig

__version__ = "0.1.0"

__all__ = [
    "Tensor", "NonFiniteError", "ShapeError", "no_grad", "conv2d", "global_avg_pool",
    "check_gradient",
    "LayerSpec", "ModelSpec", "ModelParams", "build_model",
    "body_forward", "eval_heads", "forward_range", "head_forward", "model_forward", "row_blocks",
    "dropout",
    "mlp_spec", "miniresnet_spec",
    "validate_spec", "VARIANTS",
    "CheckpointError", "load_checkpoint", "save_checkpoint",
    "DataError", "Dataset", "SplitSpec", "load_csv", "load_idx", "save_csv",
    "save_idx", "split", "synth_blobs", "synth_textures",
    "PosteriorSamples", "VariationalOutput",
    "kld", "mc_predict", "mc_probs", "predictive_entropy",
    "reparameterized_samples", "uncertainty_score", "variational_forward",
    "Adam", "OptimizerConfig", "SGD",
    "LossBreakdown", "cross_entropy", "objective", "variational_loss",
    "ClassificationMetrics", "confusion_matrix",
    "UncertaintyReport", "build_report",
    "TrainConfig", "TrainResult", "TrainingDivergedError", "train",
    "ComparisonRow", "EvalConfig", "compare_variants", "evaluate",
    "RunConfig",
]
