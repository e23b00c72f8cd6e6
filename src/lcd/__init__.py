"""Learnable weighted Chamfer loss for point-cloud reconstruction.

The package trains a small point-cloud autoencoder against an
adversarially learned loss: two Siamese networks score every point of
the input and reconstructed clouds, the scores become per-cloud weight
distributions over nearest-neighbor matching distances, and the
weighting is trained to spotlight badly reconstructed regions while the
autoencoder trains against the weighted distance.

Layers: ``autodiff`` (tape-based reverse-mode differentiation on
float64 numpy arrays), ``geometry`` (exact nearest-neighbor matching
and the chamfer / hausdorff / multi-scale metrics), ``lcdloss`` (the
weighting networks and loss), ``reconnet`` (the autoencoder),
``trainer`` (simultaneous update of both players from one tape,
metrics, ablations), ``dataio`` (synthetic shapes and xyz files),
``checkpoint`` (versioned text checkpoints), ``cli`` (the ``lcd``
command).
"""

from .autodiff import (
    GradCheckReport,
    Gradients,
    ParamSet,
    Tape,
    Tensor,
    adam_update,
    backward,
    grad_check,
)
from .checkpoint import CheckpointError, load_checkpoint, load_into, save_checkpoint
from .dataio import (
    FAMILIES,
    Dataset,
    gen_shapes,
    load_dataset,
    load_xyz,
    normalize,
    save_dataset,
    save_xyz,
    train_eval_split,
)
from .geometry import KdTree, Matching, chamfer, fps, hausdorff, mcd, nn_match, nn_match_stacked, pair_metrics
from .lcdloss import (
    LcdResult,
    adversarial_loss,
    init_lcd_params,
    lcd_forward,
    normalize_weights,
    siaatt,
    siacon,
)
from .reconnet import decode, encode, init_recon_params, reconstruct
from .trainer import (
    MetricsRecord,
    RunResult,
    TrainConfig,
    TrainingDiverged,
    ablate,
    evaluate,
    run,
    sweep,
    train_step,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Tensor",
    "Tape",
    "ParamSet",
    "Gradients",
    "GradCheckReport",
    "backward",
    "grad_check",
    "adam_update",
    "Matching",
    "KdTree",
    "nn_match",
    "nn_match_stacked",
    "chamfer",
    "hausdorff",
    "fps",
    "mcd",
    "pair_metrics",
    "LcdResult",
    "init_lcd_params",
    "siacon",
    "siaatt",
    "normalize_weights",
    "lcd_forward",
    "adversarial_loss",
    "init_recon_params",
    "encode",
    "decode",
    "reconstruct",
    "TrainConfig",
    "MetricsRecord",
    "RunResult",
    "TrainingDiverged",
    "train_step",
    "evaluate",
    "run",
    "ablate",
    "sweep",
    "Dataset",
    "FAMILIES",
    "gen_shapes",
    "normalize",
    "save_xyz",
    "load_xyz",
    "save_dataset",
    "load_dataset",
    "train_eval_split",
    "CheckpointError",
    "save_checkpoint",
    "load_checkpoint",
    "load_into",
]
