"""Entropy-gated multimodal fusion with curriculum masking.

A small float64 research stack: a gated mixture fusion model that
renormalizes over observed modalities and an entropy/consistency composite
loss, each with a hand-derived gradient that one training step chains
without a tape, instance-adaptive entropy weighting from predictive
variance, curriculum mask schedules with an adaptive teacher, and a
reproducible training/evaluation harness.
"""

from .config import ConfigError, ExperimentConfig, load_config, parse_config
from .curriculum import (MaskDistribution, Schedules, acm_distribution,
                         candidate_family, ramp, sample_keep)
from .data import (MultimodalBatch, SyntheticSpec, apply_mask, bernoulli_mask,
                   generate, keep_observed)
from .losses import (LossBreakdown, cec_loss, cec_pairs, composite_loss,
                     subset_confidences)
from .metrics import (CalibrationReport, InversionAudit, audit_confidences,
                      ece, entropy_confidence_export, inversion_audit,
                      map_at_1, top1_accuracy)
from .model import (ForwardOutput, FusionConfig, FusionModel, forward,
                    forward_views, load_checkpoint, predict_subset,
                    save_checkpoint)
from .optim import adamw_step, cosine_lr
from .rng import stream
from .subsets import SubsetLattice, nonempty_subsets, subset_lattice
from .tensor import Tape, Tensor
from .trainer import (DivergenceError, RunResult, Switches, TrainConfig,
                      evaluate_under_dropout, fit_temperature, train)
from .uncertainty import (LambdaConfig, calibrate_vmax, dropout_variance,
                          lambda_of, softplus)

__version__ = "0.1.0"

__all__ = [
    "CalibrationReport", "ConfigError", "DivergenceError", "ExperimentConfig",
    "ForwardOutput", "FusionConfig", "FusionModel", "InversionAudit",
    "LambdaConfig", "LossBreakdown", "MaskDistribution", "MultimodalBatch",
    "RunResult", "Schedules", "SubsetLattice", "Switches", "SyntheticSpec",
    "Tape", "Tensor", "TrainConfig", "acm_distribution", "adamw_step",
    "apply_mask", "audit_confidences", "bernoulli_mask", "calibrate_vmax",
    "candidate_family", "cec_loss", "cec_pairs", "composite_loss", "cosine_lr",
    "dropout_variance", "ece", "entropy_confidence_export",
    "evaluate_under_dropout", "fit_temperature", "forward", "forward_views",
    "generate", "inversion_audit", "keep_observed", "lambda_of",
    "load_checkpoint", "load_config", "map_at_1", "nonempty_subsets",
    "parse_config", "predict_subset", "ramp", "sample_keep", "save_checkpoint",
    "softplus", "stream", "subset_confidences", "subset_lattice",
    "top1_accuracy", "train",
]
