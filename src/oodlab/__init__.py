"""Desk-scale laboratory for few-shot out-of-distribution detection.

A negative-training classifier, a self-supervised generator of boundary
outliers, and a robust evaluation suite (clean, adversarial, and certified
AUROC) with few-shot robustness sweeps.
"""

from .autodiff import Tensor, backward, grad_check
from .config import ConfigError, ExperimentConfig, load_config
from .data import (
    DatasetSpec,
    LabeledBatch,
    LatentBatch,
    OutlierPool,
    gen_gaussian_mixture,
    gen_low_frequency_noise,
    gen_ring,
    gen_uniform_noise,
    load_csv,
    sample_few_shots,
    save_csv,
)
from .harness import detect_break_point, emit_report, run_ablation, run_fewshot_sweep, run_occ, run_single
from .losses import (
    LossWeights,
    classifier_loss,
    confidence_dominance_term,
    cross_entropy_term,
    dispersion_term,
    generator_loss,
    negative_training_term,
    proximity_term,
)
from .nets import BoundaryGenerator, MlpClassifier, load_checkpoint, save_checkpoint
from .scoring import (
    MetricReport,
    RobustnessBudget,
    ScoreSet,
    auroc,
    certified_max_confidence,
    evaluate_ood,
    ibp_logit_bounds,
)
from .training import (
    AdamState,
    PipelineConfig,
    TrainSchedule,
    adam_step,
    run_pipeline,
    sample_latent,
    train_classifier,
    train_generator,
)

__version__ = "0.1.0"
