"""Multi-source marginal distribution adaptation for dense feature vectors.

A self-contained float64 training kernel (manual backprop + Adam), kernel
MMD / classification / discrepancy losses with analytic gradients, the
multi-branch adaptation network, data normalization and fold machinery,
and a command-line experiment harness.
"""

import os
import sys

# OpenBLAS reads its thread count once, as numpy loads: one per process unless one is set
if "numpy" not in sys.modules and not any(map(os.environ.get, (
        "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"))):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # msmda splits its work between processes itself

from .data import (
    BatchSampler,
    DomainDataset,
    NormalizationSpec,
    SynthConfig,
    TransferTask,
    de_gaussian,
    generate_synthetic,
    load_domain_csv,
    make_folds,
    normalize,
    synthetic_task,
)
from .errors import DataError, ParseError, ShapeError, StateError, ValidationError
from .harness import (
    ExperimentConfig,
    MetricsRecord,
    dump_features,
    run_ablation,
    run_baseline_source_combine,
    run_experiment,
    verify,
)
from .losses import (
    KernelSpec,
    LossBreakdown,
    alpha_schedule,
    classification_loss,
    discrepancy_loss,
    mmd_squared,
    total_loss,
)
from .model import (
    ModelConfig,
    MsMdaModel,
    TrainConfig,
    extract_branch_features,
    init_model,
    load_checkpoint,
    predict,
    save_checkpoint,
    train_step,
)
from .neuralcore import (
    LinearLayer,
    Parameter,
    adam_step,
    finite_difference_check,
    leaky_relu,
    softmax_cross_entropy,
)

__version__ = "0.1.0"
