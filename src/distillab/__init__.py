"""distillab: a deterministic desk-scale knowledge-distillation laboratory.

A from-scratch numpy training stack (dense/conv networks with hand-written
backward passes), the four classic mixing/masking augmentation strategies
with exact soft-label algebra, a temperature-scaled distillation objective,
and a battery of calibration and embedding-geometry metrics — all seeded,
all reproducible bitwise, all checked against brute-force oracles.
"""

from .augment import AugmentStrategy, apply_strategy
from .data import Dataset, attach_human_labels, load_cifar10_bin, load_dataset, load_mnist_idx, make_synthetic, save_dataset, split
from .distill import TrainConfig, TrainedModel, evaluate_model, kd_loss, train_student, train_teacher
from .errors import FormatError, IntegrityError
from .metrics import (DiscriminationReport, EvalDump, ReliabilityReport, class_discrimination,
                      class_separability, confusion_metrics, ece, human_kld, kld_confusion_matrix,
                      standardize_embeddings, summary_metrics)
from .nn import Conv2d, Dense, Flatten, MaxPool2d, Network, ReLU, ShapeError, build_network, sgd_step
from .probs import PROB_EPS, kl_div, softmax_t
from .runstore import (RunManifest, load_array, load_checkpoint, load_eval_dump, read_manifest,
                       save_array, save_checkpoint, save_eval_dump, write_manifest, emit_report)

__version__ = "0.1.0"
