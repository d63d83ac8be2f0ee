"""Teacher training and teacher→student distillation.

The student objective blends hard-label cross-entropy with a
temperature-softened divergence toward the teacher:

    loss = (1 - w) * CE(softmax(s), y)  +  w * tau^2 * KL(softmax(s/tau) || softmax(t/tau))

averaged over the batch, where s/t are student/teacher logits.  The tau^2
factor keeps the soft-target gradient scale comparable across temperatures.
All stochastic choices flow from one seed through spawned generator streams,
so a (seed, config) pair fixes the trained parameters bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .augment import AugmentStrategy, apply_strategy, dataset_fill_value
from .data import Dataset
from .metrics import EvalDump
from .nn import Network, build_network, sgd_step
from .probs import PROB_EPS, cross_entropy_rows, kl_div_rows, softmax_t

EVAL_BATCH = 256  # rows per forward in evaluate_model
T_EVAL = 1.0  # the softmax temperature of every run's evaluation dump and manifest


@dataclass
class TrainConfig:
    epochs: int = 15
    batch_size: int = 64
    lr: float = 0.08
    momentum: float = 0.9
    weight_decay: float = 1e-4
    seed: int = 0
    strategy: AugmentStrategy = field(default_factory=lambda: AugmentStrategy("none"))
    temperature: float = 20.0
    distill_weight: float = 0.5

    def __post_init__(self):
        if isinstance(self.strategy, dict):
            self.strategy = AugmentStrategy.from_dict(self.strategy)
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.temperature <= 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if not 0.0 <= self.distill_weight <= 1.0:
            raise ValueError(f"distill_weight must be in [0, 1], got {self.distill_weight}")

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}  # no `asdict` deep copy
        d["strategy"] = self.strategy.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        return cls(**d)


@dataclass
class TrainedModel:
    net: Network
    role: str  # "teacher" | "student"
    config: TrainConfig
    history: list[dict]


def kd_loss(student_logits: np.ndarray, teacher_logits: np.ndarray, labels: np.ndarray,
            tau: float, w: float) -> tuple[float, np.ndarray]:
    """Distillation loss and its analytic gradient w.r.t. the student logits.

    Returns (loss, grad [B, C]); the gradient already carries the 1/B batch
    mean.  Computation runs in float64 regardless of input dtype.
    """
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"distill weight must be in [0, 1], got {w}")
    s = np.asarray(student_logits, dtype=np.float64)
    t = np.asarray(teacher_logits, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if s.shape != t.shape or s.shape != y.shape:
        raise ValueError(f"shape mismatch: student {s.shape}, teacher {t.shape}, labels {y.shape}")
    if s.ndim != 2:
        raise ValueError(f"logits must be [B, C], got shape {s.shape}")
    b = s.shape[0]
    p1 = softmax_t(s, 1.0)
    pt = softmax_t(s, tau)
    qt = softmax_t(t, tau)
    ce = cross_entropy_rows(p1, y)
    kl = kl_div_rows(pt, qt)
    loss = (1.0 - w) * ce.mean() + w * tau * tau * kl.mean()
    log_diff = np.log(np.maximum(pt, PROB_EPS)) - np.log(np.maximum(qt, PROB_EPS))
    grad = ((1.0 - w) * (p1 - y) + (w * tau) * pt * (log_diff - kl[:, None])) / b
    return float(loss), grad


def _ce_loss_grad(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Plain softmax cross-entropy with batch-mean gradient (teacher objective)."""
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    p = softmax_t(z, 1.0)
    loss = cross_entropy_rows(p, y).mean()
    return float(loss), (p - y) / z.shape[0]


def _spawn_rngs(seed: int, n: int) -> list[np.random.Generator]:
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


def _epoch_indices(n: int, batch_size: int, rng: np.random.Generator):
    perm = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield perm[start:start + batch_size]


def train_teacher(cfg: TrainConfig, data: Dataset, arch: str = "teacher-cnn") -> TrainedModel:
    """Cross-entropy training under cfg.strategy; deterministic for a fixed seed."""
    if data.n_samples == 0:
        raise ValueError("dataset is empty")
    init_rng, shuffle_rng, aug_rng = _spawn_rngs(cfg.seed, 3)
    net = build_network(arch, data.images.shape[1:], data.n_classes, init_rng)
    history = _fit(net, cfg, data, teacher=None, shuffle_rng=shuffle_rng, aug_rng=aug_rng)
    return TrainedModel(net=net, role="teacher", config=cfg, history=history)


def train_student(cfg: TrainConfig, teacher: TrainedModel, data: Dataset,
                  arch: str = "student-mlp", logit_tables: dict | None = None) -> TrainedModel:
    """Distill `teacher` into a fresh student under the blended objective.

    The teacher scores the same post-augmentation batch the student sees, and
    its parameters are never touched (checked by digest).  A student trained
    under strategy "none" sees unaugmented rows, so the teacher forwards the
    training set once, in order at the fit's batch size, and each batch reads
    its rows of that logit table (the tests check it equals a forward of the
    batch, bitwise, at the grid's shapes); an augmented student forwards the
    teacher once per batch.  The teacher's convolutions build their im2col
    columns directly in GEMM layout.  `logit_tables`, a dict the caller keeps
    for one (teacher, data) pair, holds those tables by batch size, so the
    clean fits against one teacher compute each table once.
    """
    if teacher.net.n_outputs != data.n_classes:
        raise ValueError(f"teacher has {teacher.net.n_outputs} outputs, "
                         f"dataset has {data.n_classes} classes")
    if data.n_samples == 0:
        raise ValueError("dataset is empty")
    before = teacher.net.params_digest()
    init_rng, shuffle_rng, aug_rng = _spawn_rngs(cfg.seed, 3)
    net = build_network(arch, data.images.shape[1:], data.n_classes, init_rng)
    history = _fit(net, cfg, data, teacher=teacher.net, shuffle_rng=shuffle_rng, aug_rng=aug_rng,
                   logit_tables={} if logit_tables is None else logit_tables)
    if teacher.net.params_digest() != before:
        raise RuntimeError("teacher parameters changed during distillation")
    return TrainedModel(net=net, role="student", config=cfg, history=history)


def _logit_table(net: Network, images: np.ndarray, batch_size: int) -> np.ndarray:
    """Logits of every image, forwarded in order at `batch_size`."""
    return np.concatenate([net.forward(images[start:start + batch_size], record=False)[0]
                           for start in range(0, len(images), batch_size)])


def _fit(net: Network, cfg: TrainConfig, data: Dataset, teacher: Network | None,
         shuffle_rng, aug_rng, logit_tables: dict | None = None) -> list[dict]:
    one_hot = data.one_hot()
    fill = dataset_fill_value(data.images)
    # a clean-batch student's teacher logits are a fixed function of the sample
    table = None
    if teacher is not None and cfg.strategy.kind == "none" and cfg.epochs:
        table = logit_tables.get(cfg.batch_size)
        if table is None:
            table = logit_tables[cfg.batch_size] = _logit_table(teacher, data.images,
                                                                cfg.batch_size)
    history = []
    for epoch in range(cfg.epochs):
        losses = []
        hits = 0
        for batch_i, idx in enumerate(_epoch_indices(data.n_samples, cfg.batch_size, shuffle_rng)):
            x, y = data.images[idx], one_hot[idx]
            if cfg.strategy.kind != "none":
                x, y = apply_strategy((x, y), cfg.strategy, aug_rng, fill=fill)
            try:
                logits, _ = net.forward(x, record=True)
            except FloatingPointError:
                raise RuntimeError(
                    f"loss diverged (non-finite logits) at epoch {epoch}, batch {batch_i}") from None
            if teacher is None:
                loss, grad = _ce_loss_grad(logits, y)
            else:
                t_logits = table[idx] if table is not None else teacher.forward(x, record=False)[0]
                loss, grad = kd_loss(logits, t_logits, y, cfg.temperature, cfg.distill_weight)
            if not np.isfinite(loss):
                raise RuntimeError(f"loss diverged at epoch {epoch}, batch {batch_i}")
            net.backward(grad)
            sgd_step(net, cfg.lr, cfg.momentum, cfg.weight_decay)
            losses.append(loss)
            hits += int((logits.argmax(axis=1) == y.argmax(axis=1)).sum())
        history.append({"epoch": epoch, "loss": float(np.mean(losses)) if losses else 0.0,
                        "accuracy": hits / data.n_samples})
    return history


def evaluate_model(net: Network, data: Dataset, t_eval: float = T_EVAL) -> EvalDump:
    """Forward the whole dataset (no caching), EVAL_BATCH rows at a time, into an EvalDump."""
    if data.n_samples and data.n_classes != net.n_outputs:
        raise ValueError(f"dataset has {data.n_classes} classes, model has {net.n_outputs} outputs")
    probs = np.empty((data.n_samples, net.n_outputs), dtype=np.float64)
    embs = np.empty((data.n_samples, net.embedding_dim), dtype=np.float64)
    for start in range(0, data.n_samples, EVAL_BATCH):
        stop = min(start + EVAL_BATCH, data.n_samples)
        logits, emb = net.forward(data.images[start:stop], record=False)
        probs[start:stop] = softmax_t(logits.astype(np.float64), t_eval)
        embs[start:stop] = emb
    return EvalDump(probs=probs, embeddings=embs, true_labels=data.labels,
                    human_probs=data.human_probs)