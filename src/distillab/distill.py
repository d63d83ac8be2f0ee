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
from .probs import PROB_EPS, cross_entropy_rows, softmax_in_place, softmax_t

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
        # a record, as a manifest holds it; `runs.replay` checks its params
        if not isinstance(self.strategy, AugmentStrategy):
            self.strategy = AugmentStrategy(self.strategy["kind"])
        for name, least in (("seed", 0), ("epochs", 0), ("batch_size", 1)):
            value = getattr(self, name)
            if not isinstance(value, int) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        if not self.lr >= 0:  # a NaN fails every comparison
            raise ValueError(f"learning rate must be >= 0, got {self.lr}")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if not self.weight_decay >= 0:
            raise ValueError(f"weight decay must be >= 0, got {self.weight_decay}")
        if not self.temperature > 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if not 0.0 <= self.distill_weight <= 1.0:
            raise ValueError(f"distill_weight must be in [0, 1], got {self.distill_weight}")

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}  # no `asdict` deep copy
        d["strategy"] = self.strategy.to_dict()
        return d


@dataclass
class TrainedModel:
    net: Network
    role: str  # "teacher" | "student"
    history: list[dict]


def kd_loss(student_logits: np.ndarray, teacher_logits: np.ndarray, labels: np.ndarray,
            tau: float, w: float) -> tuple[float, np.ndarray]:
    """Distillation loss and its analytic gradient w.r.t. the student logits.

    Returns (loss, grad [B, C]); the gradient already carries the 1/B batch
    mean.  Computation runs in float64 regardless of input dtype.  The three
    softmaxes, of s at T = 1 and of s and t at tau, are one stacked pass, and
    the clamped logs of all three are one call.
    """
    if not tau > 0:  # a NaN fails every comparison
        raise ValueError(f"temperature must be positive, got {tau}")
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"distill_weight must be in [0, 1], got {w}")
    s = np.asarray(student_logits)
    t = np.asarray(teacher_logits)
    y = np.asarray(labels, dtype=np.float64)
    if s.shape != t.shape or s.shape != y.shape:
        raise ValueError(f"shape mismatch: student {s.shape}, teacher {t.shape}, labels {y.shape}")
    if s.ndim != 2:
        raise ValueError(f"logits must be [B, C], got shape {s.shape}")
    b = s.shape[0]
    z = np.concatenate((s, s, t), dtype=np.float64).reshape(3, *s.shape)
    if not np.all(np.isfinite(z)):
        raise ValueError("logits must be finite")
    z[1:] /= tau
    p1, pt, _ = softmax_in_place(z)
    logs = np.maximum(z, PROB_EPS)
    np.log(logs, out=logs)
    log_diff = logs[1] - logs[2]
    # the row sums of y * log p1 (CE, negated) and of the KL terms, 0 where pt is 0
    terms = np.zeros((2, *s.shape))
    np.multiply(y, logs[0], out=terms[0])
    np.multiply(pt, log_diff, out=terms[1], where=pt > 0)
    rows = np.add.reduce(terms, axis=-1)
    neg_ce_sum, kl_sum = np.add.reduce(rows, axis=-1).tolist()
    loss = (1.0 - w) * (-neg_ce_sum / b) + w * tau * tau * (kl_sum / b)
    log_diff -= rows[1][:, None]
    soft = (w * tau) * pt
    soft *= log_diff
    grad = p1 - y
    grad *= 1.0 - w
    grad += soft
    grad /= b
    return loss, grad


def _ce_loss_grad(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Plain softmax cross-entropy with batch-mean gradient (teacher objective)."""
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    p = softmax_t(z, 1.0)
    loss = cross_entropy_rows(p, y).mean()
    return float(loss), (p - y) / z.shape[0]


def _epoch_indices(n: int, batch_size: int, rng: np.random.Generator):
    perm = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield perm[start:start + batch_size]


def train_teacher(cfg: TrainConfig, data: Dataset, arch: str = "teacher-cnn") -> TrainedModel:
    """Cross-entropy training under cfg.strategy; deterministic for a fixed seed."""
    return _fit(cfg, data, arch, teacher=None)


def train_student(cfg: TrainConfig, teacher: TrainedModel, data: Dataset,
                  arch: str = "student-mlp", logit_tables: dict | None = None) -> TrainedModel:
    """Distill `teacher` into a fresh student under the blended objective.

    The teacher scores the same post-augmentation batch the student sees, and
    its parameters are never touched (checked by digest).  A student trained
    under strategy "none" sees unaugmented rows, so the teacher forwards the
    training set once, in order at the fit's batch size, and each batch reads
    its rows of that logit table (the tests check it equals a forward of the
    batch, bitwise, at the grid's shapes); an augmented student forwards the
    teacher once per batch.  `logit_tables`, a dict the caller keeps for one
    (teacher, data) pair, holds those tables by batch size, so the clean fits
    against one teacher compute each table once.
    """
    if teacher.net.n_outputs != data.n_classes:
        raise ValueError(f"teacher has {teacher.net.n_outputs} outputs, "
                         f"dataset has {data.n_classes} classes")
    before = teacher.net.params_digest()
    student = _fit(cfg, data, arch, teacher=teacher.net,
                   logit_tables={} if logit_tables is None else logit_tables)
    if teacher.net.params_digest() != before:
        raise RuntimeError("teacher parameters changed during distillation")
    return student


def _logit_table(net: Network, images: np.ndarray, batch_size: int) -> np.ndarray:
    """Logits of every image, forwarded in order at `batch_size`."""
    return np.concatenate([net.forward(images[start:start + batch_size], record=False)[0]
                           for start in range(0, len(images), batch_size)])


def _fit(cfg: TrainConfig, data: Dataset, arch: str, teacher: Network | None,
         logit_tables: dict | None = None) -> TrainedModel:
    """A fresh `arch` network fitted to `data`, by `kd_loss` against `teacher` if one is
    given; the seed spawns the streams of its initial weights, shuffles and augmentation."""
    if data.n_samples == 0:
        raise ValueError("dataset is empty")
    init_rng, shuffle_rng, aug_rng = (np.random.default_rng(s)
                                      for s in np.random.SeedSequence(cfg.seed).spawn(3))
    net = build_network(arch, data.images.shape[1:], data.n_classes, init_rng)
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
    return TrainedModel(net=net, role="teacher" if teacher is None else "student", history=history)


def evaluate_model(net: Network, data: Dataset) -> EvalDump:
    """Forward the whole dataset (no caching), EVAL_BATCH rows at a time, into an EvalDump
    of its probabilities at T_EVAL."""
    if data.n_samples and data.n_classes != net.n_outputs:
        raise ValueError(f"dataset has {data.n_classes} classes, model has {net.n_outputs} outputs")
    probs = np.empty((data.n_samples, net.n_outputs), dtype=np.float64)
    embs = np.empty((data.n_samples, net.embedding_dim), dtype=np.float64)
    for start in range(0, data.n_samples, EVAL_BATCH):
        stop = min(start + EVAL_BATCH, data.n_samples)
        logits, emb = net.forward(data.images[start:stop], record=False)
        probs[start:stop] = softmax_t(logits.astype(np.float64), T_EVAL)
        embs[start:stop] = emb
    return EvalDump(probs=probs, embeddings=embs, true_labels=data.labels,
                    human_probs=data.human_probs)
