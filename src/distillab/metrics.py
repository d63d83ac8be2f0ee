"""Generalization metrics over evaluation dumps.

Everything here is a pure function of an :class:`EvalDump` — per-sample
predicted distributions, penultimate embeddings, ground-truth labels, and
(optionally) human label distributions.  All accumulation happens in float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .probs import check_prob_rows, kl_div_rows
# unused here: perfbench's tracer tests read `metrics.kl_div` beside `probs.kl_div`
from .probs import kl_div  # noqa: F401


@dataclass
class EvalDump:
    """Per-sample evaluation record: probs [N,C], embeddings [N,d], labels [N]."""

    probs: np.ndarray
    embeddings: np.ndarray
    true_labels: np.ndarray
    human_probs: np.ndarray | None = None

    def __post_init__(self):
        self.probs = np.asarray(self.probs)
        self.embeddings = np.asarray(self.embeddings)
        self.true_labels = np.asarray(self.true_labels)
        check_prob_rows(self.probs, "probs")
        n = self.probs.shape[0]
        if self.embeddings.ndim != 2 or self.embeddings.shape[0] != n:
            raise ValueError(f"embeddings shape {self.embeddings.shape} inconsistent with N={n}")
        if self.true_labels.shape != (n,):
            raise ValueError(f"true_labels shape {self.true_labels.shape} inconsistent with N={n}")
        if n and (self.true_labels.min() < 0 or self.true_labels.max() >= self.n_classes):
            raise ValueError(f"true_labels outside [0, {self.n_classes})")
        if self.human_probs is not None:
            self.human_probs = np.asarray(self.human_probs)
            check_prob_rows(self.human_probs, "human_probs")
            if self.human_probs.shape != self.probs.shape:
                raise ValueError(
                    f"human_probs shape {self.human_probs.shape} != probs shape {self.probs.shape}")

    @property
    def n_samples(self) -> int:
        return self.probs.shape[0]

    @property
    def n_classes(self) -> int:
        return self.probs.shape[1]

    def class_indices(self) -> list[np.ndarray]:
        """Sample indices per true class, in dump order."""
        return [np.flatnonzero(self.true_labels == c) for c in range(self.n_classes)]


def confusion_metrics(dump: EvalDump) -> dict:
    """Accuracy, macro precision/recall/F1, and the CxC confusion count matrix.

    Predictions are the argmax of each probs row (ties break to the lowest
    class index).  Rows of the matrix index the true class, columns the
    predicted class.  Per-class precision/recall with an empty denominator
    count as 0 before macro-averaging.
    """
    if dump.n_samples < 1:
        raise ValueError("confusion metrics need at least one sample")
    c = dump.n_classes
    pred = np.argmax(dump.probs, axis=1)
    truth = dump.true_labels.astype(np.int64)
    cm = np.zeros((c, c), dtype=np.int64)
    np.add.at(cm, (truth, pred), 1)
    diag = np.diag(cm).astype(np.float64)
    pred_totals = cm.sum(axis=0).astype(np.float64)
    true_totals = cm.sum(axis=1).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(pred_totals > 0, diag / pred_totals, 0.0)
        recall = np.where(true_totals > 0, diag / true_totals, 0.0)
        denom = precision + recall
        f1 = np.where(denom > 0, 2.0 * precision * recall / denom, 0.0)
    return {
        "accuracy": float(diag.sum() / dump.n_samples),
        "precision": float(precision.mean()),
        "recall": float(recall.mean()),
        "f1": float(f1.mean()),
        "confusion_matrix": cm,
    }


@dataclass
class BinStat:
    lo: float
    hi: float
    count: int
    conf: float
    acc: float


@dataclass
class ReliabilityReport:
    bins: list[BinStat]
    ece: float


def ece(dump: EvalDump, n_bins: int = 15) -> ReliabilityReport:
    """Expected calibration error with equal-width right-closed bins over (0,1].

    Bin m covers (edges[m], edges[m+1]]; confidence is the max predicted
    probability, accuracy is agreement of the argmax prediction with the true
    label.  Empty bins are recorded with count 0 and contribute nothing.
    """
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    if dump.n_samples < 1:
        raise ValueError("ece needs at least one sample")
    conf = np.max(dump.probs, axis=1).astype(np.float64)
    correct = (np.argmax(dump.probs, axis=1) == dump.true_labels).astype(np.float64)
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    # first j with edges[j] >= conf, minus one: conf lands in (edges[m], edges[m+1]]
    idx = np.searchsorted(edges, conf, side="left") - 1
    idx = np.clip(idx, 0, n_bins - 1)
    # a stable sort by bin keeps each bin's samples in dump order, as a mask would
    order = np.argsort(idx, kind="stable")
    conf, correct = conf[order], correct[order]
    counts = np.bincount(idx, minlength=n_bins).tolist()
    bins = []
    total = 0.0  # sum of (count / N) * |acc - conf| over the non-empty bins, in bin order
    start = 0
    for m, count in enumerate(counts):
        if count:
            rows = slice(start, start + count)
            b = BinStat(float(edges[m]), float(edges[m + 1]), count,
                        float(conf[rows].mean()), float(correct[rows].mean()))
            total += (count / dump.n_samples) * abs(b.acc - b.conf)
        else:
            b = BinStat(float(edges[m]), float(edges[m + 1]), 0, 0.0, 0.0)
        bins.append(b)
        start += count
    return ReliabilityReport(bins=bins, ece=total)


def human_kld(dump: EvalDump) -> float:
    """Mean KL(model || human) between model and human label distributions."""
    if dump.human_probs is None:
        raise ValueError("dump has no human_probs; human-label divergence unavailable")
    return float(kl_div_rows(dump.probs.astype(np.float64),
                             dump.human_probs.astype(np.float64)).mean())


def class_means(dump: EvalDump, rows: np.ndarray) -> np.ndarray:
    """[C, K] float64 table whose row c averages the [N, K] `rows` over samples of class c."""
    rows = np.asarray(rows, dtype=np.float64)
    means = np.empty((dump.n_classes, rows.shape[1]), dtype=np.float64)
    for c, idx in enumerate(dump.class_indices()):
        if idx.size == 0:
            raise ValueError(f"class {c} has no samples; cannot average its rows")
        means[c] = rows[idx].mean(axis=0)
    return means


def kl_matrix(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Matrix of KL(p_i || q_j) over the rows of two [C, K] distribution tables.

    One broadcast over [C, 1, K] x [1, C, K]: each cell sums its own length-K
    row, as `probs.kl_div` does for one pair."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    check_prob_rows(p, "p")
    check_prob_rows(q, "q")
    if p.shape[1] != q.shape[1]:
        raise ValueError(f"length mismatch: p {p.shape} vs q {q.shape}")
    return kl_div_rows(p[:, None, :], q[None, :, :])


def class_separability(dump: EvalDump) -> float:
    """Mean pairwise KL divergence between per-class average predictions.

    S = (1/C^2) * sum_i sum_j KL(pbar_i || pbar_j), diagonal terms included
    (each exactly 0), summed in row-major order.
    """
    means = class_means(dump, dump.probs)
    total = 0.0
    for v in kl_matrix(means, means).ravel().tolist():
        total += v
    return total / (dump.n_classes * dump.n_classes)


def standardize_embeddings(emb: np.ndarray) -> np.ndarray:
    """Per-dimension standardization to mean 0, population std 1 (float64).

    Dimensions with zero variance come out as all zeros rather than dividing
    by zero.
    """
    emb = np.array(emb, dtype=np.float64)  # a private copy, centred and scaled in place
    if emb.ndim != 2:
        raise ValueError(f"embeddings must be [N, d], got shape {emb.shape}")
    if emb.shape[0] < 2:
        raise ValueError(f"standardization needs N >= 2, got N={emb.shape[0]}")
    emb -= emb.mean(axis=0)
    # np.std's own steps, on the centred array it would otherwise build again
    std = np.sqrt(np.add.reduce(emb * emb, axis=0) / emb.shape[0])
    return _divide_or_zero(emb, std, std > 0)


def _divide_or_zero(a: np.ndarray, divisor: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """a / divisor in place where `keep`, a [N, 1] row or [d] column selector, holds;
    exact zeros elsewhere.  The divide runs unmasked, by 1 where `keep` fails (a
    masked ufunc loop costs several times more); the rows or columns that fail are
    then zeroed by index."""
    np.divide(a, np.where(keep, divisor, 1.0), out=a)
    if not keep.all():
        (a if keep.ndim == 2 else a.T)[np.flatnonzero(~keep)] = 0.0
    return a


@dataclass
class DiscriminationReport:
    """Cosine cohesion per class, adhesion per unordered class pair, and D."""

    cohesion: np.ndarray                    # [C]
    adhesion: dict[tuple[int, int], float]  # (i, j) with i < j
    discrimination: float
    zero_norm_count: int = 0


def class_discrimination(dump: EvalDump) -> DiscriminationReport:
    """Embedding-space cohesion/adhesion report under cosine similarity.

    Embeddings are standardized per dimension first.  Cohesion for a class
    divides the upper-triangle sum of intra-class cosines by N_c*(N_c - 1) —
    half the unordered-pair mean.
    Adhesion for a class pair is the mean over all cross pairs.
    D = (mean cohesion - mean adhesion) / sqrt(d).

    A sample whose embedding has zero norm gets cosine similarity 0 against
    everything; such samples are tallied in zero_norm_count.

    No NxN cosine matrix is formed.  With U_i the unit rows of class i and
    s_i their sum, every entry of U_i U_j^T sums to s_i . s_j, and
    trace(U_i U_i^T) is the sum of the squared row norms of U_i.  So the
    upper-triangle sum of class i is (s_i . s_i - sum ||u||^2) / 2 and the
    cross sum of classes i, j is s_i . s_j: one CxC product of the class
    sums, O(N*d) time and O(C*d) extra memory.
    """
    groups = dump.class_indices()
    for c, idx in enumerate(groups):
        if idx.size < 2:
            raise ValueError(f"class {c} has {idx.size} samples; cohesion needs at least 2")
    emb = standardize_embeddings(dump.embeddings)
    d = emb.shape[1]
    norms = np.linalg.norm(emb, axis=1)[:, None]
    unit = _divide_or_zero(emb, norms, norms != 0.0)
    sums = np.empty((dump.n_classes, d))
    sq_norms = np.empty(dump.n_classes)
    for c, idx in enumerate(groups):
        rows = unit[idx]
        sums[c] = rows.sum(axis=0)
        sq_norms[c] = np.einsum("ij,ij->", rows, rows)
    dots = sums @ sums.T
    n = np.array([idx.size for idx in groups], dtype=np.float64)
    cohesion = (np.diag(dots) - sq_norms) / 2.0 / (n * (n - 1))
    c = dump.n_classes
    adhesion = {(i, j): float(dots[i, j] / (n[i] * n[j]))
                for i in range(c) for j in range(i + 1, c)}
    mean_a = float(np.mean(list(adhesion.values()))) if adhesion else 0.0
    return DiscriminationReport(
        cohesion=cohesion,
        adhesion=adhesion,
        discrimination=(float(np.mean(cohesion)) - mean_a) / math.sqrt(d),
        zero_norm_count=int(np.count_nonzero(norms == 0.0)),
    )


def summary_metrics(dump: EvalDump, n_bins: int = 15) -> dict[str, float]:
    """Flat scalar battery for one dump: the table-style column set.

    Human-dependent entries are NaN when the dump carries no human_probs.
    """
    cm = confusion_metrics(dump)
    rel = ece(dump, n_bins)
    disc = class_discrimination(dump)
    out = {
        "accuracy": cm["accuracy"],
        "precision": cm["precision"],
        "recall": cm["recall"],
        "f1": cm["f1"],
        "ece": rel.ece,
        "separability": class_separability(dump),
        "cohesion": float(np.mean(disc.cohesion)),
        "adhesion": float(np.mean(list(disc.adhesion.values()))) if disc.adhesion else 0.0,
        "discrimination": disc.discrimination,
        "human_kld": human_kld(dump) if dump.human_probs is not None else float("nan"),
    }
    return out
