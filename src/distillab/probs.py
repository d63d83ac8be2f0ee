"""Probability-vector primitives: temperature softmax, cross-entropy, KL divergence.

All log terms clamp their argument at ``PROB_EPS`` from below, so one-hot
distributions never produce infinities.
"""

from __future__ import annotations

import numpy as np

PROB_EPS = 1e-12
PROB_ATOL = 1e-5


def check_prob_vector(v: np.ndarray, name: str = "distribution") -> None:
    """Raise ValueError unless `v` is a 1-D probability vector: entries in [0, 1] and
    sum 1, each within PROB_ATOL."""
    v = np.asarray(v)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {v.shape}")
    if v.size == 0:
        raise ValueError(f"{name} is empty")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    if v.min() < -PROB_ATOL or v.max() > 1.0 + PROB_ATOL:
        raise ValueError(f"{name} has entries outside [0, 1]")
    s = float(v.sum())
    if abs(s - 1.0) > PROB_ATOL:
        raise ValueError(f"{name} sums to {s}, expected 1 within {PROB_ATOL}")


def softmax_t(logits: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Temperature-scaled softmax along the last axis.

    Computed in the numerically stable form (max logit subtracted before
    exponentiation).  Accepts a single row or a batch of rows.
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    z = np.asarray(logits)
    if not np.all(np.isfinite(z)):
        raise ValueError("logits must be finite")
    s = z / temperature
    s = s - s.max(axis=-1, keepdims=True)
    e = np.exp(s)
    return e / e.sum(axis=-1, keepdims=True)


def kl_div(p: np.ndarray, q: np.ndarray) -> float:
    """sum(p * log(p / q)) for two valid distributions of equal length."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"length mismatch: p {p.shape} vs q {q.shape}")
    check_prob_vector(p, "p")
    check_prob_vector(q, "q")
    return float(_kl_terms(p, q).sum())


def _kl_terms(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Elementwise p * (log p - log q) with clamping and 0 * log 0 == 0."""
    diff = np.log(np.maximum(p, PROB_EPS)) - np.log(np.maximum(q, PROB_EPS))
    return np.where(p > 0, p * diff, 0.0)


def cross_entropy_rows(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Row-wise cross entropy for [N, C] arrays; no per-row validation."""
    logs = np.log(np.maximum(pred, PROB_EPS))
    return -np.sum(target * logs, axis=-1)


def kl_div_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row-wise KL divergence for [N, C] arrays; no per-row validation."""
    return np.sum(_kl_terms(p, q), axis=-1)


def check_prob_rows(arr: np.ndarray, name: str = "distributions") -> None:
    """Validate every row of an [N, C] array as a probability vector at once."""
    arr = np.asarray(arr)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D [N, C], got shape {arr.shape}")
    if arr.size == 0:
        return
    if not np.all(np.isfinite(arr)):
        bad = int(np.argwhere(~np.all(np.isfinite(arr), axis=1))[0, 0])
        raise ValueError(f"{name} row {bad} contains non-finite entries")
    if arr.min() < -PROB_ATOL or arr.max() > 1.0 + PROB_ATOL:
        bad = int(np.argwhere((arr.min(axis=1) < -PROB_ATOL)
                              | (arr.max(axis=1) > 1.0 + PROB_ATOL))[0, 0])
        raise ValueError(f"{name} row {bad} has entries outside [0, 1]")
    sums = arr.sum(axis=1)
    off = np.abs(sums - 1.0) > PROB_ATOL
    if np.any(off):
        bad = int(np.argmax(off))
        raise ValueError(f"{name} row {bad} sums to {sums[bad]}, expected 1 within {PROB_ATOL}")
