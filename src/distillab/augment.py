"""Image augmentation strategies that mix pixels and labels together.

Four strategies: standard crop/flip, cutout (regional fill), mixup (convex
blend of two images and their labels), and cutmix (rectangular paste with
labels mixed by the exact retained-pixel fraction).  Each works on a whole
batch: images [B, channels, H, W] in [0, 1] plus labels [B, classes].  Every
operation takes an explicit numpy Generator and draws from it in a fixed
order (per image, in batch order), so a fixed seed gives a bitwise-fixed
output.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np


# Each strategy's parameters, the same for every run: mixup's Beta(1, 1) as in Zhang et
# al. 2018 and cutmix's Beta(1, 1) as in Yun et al. 2019.  Every manifest records a
# run's row as config.train.strategy.params.  Cutout's fill None stands for the fill
# that the caller hands to apply_strategy (the dataset mean), else 0.5, and size_jitter
# for each hole side drawn from [hole_size/2, hole_size].
STRATEGY_PARAMS: dict[str, dict] = {
    "none": {},
    "standard": {"pad": 2},
    "cutout": {"n_holes": 16, "hole_size": 3, "fill": None, "size_jitter": True},
    "mixup": {"beta_alpha": 1.0},
    "cutmix": {"beta_a": 1.0, "beta_b": 1.0},
}
STRATEGY_KINDS = tuple(STRATEGY_PARAMS)


@dataclass
class AugmentStrategy:
    """A strategy kind; its parameters are the kind's row of STRATEGY_PARAMS."""

    kind: str

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}; choose from {STRATEGY_KINDS}")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": dict(STRATEGY_PARAMS[self.kind])}


def _standard(x, y, rng, pad):
    """Reflect-pad, random crop back to the original size, random horizontal flip.

    Each image draws (row offset, column offset, flip coin) in that order, the
    stream of `rng.integers(0, 2 * pad + 1)` twice and `rng.random() < 0.5`.
    All draws come from one `integers` call with per-element bounds, which
    draws each element as a scalar call with its bounds would: the offsets
    from the same 32-bit path, and the coin as a full 64-bit word, the one
    `random` reads, whose top bit is clear exactly when `random` is below
    0.5.  Labels pass through.
    """
    b, _, h, w = x.shape
    bounds = np.array([2 * pad, 2 * pad, 2**64 - 1], dtype=np.uint64)
    draws = rng.integers(0, bounds, size=(b, 3), dtype=np.uint64, endpoint=True)
    offsets = draws[:, :2].astype(np.int64)
    flip = draws[:, 2] < 2**63
    padded = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="reflect") if pad else x
    rows = offsets[:, :1] + np.arange(h)
    cols = offsets[:, 1:] + np.arange(w)
    cols[flip] = cols[flip, ::-1]
    out = padded[np.arange(b)[:, None, None, None], np.arange(x.shape[1])[:, None, None],
                 rows[:, None, :, None], cols[:, None, None, :]]
    return out, y


def _cutout(x, y, rng, n_holes, hole_size, fill):
    """Fill `n_holes` square regions per image with a constant; labels pass through.

    Each hole side is drawn uniformly from [hole_size/2, hole_size] before its
    center, which is uniform over the image; boxes are clipped at the
    borders.  All draws come from one `integers` call whose per-element
    bounds interleave (side, row, column), the same stream as drawing them
    one scalar at a time.  `fill` is a scalar or per-channel value; None
    means 0.5.
    """
    b, ch, h, w = x.shape
    if hole_size > min(h, w):
        warnings.warn(f"hole_size {hole_size} exceeds image side {min(h, w)}; "
                      "holes can blanket the whole image", stacklevel=3)
    fill_arr = np.broadcast_to(np.asarray(0.5 if fill is None else fill, dtype=x.dtype), (ch,))
    draws = rng.integers([max(1, (hole_size + 1) // 2), 0, 0], [hole_size + 1, h, w],
                         size=(b, n_holes, 3))
    side, cy, cx = draws[..., 0], draws[..., 1], draws[..., 2]
    y0 = np.maximum(cy - side // 2, 0)
    x0 = np.maximum(cx - side // 2, 0)
    in_rows = _span_mask(y0, y0 + side, h)  # [B, holes, H]
    in_cols = _span_mask(x0, x0 + side, w)  # [B, holes, W]
    # a pixel is in a hole when some hole covers both its row and its column: a batched
    # 0/1 product [B, H, holes] @ [B, holes, W] counts the holes covering each pixel
    hole = np.matmul(in_rows.transpose(0, 2, 1).astype(np.float32), in_cols.astype(np.float32)) > 0
    return np.where(hole[:, None], fill_arr[:, None, None], x), y


def _span_mask(lo, hi, n):
    """[..., n] boolean mask of the index ranges [lo, hi) (hi may exceed n)."""
    idx = np.arange(n)
    return (idx >= lo[..., None]) & (idx < hi[..., None])


def _blend(lam, a, b):
    """lam * a + (1 - lam) * b per row, with each lam applied the way a Python
    float scales an array (cast to the array's result dtype first)."""
    dt = np.result_type(a.dtype, 1.0)
    shape = (-1,) + (1,) * (a.ndim - 1)
    return lam.astype(dt).reshape(shape) * a + (1.0 - lam).astype(dt).reshape(shape) * b


def _mixup(x, y, rng, beta_alpha):
    """Convex blend of each image and label with its partner, lam ~ Beta(alpha, alpha)."""
    partners = rng.permutation(x.shape[0])
    lam = rng.beta(beta_alpha, beta_alpha, size=x.shape[0])
    return _blend(lam, x, x[partners]), _blend(lam, y, y[partners])


def _cutmix(x, y, rng, beta_a, beta_b):
    """Paste a rectangle of each partner image; labels mix by the exact retained fraction.

    A target area ratio (1 - lam0) with lam0 ~ Beta(beta_a, beta_b) fixes the
    rectangle's aspect-preserving size; its center is uniform and the box is
    clipped at the borders.  The label weight is then the exact fraction of
    the image's own pixels that survived, so the label algebra matches the
    pixel content no matter how much clipping happened.  Each image draws
    (lam0, row, column) in turn; `beta` consumes a varying number of words,
    so the draws stay a scalar loop.  The row and column are int32 draws,
    which take the 32-bit stream of the default int64 ones through numpy's
    faster scalar path.
    """
    b, _, h, w = x.shape
    partners = rng.permutation(b)
    lam0 = np.empty(b)
    cy = np.empty(b, dtype=np.int64)
    cx = np.empty(b, dtype=np.int64)
    for i in range(b):
        lam0[i] = rng.beta(beta_a, beta_b)
        cy[i] = rng.integers(0, h, dtype=np.int32)
        cx[i] = rng.integers(0, w, dtype=np.int32)
    ratio = np.sqrt(1.0 - lam0)
    cut_h = (h * ratio).astype(np.int64)
    cut_w = (w * ratio).astype(np.int64)
    y0 = np.maximum(cy - cut_h // 2, 0)
    x0 = np.maximum(cx - cut_w // 2, 0)
    y1 = np.minimum(y0 + cut_h, h)
    x1 = np.minimum(x0 + cut_w, w)
    box = _span_mask(y0, y1, h)[:, :, None] & _span_mask(x0, x1, w)[:, None, :]
    lam = 1.0 - ((y1 - y0) * (x1 - x0)).astype(np.float64) / (h * w)
    return np.where(box[:, None], x[partners], x), _blend(lam, y, y[partners])


_APPLY = {"standard": _standard, "cutout": _cutout, "mixup": _mixup, "cutmix": _cutmix}


def apply_strategy(batch: tuple[np.ndarray, np.ndarray], strategy: AugmentStrategy,
                   rng: np.random.Generator, fill=None) -> tuple[np.ndarray, np.ndarray]:
    """Apply one strategy to a batch (images [B, C, H, W], labels [B, K]).

    Returns (images, labels).  A strategy that leaves labels alone returns
    the input label array itself, and "none" returns both inputs.
    Mixing strategies pair each element with a partner from one uniform
    in-batch permutation (fixed points allowed).  Each strategy runs at its
    STRATEGY_PARAMS row; `fill` is cutout's fill, the dataset's per-channel
    mean, for the row's fill None.
    """
    x, y = (np.asarray(a) for a in batch)
    if x.ndim != 4:
        raise ValueError(f"images must be [B, channels, H, W], got shape {x.shape}")
    if y.ndim != 2 or y.shape[0] != x.shape[0]:
        raise ValueError(f"labels must be [{x.shape[0]}, classes], got shape {y.shape}")
    if x.shape[0] == 0:
        raise ValueError("batch is empty")
    if strategy.kind == "none":
        return x, y
    params = dict(STRATEGY_PARAMS[strategy.kind])
    if strategy.kind == "cutout":  # _cutout always jitters, and fills with `fill` for None
        del params["size_jitter"]
        params["fill"] = fill
    return _APPLY[strategy.kind](x, y, rng, **params)


def dataset_fill_value(images: np.ndarray) -> np.ndarray:
    """Per-channel mean over a non-empty [N, channels, H, W] image stack (cutout fill)."""
    return images.mean(axis=(0, 2, 3))