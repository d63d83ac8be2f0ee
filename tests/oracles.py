"""Independent brute-force reference implementations used by the tests.

Everything here is written as plain loops over definitions — no shared code
with the package beyond numpy — so agreement is evidence, not tautology.
"""

from __future__ import annotations

import csv
import dataclasses
import math

import numpy as np

EPS = 1e-12


def kl_scalar(p, q) -> float:
    total = 0.0
    for pi, qi in zip(p, q):
        if pi > 0:
            total += pi * (math.log(max(pi, EPS)) - math.log(max(qi, EPS)))
    return total


def entropy_scalar(p) -> float:
    """Shannon entropy in nats, with 0 * log 0 taken as 0."""
    return -sum(pi * math.log(pi) for pi in p if pi > 0)


def softmax_scalar(z, t=1.0):
    m = max(x / t for x in z)
    e = [math.exp(zi / t - m) for zi in z]
    s = sum(e)
    return [x / s for x in e]


def ece_rebin(probs: np.ndarray, labels: np.ndarray, n_bins: int) -> float:
    """O(N*M) re-binning by explicit interval comparison."""
    n = probs.shape[0]
    edges = [m / n_bins for m in range(n_bins + 1)]
    total = 0.0
    for m in range(n_bins):
        lo, hi = edges[m], edges[m + 1]
        members = []
        for i in range(n):
            conf = float(np.max(probs[i]))
            pred = int(np.argmax(probs[i]))
            inside = (lo < conf <= hi) if m > 0 else (conf <= hi)
            if inside:
                members.append((conf, 1.0 if pred == labels[i] else 0.0))
        if members:
            avg_conf = sum(c for c, _ in members) / len(members)
            avg_acc = sum(a for _, a in members) / len(members)
            total += (len(members) / n) * abs(avg_acc - avg_conf)
    return total


def separability_pairs(probs: np.ndarray, labels: np.ndarray, n_classes: int) -> float:
    means = []
    for c in range(n_classes):
        rows = [probs[i] for i in range(len(labels)) if labels[i] == c]
        means.append(np.mean(rows, axis=0))
    total = 0.0
    for i in range(n_classes):
        for j in range(n_classes):
            if i != j:
                total += kl_scalar(means[i], means[j])
    return total / (n_classes * n_classes)


def standardize_pop(emb: np.ndarray) -> np.ndarray:
    out = np.zeros_like(emb, dtype=np.float64)
    for j in range(emb.shape[1]):
        col = emb[:, j].astype(np.float64)
        mu = col.mean()
        sd = math.sqrt(((col - mu) ** 2).mean())
        if sd > 0:
            out[:, j] = (col - mu) / sd
    return out


def _cos(u, v) -> float:
    nu = math.sqrt(float(np.dot(u, u)))
    nv = math.sqrt(float(np.dot(v, v)))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v)) / (nu * nv)


def discrimination_pairs(emb: np.ndarray, labels: np.ndarray, n_classes: int,
                         standardize: bool = True, pair_mean: bool = False):
    """Explicit pairwise cohesion/adhesion/D; returns (cohesion, adhesion, D)."""
    e = standardize_pop(emb) if standardize else emb.astype(np.float64)
    groups = [[i for i in range(len(labels)) if labels[i] == c] for c in range(n_classes)]
    cohesion = []
    for idx in groups:
        s = 0.0
        for a in range(len(idx)):
            for b in range(a + 1, len(idx)):
                s += _cos(e[idx[a]], e[idx[b]])
        val = s / (len(idx) * (len(idx) - 1))
        cohesion.append(2.0 * val if pair_mean else val)
    adhesion = {}
    for i in range(n_classes):
        for j in range(i + 1, n_classes):
            s = 0.0
            for a in groups[i]:
                for b in groups[j]:
                    s += _cos(e[a], e[b])
            adhesion[(i, j)] = s / (len(groups[i]) * len(groups[j]))
    mean_c = sum(cohesion) / len(cohesion)
    mean_a = sum(adhesion.values()) / len(adhesion) if adhesion else 0.0
    d = (mean_c - mean_a) / math.sqrt(e.shape[1])
    return cohesion, adhesion, d


def standardize_reference(emb: np.ndarray) -> np.ndarray:
    """Per-dimension standardization through np.std and boolean column gathers:
    the byte reference for metrics.standardize_embeddings."""
    emb = np.asarray(emb, dtype=np.float64)
    centered = emb - emb.mean(axis=0)
    std = emb.std(axis=0)
    out = np.zeros_like(centered)
    nz = std > 0
    out[:, nz] = centered[:, nz] / std[nz]
    return out


def discrimination_reference(emb: np.ndarray, labels: np.ndarray, n_classes: int,
                             standardize: bool = True):
    """Class-sum cohesion/adhesion/D with boolean row gathers and one gather per
    class for each of the sum and the squared norms: the byte reference for
    metrics.class_discrimination.  Returns (cohesion, adhesion, D, zero-norm count)."""
    emb = standardize_reference(emb) if standardize else np.asarray(emb, dtype=np.float64)
    groups = [np.flatnonzero(labels == c) for c in range(n_classes)]
    norms = np.linalg.norm(emb, axis=1)
    zero = norms == 0.0
    unit = np.zeros_like(emb)
    unit[~zero] = emb[~zero] / norms[~zero, None]
    sums = np.stack([unit[idx].sum(axis=0) for idx in groups])
    sq_norms = np.array([np.einsum("ij,ij->", unit[idx], unit[idx]) for idx in groups])
    dots = sums @ sums.T
    n = np.array([idx.size for idx in groups], dtype=np.float64)
    cohesion = (np.diag(dots) - sq_norms) / 2.0 / (n * (n - 1))
    adhesion = {(i, j): float(dots[i, j] / (n[i] * n[j]))
                for i in range(n_classes) for j in range(i + 1, n_classes)}
    d = discrimination_from_parts(cohesion, adhesion, emb.shape[1])
    return cohesion, adhesion, d, int(zero.sum())


def discrimination_from_parts(cohesion, adhesion: dict, dim: int) -> float:
    """D = (mean cohesion - mean adhesion) / sqrt(dim), with numpy's means over the
    per-class cohesions and the per-pair adhesions."""
    mean_a = float(np.mean(list(adhesion.values()))) if adhesion else 0.0
    return (float(np.mean(cohesion)) - mean_a) / math.sqrt(dim)


def ece_from_bins(bins, n: int) -> float:
    """Sum of (count / n) * |acc - conf| over the non-empty (lo, hi, count, conf, acc)
    bins, in bin order."""
    total = 0.0
    for _, _, count, conf, acc in bins:
        if count:
            total += (count / n) * abs(acc - conf)
    return total


def kld_matrix_loops(probs: np.ndarray, human: np.ndarray, labels: np.ndarray,
                     n_classes: int) -> np.ndarray:
    out = np.zeros((n_classes, n_classes))
    h_means, m_means = [], []
    for c in range(n_classes):
        rows = [i for i in range(len(labels)) if labels[i] == c]
        h_means.append(np.mean([human[i] for i in rows], axis=0))
        m_means.append(np.mean([probs[i] for i in rows], axis=0))
    for i in range(n_classes):
        for j in range(n_classes):
            out[i, j] = kl_scalar(h_means[i], m_means[j])
    return out


def kd_loss_scalar(student, teacher, labels, tau, w) -> float:
    """Definition-level recomputation of the blended objective, loops only."""
    b = len(student)
    total = 0.0
    for i in range(b):
        p1 = softmax_scalar(student[i], 1.0)
        ce = -sum(labels[i][k] * math.log(max(p1[k], EPS)) for k in range(len(p1)))
        pt = softmax_scalar(student[i], tau)
        qt = softmax_scalar(teacher[i], tau)
        kl = kl_scalar(pt, qt)
        total += (1.0 - w) * ce + w * tau * tau * kl
    return total / b


def softmax_reference(z: np.ndarray, t: float) -> np.ndarray:
    """Max-shifted softmax along the last axis from numpy's row max and row sum: the
    byte reference for probs.softmax_t."""
    z = z / t
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def kd_loss_reference(student, teacher, labels, tau, w):
    """The blended objective and its gradient from three separate softmaxes, with the
    clamped log difference taken once for the KL and again for the gradient: the byte
    reference for distill.kd_loss.  Returns (loss, grad)."""
    s = np.asarray(student, dtype=np.float64)
    t = np.asarray(teacher, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    p1 = softmax_reference(s, 1.0)
    pt = softmax_reference(s, tau)
    qt = softmax_reference(t, tau)
    ce = -np.sum(y * np.log(np.maximum(p1, EPS)), axis=-1)
    diff = np.log(np.maximum(pt, EPS)) - np.log(np.maximum(qt, EPS))
    kl = np.sum(np.where(pt > 0, pt * diff, 0.0), axis=-1)
    loss = (1.0 - w) * ce.mean() + w * tau * tau * kl.mean()
    log_diff = np.log(np.maximum(pt, EPS)) - np.log(np.maximum(qt, EPS))
    grad = ((1.0 - w) * (p1 - y) + (w * tau) * pt * (log_diff - kl[:, None])) / s.shape[0]
    return float(loss), grad


def sgd_step_reference(net, lr: float, momentum: float = 0.0, weight_decay: float = 0.0) -> None:
    """Momentum SGD with decoupled L2 that builds a fresh velocity and update array per
    parameter: the byte reference for nn.sgd_step.  Keeps its velocities in
    `net.velocity`, as sgd_step does."""
    for i, layer in enumerate(net.layers):
        for pname in layer.param_names:
            key = f"{i}.{pname}"
            p = getattr(layer, pname)
            v = net.velocity.get(key)
            if v is None:
                v = np.zeros_like(p)
            v = momentum * v + getattr(layer, "grad_" + pname)
            net.velocity[key] = v
            p -= (lr * v + (lr * weight_decay) * p).astype(p.dtype, copy=False)


def conv2d_valid_loops(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hand-unrolled stride-1 valid convolution for one batch."""
    bs, cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    oh, ow = h - k + 1, wd - k + 1
    out = np.zeros((bs, cout, oh, ow))
    for n in range(bs):
        for o in range(cout):
            for i in range(oh):
                for j in range(ow):
                    acc = b[o]
                    for c in range(cin):
                        for di in range(k):
                            for dj in range(k):
                                acc += x[n, c, i + di, j + dj] * w[o, c, di, dj]
                    out[n, o, i, j] = acc
    return out


def _conv_pads(k: int, padding: str) -> tuple[int, int]:
    return ((k - 1) // 2, k // 2) if padding == "same" else (0, 0)


def _conv_cols_nchw(x: np.ndarray, k: int, padding: str) -> np.ndarray:
    """np.pad, then one strided copy per kernel offset into [B, C, k, k, oh, ow]."""
    lo, hi = _conv_pads(k, padding)
    xp = np.pad(x, ((0, 0), (0, 0), (lo, hi), (lo, hi)))
    oh, ow = xp.shape[2] - k + 1, xp.shape[3] - k + 1
    cols = np.empty((x.shape[0], x.shape[1], k, k, oh, ow), dtype=x.dtype)
    for i in range(k):
        for j in range(k):
            cols[:, :, i, j] = xp[:, :, i:i + oh, j:j + ow]
    return cols


def conv2d_im2col_reference(x: np.ndarray, w: np.ndarray, b: np.ndarray,
                            padding: str) -> np.ndarray:
    """Stride-1 conv as NCHW im2col plus one tensordot: the byte reference for Conv2d.

    tensordot hands BLAS the same operands Conv2d does for any batch of two
    or more rows; at one row it passes the columns as an F-order view.
    """
    cols = _conv_cols_nchw(x, w.shape[2], padding)
    out = np.tensordot(cols, w, axes=([1, 2, 3], [1, 2, 3]))
    return np.ascontiguousarray(out.transpose(0, 3, 1, 2)) + b[None, :, None, None]


def conv2d_im2col_backward_reference(x: np.ndarray, w: np.ndarray, grad_out: np.ndarray,
                                     padding: str):
    """(grad_input, grad_weight, grad_bias) of the reference conv, with the
    input gradient scatter-added in NCHW one kernel offset at a time."""
    k = w.shape[2]
    lo, hi = _conv_pads(k, padding)
    b, c, h, wd = x.shape
    oh, ow = grad_out.shape[2], grad_out.shape[3]
    cols = _conv_cols_nchw(x, k, padding)
    grad_w = np.tensordot(grad_out, cols, axes=([0, 2, 3], [0, 4, 5]))
    grad_b = grad_out.sum(axis=(0, 2, 3))
    gcols = np.tensordot(grad_out, w, axes=([1], [0])).transpose(0, 3, 4, 5, 1, 2)
    gxp = np.zeros((b, c, h + lo + hi, wd + lo + hi), dtype=grad_out.dtype)
    for i in range(k):
        for j in range(k):
            gxp[:, :, i:i + oh, j:j + ow] += gcols[:, :, i, j]
    return gxp[:, :, lo:lo + h, lo:lo + wd], grad_w, grad_b


def maxpool_loops(x: np.ndarray, s: int):
    """Per-window max pooling; returns (out, argmax) with argmax the row-major
    index of the first maximal element of each s*s window."""
    bs, ch, h, w = x.shape
    out = np.zeros((bs, ch, h // s, w // s), dtype=x.dtype)
    arg = np.zeros(out.shape, dtype=np.int64)
    for n in range(bs):
        for c in range(ch):
            for i in range(h // s):
                for j in range(w // s):
                    best = 0
                    for k in range(1, s * s):
                        if x[n, c, i * s + k // s, j * s + k % s] > x[n, c, i * s + best // s, j * s + best % s]:
                            best = k
                    arg[n, c, i, j] = best
                    out[n, c, i, j] = x[n, c, i * s + best // s, j * s + best % s]
    return out, arg


def maxpool_backward_loops(grad_out: np.ndarray, arg: np.ndarray, s: int) -> np.ndarray:
    """Route each window's gradient to its recorded first-maximum position."""
    bs, ch, oh, ow = grad_out.shape
    gx = np.zeros((bs, ch, oh * s, ow * s), dtype=grad_out.dtype)
    for n in range(bs):
        for c in range(ch):
            for i in range(oh):
                for j in range(ow):
                    k = arg[n, c, i, j]
                    gx[n, c, i * s + k // s, j * s + k % s] = grad_out[n, c, i, j]
    return gx


# --- per-image augmentation --------------------------------------------------
# One image [channels, H, W] and its label at a time, drawing from the
# generator in the documented order; the batch strategies must match these
# byte for byte and leave the generator in the same state.

def standard_one(pixels: np.ndarray, pad: int, rng) -> np.ndarray:
    _, h, w = pixels.shape
    top = int(rng.integers(0, 2 * pad + 1))
    left = int(rng.integers(0, 2 * pad + 1))
    flip = rng.random() < 0.5
    out = pixels
    if pad:
        padded = np.pad(out, ((0, 0), (pad, pad), (pad, pad)), mode="reflect")
        out = padded[:, top:top + h, left:left + w]
    if flip:
        out = out[:, :, ::-1]
    return np.ascontiguousarray(out)


def cutout_one(pixels: np.ndarray, n_holes: int, hole_size: int, rng, fill=None,
               size_jitter: bool = True) -> np.ndarray:
    ch, h, w = pixels.shape
    if fill is None:
        fill_arr = np.full(ch, 0.5, dtype=pixels.dtype)
    else:
        fill_arr = np.broadcast_to(np.asarray(fill, dtype=pixels.dtype), (ch,))
    out = pixels.copy()
    lo_side = max(1, (hole_size + 1) // 2)
    for _ in range(n_holes):
        side = int(rng.integers(lo_side, hole_size + 1)) if size_jitter else hole_size
        cy = int(rng.integers(0, h))
        cx = int(rng.integers(0, w))
        y0 = max(0, cy - side // 2)
        x0 = max(0, cx - side // 2)
        y1 = min(h, y0 + side)
        x1 = min(w, x0 + side)
        out[:, y0:y1, x0:x1] = fill_arr[:, None, None]
    return out


def mixup_one(a, b, label_a, label_b, alpha: float, rng):
    """Returns (pixels, label, lam)."""
    lam = float(rng.beta(alpha, alpha))
    return lam * a + (1.0 - lam) * b, lam * label_a + (1.0 - lam) * label_b, lam


def cutmix_one(a, b, label_a, label_b, rng, beta_a: float = 1.0, beta_b: float = 1.0):
    """Returns (pixels, label, lam, mask) with mask [H, W] marking pixels taken from b."""
    _, h, w = a.shape
    lam0 = float(rng.beta(beta_a, beta_b))
    ratio = np.sqrt(1.0 - lam0)
    cut_h = int(h * ratio)
    cut_w = int(w * ratio)
    cy = int(rng.integers(0, h))
    cx = int(rng.integers(0, w))
    y0 = max(0, cy - cut_h // 2)
    x0 = max(0, cx - cut_w // 2)
    y1 = min(h, y0 + cut_h)
    x1 = min(w, x0 + cut_w)
    mask = np.zeros((h, w), dtype=np.uint8)
    mask[y0:y1, x0:x1] = 1
    pixels = a.copy()
    pixels[:, y0:y1, x0:x1] = b[:, y0:y1, x0:x1]
    lam = 1.0 - float(mask.sum()) / (h * w)
    return pixels, lam * label_a + (1.0 - lam) * label_b, lam, mask


def augment_loop(images: np.ndarray, labels: np.ndarray, kind: str, params: dict, rng,
                 fill=None):
    """A batch strategy as one per-image call after another, restacked."""
    if kind == "none":
        return images, labels
    if kind == "standard":
        return np.stack([standard_one(im, params["pad"], rng) for im in images]), labels.copy()
    if kind == "cutout":
        hole_fill = params["fill"] if params["fill"] is not None else fill
        pixels = [cutout_one(im, params["n_holes"], params["hole_size"], rng,
                             fill=hole_fill, size_jitter=params["size_jitter"]) for im in images]
        return np.stack(pixels), labels.copy()
    partners = rng.permutation(len(images))
    out = []
    for i, j in enumerate(partners):
        if kind == "mixup":
            out.append(mixup_one(images[i], images[j], labels[i], labels[j],
                                 params["beta_alpha"], rng))
        else:
            out.append(cutmix_one(images[i], images[j], labels[i], labels[j], rng,
                                  params["beta_a"], params["beta_b"]))
    return np.stack([o[0] for o in out]), np.stack([o[1] for o in out])


def random_dump_arrays(rng: np.random.Generator, n_max=500, c_max=10, d_max=64,
                       with_human=True, min_per_class=2):
    """Random EvalDump ingredients guaranteeing every class has samples."""
    c = int(rng.integers(2, c_max + 1))
    n = int(rng.integers(max(min_per_class * c, 20), n_max + 1))
    d = int(rng.integers(2, d_max + 1))
    labels = np.concatenate([np.arange(c)] * min_per_class +
                            [rng.integers(0, c, size=n - min_per_class * c)])
    labels = labels[rng.permutation(n)].astype(np.int64)
    probs = rng.dirichlet(np.full(c, 0.7), size=n)
    emb = rng.standard_normal((n, d)) * rng.uniform(0.5, 3.0)
    human = rng.dirichlet(np.full(c, 1.3), size=n) if with_human else None
    return probs, emb, labels, human, c


def with_human_labels(ds, seed: int):
    """A copy of dataset `ds` carrying seeded Dirichlet human label distributions: test
    data for the human-label path, which no synthetic set carries."""
    rng = np.random.default_rng(seed)
    return dataclasses.replace(
        ds, human_probs=rng.dirichlet(np.full(ds.n_classes, 1.3), size=ds.n_samples))


# --- CSV reports ---------------------------------------------------------------
# The package writes its reports and never reads them back; the tests do.

def read_matrix_csv(path) -> np.ndarray:
    """A headerless matrix; an empty (masked) cell reads as NaN."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [[float(c) if c else float("nan") for c in row] for row in csv.reader(fh)]
    return np.asarray(rows, dtype=np.float64)


def read_metrics_csv(path) -> dict[str, float]:
    with open(path, newline="", encoding="utf-8") as fh:
        row = next(csv.DictReader(fh))
    return {k: float(v) for k, v in row.items()}


def read_reliability_csv(path):
    """Returns ([(lo, hi, count, conf, acc), ...], ECE re-derived from those bins)."""
    with open(path, newline="", encoding="utf-8") as fh:
        bins = [(float(r["bin_lo"]), float(r["bin_hi"]), int(r["count"]), float(r["conf"]),
                 float(r["acc"])) for r in csv.DictReader(fh)]
    return bins, ece_from_bins(bins, sum(b[2] for b in bins))
