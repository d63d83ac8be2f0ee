"""Independent brute-force reference implementations used by the tests.

Everything here is written as plain loops over definitions — no shared code
with the package beyond numpy — so agreement is evidence, not tautology.
"""

from __future__ import annotations

import math

import numpy as np

EPS = 1e-12


def kl_scalar(p, q) -> float:
    total = 0.0
    for pi, qi in zip(p, q):
        if pi > 0:
            total += pi * (math.log(max(pi, EPS)) - math.log(max(qi, EPS)))
    return total


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