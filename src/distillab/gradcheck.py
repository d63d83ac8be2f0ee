"""Central finite-difference verification of every backward pass.

Each check builds a small float64 layer instance, probes the output with a
fixed random linear functional (so the scalar loss is sum(output * probe)),
and compares the analytic gradients — input and parameters — against
(f(x+h) - f(x-h)) / 2h elementwise, with h = H.  kd_loss is checked the same
way against its returned gradient.
"""

from __future__ import annotations

import numpy as np

from .distill import kd_loss
from .nn import Conv2d, Dense, Flatten, MaxPool2d, ReLU

H = 1e-6  # the finite-difference step


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(float(np.linalg.norm(a) + np.linalg.norm(b)), 1e-12)
    return float(np.linalg.norm(a - b) / denom)


def _numeric_grad(fn, arr: np.ndarray) -> np.ndarray:
    """Central differences through in-place elementwise perturbation."""
    out = np.empty_like(arr)
    flat = arr.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + H
        fp = fn()
        flat[i] = orig - H
        fm = fn()
        flat[i] = orig
        out.ravel()[i] = (fp - fm) / (2.0 * H)
    return out


def check_layer(layer, x: np.ndarray, rng: np.random.Generator) -> float:
    """Relative error between analytic and numeric gradients for one instance."""
    layer.name = f"check:{layer.kind}"
    probe = rng.standard_normal(layer.forward(x, record=False).shape)

    def loss() -> float:
        return float(np.sum(layer.forward(x, record=False) * probe))

    layer.forward(x, record=True)
    gx = layer.backward(probe.copy())
    analytic = [gx] + [layer.grads()[k] for k in sorted(layer.grads())]
    numeric = [_numeric_grad(loss, x)]
    for k in sorted(layer.params()):
        numeric.append(_numeric_grad(loss, layer.params()[k]))
    a = np.concatenate([g.ravel() for g in analytic])
    n = np.concatenate([g.ravel() for g in numeric])
    return relative_error(a, n)


def _layer_instance(kind: str, rng: np.random.Generator):
    """Random small float64 instance of a layer kind plus a matching input."""
    if kind == "dense":
        fin = int(rng.integers(2, 7))
        fout = int(rng.integers(2, 6))
        b = int(rng.integers(1, 4))
        return Dense(fin, fout, rng=rng, dtype=np.float64), rng.standard_normal((b, fin))
    if kind in ("conv2d-valid", "conv2d-same"):
        pad = kind.split("-")[1]
        cin = int(rng.integers(1, 3))
        cout = int(rng.integers(1, 3))
        k = int(rng.integers(2, 4))
        side = int(rng.integers(k, k + 3))
        b = int(rng.integers(1, 3))
        layer = Conv2d(cin, cout, k, padding=pad, rng=rng, dtype=np.float64)
        return layer, rng.standard_normal((b, cin, side, side))
    if kind == "maxpool2d":
        s = int(rng.integers(2, 4))
        side = s * int(rng.integers(1, 4))
        b = int(rng.integers(1, 3))
        c = int(rng.integers(1, 3))
        return MaxPool2d(s), rng.standard_normal((b, c, side, side))
    if kind == "relu":
        b = int(rng.integers(1, 4))
        n = int(rng.integers(2, 12))
        return ReLU(), rng.standard_normal((b, n))
    if kind == "flatten":
        b = int(rng.integers(1, 3))
        c = int(rng.integers(1, 3))
        side = int(rng.integers(2, 5))
        return Flatten(), rng.standard_normal((b, c, side, side))
    raise ValueError(f"unknown layer kind {kind!r}")


def check_kd_loss(rng: np.random.Generator) -> float:
    """One random kd_loss instance: analytic vs numeric student-logit gradient."""
    b = int(rng.integers(1, 5))
    c = int(rng.integers(2, 7))
    s = rng.standard_normal((b, c)) * 2.0
    t = rng.standard_normal((b, c)) * 2.0
    y = rng.dirichlet(np.ones(c), size=b)
    tau = float(rng.uniform(0.5, 25.0))
    w = float(rng.uniform(0.0, 1.0))
    _, analytic = kd_loss(s, t, y, tau, w)
    numeric = _numeric_grad(lambda: kd_loss(s, t, y, tau, w)[0], s)
    return relative_error(analytic, numeric)


LAYER_CHECK_KINDS = ("dense", "conv2d-valid", "conv2d-same", "maxpool2d", "relu", "flatten")


def run_all(seed: int, instances: int = 20) -> dict[str, float]:
    """Max relative error per check kind over `instances` random instances."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    results: dict[str, float] = {}
    for kind in LAYER_CHECK_KINDS:
        worst = 0.0
        for _ in range(instances):
            layer, x = _layer_instance(kind, rng)
            worst = max(worst, check_layer(layer, x, rng))
        results[kind] = worst
    worst = 0.0
    for _ in range(instances):
        worst = max(worst, check_kd_loss(rng))
    results["kd_loss"] = worst
    return results