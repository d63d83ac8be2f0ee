"""Minimal dense/conv network engine with hand-written backward passes.

Arrays are plain numpy ndarrays: float32 for training, float64 when checking
gradients against finite differences.  Layers cache their inputs during a
recorded forward pass so backward() can fill per-parameter gradient slots;
forward with record=False touches no state and is safe to run concurrently
on a frozen network.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np


class ShapeError(ValueError):
    """Input shape incompatible with a layer; message names the layer."""


def _uniform_init(rng: np.random.Generator | None, shape: tuple[int, ...],
                  fan_in: int, dtype) -> np.ndarray:
    if rng is None:
        return np.zeros(shape, dtype=dtype)
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class Layer:
    kind = "?"
    name = "?"  # assigned by Network, e.g. "2:conv2d"

    def forward(self, x: np.ndarray, record: bool = True) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def params(self) -> dict[str, np.ndarray]:
        return {}

    def grads(self) -> dict[str, np.ndarray]:
        return {}

    def out_shape(self, in_shape: tuple[int, ...]) -> tuple[int, ...]:
        raise NotImplementedError

    def spec(self) -> dict:
        return {"kind": self.kind}


class Dense(Layer):
    kind = "dense"

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator | None = None, dtype=np.float32):
        self.in_features = in_features
        self.out_features = out_features
        self.weight = _uniform_init(rng, (in_features, out_features), in_features, dtype)
        self.bias = _uniform_init(rng, (out_features,), in_features, dtype)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self._x = None

    def forward(self, x, record=True):
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ShapeError(f"layer {self.name}: expected input [B, {self.in_features}], got {x.shape}")
        if record:
            self._x = x
        return x @ self.weight + self.bias

    def backward(self, grad_out):
        x = self._x
        self.grad_weight = x.T @ grad_out
        self.grad_bias = grad_out.sum(axis=0)
        return grad_out @ self.weight.T

    def params(self):
        return {"weight": self.weight, "bias": self.bias}

    def grads(self):
        return {"weight": self.grad_weight, "bias": self.grad_bias}

    def out_shape(self, in_shape):
        if len(in_shape) != 1 or in_shape[0] != self.in_features:
            raise ShapeError(f"layer {self.name}: expected {self.in_features} features, got {in_shape}")
        return (self.out_features,)

    def spec(self):
        return {"kind": self.kind, "in_features": self.in_features,
                "out_features": self.out_features}


class Conv2d(Layer):
    """2-D convolution, stride 1, padding 'valid' or 'same' (zero padding)."""

    kind = "conv2d"

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 padding: str = "same", rng: np.random.Generator | None = None,
                 dtype=np.float32):
        if padding not in ("same", "valid"):
            raise ValueError(f"padding must be 'same' or 'valid', got {padding!r}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = _uniform_init(rng, (out_channels, in_channels, kernel_size, kernel_size),
                                    fan_in, dtype)
        self.bias = _uniform_init(rng, (out_channels,), fan_in, dtype)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self._cols = None
        self._in_shape = None

    def _pads(self):
        if self.padding == "same":
            return (self.kernel_size - 1) // 2, self.kernel_size // 2
        return 0, 0

    def forward(self, x, record=True):
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ShapeError(f"layer {self.name}: expected input [B, {self.in_channels}, H, W], got {x.shape}")
        k = self.kernel_size
        lo, hi = self._pads()
        xp = np.pad(x, ((0, 0), (0, 0), (lo, hi), (lo, hi))) if lo or hi else x
        oh = xp.shape[2] - k + 1
        ow = xp.shape[3] - k + 1
        if oh < 1 or ow < 1:
            raise ShapeError(f"layer {self.name}: kernel {k} larger than padded input {xp.shape[2:]}")
        cols = np.empty((x.shape[0], self.in_channels, k, k, oh, ow), dtype=x.dtype)
        for i in range(k):
            for j in range(k):
                cols[:, :, i, j] = xp[:, :, i:i + oh, j:j + ow]
        if record:
            self._cols = cols
            self._in_shape = x.shape
        out = np.tensordot(cols, self.weight, axes=([1, 2, 3], [1, 2, 3]))
        # tensordot yields [B, oh, ow, out_channels]
        return np.ascontiguousarray(out.transpose(0, 3, 1, 2)) + self.bias[None, :, None, None]

    def backward(self, grad_out):
        cols = self._cols
        b, c, h, w = self._in_shape
        k = self.kernel_size
        lo, hi = self._pads()
        oh, ow = grad_out.shape[2], grad_out.shape[3]
        self.grad_bias = grad_out.sum(axis=(0, 2, 3))
        self.grad_weight = np.tensordot(grad_out, cols, axes=([0, 2, 3], [0, 4, 5]))
        # grad wrt columns, then scatter-add back into the padded input
        gcols = np.tensordot(grad_out, self.weight, axes=([1], [0]))  # [B, oh, ow, C, k, k]
        gcols = gcols.transpose(0, 3, 4, 5, 1, 2)
        gxp = np.zeros((b, c, h + lo + hi, w + lo + hi), dtype=grad_out.dtype)
        for i in range(k):
            for j in range(k):
                gxp[:, :, i:i + oh, j:j + ow] += gcols[:, :, i, j]
        return gxp[:, :, lo:lo + h, lo:lo + w]

    def params(self):
        return {"weight": self.weight, "bias": self.bias}

    def grads(self):
        return {"weight": self.grad_weight, "bias": self.grad_bias}

    def out_shape(self, in_shape):
        if len(in_shape) != 3 or in_shape[0] != self.in_channels:
            raise ShapeError(f"layer {self.name}: expected [{self.in_channels}, H, W], got {in_shape}")
        lo, hi = self._pads()
        oh = in_shape[1] + lo + hi - self.kernel_size + 1
        ow = in_shape[2] + lo + hi - self.kernel_size + 1
        if oh < 1 or ow < 1:
            raise ShapeError(f"layer {self.name}: kernel {self.kernel_size} larger than input {in_shape[1:]}")
        return (self.out_channels, oh, ow)

    def spec(self):
        return {"kind": self.kind, "in_channels": self.in_channels,
                "out_channels": self.out_channels, "kernel_size": self.kernel_size,
                "padding": self.padding}


class MaxPool2d(Layer):
    """Non-overlapping max pooling; spatial dims must divide by the window size."""

    kind = "maxpool2d"

    def __init__(self, size: int = 2):
        self.size = size
        self._argmax = None
        self._in_shape = None

    def forward(self, x, record=True):
        s = self.size
        if x.ndim != 4 or x.shape[2] % s or x.shape[3] % s:
            raise ShapeError(f"layer {self.name}: spatial dims of {x.shape} not divisible by {s}")
        b, c, h, w = x.shape
        oh, ow = h // s, w // s
        windows = x.reshape(b, c, oh, s, ow, s).transpose(0, 1, 2, 4, 3, 5).reshape(b, c, oh, ow, s * s)
        amax = windows.argmax(axis=-1)  # first occurrence on ties
        out = np.take_along_axis(windows, amax[..., None], axis=-1)[..., 0]
        if record:
            self._argmax = amax
            self._in_shape = x.shape
        return out

    def backward(self, grad_out):
        s = self.size
        b, c, h, w = self._in_shape
        oh, ow = h // s, w // s
        gw = np.zeros((b, c, oh, ow, s * s), dtype=grad_out.dtype)
        np.put_along_axis(gw, self._argmax[..., None], grad_out[..., None], axis=-1)
        return gw.reshape(b, c, oh, ow, s, s).transpose(0, 1, 2, 4, 3, 5).reshape(b, c, h, w)

    def out_shape(self, in_shape):
        if len(in_shape) != 3 or in_shape[1] % self.size or in_shape[2] % self.size:
            raise ShapeError(f"layer {self.name}: spatial dims of {in_shape} not divisible by {self.size}")
        return (in_shape[0], in_shape[1] // self.size, in_shape[2] // self.size)

    def spec(self):
        return {"kind": self.kind, "size": self.size}


class ReLU(Layer):
    kind = "relu"

    def __init__(self):
        self._mask = None

    def forward(self, x, record=True):
        if record:
            self._mask = x > 0
        return np.maximum(x, 0)

    def backward(self, grad_out):
        return grad_out * self._mask

    def out_shape(self, in_shape):
        return in_shape


class Flatten(Layer):
    kind = "flatten"

    def __init__(self):
        self._in_shape = None

    def forward(self, x, record=True):
        if record:
            self._in_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out):
        return grad_out.reshape(self._in_shape)

    def out_shape(self, in_shape):
        return (int(np.prod(in_shape)),)


LAYER_KINDS = {cls.kind: cls for cls in (Dense, Conv2d, MaxPool2d, ReLU, Flatten)}


class Network:
    """Ordered layer stack producing logits and a penultimate embedding.

    `embedding_tap` indexes the layer whose (flattened) output is reported as
    the embedding.  Training mutates the instance and must be serialized by
    the caller; forward with record=False is read-only.
    """

    def __init__(self, layers: list[Layer], embedding_tap: int,
                 input_shape: tuple[int, ...], dtype=np.float32):
        if not layers:
            raise ValueError("network needs at least one layer")
        if not -len(layers) <= embedding_tap < len(layers):
            raise ValueError(f"embedding_tap {embedding_tap} out of range for {len(layers)} layers")
        self.layers = layers
        self.embedding_tap = embedding_tap % len(layers)
        self.input_shape = tuple(int(d) for d in input_shape)
        self.dtype = np.dtype(dtype)
        self.velocity: dict[str, np.ndarray] = {}
        self._forward_done = False
        for i, layer in enumerate(layers):
            layer.name = f"{i}:{layer.kind}"
        # static shape pass: validates the stack once and fixes output dims
        shape = self.input_shape
        self.layer_shapes = []
        for layer in layers:
            shape = layer.out_shape(shape)
            self.layer_shapes.append(shape)
        if len(self.layer_shapes[-1]) != 1:
            raise ShapeError("network must end with a layer producing [B, C] logits")
        self.n_outputs = int(self.layer_shapes[-1][0])
        self.embedding_dim = int(np.prod(self.layer_shapes[self.embedding_tap]))

    def forward(self, batch: np.ndarray, record: bool = True):
        """Run the stack; returns (logits [B, C], embeddings [B, d])."""
        x = np.asarray(batch, dtype=self.dtype)
        if x.shape[1:] != self.input_shape:
            raise ShapeError(f"network input: expected [B, {self.input_shape}], got {x.shape}")
        emb = None
        for i, layer in enumerate(self.layers):
            x = layer.forward(x, record=record)
            if i == self.embedding_tap:
                emb = x.reshape(x.shape[0], -1)
        if record:
            self._forward_done = True
        if not np.all(np.isfinite(x)):
            raise FloatingPointError("non-finite logits; training has diverged")
        return x, emb

    def backward(self, grad_logits: np.ndarray) -> np.ndarray:
        """Backpropagate from the logits; fills every gradient slot, returns d/d input."""
        if not self._forward_done:
            raise RuntimeError("backward called before a recorded forward pass")
        g = np.asarray(grad_logits, dtype=self.dtype)
        for layer in reversed(self.layers):
            g = layer.backward(g)
        return g

    def param_items(self):
        for i, layer in enumerate(self.layers):
            for pname, arr in layer.params().items():
                yield f"{i}.{pname}", layer, pname, arr

    def params_digest(self) -> str:
        """sha256 over all parameter bytes, for immutability checks."""
        h = hashlib.sha256()
        for key, _, _, arr in self.param_items():
            h.update(key.encode())
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()

    def spec_dict(self) -> dict:
        return {
            "input_shape": list(self.input_shape),
            "embedding_tap": self.embedding_tap,
            "dtype": self.dtype.name,
            "layers": [layer.spec() for layer in self.layers],
        }

    @classmethod
    def from_spec(cls, spec: dict) -> "Network":
        dtype = np.dtype(spec["dtype"])
        layers = []
        for ls in spec["layers"]:
            kind = ls.get("kind")
            if kind == "dense":
                layers.append(Dense(ls["in_features"], ls["out_features"], dtype=dtype))
            elif kind == "conv2d":
                layers.append(Conv2d(ls["in_channels"], ls["out_channels"], ls["kernel_size"],
                                     padding=ls["padding"], dtype=dtype))
            elif kind == "maxpool2d":
                layers.append(MaxPool2d(ls["size"]))
            elif kind == "relu":
                layers.append(ReLU())
            elif kind == "flatten":
                layers.append(Flatten())
            else:
                raise ValueError(f"unknown layer kind {kind!r}")
        return cls(layers, spec["embedding_tap"], tuple(spec["input_shape"]), dtype=dtype)


def sgd_step(net: Network, lr: float, momentum: float = 0.0, weight_decay: float = 0.0) -> None:
    """Momentum SGD with decoupled L2: p -= lr * (v + wd * p), v = m * v + g.

    Velocity buffers live on the network and persist across calls.  lr == 0 is
    a valid no-op for the parameters (velocities still update).
    """
    if lr < 0:
        raise ValueError(f"learning rate must be >= 0, got {lr}")
    if not 0 <= momentum < 1:
        raise ValueError(f"momentum must be in [0, 1), got {momentum}")
    if weight_decay < 0:
        raise ValueError(f"weight decay must be >= 0, got {weight_decay}")
    for key, layer, pname, p in net.param_items():
        g = layer.grads()[pname]
        v = net.velocity.get(key)
        if v is None:
            v = np.zeros_like(p)
        v = momentum * v + g
        net.velocity[key] = v
        p -= (lr * v + (lr * weight_decay) * p).astype(p.dtype, copy=False)


def build_network(arch: str, input_shape: tuple[int, ...], n_classes: int,
                  rng: np.random.Generator, dtype=np.float32) -> Network:
    """Instantiate one of the named desk-scale architectures."""
    ch = input_shape[0]
    if arch == "teacher-cnn":
        layers = [
            Conv2d(ch, 8, 3, padding="same", rng=rng, dtype=dtype),
            ReLU(),
            MaxPool2d(2),
            Conv2d(8, 16, 3, padding="same", rng=rng, dtype=dtype),
            ReLU(),
            MaxPool2d(2),
            Flatten(),
        ]
        flat = 16 * (input_shape[1] // 4) * (input_shape[2] // 4)
        layers += [Dense(flat, 64, rng=rng, dtype=dtype), ReLU(), Dense(64, n_classes, rng=rng, dtype=dtype)]
        tap = len(layers) - 2
    elif arch == "student-mlp":
        flat = int(np.prod(input_shape))
        layers = [Flatten(), Dense(flat, 48, rng=rng, dtype=dtype), ReLU(),
                  Dense(48, n_classes, rng=rng, dtype=dtype)]
        tap = len(layers) - 2
    elif arch == "student-cnn":
        layers = [
            Conv2d(ch, 6, 3, padding="same", rng=rng, dtype=dtype),
            ReLU(),
            MaxPool2d(2),
            Flatten(),
        ]
        flat = 6 * (input_shape[1] // 2) * (input_shape[2] // 2)
        layers += [Dense(flat, 32, rng=rng, dtype=dtype), ReLU(), Dense(32, n_classes, rng=rng, dtype=dtype)]
        tap = len(layers) - 2
    else:
        raise ValueError(f"unknown architecture {arch!r}")
    return Network(layers, tap, input_shape, dtype=dtype)


ARCHITECTURES = ("teacher-cnn", "student-mlp", "student-cnn")
