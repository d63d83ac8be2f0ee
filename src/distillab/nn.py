"""Minimal dense/conv network engine with hand-written backward passes.

Arrays are plain numpy ndarrays: float32 for training, float64 when checking
gradients against finite differences.  Layers cache their inputs during a
recorded forward pass so backward() can fill per-parameter gradient slots;
forward with record=False writes no layer or network state and is safe to run
concurrently on a frozen network.  The one thing it may fill is a process-wide
memo of im2col gather indices, a pure function of the input shape.

Shapes are NCHW throughout, but a convolution returns an NCHW view of
channels-last memory, and ReLU and max-pool keep whatever memory order they
are given, so the next convolution reads its input contiguously.
"""

from __future__ import annotations

import functools
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
    """One step of a Network.  A subclass declares its record in two tuples:
    `spec_fields`, the constructor arguments that its spec holds, and
    `param_names`, its parameters; parameter `p` has its gradient slot in `grad_p`."""

    kind = "?"
    name = "?"  # assigned by Network, e.g. "2:conv2d"
    spec_fields: tuple[str, ...] = ()
    param_names: tuple[str, ...] = ()

    def forward(self, x: np.ndarray, record: bool = True) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Fill the gradient slots and return d/d input.

        Layers with parameters also take input_grad=False, which fills the
        slots only and returns None.
        """
        raise NotImplementedError

    def params(self) -> dict[str, np.ndarray]:
        return {p: getattr(self, p) for p in self.param_names}

    def grads(self) -> dict[str, np.ndarray]:
        return {p: getattr(self, "grad_" + p) for p in self.param_names}

    def spec(self) -> dict:
        return {"kind": self.kind, **{f: getattr(self, f) for f in self.spec_fields}}


class Dense(Layer):
    kind = "dense"
    spec_fields = ("in_features", "out_features")
    param_names = ("weight", "bias")

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

    def backward(self, grad_out, input_grad=True):
        x = self._x
        self.grad_weight = x.T @ grad_out
        self.grad_bias = grad_out.sum(axis=0)
        return grad_out @ self.weight.T if input_grad else None


@functools.lru_cache(maxsize=32)
def _im2col_index(hp: int, wp: int, c: int, k: int) -> np.ndarray:
    """Flat offsets into one zero-padded channels-last image [hp, wp, C] of its
    stride-1 im2col columns [oh, ow, C, k, k]; read-only, as it is shared."""
    oh, ow = hp - k + 1, wp - k + 1
    r = np.arange(k)
    rows = (np.arange(oh)[:, None] + r)[:, None, None, :, None]
    cols = (np.arange(ow)[:, None] + r)[None, :, None, None, :]
    idx = ((rows * wp + cols) * c + np.arange(c)[:, None, None]).ravel()
    idx.flags.writeable = False
    return idx


class Conv2d(Layer):
    """2-D convolution, stride 1, padding 'valid' or 'same' (zero padding)."""

    kind = "conv2d"
    spec_fields = ("in_channels", "out_channels", "kernel_size", "padding")
    param_names = ("weight", "bias")

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
        b, c, h, w = x.shape
        k, o = self.kernel_size, self.out_channels
        lo, hi = self._pads()
        oh, ow = h + lo + hi - k + 1, w + lo + hi - k + 1
        if oh < 1 or ow < 1:
            raise ShapeError(f"layer {self.name}: kernel {k} larger than padded input "
                             f"{(h + lo + hi, w + lo + hi)}")
        # im2col in GEMM layout: zero-padded channels-last input, then one gather
        # into columns [B, oh, ow, C, k, k] whose row-major reshape is the GEMM's
        # left operand.  A zero-row batch (Network's shape probe) builds no index
        # and no tiled bias: its declared shape may be too large to allocate.
        hp, wp = h + lo + hi, w + lo + hi
        xp = np.zeros((b, hp, wp, c), dtype=x.dtype)
        xp[:, lo:lo + h, lo:lo + w] = x.transpose(0, 2, 3, 1)
        if b:
            # the index is in range by construction: mode "wrap" gathers the same
            # elements ~1.5x faster than the default "raise"
            cols = np.take(xp.reshape(b, hp * wp * c), _im2col_index(hp, wp, c, k), axis=1,
                           mode="wrap")
        else:
            cols = np.empty((0, oh * ow * c * k * k), dtype=x.dtype)
        cols = cols.reshape(b, oh, ow, c, k, k)
        if record:
            self._cols = cols
            self._in_shape = x.shape
        # the weight operand stays the F-order view of [O, C*k*k]: a C-order copy
        # hands BLAS another transposition flag, which can move the last ulp
        prod = np.dot(cols.reshape(b * oh * ow, c * k * k), self.weight.reshape(o, c * k * k).T)
        if b:
            # the bias tiled over one image's rows: broadcast over [B*oh*ow, O]
            # alone, numpy adds it in inner loops of only O elements
            prod.reshape(b, oh * ow * o)[...] += self.bias[None].repeat(oh * ow, axis=0).ravel()
        return prod.reshape(b, oh, ow, o).transpose(0, 3, 1, 2)

    def backward(self, grad_out, input_grad=True):
        cols = self._cols
        b, c, h, w = self._in_shape
        k, o = self.kernel_size, self.out_channels
        lo, _ = self._pads()
        oh, ow = grad_out.shape[2], grad_out.shape[3]
        n = b * oh * ow
        # The weight and bias reductions read the gradient as numpy would a C-contiguous
        # NCHW copy (numpy's summation order and the operands BLAS is handed follow the
        # layout, and either can move the last ulp), from one copy in [O, B, oh, ow]
        # order: the weight product's operand itself, and for the bias each
        # (image, channel) run summed pairwise, then the images in order.
        g = np.ascontiguousarray(grad_out.transpose(1, 0, 2, 3))
        runs = np.add.reduce(g.reshape(o, b, oh * ow), axis=2)
        self.grad_bias = np.add.reduce(np.ascontiguousarray(runs.T), axis=0)
        self.grad_weight = np.dot(g.reshape(o, n), cols.reshape(n, -1)).reshape(self.weight.shape)
        if not input_grad:
            return None
        # grad wrt columns [B, oh, ow, C, k, k], from the gradient's rows in channels-last
        # order (the memory a convolution's output arrives in), scatter-added into the
        # channels-last input one kernel offset at a time, in (i, j) order; each offset
        # adds only the rows and columns that land inside the unpadded input
        rows = grad_out.transpose(0, 2, 3, 1).reshape(n, o)
        gcols = np.dot(rows, self.weight.reshape(o, -1)).reshape(b, oh, ow, c, k, k)
        gx = np.zeros((b, h, w, c), dtype=grad_out.dtype)
        for i in range(k):
            y0, y1 = max(lo - i, 0), min(lo - i + h, oh)
            for j in range(k):
                x0, x1 = max(lo - j, 0), min(lo - j + w, ow)
                gx[:, y0 + i - lo:y1 + i - lo, x0 + j - lo:x1 + j - lo] += gcols[:, y0:y1, x0:x1, :, i, j]
        return gx.transpose(0, 3, 1, 2)


def _max_fold(arrays: list[np.ndarray]) -> np.ndarray:
    """The elementwise maximum of same-shape arrays as a new array, folded from the last
    back with each earlier array as np.maximum's second operand, which it returns on
    equal inputs (+0 vs -0): a tie keeps the earliest array's element."""
    out = np.maximum(arrays[-1], arrays[-2]) if len(arrays) > 1 else arrays[0].copy(order="K")
    for a in reversed(arrays[:-2]):
        np.maximum(out, a, out=out)
    return out


class MaxPool2d(Layer):
    """Non-overlapping max pooling; spatial dims must divide by the window size.

    The window maximum is the maximum over the window's rows of each row's
    maximum over its columns, both folds over the phase slices
    x[:, :, i::s, j::s], so a tie keeps the first element in row-major window
    order.  A recorded forward also keeps one mask per phase marking the
    windows whose maximum it routes the gradient to: that same first element,
    so ties (common after ReLU, where whole windows are zero) go to the first
    occurrence, and a window holding a NaN routes nothing.  Backward writes
    grad_out * mask into each phase slice, so a position that takes no
    gradient holds a zero signed like the gradient, as in ReLU.
    """

    kind = "maxpool2d"
    spec_fields = ("size",)

    def __init__(self, size: int = 2):
        self.size = size
        self._masks = None
        self._in_shape = None

    def _phases(self, x):
        s = self.size
        return [x[:, :, i::s, j::s] for i in range(s) for j in range(s)]

    def forward(self, x, record=True):
        s = self.size
        if x.ndim != 4 or x.shape[2] % s or x.shape[3] % s:
            raise ShapeError(f"layer {self.name}: spatial dims of {x.shape} not divisible by {s}")
        # row i of every window as one view; its column phases are its views [..., j::s]
        rows = [x[:, :, i::s] for i in range(s)]
        row_max = [_max_fold([row[..., j::s] for j in range(s)]) for row in rows]
        # the row maxima folded into the last row's array, which becomes the output
        out = row_max[-1]
        for m in reversed(row_max[:-1]):
            np.maximum(out, m, out=out)
        if record:
            # the first row whose maximum is the window's, then its first column that
            # holds it; a NaN equals nothing, so its window takes no row.  The last row
            # takes every window that no earlier row took, but one whose maximum is NaN:
            # its maximum is now the output itself
            taken = np.zeros_like(out, dtype=bool)
            self._masks = []
            for row, m in zip(rows, row_max):
                free = (m == out) > taken
                taken |= free
                for j in range(s - 1):
                    hit = (row[..., j::s] == m) & free
                    free = free > hit
                    self._masks.append(hit)
                self._masks.append(free)
            self._in_shape = x.shape
        return out

    def backward(self, grad_out):
        # work in the memory order of the recorded forward (channels-last after a
        # convolution), which the masks share: a multiply across two orders runs
        # ~6x slower than copying grad_out over first
        like = self._masks[0]
        g = np.empty_like(like, dtype=grad_out.dtype)
        np.copyto(g, grad_out)
        # the phases tile the input, so every element of gx is written once
        gx = np.empty_like(like, dtype=grad_out.dtype, shape=self._in_shape)
        for view, m in zip(self._phases(gx), self._masks):
            np.multiply(g, m, out=view)
        return gx


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


class Flatten(Layer):
    kind = "flatten"

    def __init__(self):
        self._in_shape = None

    def forward(self, x, record=True):
        if record:
            self._in_shape = x.shape
        return x.reshape(x.shape[0], math.prod(x.shape[1:]))

    def backward(self, grad_out):
        return grad_out.reshape(self._in_shape)


LAYER_KINDS = {cls.kind: cls for cls in (Dense, Conv2d, MaxPool2d, ReLU, Flatten)}


class Network:
    """Ordered layer stack producing logits and a penultimate embedding.

    `embedding_tap` indexes the layer whose (flattened) output is reported as
    the embedding.  Training mutates the instance and must be serialized by
    the caller; forward with record=False leaves the instance untouched (see
    the module docstring for the one process-wide memo it may fill).
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
        # a zero-row probe runs every layer's own shape check and allocates nothing
        logits, emb = self.forward(np.zeros((0, *self.input_shape), dtype=self.dtype), record=False)
        if logits.ndim != 2:
            raise ShapeError("network must end with a layer producing [B, C] logits")
        self.n_outputs = logits.shape[1]
        self.embedding_dim = emb.shape[1]

    def forward(self, batch: np.ndarray, record: bool = True):
        """Run the stack; returns (logits [B, C], embeddings [B, d])."""
        x = np.asarray(batch, dtype=self.dtype)
        if x.shape[1:] != self.input_shape:
            raise ShapeError(f"network input: expected [B, {self.input_shape}], got {x.shape}")
        emb = None
        for i, layer in enumerate(self.layers):
            x = layer.forward(x, record=record)
            if i == self.embedding_tap:
                emb = x.reshape(x.shape[0], math.prod(x.shape[1:]))
        if record:
            self._forward_done = True
        if not np.all(np.isfinite(x)):
            raise FloatingPointError("non-finite logits; training has diverged")
        return x, emb

    def backward(self, grad_logits: np.ndarray) -> None:
        """Backpropagate from the logits, filling every gradient slot.

        Nothing reads the gradient with respect to the network's input, so
        backpropagation stops at the lowest layer with parameters, which fills
        its parameter gradients only.
        """
        if not self._forward_done:
            raise RuntimeError("backward called before a recorded forward pass")
        g = np.asarray(grad_logits, dtype=self.dtype)
        trainable = [i for i, layer in enumerate(self.layers) if layer.param_names]
        if not trainable:
            return
        for layer in reversed(self.layers[trainable[0] + 1:]):
            g = layer.backward(g)
        self.layers[trainable[0]].backward(g, input_grad=False)

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
            if kind not in LAYER_KINDS:
                raise ValueError(f"unknown layer kind {kind!r}")
            kwargs = {k: v for k, v in ls.items() if k != "kind"}
            if LAYER_KINDS[kind].param_names:  # parameters take the network's dtype
                kwargs["dtype"] = dtype
            layers.append(LAYER_KINDS[kind](**kwargs))
        return cls(layers, spec["embedding_tap"], tuple(spec["input_shape"]), dtype=dtype)


def sgd_step(net: Network, lr: float, momentum: float = 0.0, weight_decay: float = 0.0) -> None:
    """Momentum SGD with decoupled L2: p -= lr * (v + wd * p), v = m * v + g.

    Velocity buffers live on the network, persist across calls and are updated
    in place.  lr == 0 is a valid no-op for the parameters (velocities still
    update).
    """
    if not lr >= 0:  # a NaN fails every comparison
        raise ValueError(f"learning rate must be >= 0, got {lr}")
    if not 0 <= momentum < 1:
        raise ValueError(f"momentum must be in [0, 1), got {momentum}")
    if not weight_decay >= 0:
        raise ValueError(f"weight decay must be >= 0, got {weight_decay}")
    decay = lr * weight_decay
    for i, layer in enumerate(net.layers):
        for pname in layer.param_names:
            p = getattr(layer, pname)
            key = f"{i}.{pname}"
            v = net.velocity.get(key)
            if v is None:
                v = net.velocity[key] = np.zeros_like(p)
            v *= momentum
            v += getattr(layer, "grad_" + pname)
            step = lr * v
            step += decay * p
            p -= step


# name -> (conv widths, hidden dense width).  Each conv is a 3x3 "same" conv,
# ReLU and 2x2 max-pool; then flatten, dense, ReLU (the embedding), dense logits.
ARCHITECTURE_TABLE = {
    "teacher-cnn": ((8, 16), 64),
    "student-mlp": ((), 48),
    "student-cnn": ((6,), 32),
}
ARCHITECTURES = tuple(ARCHITECTURE_TABLE)


def build_network(arch: str, input_shape: tuple[int, ...], n_classes: int,
                  rng: np.random.Generator) -> Network:
    """Instantiate one of the named desk-scale architectures."""
    if arch not in ARCHITECTURE_TABLE:
        raise ValueError(f"unknown architecture {arch!r}")
    convs, hidden = ARCHITECTURE_TABLE[arch]
    ch, h, w = input_shape
    layers = []
    for out in convs:
        layers += [Conv2d(ch, out, 3, padding="same", rng=rng), ReLU(), MaxPool2d(2)]
        ch, h, w = out, h // 2, w // 2
    layers += [Flatten(), Dense(ch * h * w, hidden, rng=rng), ReLU(), Dense(hidden, n_classes, rng=rng)]
    return Network(layers, len(layers) - 2, input_shape)
