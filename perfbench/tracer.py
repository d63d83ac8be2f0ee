"""In-memory span tracer that wraps distillab's public functions from outside.

`Tracer.install()` replaces every public function of the traced modules (and
the forward/backward methods of the network layers) with a wrapper that
records a span: its inclusive duration and its self time, which is the
duration minus the time covered by child spans.  Every module that imported a
traced function by name gets the wrapper too, so calls made through
`from .probs import kl_div` are seen.  `uninstall()` puts the originals back.

Spans are aggregated by name in memory; nothing is written until the caller
asks for a snapshot.  No layer of distillab queues work, so spans carry no
wait time.
"""

from __future__ import annotations

import inspect
import os
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

LAYERS = ("augment", "nn", "distill", "probs", "metrics", "runstore", "data", "cli")
TEACHER_ARCH = "teacher-cnn"
TEACHER_BATCH = 64  # the grid's batch size; per-layer teacher timings are taken at it


@dataclass
class SpanStat:
    calls: int = 0
    self_s: float = 0.0
    durations: list = field(default_factory=list)  # inclusive seconds, one per call
    bytes: int = 0


def _record_flag(args, kwargs) -> bool:
    # forward(self, x, record=True): record arrives by keyword from Network.forward
    if "record" in kwargs:
        return bool(kwargs["record"])
    return bool(args[2]) if len(args) > 2 else True


class Tracer:
    def __init__(self):
        self.stats: dict[str, SpanStat] = defaultdict(SpanStat)
        self.samples: dict[str, list] = defaultdict(list)  # per-call times outside self-time accounting
        self._stack: list[float] = []
        self._arch: list[str | None] = []
        self._patches: list[tuple[object, str, object]] = []
        self._teacher_kinds: tuple[str, ...] = ()

    # -- span bookkeeping -------------------------------------------------

    def _wrap(self, fn, name, after=None):
        """Wrap fn; `name` is a string or a callable (args, kwargs) -> span name."""
        stack = self._stack
        stats = self.stats
        fixed = isinstance(name, str)

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                st = stats[name if fixed else name(args, kwargs)]
                st.calls += 1
                st.self_s += dur - child
                st.durations.append(dur)
                if after is not None:
                    after(st, dur, args, kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def reset(self) -> None:
        self.stats.clear()
        self.samples.clear()

    def snapshot(self) -> tuple[dict[str, SpanStat], dict[str, list]]:
        """Detach and return the spans gathered since the last reset."""
        out = (dict(self.stats), dict(self.samples))
        self.reset()
        return out

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        from distillab import nn

        ref = nn.build_network(TEACHER_ARCH, (1, 12, 12), 4, np.random.default_rng(0))
        self._teacher_kinds = tuple(layer.kind for layer in ref.layers)
        originals: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"distillab.{layer}"]
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                originals[id(fn)] = self._wrap(fn, *self._function_span(layer, attr))

        # rebind every reference to a wrapped function, wherever it was imported
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "distillab" or mod_name.startswith("distillab.")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._patch(mod, attr, wrapper)

        for cls in nn.LAYER_KINDS.values():
            kind = cls.kind
            self._patch(cls, "forward", self._wrap(
                cls.forward,
                lambda a, k, kind=kind: f"nn.{kind}.fwd" if _record_flag(a, k) else f"nn.{kind}.fwd_norecord",
                self._layer_sample("fwd")))
            self._patch(cls, "backward", self._wrap(
                cls.backward, f"nn.{kind}.bwd", self._layer_sample("bwd")))
        self._patch(nn.Network, "forward", self._network_span(
            nn.Network.forward,
            lambda a, k: "nn.forward" if _record_flag(a, k) else "nn.forward_norecord"))
        self._patch(nn.Network, "backward", self._network_span(nn.Network.backward, "nn.backward"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _function_span(self, layer, attr):
        name = f"{layer}.{attr}"
        if name in ("runstore.save_array", "runstore.sha256_file"):
            # both take the file path second or first; count its size once written
            index = 1 if attr == "save_array" else 0

            def count_bytes(st, dur, args, kwargs):
                path = args[index] if len(args) > index else kwargs["path"]
                st.bytes += os.path.getsize(path)
            return name, count_bytes
        if name == "augment.apply_strategy":
            samples = self.samples

            def per_batch(st, dur, args, kwargs):
                strategy = args[1] if len(args) > 1 else kwargs["strategy"]
                samples[f"augment.{strategy.kind}.batch"].append(dur)
            return name, per_batch
        return name, None

    def _network_span(self, method, name):
        """Span for Network.forward/backward that also tells layers which arch they run in."""
        arch = self._arch
        kinds = self._teacher_kinds

        def around(net, *args, **kwargs):
            arch.append(TEACHER_ARCH if tuple(l.kind for l in net.layers) == kinds else None)
            try:
                return method(net, *args, **kwargs)
            finally:
                arch.pop()

        around.__name__ = method.__name__
        return self._wrap(around, name)

    def _layer_sample(self, direction):
        """Per-call time of each teacher-cnn layer in a training step at the grid batch."""
        arch = self._arch
        samples = self.samples

        def after(st, dur, args, kwargs):
            if not arch or arch[-1] != TEACHER_ARCH:
                return
            if direction == "fwd" and not _record_flag(args, kwargs):
                return
            if args[1].shape[0] != TEACHER_BATCH:
                return
            index = args[0].name.split(":")[0]
            samples[f"nn.{TEACHER_ARCH}.{index}.{direction}"].append(dur)
        return after


# -- per-layer metrics --------------------------------------------------------

AUGMENT_KINDS = ("standard", "cutout", "mixup", "cutmix")
TEACHER_LAYERS = 10  # layers of teacher-cnn: conv, relu, pool, conv, relu, pool, flatten, dense, relu, dense


def _p50(values) -> float:
    return float(np.median(values)) if values else 0.0


def layer_metrics(stats: dict[str, SpanStat], samples: dict[str, list], wall_s: float,
                  runs: int) -> dict[str, float]:
    """The named per-layer metrics of one traced pass.

    busy_s is self time summed over the pass; ms_per_batch and *_us are the
    median of per-call times; `runs` is the number of run directories (grid)
    or evaluated models (eval-io) the pass produced.
    """
    def busy(name):
        return stats[name].self_s if name in stats else 0.0

    def calls(name):
        return stats[name].calls if name in stats else 0

    def layer_busy(prefix):
        return sum(st.self_s for name, st in stats.items() if name.startswith(prefix))

    m: dict[str, float] = {"augment.busy_s": layer_busy("augment."),
                           "augment.calls": calls("augment.apply_strategy")}
    for kind in AUGMENT_KINDS:
        m[f"augment.{kind}.ms_per_batch"] = _p50(samples.get(f"augment.{kind}.batch")) * 1e3
    for kind in ("conv2d", "maxpool2d", "dense", "relu"):
        m[f"nn.{kind}.fwd_norecord.busy_s"] = busy(f"nn.{kind}.fwd_norecord")
    m["nn.forward_norecord.calls"] = calls("nn.forward_norecord")
    recorded, unrecorded = calls("nn.maxpool2d.fwd"), calls("nn.maxpool2d.fwd_norecord")
    m["nn.maxpool2d.argmax_use_ratio"] = recorded / (recorded + unrecorded) if recorded + unrecorded else 0.0
    for span in ("conv2d.fwd", "conv2d.bwd", "maxpool2d.fwd", "maxpool2d.bwd", "dense.bwd", "sgd_step"):
        m[f"nn.{span}.busy_s"] = busy(f"nn.{span}")
    for i in range(TEACHER_LAYERS):
        for direction in ("fwd", "bwd"):
            m[f"nn.{TEACHER_ARCH}.{i}.{direction}_us"] = \
                _p50(samples.get(f"nn.{TEACHER_ARCH}.{i}.{direction}")) * 1e6
    m["distill.kd_loss.busy_s"] = busy("distill.kd_loss")
    m["distill.kd_loss.calls"] = calls("distill.kd_loss")
    m["distill.train.self_s"] = busy("distill.train_teacher") + busy("distill.train_student")
    m["distill.evaluate_model.self_s"] = busy("distill.evaluate_model")
    m["probs.kl_div.calls"] = calls("probs.kl_div")
    m["probs.kl_div.busy_s"] = busy("probs.kl_div")
    m["metrics.busy_s"] = layer_busy("metrics.")
    m["metrics.class_discrimination.busy_s"] = busy("metrics.class_discrimination")
    m["metrics.class_discrimination.calls"] = calls("metrics.class_discrimination")
    m["metrics.class_separability.busy_s"] = busy("metrics.class_separability")
    m["metrics.ece.busy_s"] = busy("metrics.ece")
    m["metrics.ece.calls"] = calls("metrics.ece")
    m["metrics.summary_calls_per_run"] = calls("metrics.summary_metrics") / runs if runs else 0.0
    for name in ("save_array", "sha256_file"):
        m[f"runstore.{name}.bytes"] = stats[f"runstore.{name}"].bytes if f"runstore.{name}" in stats else 0
        m[f"runstore.{name}.busy_s"] = busy(f"runstore.{name}")
    m["runstore.load_array.busy_s"] = busy("runstore.load_array")
    m["runstore.emit_report.self_s"] = busy("runstore.emit_report")
    m["runstore.read_manifest.busy_s"] = busy("runstore.read_manifest")
    for name in ("make_synthetic", "split", "load_dataset"):
        m[f"data.{name}.busy_s"] = busy(f"data.{name}")
    m["cli.self_s"] = wall_s - sum(st.self_s for name, st in stats.items() if not name.startswith("cli."))
    return m


def count_signature(stats: dict[str, SpanStat], samples: dict[str, list]) -> dict[str, tuple]:
    """Every count a traced pass produced; two passes of one workload must match exactly."""
    sig = {name: (st.calls, st.bytes) for name, st in stats.items()}
    sig.update({name: (len(v), 0) for name, v in samples.items()})
    return sig
