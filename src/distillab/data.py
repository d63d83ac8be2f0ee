"""Dataset ingestion and synthesis.

Real-data loaders parse the CIFAR-10 binary batch format (3073-byte records)
and the MNIST IDX format bit-exactly, rejecting malformed files with
position-bearing diagnostics.  `make_synthetic` builds seeded desk-scale
class-template datasets (with fabricated human label distributions) that the
training and metrics pipeline exercises end to end.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError
from .probs import check_prob_rows, softmax_t
from .runstore import load_arrays, save_arrays

CIFAR10_CLASSES = ["airplane", "automobile", "bird", "cat", "deer",
                   "dog", "frog", "horse", "ship", "truck"]
_CIFAR_RECORD = 3073  # 1 label byte + 3 * 32 * 32 pixel bytes
_SYNTH_BLOCK_FLOATS = 1 << 15  # float64 values in one make_synthetic block: 256 KiB


@dataclass
class Dataset:
    """Image stack [N, channels, H, W] in [0,1] with integer labels."""

    images: np.ndarray
    labels: np.ndarray
    class_names: list[str]
    human_probs: np.ndarray | None = None

    def __post_init__(self):
        self.images = np.asarray(self.images)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.ndim != 4:
            raise ValueError(f"images must be [N, channels, H, W], got shape {self.images.shape}")
        n = self.images.shape[0]
        if self.labels.shape != (n,):
            raise ValueError(f"labels shape {self.labels.shape} inconsistent with N={n}")
        c = len(self.class_names)
        if n and (self.labels.min() < 0 or self.labels.max() >= c):
            raise ValueError(f"labels outside [0, {c})")
        if self.human_probs is not None:
            self.human_probs = np.asarray(self.human_probs)
            check_prob_rows(self.human_probs, "human_probs")
            if self.human_probs.shape != (n, c):
                raise ValueError(
                    f"human_probs shape {self.human_probs.shape}, expected {(n, c)}")

    @property
    def n_samples(self) -> int:
        return self.images.shape[0]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def one_hot(self) -> np.ndarray:
        out = np.zeros((self.n_samples, self.n_classes), dtype=np.float32)
        out[np.arange(self.n_samples), self.labels] = 1
        return out

    def digest(self) -> str:
        """Content hash over every field, for manifests."""
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.images))  # hashed in place, not copied
        h.update(np.ascontiguousarray(self.labels))
        h.update(json.dumps(self.class_names).encode())
        if self.human_probs is not None:
            h.update(np.ascontiguousarray(self.human_probs))
        return h.hexdigest()


def load_cifar10_bin(dir_path: str | Path) -> Dataset:
    """Load every .bin batch under a directory (3073-byte records, pixels planar RGB)."""
    d = Path(dir_path)
    files = sorted(d.glob("*.bin"))
    if not files:
        raise FormatError(f"{d}: no .bin batch files found")
    all_labels = []
    all_images = []
    base = 0
    for f in files:
        raw = f.read_bytes()
        if len(raw) % _CIFAR_RECORD:
            raise FormatError(
                f"{f}: length {len(raw)} is not a multiple of {_CIFAR_RECORD}; "
                f"record truncated at byte offset {len(raw) - len(raw) % _CIFAR_RECORD}")
        if not raw:
            raise FormatError(f"{f}: empty batch file")
        rec = np.frombuffer(raw, dtype=np.uint8).reshape(-1, _CIFAR_RECORD)
        labels = rec[:, 0]
        bad = np.flatnonzero(labels > 9)
        if bad.size:
            raise FormatError(f"{f}: label byte {labels[bad[0]]} > 9 at record {base + int(bad[0])}")
        all_labels.append(labels.astype(np.int64))
        all_images.append(rec[:, 1:].reshape(-1, 3, 32, 32))
        base += rec.shape[0]
    images = np.concatenate(all_images, dtype=np.float32)
    images /= 255.0
    return Dataset(images=images, labels=np.concatenate(all_labels),
                   class_names=list(CIFAR10_CLASSES))


def _read_idx_header(raw: bytes, path, want_magic: int, n_dims: int):
    need = 4 * (1 + n_dims)
    if len(raw) < need:
        raise FormatError(f"{path}: header truncated at byte {len(raw)} (need {need})")
    magic = struct.unpack_from(">I", raw, 0)[0]
    if magic != want_magic:
        raise FormatError(f"{path}: magic 0x{magic:08x} at offset 0, expected 0x{want_magic:08x}")
    dims = struct.unpack_from(f">{n_dims}I", raw, 4)
    return dims, need


def load_mnist_idx(images_path: str | Path, labels_path: str | Path) -> Dataset:
    """Load an IDX image/label file pair (big-endian headers, u8 payload)."""
    img_raw = Path(images_path).read_bytes()
    lbl_raw = Path(labels_path).read_bytes()
    (n_img, rows, cols), img_off = _read_idx_header(img_raw, images_path, 0x00000803, 3)
    (n_lbl,), lbl_off = _read_idx_header(lbl_raw, labels_path, 0x00000801, 1)
    if n_img != n_lbl:
        raise FormatError(f"image file has {n_img} items but label file has {n_lbl}")
    expect = n_img * rows * cols
    if len(img_raw) - img_off != expect:
        raise FormatError(f"{images_path}: payload is {len(img_raw) - img_off} bytes, expected {expect}")
    if len(lbl_raw) - lbl_off != n_lbl:
        raise FormatError(f"{labels_path}: payload is {len(lbl_raw) - lbl_off} bytes, expected {n_lbl}")
    labels = np.frombuffer(lbl_raw, dtype=np.uint8, offset=lbl_off)
    bad = np.flatnonzero(labels > 9)
    if bad.size:
        raise FormatError(f"{labels_path}: label {labels[bad[0]]} > 9 at record {int(bad[0])}")
    images = np.frombuffer(img_raw, dtype=np.uint8, offset=img_off).astype(np.float32)
    images /= 255.0
    return Dataset(images=images.reshape(n_img, 1, rows, cols), labels=labels.astype(np.int64),
                   class_names=[str(i) for i in range(10)])


def make_synthetic(seed: int, n_classes: int = 4, per_class: int = 500,
                   img_side: int = 12, difficulty: float = 0.5, channels: int = 1,
                   contrast: float = 1.0, brightness: float = 0.0,
                   human_temp: float = 0.05) -> Dataset:
    """Seeded class-template dataset with fabricated human label distributions.

    Each class gets a fixed random template that is spatially smoothed (so
    small crops stay close to the original, as for natural images) and
    symmetrized left-right (so a horizontal flip is label-preserving); a
    sample is its class template plus Gaussian noise scaled by `difficulty`,
    then an affine contrast/brightness shift (the distribution-shift knobs),
    clipped to [0,1].  Human distributions are a softmax over negative
    mean-squared template-match distances at `human_temp`; difficulty=0 makes
    classes exactly template-separable.
    """
    if n_classes < 2:
        raise ValueError(f"need at least 2 classes, got {n_classes}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    templates = rng.uniform(0.0, 1.0, size=(n_classes, channels, img_side, img_side))
    for _ in range(3):  # separable [1,2,1]/4 blur, reflect edges
        for axis in (2, 3):
            p = np.pad(templates, [(0, 0)] * axis + [(1, 1)] + [(0, 0)] * (3 - axis),
                       mode="reflect")
            lo = np.take(p, range(0, img_side), axis=axis)
            mid = np.take(p, range(1, img_side + 1), axis=axis)
            hi = np.take(p, range(2, img_side + 2), axis=axis)
            templates = (lo + 2.0 * mid + hi) / 4.0
    templates = 0.5 * (templates + templates[:, :, :, ::-1])
    span = templates.max(axis=(1, 2, 3), keepdims=True) - templates.min(axis=(1, 2, 3), keepdims=True)
    templates = 0.15 + 0.7 * (templates - templates.min(axis=(1, 2, 3), keepdims=True)) / span
    n = n_classes * per_class
    dim = channels * img_side * img_side
    labels = np.repeat(np.arange(n_classes), per_class)
    flat_templates = templates.reshape(n_classes, dim)
    images = np.empty((n, channels, img_side, img_side), dtype=np.float32)
    flat_images = images.reshape(n, dim)
    # negative mean-squared distance to each template -> soft "human" labels
    d2 = np.empty((n, n_classes))
    # One block of rows at a time, so the float64 scratch is O(block) and not O(N).
    # The noise stream is drawn in the same order as one [N, d] draw, and each row
    # keeps its arithmetic and its length-d mean, so no byte depends on the block size.
    rows = max(1, _SYNTH_BLOCK_FLOATS // dim)
    diff = np.empty((rows, dim))
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        block = rng.normal(0.0, 0.35 * difficulty, size=(stop - start, dim))
        block += flat_templates[labels[start:stop]]
        block *= contrast
        block += brightness
        np.clip(block, 0.0, 1.0, out=block)
        scratch = diff[:stop - start]
        for k, t in enumerate(flat_templates):
            np.subtract(block, t, out=scratch)
            np.square(scratch, out=scratch)
            d2[start:stop, k] = scratch.mean(axis=1)
        flat_images[start:stop] = block
    human = softmax_t(-d2, temperature=human_temp)
    perm = rng.permutation(n)
    return Dataset(images=images[perm], labels=labels[perm],
                   class_names=[f"class-{i}" for i in range(n_classes)],
                   human_probs=human[perm])


def split(ds: Dataset, fractions: list[float], seed: int) -> list[Dataset]:
    """Disjoint seeded-shuffle splits carrying every field along."""
    if not fractions or any(f <= 0 for f in fractions):
        raise ValueError(f"fractions must be positive, got {fractions}")
    if sum(fractions) > 1.0 + 1e-9:
        raise ValueError(f"fractions sum to {sum(fractions)} > 1")
    sizes = [int(round(f * ds.n_samples)) for f in fractions]
    if sum(sizes) > ds.n_samples:
        raise ValueError(f"split sizes {sizes} need {sum(sizes)} samples, dataset has {ds.n_samples}")
    perm = np.random.default_rng(np.random.SeedSequence(seed)).permutation(ds.n_samples)
    out = []
    start = 0
    for size in sizes:
        idx = perm[start:start + size]
        start += size
        out.append(Dataset(
            images=ds.images[idx], labels=ds.labels[idx], class_names=list(ds.class_names),
            human_probs=ds.human_probs[idx] if ds.human_probs is not None else None))
    return out


def save_dataset(ds: Dataset, dir_path: str | Path) -> None:
    """Write a dataset as array containers plus a class-name listing."""
    save_arrays(dir_path, {"images": ds.images, "labels": ds.labels,
                           "human_probs": ds.human_probs})
    (Path(dir_path) / "classes.json").write_text(json.dumps(ds.class_names, indent=2) + "\n",
                                                 encoding="utf-8")


def load_dataset(dir_path: str | Path) -> Dataset:
    d = Path(dir_path)
    if not (d / "images.arr").exists():
        raise FormatError(f"{d}: no images.arr; not a saved dataset directory")
    meta = d / "classes.json"
    try:
        names = json.loads(meta.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{meta}: not valid JSON ({exc})") from None
    if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
        raise FormatError(f"{meta}: class names must be a JSON list of strings")
    a = load_arrays(d, ("images", "labels"), optional=("human_probs",))
    try:
        return Dataset(images=a["images"], labels=a["labels"], class_names=names,
                       human_probs=a["human_probs"])
    except ValueError as exc:
        raise FormatError(f"{d}: {exc}") from None


def resolve_dataset(spec: str | Path) -> Dataset:
    """Interpret a CLI dataset argument.

    A directory with images.arr loads as a saved dataset; a directory with
    .bin files loads as CIFAR-10 batches; "IMAGES,LABELS" (two comma-joined
    file paths) loads as an MNIST IDX pair.
    """
    text = str(spec)
    if "," in text:
        img, lbl = text.split(",", 1)
        return load_mnist_idx(img, lbl)
    p = Path(text)
    if p.is_dir():
        if (p / "images.arr").exists():
            return load_dataset(p)
        if any(p.glob("*.bin")):
            return load_cifar10_bin(p)
        raise FormatError(f"{p}: directory holds neither a saved dataset nor .bin batches")
    raise FormatError(f"{p}: no such dataset directory")