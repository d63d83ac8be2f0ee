import dataclasses
import inspect
import struct

import numpy as np
import pytest

from distillab.data import (_SYNTH_BLOCK_FLOATS, CIFAR10_CLASSES, Dataset, load_cifar10_bin,
                            load_dataset, load_mnist_idx, make_synthetic, resolve_dataset,
                            save_dataset, split)
from distillab.errors import FormatError
from distillab.runstore import save_array


def _cifar_records(*labels, nbytes_extra=0):
    out = bytearray()
    for i, lab in enumerate(labels):
        out.append(lab)
        out.extend(bytes((j + i) % 256 for j in range(3072)))
    return bytes(out) + b"\0" * nbytes_extra


def _idx_images(n, rows, cols, magic=0x00000803):
    payload = bytes(i % 256 for i in range(n * rows * cols))
    return struct.pack(">IIII", magic, n, rows, cols) + payload


def _idx_labels(values, magic=0x00000801, count=None):
    count = len(values) if count is None else count
    return struct.pack(">II", magic, count) + bytes(values)


# --- CIFAR binary -----------------------------------------------------------

def test_cifar_round_trip_values(tmp_path):
    (tmp_path / "batch_1.bin").write_bytes(_cifar_records(3, 9))
    ds = load_cifar10_bin(tmp_path)
    assert ds.images.shape == (2, 3, 32, 32)
    assert ds.labels.tolist() == [3, 9]
    assert ds.class_names == CIFAR10_CLASSES
    assert ds.images.dtype == np.float32
    assert ds.images[0, 0, 0, 0] == np.float32(0 / 255)   # first pixel byte of record 0
    assert ds.images[1, 0, 0, 0] == np.float32(1 / 255)   # pattern shifts by record index
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
    pixels = np.frombuffer(_cifar_records(3, 9), np.uint8).reshape(2, 3073)[:, 1:]
    assert ds.images.tobytes() == (pixels.astype(np.float32) / 255.0).tobytes()


def test_cifar_concatenates_sorted_batches(tmp_path):
    (tmp_path / "b.bin").write_bytes(_cifar_records(1))
    (tmp_path / "a.bin").write_bytes(_cifar_records(2))
    ds = load_cifar10_bin(tmp_path)
    assert ds.labels.tolist() == [2, 1]


def test_cifar_missing_batches(tmp_path):
    with pytest.raises(FormatError, match="no .bin"):
        load_cifar10_bin(tmp_path)


def test_cifar_truncated_record_names_offset(tmp_path):
    (tmp_path / "x.bin").write_bytes(_cifar_records(0, nbytes_extra=10))
    with pytest.raises(FormatError, match="byte offset 3073"):
        load_cifar10_bin(tmp_path)


def test_cifar_empty_file(tmp_path):
    (tmp_path / "x.bin").write_bytes(b"")
    with pytest.raises(FormatError, match="empty"):
        load_cifar10_bin(tmp_path)


def test_cifar_bad_label_names_global_record(tmp_path):
    (tmp_path / "a.bin").write_bytes(_cifar_records(0, 1))
    (tmp_path / "b.bin").write_bytes(_cifar_records(10))
    with pytest.raises(FormatError, match="record 2"):
        load_cifar10_bin(tmp_path)


# --- MNIST IDX --------------------------------------------------------------

def test_mnist_round_trip(tmp_path):
    img = tmp_path / "img.idx"
    lbl = tmp_path / "lbl.idx"
    img.write_bytes(_idx_images(2, 4, 5))
    lbl.write_bytes(_idx_labels([0, 9]))
    ds = load_mnist_idx(img, lbl)
    assert ds.images.shape == (2, 1, 4, 5)
    assert ds.labels.tolist() == [0, 9]
    assert ds.class_names == [str(i) for i in range(10)]
    assert ds.images[0, 0, 0, 1] == np.float32(1 / 255)
    pixels = np.frombuffer(_idx_images(2, 4, 5), np.uint8, offset=16)
    assert ds.images.tobytes() == (pixels.astype(np.float32) / 255.0).tobytes()


def test_mnist_header_truncated(tmp_path):
    img = tmp_path / "img.idx"
    lbl = tmp_path / "lbl.idx"
    img.write_bytes(b"\x00\x00\x08")
    lbl.write_bytes(_idx_labels([0]))
    with pytest.raises(FormatError, match="header truncated at byte 3"):
        load_mnist_idx(img, lbl)


def test_mnist_wrong_magic(tmp_path):
    img = tmp_path / "img.idx"
    lbl = tmp_path / "lbl.idx"
    img.write_bytes(_idx_images(1, 2, 2, magic=0x00000805))
    lbl.write_bytes(_idx_labels([0]))
    with pytest.raises(FormatError, match="magic 0x00000805"):
        load_mnist_idx(img, lbl)


def test_mnist_count_mismatch(tmp_path):
    img = tmp_path / "img.idx"
    lbl = tmp_path / "lbl.idx"
    img.write_bytes(_idx_images(2, 2, 2))
    lbl.write_bytes(_idx_labels([0, 1, 2]))
    with pytest.raises(FormatError, match="2 items but label file has 3"):
        load_mnist_idx(img, lbl)


def test_mnist_image_payload_short(tmp_path):
    img = tmp_path / "img.idx"
    lbl = tmp_path / "lbl.idx"
    img.write_bytes(_idx_images(2, 2, 2)[:-3])
    lbl.write_bytes(_idx_labels([0, 1]))
    with pytest.raises(FormatError, match="payload is 5 bytes, expected 8"):
        load_mnist_idx(img, lbl)


def test_mnist_label_payload_short(tmp_path):
    img = tmp_path / "img.idx"
    lbl = tmp_path / "lbl.idx"
    img.write_bytes(_idx_images(3, 2, 2))
    lbl.write_bytes(_idx_labels([0, 1], count=3))
    with pytest.raises(FormatError, match="payload is 2 bytes, expected 3"):
        load_mnist_idx(img, lbl)


def test_mnist_bad_label_value(tmp_path):
    img = tmp_path / "img.idx"
    lbl = tmp_path / "lbl.idx"
    img.write_bytes(_idx_images(2, 2, 2))
    lbl.write_bytes(_idx_labels([4, 11]))
    with pytest.raises(FormatError, match="label 11 > 9 at record 1"):
        load_mnist_idx(img, lbl)


def _plain_ds(n=4, c=2):
    images = np.linspace(0, 1, n * 4, dtype=np.float32).reshape(n, 1, 2, 2)
    return Dataset(images=images, labels=np.arange(n) % c,
                   class_names=[f"c{i}" for i in range(c)])


# --- synthetic --------------------------------------------------------------

def test_synthetic_shapes_and_balance():
    ds = make_synthetic(seed=0, n_classes=3, per_class=10, img_side=8)
    assert ds.images.shape == (30, 1, 8, 8)
    assert ds.images.dtype == np.float32
    assert np.bincount(ds.labels, minlength=3).tolist() == [10, 10, 10]
    assert ds.human_probs.shape == (30, 3)
    assert np.allclose(ds.human_probs.sum(axis=1), 1.0, atol=1e-9)
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0


def test_synthetic_same_seed_is_bitwise_identical():
    a = make_synthetic(seed=5, n_classes=3, per_class=8, img_side=6)
    b = make_synthetic(seed=5, n_classes=3, per_class=8, img_side=6)
    assert a.digest() == b.digest()
    c = make_synthetic(seed=6, n_classes=3, per_class=8, img_side=6)
    assert c.digest() != a.digest()


def test_synthetic_zero_difficulty_is_template_exact():
    ds = make_synthetic(seed=1, n_classes=3, per_class=5, img_side=6, difficulty=0.0)
    for cls in range(3):
        imgs = ds.images[ds.labels == cls]
        assert np.all(imgs == imgs[0])          # every sample equals the template
        assert np.array_equal(imgs, imgs[:, :, :, ::-1])  # templates are flip-symmetric
    # human labels agree with the generating class when there is no noise
    assert np.array_equal(np.argmax(ds.human_probs, axis=1), ds.labels)


def test_synthetic_difficulty_widens_spread():
    easy = make_synthetic(seed=2, n_classes=2, per_class=20, img_side=6, difficulty=0.1)
    hard = make_synthetic(seed=2, n_classes=2, per_class=20, img_side=6, difficulty=1.5)
    def within_class_var(ds):
        return float(np.mean([ds.images[ds.labels == c].var() for c in range(2)]))
    assert within_class_var(hard) > within_class_var(easy)


def test_synthetic_rejects_single_class():
    with pytest.raises(ValueError):
        make_synthetic(seed=0, n_classes=1)


# every pixel, label and human probability of these sets is pinned: C = 2, 4 and 10,
# one and three channels, difficulty 0 and 2.5, d above 128, and d above one synthesis
# block (one row per block)
SYNTH_DIGESTS = [
    (dict(seed=0),
     "2dd4e01b1e63a94ffe96493b81a181a2b5b3f588eba1904487d0857447c51e85"),
    (dict(seed=3, n_classes=2, per_class=40, img_side=8, difficulty=0.0, channels=1),
     "59730f423693765e927a9123ff38aa4ffab44b7b36c8f88015e5623909314010"),
    (dict(seed=5, n_classes=4, per_class=30, img_side=12, difficulty=1.0, channels=3),
     "54dba74137816b34461767cc27dbf71ae75afb5df9cdf858a47761d332cb89f0"),
    (dict(seed=7, n_classes=10, per_class=12, img_side=32, difficulty=0.5, channels=3),
     "84476d78cddcf9cad02517d0aa1af35d89eb7f0f125233bafcd2cc11929f2e0d"),
    (dict(seed=11, n_classes=10, per_class=20, img_side=6, difficulty=2.5, channels=1),
     "18df76717d498f6554a35974e8faf6e53903c822f4179eab8e145deaab818ca5"),
    (dict(seed=13, n_classes=2, per_class=2, img_side=105, difficulty=0.8, channels=3),
     "f033585fc493753e1b71781ede699581ed39d982c666bf783eeea89641212b19"),
]


@pytest.mark.parametrize("kwargs,digest", SYNTH_DIGESTS,
                         ids=["default", "c2-flat", "c4-rgb", "c10-rgb32", "c10-hard",
                              "c2-rgb105"])
def test_synthetic_digests_are_pinned(kwargs, digest):
    assert make_synthetic(**kwargs).digest() == digest


def test_pinned_synthetic_sets_cover_ragged_blocks_across_classes():
    """The pins only show that blocking moves no byte if some pinned set has a short
    last block and a block holding rows of two classes."""
    def ragged_and_straddling(kw):
        a = inspect.signature(make_synthetic).bind(**kw)
        a.apply_defaults()
        per_class, n = a.arguments["per_class"], a.arguments["n_classes"] * a.arguments["per_class"]
        rows = max(1, _SYNTH_BLOCK_FLOATS // (a.arguments["channels"] * a.arguments["img_side"] ** 2))
        straddles = any(s // per_class != (min(s + rows, n) - 1) // per_class
                        for s in range(0, n, rows))
        return n % rows != 0 and straddles
    assert any(ragged_and_straddling(kw) for kw, _ in SYNTH_DIGESTS)


def test_synthetic_peaks_at_a_few_image_stacks(traced_peak):
    make_synthetic(seed=0, n_classes=2, per_class=2, img_side=4)  # first-call allocations
    stack = 10 * 200 * 12 * 12 * 8  # the float64 image stack
    # an [N, C, d] distance temporary alone would be 10 stacks
    assert traced_peak(lambda: make_synthetic(seed=0, n_classes=10, per_class=200)) < 3 * stack


def test_synthetic_peaks_near_its_float32_images_and_their_permuted_copy(traced_peak):
    make_synthetic(seed=0, n_classes=2, per_class=2, img_side=4)  # first-call allocations
    kw = dict(seed=0, n_classes=10, per_class=100, img_side=32, channels=3)
    images = 10 * 100 * 3 * 32 * 32 * 4  # the float32 result
    # the result and its permuted copy are 2x; a float64 stack of all rows would add 2x more
    assert traced_peak(lambda: make_synthetic(**kw)) < 2.5 * images


def test_dataset_digest_hashes_without_copying(traced_peak):
    ds = make_synthetic(seed=0, n_classes=10, per_class=200)
    ds.digest()
    assert traced_peak(ds.digest) < 0.5 * ds.images.nbytes


# --- splitting --------------------------------------------------------------

def test_split_sizes_disjoint_and_aligned():
    n = 40
    images = (np.arange(n, dtype=np.float32) / n).reshape(n, 1, 1, 1)
    human = np.stack([1 - np.arange(n) / n / 2, np.arange(n) / n / 2], axis=1)
    ds = Dataset(images=images, labels=np.arange(n) % 2, class_names=["a", "b"],
                 human_probs=human)
    parts = split(ds, [0.5, 0.25], seed=3)
    assert [p.n_samples for p in parts] == [20, 10]
    seen = []
    for part in parts:
        for k in range(part.n_samples):
            orig = int(round(float(part.images[k, 0, 0, 0]) * n))
            seen.append(orig)
            assert part.labels[k] == orig % 2          # labels moved with images
            assert part.human_probs[k, 1] == pytest.approx(orig / n / 2)
    assert len(set(seen)) == len(seen)                 # splits are disjoint


def test_split_is_seed_deterministic():
    ds = make_synthetic(seed=0, n_classes=2, per_class=10, img_side=6)
    a1, b1 = split(ds, [0.5, 0.5], seed=9)
    a2, b2 = split(ds, [0.5, 0.5], seed=9)
    assert a1.digest() == a2.digest() and b1.digest() == b2.digest()
    a3, _ = split(ds, [0.5, 0.5], seed=10)
    assert a3.digest() != a1.digest()


def test_split_validates_fractions():
    ds = make_synthetic(seed=0, n_classes=2, per_class=5, img_side=6)
    with pytest.raises(ValueError):
        split(ds, [], seed=0)
    with pytest.raises(ValueError):
        split(ds, [0.5, -0.1], seed=0)
    with pytest.raises(ValueError):
        split(ds, [0.8, 0.4], seed=0)


def test_split_rejects_rounded_sizes_beyond_the_dataset():
    images = np.arange(5, dtype=np.float32).reshape(5, 1, 1, 1)
    ds = Dataset(images=images, labels=np.arange(5) % 2, class_names=["a", "b"])
    # round(1.5) + round(3.5) = 2 + 4 asks for 6 of 5 samples
    with pytest.raises(ValueError, match=r"\[2, 4\].*5"):
        split(ds, [0.3, 0.7], seed=0)
    # a split that fits keeps consecutive slices of the seeded permutation
    perm = np.random.default_rng(np.random.SeedSequence(0)).permutation(5)
    a, b = split(ds, [0.3, 0.6], seed=0)
    assert a.images[:, 0, 0, 0].tolist() == perm[:2].tolist()
    assert b.images[:, 0, 0, 0].tolist() == perm[2:5].tolist()


# --- persistence ------------------------------------------------------------

def test_dataset_save_load_round_trip_bitwise(tmp_path):
    ds = make_synthetic(seed=4, n_classes=3, per_class=6, img_side=6)
    save_dataset(ds, tmp_path / "d")
    back = load_dataset(tmp_path / "d")
    assert back.digest() == ds.digest()
    assert back.images.dtype == ds.images.dtype
    assert back.class_names == ds.class_names


def test_dataset_save_load_without_humans(tmp_path):
    ds = _plain_ds()
    save_dataset(ds, tmp_path / "d")
    back = load_dataset(tmp_path / "d")
    assert back.human_probs is None
    assert back.digest() == ds.digest()


def test_a_dataset_saved_again_without_humans_loads_without_them(tmp_path):
    ds = make_synthetic(seed=4, n_classes=3, per_class=6, img_side=6)
    assert ds.human_probs is not None
    save_dataset(ds, tmp_path / "d")
    plain = dataclasses.replace(ds, human_probs=None)
    save_dataset(plain, tmp_path / "d")
    back = load_dataset(tmp_path / "d")
    assert back.human_probs is None
    assert back.digest() == plain.digest()
    assert not (tmp_path / "d" / "human_probs.arr").exists()


def test_load_dataset_missing_images(tmp_path):
    with pytest.raises(FormatError, match="images.arr"):
        load_dataset(tmp_path)


@pytest.mark.parametrize("text, why", [("{nope", "not valid JSON"),
                                       ('{"a": 1}', "list of strings"),
                                       ('["a", 2]', "list of strings")])
def test_load_dataset_names_malformed_classes_json(tmp_path, text, why):
    save_dataset(_plain_ds(), tmp_path / "d")
    meta = tmp_path / "d" / "classes.json"
    meta.write_text(text)
    with pytest.raises(FormatError, match=why) as info:
        load_dataset(tmp_path / "d")
    assert str(meta) in str(info.value)


@pytest.mark.parametrize("name, arr, why", [
    ("labels", np.array([0, 1, 4, 1]), r"labels outside \[0, 2\)"),
    ("labels", np.array([0, 1, 0]), "inconsistent with N=4"),
    ("human_probs", np.full((4, 4), 0.25), "human_probs shape"),
    ("images", np.zeros((4, 4), dtype=np.float32), "images must be"),
])
def test_load_dataset_arrays_that_do_not_fit_name_the_directory(tmp_path, name, arr, why):
    save_dataset(_plain_ds(), tmp_path / "d")
    save_array(arr, tmp_path / "d" / f"{name}.arr")
    with pytest.raises(FormatError, match=why) as info:
        load_dataset(tmp_path / "d")
    # the directory, and in it the file whose array does not fit
    assert str(info.value).startswith(f"{tmp_path / 'd' / name}.arr: ")


def test_resolve_dataset_dispatches(tmp_path):
    ds = make_synthetic(seed=8, n_classes=2, per_class=5, img_side=6)
    save_dataset(ds, tmp_path / "saved")
    assert resolve_dataset(tmp_path / "saved").digest() == ds.digest()

    cifar_dir = tmp_path / "cifar"
    cifar_dir.mkdir()
    (cifar_dir / "data.bin").write_bytes(_cifar_records(5))
    assert resolve_dataset(cifar_dir).labels.tolist() == [5]

    img = tmp_path / "img.idx"
    lbl = tmp_path / "lbl.idx"
    img.write_bytes(_idx_images(1, 2, 2))
    lbl.write_bytes(_idx_labels([7]))
    assert resolve_dataset(f"{img},{lbl}").labels.tolist() == [7]

    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(FormatError, match="neither"):
        resolve_dataset(empty)
    with pytest.raises(FormatError, match="no such"):
        resolve_dataset(tmp_path / "nope")