"""End-to-end acceptance battery.

Each test prints exactly one [PASS]/[FAIL]/[REPORT] line (visible without -s)
summarizing the check it performed, then asserts.  The desk-scale grid run in
criterion 5 is session-scoped and shared by criteria 6 and 7.
"""

import copy
import csv
import math
import struct
import time

import numpy as np
import pytest

from distillab.augment import AugmentStrategy, apply_strategy
from distillab.cli import dataset_from_desc, main as cli_main
from distillab.data import load_cifar10_bin, load_mnist_idx
from distillab.distill import kd_loss
from distillab.errors import FormatError
from distillab.metrics import (EvalDump, class_discrimination, class_means, class_separability,
                               confusion_metrics, ece, kl_matrix, summary_metrics)
from distillab.runstore import load_array, load_eval_dump, read_manifest, save_array

from gradcheck import run_all
from oracles import (cutmix_one, discrimination_pairs, ece_rebin, kld_matrix_loops, mixup_one,
                     random_dump_arrays, read_matrix_csv, read_metrics_csv, read_reliability_csv,
                     separability_pairs, softmax_scalar)


@pytest.fixture
def announce(capsys):
    def _p(tag, label, ok_or_text):
        with capsys.disabled():
            if isinstance(ok_or_text, bool):
                status = "PASS" if ok_or_text else "FAIL"
                print(f"\n[{status}] {tag}: {label}")
            else:
                print(f"\n[REPORT] {tag}: {label} — {ok_or_text}")
    return _p


@pytest.fixture(scope="session")
def matrix_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("grid") / "run1"
    t0 = time.perf_counter()
    code = cli_main(["matrix", "--seed", "0", "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert code == 0
    with open(out / "matrix_metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {"out": out, "elapsed": elapsed, "rows": rows}


# --- 1: gradient fidelity ---------------------------------------------------

def test_1_gradient_fidelity(announce):
    t0 = time.perf_counter()
    results = run_all(seed=0, instances=20)
    elapsed = time.perf_counter() - t0
    worst = max(results.values())
    ok = worst < 1e-5 and elapsed < 30.0
    announce("1 gradient-fidelity",
             f"all backward passes vs central differences, 20 instances each: "
             f"max rel err {worst:.2e}, {elapsed:.1f}s (budget 1e-5, 30s)", ok)
    assert worst < 1e-5, results
    assert elapsed < 30.0


# --- 2: metric oracle equivalence -------------------------------------------

def test_2_metric_oracle_equivalence(announce):
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        probs, emb, labels, human, c = random_dump_arrays(rng, n_max=500, c_max=10, d_max=64)
        dump = EvalDump(probs=probs, embeddings=emb, true_labels=labels, human_probs=human)

        n_bins = int(rng.integers(1, 21))
        dev = abs(ece(dump, n_bins).ece - ece_rebin(probs, labels, n_bins))
        worst = max(worst, dev)

        dev = abs(class_separability(dump) - separability_pairs(probs, labels, c))
        worst = max(worst, dev)

        rep = class_discrimination(dump)
        coh, adh, disc = discrimination_pairs(emb, labels, c)
        worst = max(worst, float(np.max(np.abs(rep.cohesion - np.asarray(coh)))))
        worst = max(worst, max(abs(rep.adhesion[k] - v) for k, v in adh.items()))
        worst = max(worst, abs(rep.discrimination - disc))

        kld = kl_matrix(class_means(dump, human), class_means(dump, probs))
        dev = float(np.max(np.abs(kld - kld_matrix_loops(probs, human, labels, c))))
        worst = max(worst, dev)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 60.0
    announce("2 metric-oracles",
             f"ece/separability/discrimination/kld-matrix vs brute force on 50 dumps: "
             f"max abs dev {worst:.2e}, {elapsed:.1f}s (budget 1e-6, 60s)", ok)
    assert worst < 1e-6
    assert elapsed < 60.0


# --- 3: augmentation algebra ------------------------------------------------

def test_3_augmentation_algebra(announce):
    rng = np.random.default_rng(303)
    failures = []
    for trial in range(1000):
        ch = int(rng.integers(1, 3))
        side = int(rng.integers(5, 10))
        n_classes = int(rng.integers(2, 6))
        x = rng.random((2, ch, side, side))
        y = np.eye(n_classes)[rng.integers(n_classes, size=2)]

        # replay each batch draw through the per-image oracle to learn lam and the mask
        replay = copy.deepcopy(rng)
        partners = replay.permutation(2)
        out, lab = apply_strategy((x, y), AugmentStrategy("mixup"), rng)
        for i, j in enumerate(partners):
            _, _, lam = mixup_one(x[i], x[j], y[i], y[j], 1.0, replay)
            if not np.array_equal(lab[i], lam * y[i] + (1.0 - lam) * y[j]):
                failures.append((trial, "mixup label not exact"))
        if out.min() < 0 or out.max() > 1:
            failures.append((trial, "mixup pixels out of range"))

        replay = copy.deepcopy(rng)
        partners = replay.permutation(2)
        out, lab = apply_strategy((x, y), AugmentStrategy("cutmix"), rng)
        for i, j in enumerate(partners):
            pixels, _, lam, mask = cutmix_one(x[i], x[j], y[i], y[j], replay)
            measured = 1.0 - float(mask.sum()) / (side * side)
            if not np.array_equal(out[i], pixels):
                failures.append((trial, "cutmix pixels differ from the per-image paste"))
            if lam != measured:
                failures.append((trial, "cutmix lambda != retained fraction"))
            if not np.array_equal(lab[i], measured * y[i] + (1.0 - measured) * y[j]):
                failures.append((trial, "cutmix label not exact"))
        if out.min() < 0 or out.max() > 1:
            failures.append((trial, "cutmix pixels out of range"))

        for kind in ("standard", "cutout"):
            other, other_lab = apply_strategy((x, y), AugmentStrategy(kind), rng)
            if other.min() < 0 or other.max() > 1:
                failures.append((trial, "augmented pixels out of range"))
            if np.any(np.abs(other_lab.sum(axis=1) - 1.0) > 1e-6):
                failures.append((trial, "label mass drifted"))
        if np.any(np.abs(lab.sum(axis=1) - 1.0) > 1e-6):
            failures.append((trial, "mixed label mass drifted"))
    ok = not failures
    announce("3 augmentation-algebra",
             f"1000 randomized trials: exact mixed labels, exact cutmix fraction, "
             f"ranges and label mass preserved ({len(failures)} violations)", ok)
    assert not failures, failures[:5]


# --- 4: loss endpoints ------------------------------------------------------

def test_4_loss_endpoints(announce):
    rng = np.random.default_rng(404)
    worst_ce = 0.0
    worst_kl = 0.0
    for _ in range(200):
        bsz = int(rng.integers(1, 6))
        c = int(rng.integers(2, 8))
        s = rng.normal(0, 3, (bsz, c))
        t = rng.normal(0, 3, (bsz, c))
        y = rng.dirichlet(np.ones(c), size=bsz)
        tau = float(rng.uniform(0.5, 25.0))

        # w=0 must equal plain cross-entropy (independent per-element loops)
        ce_rows = []
        for i in range(bsz):
            p = softmax_scalar(s[i], 1.0)
            ce_rows.append(-sum(y[i][j] * math.log(p[j]) for j in range(c)))
        loss0, _ = kd_loss(s, t, y, tau, 0.0)
        worst_ce = max(worst_ce, abs(loss0 - sum(ce_rows) / bsz))

        # matching logits must zero the softened divergence term
        loss1, _ = kd_loss(s, s.copy(), y, tau, 1.0)
        worst_kl = max(worst_kl, abs(loss1))
        w = float(rng.uniform(0.0, 1.0))
        loss_w, _ = kd_loss(s, s.copy(), y, tau, w)
        worst_kl = max(worst_kl, abs(loss_w - (1.0 - w) * loss0))
    ok = worst_ce < 1e-7 and worst_kl < 1e-7
    announce("4 loss-endpoints",
             f"w=0 equals plain CE (max dev {worst_ce:.2e}); matching logits zero the "
             f"soft term (max dev {worst_kl:.2e}); budget 1e-7", ok)
    assert worst_ce < 1e-7
    assert worst_kl < 1e-7


# --- 5: desk-scale pipeline -------------------------------------------------

def _verify_run_dir(run_dir):
    """Manifest hashes, metric CSV reparse, and report<->dump agreement; returns problems."""
    problems = []
    m = read_manifest(run_dir / "manifest.json", verify=True)
    dump = load_eval_dump(run_dir / "dump")
    recorded = m.metrics["eval"]
    reparsed = read_metrics_csv(run_dir / "reports" / "metrics.csv")
    recomputed = summary_metrics(dump, n_bins=m.config["n_bins"])
    for k, v in recomputed.items():
        for src_name, src in (("manifest", recorded.get(k)), ("csv", reparsed.get(k))):
            same = src == v or (isinstance(src, float) and math.isnan(src) and math.isnan(v))
            if not same:
                problems.append(f"{run_dir.name}: {src_name} {k} {src!r} != {v!r}")
    bins, rel_ece = read_reliability_csv(run_dir / "reports" / "reliability.csv")
    fresh = ece(dump, m.config["n_bins"])
    if rel_ece != fresh.ece or [b[2] for b in bins] != [b.count for b in fresh.bins]:
        problems.append(f"{run_dir.name}: reliability reparse mismatch")
    c = dump.n_classes
    reports = run_dir / "reports"
    pairs = (
        ("confusion_matrix.csv", confusion_metrics(dump)["confusion_matrix"].astype(float)),
        ("confidence_matrix.csv", class_means(dump, dump.probs)),
        ("kld_matrix.csv", kl_matrix(class_means(dump, dump.human_probs),
                                     class_means(dump, dump.probs))),
        ("human_confidence_matrix.csv", class_means(dump, dump.human_probs)),
    )
    for name, want in pairs:
        got = read_matrix_csv(reports / name)
        if got.shape != (c, c) or not np.array_equal(got, want):
            problems.append(f"{run_dir.name}: {name} does not reparse to the dump's values")
    # a masked matrix is its twin's cells with the diagonal left empty
    for twin in ("confidence_matrix", "human_confidence_matrix"):
        with open(reports / f"{twin}.csv", newline="") as fh:
            want = [row[:i] + [""] + row[i + 1:] for i, row in enumerate(csv.reader(fh))]
        with open(reports / f"{twin}_masked.csv", newline="") as fh:
            if list(csv.reader(fh)) != want:
                problems.append(f"{run_dir.name}: {twin}_masked.csv is not {twin}.csv "
                                "with an empty diagonal")
    return problems


def test_5_desk_scale_pipeline(matrix_run, announce):
    rows = matrix_run["rows"]
    out = matrix_run["out"]
    problems = []
    if len(rows) != 15:
        problems.append(f"expected 15 cells, got {len(rows)}")
    min_teacher = min(float(r["teacher_accuracy"]) for r in rows)
    if min_teacher <= 0.80:
        problems.append(f"teacher accuracy floor violated: {min_teacher}")
    if matrix_run["elapsed"] >= 600.0:
        problems.append(f"grid took {matrix_run['elapsed']:.0f}s")
    # the split really is 2000 train / 1000 eval over 4 classes
    m = read_manifest(out / "teachers" / "none" / "manifest.json", verify=False)
    train_ds = dataset_from_desc(m.dataset["train"])
    eval_ds = dataset_from_desc(m.dataset["eval"])
    if (train_ds.n_samples, eval_ds.n_samples, train_ds.n_classes) != (2000, 1000, 4):
        problems.append(f"split sizes {(train_ds.n_samples, eval_ds.n_samples)}")
    run_dirs = [out / "teachers" / s for s in ("none", "standard", "cutout", "mixup", "cutmix")]
    run_dirs += [out / "cells" / r["cell"] for r in rows]
    for rd in run_dirs:
        problems.extend(_verify_run_dir(rd))
    ok = not problems
    announce("5 desk-scale-pipeline",
             f"15-cell grid in {matrix_run['elapsed']:.0f}s (<600s), min teacher accuracy "
             f"{min_teacher:.3f} (>0.80), all 20 run dirs verify and reparse exactly "
             f"({len(problems)} problems)", ok)
    assert not problems, problems[:8]


# --- 6: trend comparison ----------------------------------------------------

def test_6_augmentation_trend_report(matrix_run, announce):
    out = matrix_run["out"]
    sep = {}
    disc = {}
    kld = {}
    for strat in ("none", "mixup", "cutmix"):
        m = read_manifest(out / "teachers" / strat / "manifest.json", verify=False)
        sep[strat] = m.metrics["eval"]["separability"]
        disc[strat] = m.metrics["eval"]["discrimination"]
        kld[strat] = m.metrics["eval"]["human_kld"]
    acc = {r["cell"]: float(r["accuracy"]) for r in matrix_run["rows"]}
    parts = []
    for s in ("mixup", "cutmix"):
        parts.append(f"{s}: S_f {'higher' if sep[s] > sep['none'] else 'lower'} "
                     f"({sep[s]:.2f} vs {sep['none']:.2f}), "
                     f"D {'higher' if disc[s] > disc['none'] else 'lower'} "
                     f"({disc[s]:.3f} vs {disc['none']:.3f}), "
                     f"human-KLD {'lower' if kld[s] < kld['none'] else 'higher'} "
                     f"({kld[s]:.3f} vs {kld['none']:.3f}), "
                     f"student {'beats' if acc[f'{s}-teacher-aug'] > acc['none-teacher-aug'] else 'does not beat'} "
                     f"baseline ({acc[f'{s}-teacher-aug']:.3f} vs {acc['none-teacher-aug']:.3f})")
    announce("6 augmentation-trends", "teacher softness and student transfer at desk scale",
             "; ".join(parts))
    for v in list(sep.values()) + list(disc.values()) + list(kld.values()):
        assert math.isfinite(v)
    # the directions the README states: mixup/cutmix teachers are less separable, less
    # discriminative and closer to the human labels than the `none` teacher, and their
    # students match or beat its student
    for s in ("mixup", "cutmix"):
        assert sep[s] < sep["none"] and disc[s] < disc["none"] and kld[s] < kld["none"], s
        assert acc[f"{s}-teacher-aug"] >= acc["none-teacher-aug"], s


# --- 7: determinism ---------------------------------------------------------

def _tree_files(root):
    return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())


def test_7_determinism(matrix_run, announce, tmp_path, capsys):
    out1 = matrix_run["out"]
    out2 = tmp_path / "run2"
    assert cli_main(["matrix", "--seed", "0", "--out", str(out2)]) == 0
    # every artifact byte, manifests included
    files = _tree_files(out1)
    same_tree = files == _tree_files(out2)
    differing = [str(r) for r in files if (out1 / r).read_bytes() != (out2 / r).read_bytes()]

    reruns_ok = True
    rerun_details = []
    for src, dst in ((out1 / "teachers" / "cutmix", tmp_path / "re-teacher"),
                     (out1 / "cells" / "mixup-both", tmp_path / "re-student")):
        code = cli_main(["evaluate", "--from-manifest", str(src / "manifest.json"),
                         "--out", str(dst)])
        text = capsys.readouterr().out
        # the replay rewrites the whole run directory, reports/metrics.csv and manifest included
        bitwise = _tree_files(dst) == _tree_files(src) and all(
            (dst / r).read_bytes() == (src / r).read_bytes() for r in _tree_files(src))
        reruns_ok = reruns_ok and code == 0 and "reproduced" in text and bitwise
        rerun_details.append(f"{src.name}:{'ok' if code == 0 and bitwise else 'MISMATCH'}")
    ok = same_tree and not differing and reruns_ok
    announce("7 determinism",
             f"second full grid bitwise-identical ({len(files)} files, same file set "
             f"{same_tree}, {len(differing)} differ); manifest reruns reproduce metrics and "
             f"checkpoints bitwise ({', '.join(rerun_details)})", ok)
    assert same_tree and not differing, differing[:8]
    assert reruns_ok


# --- 8: format fidelity -----------------------------------------------------

def _cifar_bytes(*labels, extra=0):
    out = bytearray()
    for i, lab in enumerate(labels):
        out.append(lab)
        out.extend(bytes((j + i) % 256 for j in range(3072)))
    return bytes(out) + b"\0" * extra


def _idx_image_bytes(n, rows, cols, magic=0x00000803):
    return struct.pack(">IIII", magic, n, rows, cols) + bytes(
        i % 256 for i in range(n * rows * cols))


def _idx_label_bytes(values, magic=0x00000801, count=None):
    return struct.pack(">II", magic, len(values) if count is None else count) + bytes(values)


def test_8_format_fidelity(tmp_path, announce):
    problems = []

    # valid CIFAR corpus
    good = tmp_path / "cifar-good"
    good.mkdir()
    (good / "b1.bin").write_bytes(_cifar_bytes(0, 7))
    ds = load_cifar10_bin(good)
    if ds.images.shape != (2, 3, 32, 32) or ds.labels.tolist() != [0, 7]:
        problems.append("valid cifar corpus misparsed")
    if ds.images[0, 0, 0, 0] != np.float32(0 / 255) or ds.images[1, 0, 0, 1] != np.float32(2 / 255):
        problems.append("cifar pixel bytes misplaced")

    # six malformed CIFAR variants
    def expect_cifar_reject(name, build):
        d = tmp_path / name
        d.mkdir()
        build(d)
        try:
            load_cifar10_bin(d)
            problems.append(f"{name} accepted")
        except FormatError:
            pass
    expect_cifar_reject("cifar-empty-dir", lambda d: None)
    expect_cifar_reject("cifar-truncated",
                        lambda d: (d / "x.bin").write_bytes(_cifar_bytes(0, extra=10)))
    expect_cifar_reject("cifar-empty-file", lambda d: (d / "x.bin").write_bytes(b""))
    expect_cifar_reject("cifar-bad-label",
                        lambda d: (d / "x.bin").write_bytes(_cifar_bytes(10)))
    expect_cifar_reject("cifar-bad-label-late",
                        lambda d: ((d / "a.bin").write_bytes(_cifar_bytes(1, 2)),
                                   (d / "b.bin").write_bytes(_cifar_bytes(255))))
    expect_cifar_reject("cifar-short-record",
                        lambda d: (d / "x.bin").write_bytes(_cifar_bytes(0)[:-1]))

    # valid MNIST pair
    img = tmp_path / "ok-img.idx"
    lbl = tmp_path / "ok-lbl.idx"
    img.write_bytes(_idx_image_bytes(2, 3, 4))
    lbl.write_bytes(_idx_label_bytes([5, 9]))
    ds = load_mnist_idx(img, lbl)
    if ds.images.shape != (2, 1, 3, 4) or ds.labels.tolist() != [5, 9]:
        problems.append("valid idx pair misparsed")

    # six malformed MNIST variants
    idx_cases = [
        ("idx-truncated-header", _idx_image_bytes(1, 2, 2)[:3], _idx_label_bytes([0])),
        ("idx-bad-image-magic", _idx_image_bytes(1, 2, 2, magic=0x805), _idx_label_bytes([0])),
        ("idx-bad-label-magic", _idx_image_bytes(1, 2, 2), _idx_label_bytes([0], magic=0x803)),
        ("idx-count-mismatch", _idx_image_bytes(2, 2, 2), _idx_label_bytes([0, 1, 2])),
        ("idx-short-payload", _idx_image_bytes(2, 2, 2)[:-3], _idx_label_bytes([0, 1])),
        ("idx-label-value", _idx_image_bytes(2, 2, 2), _idx_label_bytes([3, 10])),
    ]
    for name, img_raw, lbl_raw in idx_cases:
        i = tmp_path / f"{name}-i.idx"
        l = tmp_path / f"{name}-l.idx"
        i.write_bytes(img_raw)
        l.write_bytes(lbl_raw)
        try:
            load_mnist_idx(i, l)
            problems.append(f"{name} accepted")
        except FormatError:
            pass

    # array container bitwise round-trip, every dtype
    rng = np.random.default_rng(808)
    arrays = [rng.normal(size=(3, 5)).astype(np.float32),
              rng.normal(size=(2, 2, 2)).astype(np.float64),
              rng.integers(0, 256, size=9).astype(np.uint8),
              rng.integers(-50, 50, size=(4,)).astype(np.int64),
              np.float64(2.5)]
    for i, arr in enumerate(arrays):
        p = tmp_path / f"rt{i}.arr"
        save_array(arr, p)
        back = load_array(p)
        if back.dtype != np.asarray(arr).dtype or not np.array_equal(back, arr):
            problems.append(f"array round-trip {i} not bitwise")

    ok = not problems
    announce("8 format-fidelity",
             f"valid + 6 malformed corpora per loader behave as specified; array "
             f"container bitwise for all dtypes ({len(problems)} problems)", ok)
    assert not problems, problems