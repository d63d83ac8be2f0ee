import math
import tracemalloc

import numpy as np
import pytest

from distillab.metrics import (EvalDump, class_discrimination, class_means, class_separability,
                               confusion_metrics, ece, human_kld, kl_matrix,
                               kld_confusion_matrix, standardize_embeddings, summary_metrics)
from distillab.probs import kl_div
from distillab.runstore import emit_report

from oracles import (discrimination_pairs, discrimination_reference, ece_rebin, kld_matrix_loops,
                     kl_scalar, random_dump_arrays, separability_pairs, standardize_pop,
                     standardize_reference)


def _dump(probs, labels, emb=None, human=None):
    probs = np.asarray(probs, dtype=np.float64)
    if emb is None:
        emb = np.zeros((probs.shape[0], 2))
        emb[:, 0] = np.arange(probs.shape[0])
    return EvalDump(probs=probs, embeddings=np.asarray(emb, dtype=np.float64),
                    true_labels=np.asarray(labels), human_probs=human)


def _random_dump(rng, **kw):
    probs, emb, labels, human, _ = random_dump_arrays(rng, **kw)
    return EvalDump(probs=probs, embeddings=emb, true_labels=labels, human_probs=human)


# --- dump validation --------------------------------------------------------

def test_dump_rejects_non_distribution_rows():
    bad = np.array([[0.5, 0.5], [0.9, 0.3]])
    with pytest.raises(ValueError, match="row 1"):
        _dump(bad, [0, 1])


def test_dump_rejects_inconsistent_shapes():
    with pytest.raises(ValueError):
        _dump([[0.5, 0.5]], [0], emb=np.zeros((2, 3)))
    with pytest.raises(ValueError):
        _dump([[0.5, 0.5]], [2])
    with pytest.raises(ValueError):
        _dump([[0.5, 0.5]], [0], human=np.full((1, 3), 1 / 3))


# --- confusion --------------------------------------------------------------

def test_confusion_hand_case():
    d = _dump([[0.9, 0.1], [0.8, 0.2], [0.3, 0.7], [0.6, 0.4]], [0, 0, 1, 1])
    out = confusion_metrics(d)
    assert out["accuracy"] == 0.75
    assert np.array_equal(out["confusion_matrix"], [[2, 0], [1, 1]])
    assert out["precision"] == pytest.approx((2 / 3 + 1.0) / 2)
    assert out["recall"] == pytest.approx((1.0 + 0.5) / 2)
    assert out["f1"] == pytest.approx((0.8 + 2 / 3) / 2)


def test_confusion_tie_breaks_to_lowest_class():
    d = _dump([[0.5, 0.5]], [0])
    assert confusion_metrics(d)["accuracy"] == 1.0
    d = _dump([[0.5, 0.5]], [1])
    assert confusion_metrics(d)["accuracy"] == 0.0


def test_confusion_empty_denominators_count_zero():
    # class 2 never appears in truth or prediction: P = R = F1 = 0 for it
    d = _dump([[0.8, 0.1, 0.1], [0.2, 0.7, 0.1]], [0, 1])
    out = confusion_metrics(d)
    assert out["accuracy"] == 1.0
    assert out["precision"] == pytest.approx(2 / 3)
    assert out["recall"] == pytest.approx(2 / 3)


def test_confusion_matrix_counts_sum_to_n():
    rng = np.random.default_rng(0)
    for _ in range(10):
        d = _random_dump(rng, n_max=120)
        out = confusion_metrics(d)
        assert out["confusion_matrix"].sum() == d.n_samples


# --- calibration ------------------------------------------------------------

def test_ece_single_bin_hand_case():
    d = _dump([[0.6, 0.4], [0.8, 0.2]], [0, 0])
    rep = ece(d, n_bins=1)
    assert rep.ece == pytest.approx(0.3)
    assert rep.bins[0].count == 2
    assert rep.bins[0].conf == pytest.approx(0.7)
    assert rep.bins[0].acc == 1.0


def test_ece_bins_are_right_closed():
    # confidence exactly 0.5 falls in (0, 0.5], not (0.5, 1]
    d = _dump([[0.5, 0.5], [0.5, 0.5]], [0, 0])
    rep = ece(d, n_bins=2)
    assert rep.bins[0].count == 2
    assert rep.bins[1].count == 0


def test_ece_perfectly_calibrated_is_zero():
    d = _dump([[0.5, 0.5]] * 4, [0, 0, 1, 1])
    assert ece(d, n_bins=5).ece == 0.0


def test_ece_matches_rebin_oracle():
    rng = np.random.default_rng(1)
    for _ in range(30):
        d = _random_dump(rng, n_max=200, with_human=False)
        n_bins = int(rng.integers(1, 21))
        rep = ece(d, n_bins=n_bins)
        assert rep.ece == pytest.approx(
            ece_rebin(d.probs, d.true_labels, n_bins), rel=1e-9, abs=1e-12)


def test_ece_recompute_is_identical():
    rng = np.random.default_rng(2)
    for _ in range(10):
        d = _random_dump(rng, n_max=150, with_human=False)
        rep = ece(d, n_bins=int(rng.integers(1, 16)))
        assert rep.recompute_ece() == rep.ece


def test_ece_bin_means_equal_masked_means_bitwise():
    rng = np.random.default_rng(4)
    for _ in range(10):
        d = _random_dump(rng, n_max=300, with_human=False)
        n_bins = int(rng.integers(1, 21))
        conf = d.probs.max(axis=1)
        correct = (d.probs.argmax(axis=1) == d.true_labels).astype(np.float64)
        for b in ece(d, n_bins).bins:
            mask = ((conf > b.lo) | (b.lo == 0.0)) & (conf <= b.hi)
            assert b.count == int(mask.sum())
            if b.count:
                assert (b.conf, b.acc) == (float(conf[mask].mean()), float(correct[mask].mean()))


def test_ece_bin_counts_partition_samples():
    rng = np.random.default_rng(3)
    d = _random_dump(rng, n_max=300, with_human=False)
    rep = ece(d, n_bins=15)
    assert sum(b.count for b in rep.bins) == d.n_samples
    assert rep.bins[0].lo == 0.0 and rep.bins[-1].hi == 1.0


def test_ece_validates_arguments():
    d = _dump([[0.5, 0.5]], [0])
    with pytest.raises(ValueError):
        ece(d, n_bins=0)


# --- human divergence -------------------------------------------------------

def test_human_kld_hand_value_model_to_human():
    human = np.array([[0.25, 0.75]])
    d = _dump([[0.5, 0.5]], [1], human=human)
    assert human_kld(d) == pytest.approx(
        0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75))


def test_human_kld_zero_when_model_matches_humans():
    rng = np.random.default_rng(4)
    h = rng.dirichlet(np.ones(3), size=6)
    d = _dump(h, rng.integers(0, 3, 6), human=h.copy())
    assert human_kld(d) == pytest.approx(0.0, abs=1e-12)


def test_human_kld_requires_human_probs():
    d = _dump([[0.5, 0.5]], [0])
    with pytest.raises(ValueError):
        human_kld(d)


# --- separability -----------------------------------------------------------

def test_separability_two_singleton_classes_hand_case():
    d = _dump([[0.75, 0.25], [0.25, 0.75]], [0, 1])
    expected = 0.25 * (kl_scalar([0.75, 0.25], [0.25, 0.75]) +
                       kl_scalar([0.25, 0.75], [0.75, 0.25]))
    assert class_separability(d) == pytest.approx(expected, rel=1e-12)
    assert class_separability(d) == pytest.approx(0.25 * 2 * 0.5 * math.log(3.0))


def test_separability_zero_when_class_means_coincide():
    d = _dump([[0.5, 0.5], [0.5, 0.5]], [0, 1])
    assert class_separability(d) == pytest.approx(0.0, abs=1e-12)


def test_separability_matches_pair_oracle():
    rng = np.random.default_rng(5)
    for _ in range(15):
        d = _random_dump(rng, n_max=150, with_human=False)
        assert class_separability(d) == pytest.approx(
            separability_pairs(d.probs, d.true_labels, d.n_classes), rel=1e-9, abs=1e-12)


def test_separability_rejects_empty_class():
    d = _dump([[0.8, 0.1, 0.1], [0.2, 0.7, 0.1]], [0, 1])
    with pytest.raises(ValueError, match="class 2"):
        class_separability(d)


# --- embeddings -------------------------------------------------------------

def test_standardize_matches_population_oracle():
    rng = np.random.default_rng(6)
    emb = rng.normal(3.0, 2.5, (40, 7))
    out = standardize_embeddings(emb)
    assert np.allclose(out, standardize_pop(emb), atol=1e-12)
    assert np.allclose(out.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(out.std(axis=0), 1.0, atol=1e-12)


def test_standardize_zero_variance_dimension_becomes_zero():
    emb = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
    out = standardize_embeddings(emb)
    assert np.all(out[:, 1] == 0.0)
    assert out[:, 0].std() == pytest.approx(1.0)


def test_standardize_is_affine_invariant():
    rng = np.random.default_rng(7)
    emb = rng.normal(0, 1, (30, 4))
    scaled = 3.7 * emb + 11.0
    assert np.allclose(standardize_embeddings(emb), standardize_embeddings(scaled), atol=1e-9)


def test_standardize_needs_two_samples():
    with pytest.raises(ValueError):
        standardize_embeddings(np.ones((1, 3)))


# --- discrimination ---------------------------------------------------------

def _axis_dump():
    # every column has mean 0 and population std 1: standardizing leaves it as it is
    emb = np.array([[1.0, -1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, 1.0]])
    probs = np.array([[0.9, 0.1], [0.9, 0.1], [0.1, 0.9], [0.1, 0.9]])
    return _dump(probs, [0, 0, 1, 1], emb=emb)


def test_discrimination_axis_aligned_hand_case():
    rep = class_discrimination(_axis_dump())
    # each class: one pair at cosine 1 over 2*1; every cross pair at cosine -1
    assert np.allclose(rep.cohesion, [0.5, 0.5])
    assert rep.adhesion == pytest.approx({(0, 1): -1.0})
    assert rep.discrimination == pytest.approx(1.5 / math.sqrt(2.0))
    assert rep.dim == 2
    assert rep.zero_norm_count == 0


def test_discrimination_zero_norm_rows_counted_and_neutral():
    # row 2 equals the column means (0.5, 0.5), so it is zero once standardized
    emb = np.array([[1.0, 0.0], [1.0, 0.0], [0.5, 0.5], [0.0, 1.0], [0.0, 1.0]])
    probs = np.full((5, 2), 0.5)
    d = _dump(probs, [0, 0, 0, 1, 1], emb=emb)
    rep = class_discrimination(d)
    assert rep.zero_norm_count == 1
    # class 0 pairs: (a,b)=1, (a,zero)=0, (b,zero)=0 -> upper sum 1 over 3*2
    assert rep.cohesion[0] == pytest.approx(1.0 / 6.0)


def _extreme_geometry_dumps(rng):
    """Inputs at the edges of the class-sum identities, labelled in blocks."""
    dim = 6
    near = rng.normal(size=(1, dim)) + 1e-9 * rng.normal(size=(40, dim))
    with_zeros = rng.normal(size=(30, dim))
    with_zeros[[0, 7, 29]] = 0.0
    blocks = [
        # near-identical class: s.s reaches n_c^2, where its rounding error is largest
        [near, rng.normal(size=(25, dim))],
        # zero-norm rows inside a class
        [rng.normal(size=(20, dim)), with_zeros],
        # classes of exactly 2 samples
        [rng.normal(size=(2, dim)) for _ in range(3)],
    ]
    dumps = []
    for parts in blocks:
        labels = np.concatenate([np.full(len(p), c) for c, p in enumerate(parts)])
        probs = np.full((labels.size, len(parts)), 1.0 / len(parts))
        dumps.append(_dump(probs, labels, emb=np.vstack(parts)))
    return dumps


def test_discrimination_matches_pair_oracle():
    rng = np.random.default_rng(8)
    dumps = [_random_dump(rng, n_max=80, d_max=12, with_human=False) for _ in range(8)]
    for d in dumps + _extreme_geometry_dumps(rng):
        rep = class_discrimination(d)
        coh, adh, disc = discrimination_pairs(d.embeddings, d.true_labels, d.n_classes)
        assert np.allclose(rep.cohesion, coh, atol=1e-9)
        for key, val in adh.items():
            assert rep.adhesion[key] == pytest.approx(val, abs=1e-9)
        assert rep.discrimination == pytest.approx(disc, rel=1e-8, abs=1e-10)


def _reference_dumps(rng):
    """Random dumps, each with a zero-variance dimension and a zero row, every other
    one a row that is zero once standardized; float32 embeddings as a network emits them."""
    dumps = []
    for i in range(20):
        probs, emb, labels, _, _ = random_dump_arrays(rng, with_human=False)
        if i % 2:
            # integer values summing to 0 per column: every mean is exactly 0, so
            # row 0 is zero once standardized (the constant column goes to 0)
            emb = rng.integers(-3, 4, size=emb.shape).astype(np.float64)
            emb[:2] = 0.0
            emb[1] = -emb.sum(axis=0)
            emb[:, -1] = 2.5
        else:
            emb[0] = 0.0
            emb[:, -1] = 0.0
        if i % 4 < 2:
            emb = emb.astype(np.float32)
        dumps.append(EvalDump(probs=probs, embeddings=emb, true_labels=labels))
    return dumps


def test_discrimination_matches_gather_reference_bitwise():
    rng = np.random.default_rng(21)
    zero_rows = 0
    for d in _reference_dumps(rng):
        std = standardize_embeddings(d.embeddings)
        assert std.tobytes() == standardize_reference(d.embeddings).tobytes()
        assert not std[:, -1].any()
        rep = class_discrimination(d)
        coh, adh, disc, zeros = discrimination_reference(d.embeddings, d.true_labels,
                                                         d.n_classes)
        assert rep.cohesion.tobytes() == coh.tobytes()
        assert list(rep.adhesion) == list(adh)
        assert [v.hex() for v in rep.adhesion.values()] == [v.hex() for v in adh.values()]
        assert rep.discrimination.hex() == disc.hex()
        assert rep.zero_norm_count == zeros
        zero_rows += zeros
    assert zero_rows >= 10
    # the caller's embeddings are left as they were
    emb = np.arange(12.0).reshape(6, 2)
    d = _dump(np.full((6, 2), 0.5), [0, 0, 0, 1, 1, 1], emb=emb)
    class_discrimination(d)
    assert np.array_equal(d.embeddings, np.arange(12.0).reshape(6, 2))


def test_discrimination_allocates_no_n_by_n_array():
    n = 6000
    rng = np.random.default_rng(12)
    d = _dump(np.full((n, 4), 0.25), np.arange(n) % 4, emb=rng.normal(size=(n, 16)))
    tracemalloc.start()
    try:
        class_discrimination(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # an N x N float64 cosine matrix alone would be 288 MB
    assert peak < 8 * d.embeddings.nbytes


def test_discrimination_recompute_is_identical():
    rng = np.random.default_rng(9)
    d = _random_dump(rng, n_max=60, with_human=False)
    rep = class_discrimination(d)
    assert rep.recompute_discrimination() == rep.discrimination


def test_discrimination_needs_two_samples_per_class():
    d = _dump([[0.6, 0.4], [0.6, 0.4], [0.4, 0.6]], [0, 0, 1],
              emb=np.eye(3))
    with pytest.raises(ValueError, match="class 1"):
        class_discrimination(d)


def test_metrics_invariant_under_sample_permutation():
    rng = np.random.default_rng(10)
    d = _random_dump(rng, n_max=100)
    perm = rng.permutation(d.n_samples)
    d2 = EvalDump(probs=d.probs[perm], embeddings=d.embeddings[perm],
                  true_labels=d.true_labels[perm], human_probs=d.human_probs[perm])
    assert class_separability(d2) == pytest.approx(class_separability(d), rel=1e-9)
    assert ece(d2).ece == pytest.approx(ece(d).ece, rel=1e-9, abs=1e-12)
    assert human_kld(d2) == pytest.approx(human_kld(d), rel=1e-9)
    assert class_discrimination(d2).discrimination == pytest.approx(
        class_discrimination(d).discrimination, rel=1e-8, abs=1e-10)


# --- matrices and summary ---------------------------------------------------

def test_kld_confusion_matrix_matches_loop_oracle():
    rng = np.random.default_rng(11)
    for _ in range(8):
        d = _random_dump(rng, n_max=90)
        got = kld_confusion_matrix(d)
        want = kld_matrix_loops(d.probs, d.human_probs, d.true_labels, d.n_classes)
        assert np.allclose(got, want, atol=1e-10)
        assert got.shape == (d.n_classes, d.n_classes)


def test_kld_confusion_matrix_zero_diagonal_when_model_echoes_humans():
    rng = np.random.default_rng(12)
    h = rng.dirichlet(np.ones(3), size=9)
    d = _dump(h, np.repeat([0, 1, 2], 3), human=h.copy())
    got = kld_confusion_matrix(d)
    assert np.allclose(np.diag(got), 0.0, atol=1e-12)


def test_kl_matrix_hand_case():
    p = np.array([[1.0, 0.0], [0.5, 0.5]])
    q = np.array([[0.5, 0.5], [0.25, 0.75], [0.5, 0.5]])
    got = kl_matrix(p, q)
    assert got.shape == (2, 3)
    assert np.allclose(got, [
        [math.log(2), math.log(4), math.log(2)],
        [0.0, 0.5 * math.log(2) + 0.5 * math.log(2 / 3), 0.0]], rtol=1e-12, atol=0)
    assert np.all(np.diag(kl_matrix(q, q)) == 0.0)


def test_kl_matrix_equals_the_scalar_loop_bitwise():
    rng = np.random.default_rng(14)
    for k in (1, 2, 3, 4, 8, 9, 17):
        p = rng.dirichlet(np.ones(k), size=int(rng.integers(1, 7)))
        q = rng.dirichlet(np.full(k, 0.3), size=int(rng.integers(1, 7)))
        p[0] = np.eye(k)[k - 1]  # zeros in p, and a one-hot row
        want = np.array([[kl_div(pi, qj) for qj in q] for pi in p])
        assert kl_matrix(p, q).tobytes() == want.tobytes()


def test_kl_matrix_names_a_bad_row():
    good = np.full((3, 2), 0.5)
    bad = good.copy()
    bad[2] = [0.9, 0.3]
    with pytest.raises(ValueError, match="q row 2"):
        kl_matrix(good, bad)
    with pytest.raises(ValueError, match="p row 2"):
        kl_matrix(bad, good)
    with pytest.raises(ValueError, match="length mismatch"):
        kl_matrix(good, np.full((3, 3), 1 / 3))


def test_confidence_matrix_rows_and_masking(tmp_path):
    """The confidence matrix is `class_means` of the probs; the CSV writer masks it."""
    d = _dump([[0.9, 0.1], [0.7, 0.3], [0.2, 0.8], [0.4, 0.6]], [0, 0, 1, 1])
    m = class_means(d, d.probs)
    assert np.allclose(m, [[0.8, 0.2], [0.3, 0.7]])
    emit_report(d, tmp_path, reports=["confidence", "confidence_masked"])
    plain = (tmp_path / "confidence_matrix.csv").read_text().splitlines()
    masked = (tmp_path / "confidence_matrix_masked.csv").read_text().splitlines()
    assert [r.split(",") for r in masked] == [
        ["", plain[0].split(",")[1]], [plain[1].split(",")[0], ""]]
    with pytest.raises(ValueError, match="class 2"):
        class_means(_dump([[0.8, 0.1, 0.1], [0.2, 0.7, 0.1]], [0, 1]), np.eye(2))


def test_confidence_matrix_human_source():
    human = np.array([[0.6, 0.4], [0.8, 0.2], [0.1, 0.9], [0.3, 0.7]])
    d = _dump([[0.9, 0.1], [0.9, 0.1], [0.1, 0.9], [0.1, 0.9]], [0, 0, 1, 1], human=human)
    m = class_means(d, d.human_probs)
    assert np.allclose(m, [[0.7, 0.3], [0.2, 0.8]])


def test_summary_metrics_keys_and_nan_for_missing_humans():
    rng = np.random.default_rng(13)
    d = _random_dump(rng, n_max=60, with_human=False)
    out = summary_metrics(d)
    assert set(out) == {"accuracy", "precision", "recall", "f1", "ece", "separability",
                        "cohesion", "adhesion", "discrimination", "human_kld"}
    assert math.isnan(out["human_kld"])
    d2 = _random_dump(rng, n_max=60, with_human=True)
    assert math.isfinite(summary_metrics(d2)["human_kld"])