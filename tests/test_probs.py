import math

import numpy as np
import pytest

from distillab.probs import (PROB_EPS, check_prob_rows, check_prob_vector, cross_entropy_rows,
                             kl_div, softmax_t)
from oracles import entropy_scalar, softmax_reference


def test_softmax_uniform_for_equal_logits():
    for c in (2, 5, 9):
        out = softmax_t(np.full(c, 3.7), 4.0)
        assert np.allclose(out, 1.0 / c, atol=1e-12)


def test_softmax_closed_form_two_logits():
    out = softmax_t(np.array([1.0, 2.0]), 1.0)
    e = math.e
    assert np.allclose(out, [1 / (1 + e), e / (1 + e)], atol=1e-12)
    assert abs(out[0] - 0.2689) < 1e-4 and abs(out[1] - 0.7311) < 1e-4


def test_softmax_high_temperature_flattens():
    out = softmax_t(np.array([1.0, 2.0]), 10000.0)
    assert np.allclose(out, [0.5, 0.5], atol=1e-4)


def test_softmax_rejects_bad_temperature_and_nonfinite():
    with pytest.raises(ValueError):
        softmax_t(np.array([1.0, 2.0]), 0.0)
    with pytest.raises(ValueError):
        softmax_t(np.array([1.0, 2.0]), -3.0)
    with pytest.raises(ValueError):
        softmax_t(np.array([1.0, np.inf]), 1.0)



def test_softmax_rejects_a_nan_temperature():
    with pytest.raises(ValueError, match="^temperature must be positive, got nan$"):
        softmax_t(np.array([1.0, 2.0]), float("nan"))

@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softmax_matches_reference_bitwise(dtype):
    # the row maxima come from a class-major copy; rows of 1 to 19 classes, 1-D to 3-D,
    # with signed zeros and ties at the maximum
    rng = np.random.default_rng(6)
    for shape in [(4,), (19,), (64, 4), (256, 4), (37, 10), (3, 64, 4), (2, 5, 19), (1, 1)]:
        z = (rng.standard_normal(shape) * 5).astype(dtype)
        z[rng.random(shape) < 0.2] = 0.0
        z[rng.random(shape) < 0.2] = -0.0
        for t in (1.0, 0.5, 4.0, 20.0):
            got, want = softmax_t(z, t), softmax_reference(z, t)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (shape, t)


def test_softmax_rows_sum_to_one_and_shift_invariant():
    rng = np.random.default_rng(5)
    for _ in range(50):
        z = rng.standard_normal(int(rng.integers(2, 12))) * 10
        t = float(rng.uniform(0.1, 30))
        p = softmax_t(z, t)
        assert abs(p.sum() - 1.0) < 1e-6
        shifted = softmax_t(z + 123.456, t)
        assert np.allclose(p, shifted, atol=1e-6)


def test_softmax_entropy_monotone_in_temperature():
    rng = np.random.default_rng(11)
    for _ in range(20):
        z = rng.standard_normal(6) * 5
        temps = np.linspace(0.2, 40, 25)
        ents = [entropy_scalar(softmax_t(z, t)) for t in temps]
        assert all(b >= a - 1e-9 for a, b in zip(ents, ents[1:]))


def test_softmax_extreme_logits_stay_finite():
    p = softmax_t(np.array([1000.0, -1000.0, 0.0]), 1.0)
    assert np.all(np.isfinite(p))
    assert abs(p.sum() - 1.0) < 1e-12


def test_cross_entropy_one_hot_match_is_near_zero():
    v = np.array([[1.0, 0.0, 0.0]])
    assert cross_entropy_rows(v, v)[0] < 1e-9


def test_cross_entropy_uniform_pred_gives_log_c():
    rng = np.random.default_rng(3)
    for c in (2, 4, 7):
        target = rng.dirichlet(np.ones(c), size=5)
        got = cross_entropy_rows(np.full((5, c), 1.0 / c), target)
        assert np.all(np.abs(got - math.log(c)) < 1e-9)


def test_cross_entropy_closed_form():
    got = cross_entropy_rows(np.array([[0.7, 0.3]]), np.array([[1.0, 0.0]]))[0]
    assert abs(got - (-math.log(0.7))) < 1e-12
    assert abs(got - 0.35667) < 1e-4


def test_cross_entropy_at_least_entropy_of_target():
    rng = np.random.default_rng(8)
    for _ in range(50):
        c = int(rng.integers(2, 8))
        target = rng.dirichlet(np.ones(c))
        pred = rng.dirichlet(np.ones(c))
        assert cross_entropy_rows(pred[None], target[None])[0] >= entropy_scalar(target) - 1e-9


def test_kl_identity_is_zero():
    rng = np.random.default_rng(2)
    for _ in range(30):
        p = rng.dirichlet(np.ones(int(rng.integers(2, 9))))
        assert kl_div(p, p) <= 1e-9


def test_kl_closed_forms():
    assert abs(kl_div(np.array([1.0, 0.0]), np.array([0.5, 0.5])) - math.log(2)) < 1e-9
    expect = 0.5 * math.log(0.5 / 0.9) + 0.5 * math.log(0.5 / 0.1)
    assert abs(kl_div(np.array([0.5, 0.5]), np.array([0.9, 0.1])) - expect) < 1e-9
    assert abs(expect - 0.5108) < 1e-4


def test_kl_nonnegative_on_random_pairs():
    rng = np.random.default_rng(4)
    for _ in range(100):
        c = int(rng.integers(2, 10))
        p = rng.dirichlet(np.ones(c))
        q = rng.dirichlet(np.ones(c))
        assert kl_div(p, q) >= -1e-12


def test_kl_one_hot_against_one_hot_uses_clamp():
    got = kl_div(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert abs(got - math.log(1.0 / PROB_EPS)) < 1e-6
    assert np.isfinite(got)


def test_kl_rejects_length_mismatch_and_invalid():
    with pytest.raises(ValueError):
        kl_div(np.array([0.5, 0.5]), np.array([0.4, 0.3, 0.3]))
    with pytest.raises(ValueError):
        kl_div(np.array([0.9, 0.5]), np.array([0.5, 0.5]))


def test_check_prob_vector_contracts():
    check_prob_vector(np.array([0.25, 0.75]))
    with pytest.raises(ValueError):
        check_prob_vector(np.array([[0.5, 0.5]]))
    with pytest.raises(ValueError):
        check_prob_vector(np.array([0.7, 0.7]))
    with pytest.raises(ValueError):
        check_prob_vector(np.array([1.5, -0.5]))
    with pytest.raises(ValueError):
        check_prob_vector(np.array([np.nan, 1.0]))
    with pytest.raises(ValueError):
        check_prob_vector(np.array([]))


def test_check_prob_rows_reports_offending_row():
    rows = np.array([[0.5, 0.5], [0.9, 0.2]])
    with pytest.raises(ValueError, match="row 1"):
        check_prob_rows(rows)
    check_prob_rows(np.zeros((0, 3)))  # empty is fine
