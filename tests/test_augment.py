import copy

import numpy as np
import pytest

from distillab.augment import AugmentStrategy, apply_strategy
from oracles import augment_loop


class ForcedRng:
    """Duck-typed generator returning scripted values for beta/integers/random/permutation."""

    def __init__(self, beta=0.5, integers=(), random=1.0, perm=None):
        self._beta = beta
        self._integers = list(integers)
        self._random = random
        self._perm = perm

    def beta(self, a, b, size=None):
        return self._beta if size is None else np.full(size, self._beta)

    def _one_integer(self, lo):
        return self._integers.pop(0) if self._integers else lo

    def integers(self, lo, hi=None, size=None):
        if size is None:
            return self._one_integer(lo)
        low = np.broadcast_to(lo, size)
        return np.array([self._one_integer(v) for v in low.ravel()]).reshape(size)

    def random(self):
        return self._random

    def permutation(self, n):
        return np.arange(n) if self._perm is None else np.asarray(self._perm)


def _batch(rng, n=1, ch=1, side=6, n_classes=4, classes=None, dtype=np.float64):
    x = rng.random((n, ch, side, side)).astype(dtype)
    classes = [0] * n if classes is None else classes
    return x, np.eye(n_classes, dtype=dtype)[classes]


def _apply(x, y, kind, rng, fill=None, **params):
    return apply_strategy((x, y), AugmentStrategy(kind, params), rng, fill=fill)


def test_strategy_params_defaulted_and_validated():
    s = AugmentStrategy("cutout")
    assert s.params["n_holes"] == 16 and s.params["hole_size"] == 3
    assert AugmentStrategy("mixup").params == {"beta_alpha": 1.0}
    with pytest.raises(ValueError):
        AugmentStrategy("blur")
    with pytest.raises(ValueError):
        AugmentStrategy("mixup", {"pad": 2})


def test_standard_pad_zero_no_flip_is_identity():
    x, y = _batch(np.random.default_rng(0))
    out, lab = _apply(x, y, "standard", ForcedRng(random=0.9), pad=0)  # 0.9 >= 0.5: no flip
    assert np.array_equal(out, x)
    assert np.array_equal(lab, y)


def test_standard_forced_flip_reverses_columns():
    x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
    out, _ = _apply(x, np.array([[1.0, 0.0]]), "standard", ForcedRng(random=0.0), pad=0)  # flip
    assert np.array_equal(out, np.array([[[[2.0, 1.0], [4.0, 3.0]]]]))


def test_standard_crop_shifts_window():
    # pad=1 reflect, offsets (0,0) select the top-left window of the padded image
    pix = np.arange(9, dtype=np.float64).reshape(1, 1, 3, 3)
    out, _ = _apply(pix, np.array([[1.0]]), "standard", ForcedRng(integers=[0, 0], random=0.9),
                    pad=1)
    padded = np.pad(pix, ((0, 0), (0, 0), (1, 1), (1, 1)), mode="reflect")
    assert np.array_equal(out, padded[:, :, 0:3, 0:3])


def test_standard_label_untouched_any_rng():
    rng = np.random.default_rng(33)
    x, y = _batch(rng, n=3, classes=[2, 0, 1])
    for _ in range(20):
        out, lab = _apply(x, y, "standard", rng, pad=2)
        assert np.array_equal(lab, y)
        assert out.shape == x.shape


def test_cutout_whole_image_hole_gives_constant_image():
    x, y = _batch(np.random.default_rng(1), n=2, side=4)
    with pytest.warns(UserWarning):
        out, lab = _apply(x, y, "cutout", np.random.default_rng(2), n_holes=1, hole_size=8,
                          fill=0.25, size_jitter=False)
    assert np.all(out == 0.25)
    assert np.array_equal(lab, y)


def test_cutout_interior_hole_changes_exactly_size_squared_pixels():
    base = np.zeros((1, 2, 9, 9))  # zero image, nonzero fill -> changed = filled
    out, _ = _apply(base, np.array([[1.0, 0.0]]), "cutout", ForcedRng(integers=[4, 4]),
                    n_holes=1, hole_size=3, fill=1.0, size_jitter=False)
    assert np.count_nonzero(out[0, 0] != 0) == 9
    assert np.count_nonzero(out[0, 1] != 0) == 9


def test_cutout_default_fill_is_half():
    with pytest.warns(UserWarning):
        out, _ = _apply(np.ones((1, 1, 4, 4)), np.array([[1.0]]), "cutout",
                        ForcedRng(integers=[8, 2, 2]), n_holes=1, hole_size=8, size_jitter=True)
    assert 0.5 in out


def test_cutout_validates_arguments():
    x, y = np.ones((1, 1, 4, 4)), np.array([[1.0]])
    with pytest.raises(ValueError):
        _apply(x, y, "cutout", np.random.default_rng(0), n_holes=0, hole_size=2)
    with pytest.raises(ValueError):
        _apply(x, y, "cutout", np.random.default_rng(0), n_holes=1, hole_size=0)


def test_mixup_lambda_one_returns_first_image_exactly():
    x, y = _batch(np.random.default_rng(7), n=2, classes=[1, 3])
    out, lab = _apply(x, y, "mixup", ForcedRng(beta=1.0, perm=[1, 0]))
    assert np.array_equal(out, x)
    assert np.array_equal(lab, y)


def test_mixup_midpoint_splits_one_hot_labels():
    x, y = _batch(np.random.default_rng(8), n=2, n_classes=8, classes=[2, 7])
    _, lab = _apply(x, y, "mixup", ForcedRng(beta=0.5, perm=[1, 0]))
    assert lab[0, 2] == 0.5 and lab[0, 7] == 0.5
    assert lab[0].sum() == 1.0


def test_mixup_pixels_are_exact_convex_combination():
    rng = np.random.default_rng(9)
    for _ in range(25):
        x, y = _batch(rng, n=3, classes=[0, 1, 1])
        replay = copy.deepcopy(rng)
        partners = replay.permutation(3)
        out, _ = _apply(x, y, "mixup", rng)
        for i, j in enumerate(partners):
            lam = float(replay.beta(1.0, 1.0))
            assert np.array_equal(out[i], lam * x[i] + (1.0 - lam) * x[j])


def test_mixup_rejects_bad_alpha_and_shape_mismatch():
    rng = np.random.default_rng(0)
    x, y = _batch(rng, n=2)
    with pytest.raises(ValueError):
        _apply(x, y, "mixup", rng, beta_alpha=0.0)
    with pytest.raises(ValueError):
        _apply(x, y[:1], "mixup", rng)


def test_mixup_linearity_swap_identity():
    x, y = _batch(np.random.default_rng(10), n=2, classes=[0, 2])
    lam = 0.3125  # exactly representable
    out_ab, _ = _apply(x, y, "mixup", ForcedRng(beta=lam, perm=[1, 0]))
    out_ba, _ = _apply(x[::-1], y[::-1], "mixup", ForcedRng(beta=1.0 - lam, perm=[1, 0]))
    assert np.array_equal(out_ab[0], out_ba[0])


def test_cutmix_zero_area_is_first_image():
    x, y = _batch(np.random.default_rng(11), n=2, classes=[0, 1])
    out, lab = _apply(x, y, "cutmix", ForcedRng(beta=1.0, perm=[1, 0]))  # lam0=1 -> zero cut
    assert np.array_equal(out, x)  # no pixel taken from the partner
    assert np.array_equal(lab, y)  # so lam == 1.0


def test_cutmix_full_cover_is_second_image():
    x, y = _batch(np.random.default_rng(12), n=2, side=4, classes=[0, 2])
    # lam0=0 -> cut 4x4; center (2,2) -> box rows/cols [0,4)
    out, lab = _apply(x, y, "cutmix", ForcedRng(beta=0.0, integers=[2, 2], perm=[1, 0]))
    assert np.array_equal(out[0], x[1])
    assert np.array_equal(lab[0], y[1])  # lam == 0.0


def test_cutmix_lambda_is_exact_retained_fraction():
    rng = np.random.default_rng(13)
    for _ in range(50):
        x, y = _batch(rng, n=3, side=8, classes=[0, 3, 1])
        partners = copy.deepcopy(rng).permutation(3)
        out, lab = _apply(x, y, "cutmix", rng)
        for i, j in enumerate(partners):
            if i == j:
                assert np.array_equal(out[i], x[i])
                continue
            # pixels taken from the partner form one (possibly empty) rectangle
            m = (out[i] != x[i]).any(axis=0)
            assert np.array_equal(out[i][:, m], x[j][:, m])
            assert np.array_equal(out[i][:, ~m], x[i][:, ~m])
            rows, cols = np.flatnonzero(m.any(axis=1)), np.flatnonzero(m.any(axis=0))
            assert m.sum() == len(rows) * len(cols)
            retained = 1.0 - m.sum() / 64.0
            assert np.array_equal(lab[i], retained * y[i] + (1.0 - retained) * y[j])


def test_apply_none_returns_batch_unchanged():
    rng = np.random.default_rng(14)
    x, y = _batch(rng, n=5, classes=[i % 4 for i in range(5)])
    out, lab = apply_strategy((x, y), AugmentStrategy("none"), rng)
    assert out is x and lab is y


def test_apply_mixup_pairs_with_permutation_partner():
    x, y = _batch(np.random.default_rng(15), n=2, classes=[0, 1])
    _, lab = apply_strategy((x, y), AugmentStrategy("mixup"), np.random.default_rng(4))
    for row in lab:
        assert set(np.flatnonzero(row)) <= {0, 1}
        assert abs(row.sum() - 1.0) < 1e-6


def test_apply_strategy_fixed_seed_is_bitwise_reproducible():
    x, y = _batch(np.random.default_rng(16), n=6, classes=[i % 4 for i in range(6)])
    for kind in ("standard", "cutout", "mixup", "cutmix"):
        out1 = apply_strategy((x, y), AugmentStrategy(kind), np.random.default_rng(99))
        out2 = apply_strategy((x, y), AugmentStrategy(kind), np.random.default_rng(99))
        for u, v in zip(out1, out2):
            assert np.array_equal(u, v)


def test_apply_rejects_empty_batch():
    with pytest.raises(ValueError):
        apply_strategy((np.zeros((0, 1, 4, 4)), np.zeros((0, 4))), AugmentStrategy("none"),
                       np.random.default_rng(0))


def test_all_strategies_preserve_range_and_label_algebra():
    rng = np.random.default_rng(17)
    for trial in range(200):
        x, y = _batch(rng, n=4, classes=[int(c) for c in rng.integers(4, size=4)])
        kind = ("standard", "cutout", "mixup", "cutmix")[trial % 4]
        out, lab = apply_strategy((x, y), AugmentStrategy(kind), rng)
        assert out.min() >= 0.0 and out.max() <= 1.0
        assert np.all(np.abs(lab.sum(axis=1) - 1.0) < 1e-6)
        assert np.all(np.count_nonzero(lab, axis=1) <= 2)


def _batch_and_oracle(x, y, strategy, seed, fill):
    rng_batch, rng_loop = np.random.default_rng(seed), np.random.default_rng(seed)
    got = apply_strategy((x, y), strategy, rng_batch, fill=fill)
    want = augment_loop(x, y, strategy.kind, strategy.params, rng_loop, fill=fill)
    return got, want, rng_batch.bit_generator.state, rng_loop.bit_generator.state


PARAM_CASES = {
    "standard": [{}, {"pad": 0}, {"pad": 3}],
    "cutout": [{}, {"size_jitter": False}, {"fill": 0.25}, {"fill": [0.1, 0.9]},
               {"n_holes": 1, "hole_size": 1}, {"hole_size": 20}],
    "mixup": [{}, {"beta_alpha": 0.2}],
    "cutmix": [{}, {"beta_a": 0.5, "beta_b": 2.0}],
}


@pytest.mark.filterwarnings("ignore:hole_size")
@pytest.mark.parametrize("kind", sorted(PARAM_CASES))
def test_batch_strategies_match_per_image_oracle_bitwise(kind):
    """Pixels, labels, dtypes and the generator's end state all equal the per-image loop."""
    rng = np.random.default_rng(1000 + len(kind))
    for params in PARAM_CASES[kind]:
        strategy = AugmentStrategy(kind, params)
        per_channel = isinstance(params.get("fill"), list)
        for trial in range(30):
            n = 1 if trial == 0 else int(rng.integers(2, 70))
            ch = len(params["fill"]) if per_channel else int(rng.integers(1, 3))
            side = int(rng.integers(5, 14))
            dtype = (np.float32, np.float64)[trial % 2]
            x = rng.random((n, ch, side, side)).astype(dtype)
            y = np.eye(5, dtype=dtype)[rng.integers(0, 5, size=n)]
            fill = (None, x.mean(axis=(0, 2, 3)), 0.75)[trial % 3]
            (gx, gy), (wx, wy), end_batch, end_loop = _batch_and_oracle(
                x, y, strategy, int(rng.integers(2**32)), fill)
            assert (gx.dtype, gy.dtype) == (wx.dtype, wy.dtype)
            assert gx.shape == wx.shape and gx.tobytes() == wx.tobytes(), (params, trial)
            assert gy.shape == wy.shape and gy.tobytes() == wy.tobytes(), (params, trial)
            assert end_batch == end_loop, (params, trial)
