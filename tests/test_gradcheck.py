import numpy as np

from distillab.nn import Dense

from gradcheck import LAYER_CHECK_KINDS, check_kd_loss, check_layer, relative_error, run_all


def test_relative_error_basics():
    a = np.array([1.0, 2.0, 3.0])
    assert relative_error(a, a) == 0.0
    assert relative_error(a, np.zeros(3)) > 0.4
    assert relative_error(np.zeros(3), np.zeros(3)) == 0.0


def test_run_all_covers_every_layer_and_the_loss():
    results = run_all(seed=0, instances=2)
    assert set(results) == set(LAYER_CHECK_KINDS) | {"kd_loss"}
    for kind, err in results.items():
        assert err < 1e-5, f"{kind} analytic/numeric mismatch {err}"


def test_run_all_is_seed_deterministic():
    assert run_all(seed=3, instances=2) == run_all(seed=3, instances=2)


def test_kd_loss_check_tight():
    rng = np.random.default_rng(9)
    for _ in range(3):
        assert check_kd_loss(rng) < 1e-6


def test_dense_gradient_survives_bias_perturbation():
    # check_layer perturbs every parameter, not just the weight; finite
    # differences at h=1e-6 only resolve in float64
    rng = np.random.default_rng(4)
    layer = Dense(5, 3, rng=rng, dtype=np.float64)
    x = rng.normal(size=(2, 5))
    assert check_layer(layer, x, rng) < 1e-6