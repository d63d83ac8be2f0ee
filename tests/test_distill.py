import dataclasses
import json

import numpy as np
import pytest

from distillab import distill
from distillab.augment import STRATEGY_PARAMS, AugmentStrategy
from distillab.data import make_synthetic
from distillab.distill import (TrainConfig, _epoch_indices, _logit_table, evaluate_model, kd_loss,
                               train_student, train_teacher)
from distillab.metrics import confusion_metrics
from distillab.nn import build_network, sgd_step

from oracles import kd_loss_reference, kd_loss_scalar, with_human_labels


def _tiny_data(seed=0, n_classes=3, per_class=30, difficulty=0.1):
    return make_synthetic(seed=seed, n_classes=n_classes, per_class=per_class,
                          img_side=8, difficulty=difficulty)


def _tiny_cfg(**kw):
    base = dict(epochs=6, batch_size=32, lr=0.08, momentum=0.9, weight_decay=1e-4,
                seed=7, temperature=4.0, distill_weight=0.5)
    base.update(kw)
    return TrainConfig(**base)


# --- config -----------------------------------------------------------------

def test_config_round_trips_through_dict():
    cfg = _tiny_cfg(strategy=AugmentStrategy("cutout"))
    again = TrainConfig(**cfg.to_dict())
    assert again == cfg
    # the same keys, order and values as the dataclass's own deep-copying form, with the
    # strategy's fixed params
    want = dataclasses.asdict(cfg)
    want["strategy"]["params"] = STRATEGY_PARAMS["cutout"]
    assert json.dumps(cfg.to_dict()) == json.dumps(want)


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        _tiny_cfg(epochs=-1)
    with pytest.raises(ValueError):
        _tiny_cfg(batch_size=0)
    with pytest.raises(ValueError):
        _tiny_cfg(temperature=0.0)
    with pytest.raises(ValueError):
        _tiny_cfg(distill_weight=1.5)
    # NaN, which a manifest's JSON and a float flag both accept, is in no range
    for field in ("lr", "momentum", "weight_decay", "temperature", "distill_weight"):
        with pytest.raises(ValueError, match=", got nan$"):
            _tiny_cfg(**{field: float("nan")})


@pytest.mark.parametrize("field, value", [("seed", 1.0), ("seed", -1), ("epochs", 1.5),
                                          ("batch_size", "8")])
def test_config_rejects_a_count_that_is_not_an_integer_in_range(field, value):
    # a manifest's record reaches the config from JSON, where 1.5 is a number like any other
    with pytest.raises(ValueError, match=f"^{field} must be an integer >= "):
        _tiny_cfg(**{field: value})


@pytest.mark.parametrize("field, value", [("lr", -1.0), ("momentum", 3.0), ("momentum", 1.0),
                                          ("momentum", -0.1), ("weight_decay", -1e-3)])
def test_config_rejects_the_optimizer_values_that_sgd_step_rejects(field, value):
    # a fit of zero epochs takes no step, so the config checks them itself, in sgd_step's words
    net = build_network("student-mlp", (1, 4, 4), 2, np.random.default_rng(0))
    with pytest.raises(ValueError) as from_step:
        sgd_step(net, **dict({"lr": 0.1}, **{field: value}))
    with pytest.raises(ValueError) as from_config:
        _tiny_cfg(**{field: value})
    assert str(from_config.value) == str(from_step.value)
    _tiny_cfg(lr=0.0, momentum=0.0, weight_decay=0.0)  # each range's closed end


@pytest.mark.parametrize("field, arg, value", [
    *[("temperature", "tau", v) for v in (0.0, -1.0, float("nan"))],
    *[("distill_weight", "w", v) for v in (-0.1, 1.5, float("nan"))]])
def test_config_rejects_the_kd_values_that_kd_loss_rejects(field, arg, value):
    # kd_loss refuses a value in the config's words, by the field name a manifest records
    z = np.zeros((1, 2))
    with pytest.raises(ValueError) as from_loss:
        kd_loss(z, z, np.array([[1.0, 0.0]]), **dict({"tau": 4.0, "w": 0.5}, **{arg: value}))
    with pytest.raises(ValueError) as from_config:
        _tiny_cfg(**{field: value})
    assert str(from_config.value) == str(from_loss.value)


# --- kd loss ----------------------------------------------------------------

def test_kd_loss_hand_case_uniform_logits():
    s = np.zeros((1, 2))
    t = np.zeros((1, 2))
    y = np.array([[1.0, 0.0]])
    loss, grad = kd_loss(s, t, y, tau=2.0, w=0.5)
    assert loss == pytest.approx(0.5 * np.log(2.0), rel=1e-12)
    assert np.allclose(grad, [[-0.25, 0.25]], atol=1e-12)


def test_kd_loss_matches_scalar_oracle():
    rng = np.random.default_rng(21)
    for _ in range(40):
        b = int(rng.integers(1, 6))
        c = int(rng.integers(2, 8))
        s = rng.normal(0, 3, (b, c))
        t = rng.normal(0, 3, (b, c))
        y = rng.dirichlet(np.ones(c), size=b)
        tau = float(rng.uniform(0.5, 25.0))
        w = float(rng.choice([0.0, 1.0, rng.uniform()]))
        loss, _ = kd_loss(s, t, y, tau, w)
        assert loss == pytest.approx(kd_loss_scalar(s, t, y, tau, w), rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("labels", ["one-hot", "mixup"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_kd_loss_matches_reference_bitwise(dtype, labels):
    # the loss and every gradient byte equal three separate softmaxes; the last row's
    # teacher sits so far below at one class that its softmax there underflows to 0, and
    # in the last case student and teacher put all mass on one class at T = 1, so the KL
    # is 0 and, with one-hot labels, every CE row is -0.0
    rng = np.random.default_rng(25)
    for b, c in ((64, 4), (16, 4), (1, 3), (37, 10), (8, 4)):
        s = (rng.standard_normal((b, c)) * 3).astype(dtype)
        t = (rng.standard_normal((b, c)) * 3).astype(dtype)
        s[-1, 0] = t[-1, 0] = -800.0
        one_hot = np.eye(c)[rng.integers(0, c, size=b)]
        if b == 8:
            s = t = (one_hot * 1000.0).astype(dtype)
        if labels == "mixup":
            lam = rng.beta(1.0, 1.0, size=b)[:, None]
            one_hot = lam * one_hot + (1.0 - lam) * one_hot[rng.permutation(b)]
        for tau in (1.0, 4.0, 20.0):
            for w in (0.0, 0.5, 1.0):
                loss, grad = kd_loss(s, t, one_hot, tau, w)
                want_loss, want_grad = kd_loss_reference(s, t, one_hot, tau, w)
                assert isinstance(loss, float)
                assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes(), (b, tau, w)
                assert grad.dtype == want_grad.dtype == np.float64
                assert grad.tobytes() == want_grad.tobytes(), (b, tau, w)


def test_kd_loss_rejects_a_nan_temperature():
    s = np.zeros((2, 3))
    with pytest.raises(ValueError, match="^temperature must be positive, got nan$"):
        kd_loss(s, s, np.eye(3)[[0, 1]], tau=float("nan"), w=0.5)


def test_kd_loss_w_zero_ignores_teacher():
    rng = np.random.default_rng(22)
    s = rng.normal(0, 2, (5, 4))
    y = rng.dirichlet(np.ones(4), size=5)
    l1, g1 = kd_loss(s, rng.normal(0, 2, (5, 4)), y, tau=6.0, w=0.0)
    l2, g2 = kd_loss(s, rng.normal(0, 2, (5, 4)), y, tau=11.0, w=0.0)
    assert l1 == l2
    assert np.array_equal(g1, g2)


def test_kd_loss_matching_logits_make_soft_term_vanish():
    rng = np.random.default_rng(23)
    s = rng.normal(0, 2, (4, 5))
    y = rng.dirichlet(np.ones(5), size=4)
    loss_w1, grad_w1 = kd_loss(s, s.copy(), y, tau=7.0, w=1.0)
    assert loss_w1 == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(grad_w1, 0.0, atol=1e-12)
    loss_mid, _ = kd_loss(s, s.copy(), y, tau=7.0, w=0.25)
    loss_ce, _ = kd_loss(s, s.copy(), y, tau=7.0, w=0.0)
    assert loss_mid == pytest.approx(0.75 * loss_ce, rel=1e-12)


def test_kd_loss_gradient_matches_central_differences():
    rng = np.random.default_rng(24)
    s = rng.normal(0, 1.5, (3, 4))
    t = rng.normal(0, 1.5, (3, 4))
    y = rng.dirichlet(np.ones(4), size=3)
    tau, w = 5.0, 0.7
    _, grad = kd_loss(s, t, y, tau, w)
    h = 1e-6
    num = np.zeros_like(s)
    for i in range(s.shape[0]):
        for j in range(s.shape[1]):
            sp, sm = s.copy(), s.copy()
            sp[i, j] += h
            sm[i, j] -= h
            lp, _ = kd_loss(sp, t, y, tau, w)
            lm, _ = kd_loss(sm, t, y, tau, w)
            num[i, j] = (lp - lm) / (2 * h)
    denom = max(np.linalg.norm(grad) + np.linalg.norm(num), 1e-12)
    assert np.linalg.norm(grad - num) / denom < 1e-7


def test_kd_loss_promotes_to_float64():
    s = np.zeros((2, 3), dtype=np.float32)
    t = np.ones((2, 3), dtype=np.float32)
    y = np.full((2, 3), 1.0 / 3.0, dtype=np.float32)
    loss, grad = kd_loss(s, t, y, tau=3.0, w=0.5)
    assert isinstance(loss, float)
    assert grad.dtype == np.float64


def test_kd_loss_validates_inputs():
    s = np.zeros((2, 3))
    y = np.full((2, 3), 1.0 / 3.0)
    with pytest.raises(ValueError):
        kd_loss(s, s, y, tau=0.0, w=0.5)
    with pytest.raises(ValueError):
        kd_loss(s, s, y, tau=2.0, w=-0.1)
    with pytest.raises(ValueError):
        kd_loss(s, np.zeros((3, 3)), np.full((3, 3), 1 / 3), tau=2.0, w=0.5)
    with pytest.raises(ValueError):
        kd_loss(np.zeros(3), np.zeros(3), np.full(3, 1 / 3), tau=2.0, w=0.5)


# --- training ---------------------------------------------------------------

def test_teacher_fits_easy_data():
    data = _tiny_data()
    model = train_teacher(_tiny_cfg(epochs=8), data, arch="student-mlp")
    acc = confusion_metrics(evaluate_model(model.net, data))["accuracy"]
    assert acc >= 0.95


def test_training_is_bitwise_deterministic():
    data = _tiny_data()
    cfg = _tiny_cfg(epochs=2, strategy=AugmentStrategy("cutout"))
    m1 = train_teacher(cfg, data, arch="student-mlp")
    m2 = train_teacher(cfg, data, arch="student-mlp")
    assert m1.net.params_digest() == m2.net.params_digest()
    assert m1.history == m2.history
    m3 = train_teacher(_tiny_cfg(epochs=2, seed=8, strategy=AugmentStrategy("cutout")),
                       data, arch="student-mlp")
    assert m3.net.params_digest() != m1.net.params_digest()


def test_lr_zero_leaves_parameters_at_init():
    data = _tiny_data()
    short = train_teacher(_tiny_cfg(epochs=1, lr=0.0), data, arch="student-mlp")
    long = train_teacher(_tiny_cfg(epochs=5, lr=0.0), data, arch="student-mlp")
    assert short.net.params_digest() == long.net.params_digest()


def test_epochs_zero_gives_empty_history_and_init_params():
    data = _tiny_data()
    m = train_teacher(_tiny_cfg(epochs=0), data, arch="student-mlp")
    assert m.history == []
    m2 = train_teacher(_tiny_cfg(epochs=0), data, arch="student-mlp")
    assert m.net.params_digest() == m2.net.params_digest()


def test_history_shape_and_finiteness():
    data = _tiny_data()
    m = train_teacher(_tiny_cfg(epochs=3), data, arch="student-mlp")
    assert len(m.history) == 3
    for i, row in enumerate(m.history):
        assert row["epoch"] == i
        assert np.isfinite(row["loss"])
        assert 0.0 <= row["accuracy"] <= 1.0


def test_student_distillation_leaves_teacher_untouched():
    data = _tiny_data()
    teacher = train_teacher(_tiny_cfg(epochs=4), data, arch="student-mlp")
    before = teacher.net.params_digest()
    student = train_student(_tiny_cfg(epochs=3, lr=0.02), teacher, data, arch="student-mlp")
    assert teacher.net.params_digest() == before
    assert student.role == "student"
    assert student.net.params_digest() != before


def test_student_with_zero_distill_weight_ignores_teacher():
    data = _tiny_data()
    t1 = train_teacher(_tiny_cfg(epochs=1, seed=1), data, arch="student-mlp")
    t2 = train_teacher(_tiny_cfg(epochs=1, seed=2), data, arch="student-mlp")
    assert t1.net.params_digest() != t2.net.params_digest()
    cfg = _tiny_cfg(epochs=2, lr=0.02, distill_weight=0.0)
    s1 = train_student(cfg, t1, data, arch="student-mlp")
    s2 = train_student(cfg, t2, data, arch="student-mlp")
    assert s1.net.params_digest() == s2.net.params_digest()


def test_student_learns_from_teacher_alone():
    # w=1: no hard-label term at all, yet the student still fits the data
    data = _tiny_data()
    teacher = train_teacher(_tiny_cfg(epochs=8), data, arch="student-mlp")
    cfg = _tiny_cfg(epochs=8, lr=0.02, distill_weight=1.0)
    student = train_student(cfg, teacher, data, arch="student-mlp")
    acc = confusion_metrics(evaluate_model(student.net, data))["accuracy"]
    assert acc >= 0.9


def test_student_strategy_override_changes_outcome():
    data = _tiny_data()
    teacher = train_teacher(_tiny_cfg(epochs=2), data, arch="student-mlp")
    cfg = _tiny_cfg(epochs=2, lr=0.02)
    plain = train_student(cfg, teacher, data, arch="student-mlp")
    mixed = train_student(_tiny_cfg(epochs=2, lr=0.02, strategy=AugmentStrategy("mixup")),
                          teacher, data, arch="student-mlp")
    assert plain.net.params_digest() != mixed.net.params_digest()


def test_teacher_logit_table_equals_per_batch_forwards_bitwise():
    # the grid's shapes: 2,000 training rows of 1x12x12, teacher-cnn, batch 64
    data = make_synthetic(seed=3, n_classes=4, per_class=500, img_side=12, difficulty=1.0)
    teacher = train_teacher(_tiny_cfg(epochs=1, batch_size=64), data, arch="teacher-cnn").net
    table = _logit_table(teacher, data.images, 64)
    assert table.shape == (2000, 4) and table.dtype == np.float32
    batches = list(_epoch_indices(data.n_samples, 64, np.random.default_rng(5)))
    assert len(batches[0]) == 64 and len(batches[-1]) == 16
    for idx in batches:
        assert np.array_equal(table[idx], teacher.forward(data.images[idx], record=False)[0])


# 90 rows in batches of 32 make 3 batches an epoch
@pytest.mark.parametrize("strategy, epochs, forwards", [("none", 4, 3), ("standard", 4, 4 * 3),
                                                        ("none", 0, 0)])
def test_teacher_forwards_per_student_fit(monkeypatch, strategy, epochs, forwards):
    data = _tiny_data()
    teacher = train_teacher(_tiny_cfg(epochs=1), data, arch="student-mlp")
    calls = []
    forward = teacher.net.forward

    def counting_forward(batch, record=True):
        calls.append(record)
        return forward(batch, record=record)

    monkeypatch.setattr(teacher.net, "forward", counting_forward)
    train_student(_tiny_cfg(epochs=epochs, strategy=AugmentStrategy(strategy)), teacher, data)
    assert calls == [False] * forwards


def test_class_count_mismatch_rejected():
    data3 = _tiny_data(n_classes=3)
    data4 = make_synthetic(seed=1, n_classes=4, per_class=20, img_side=8, difficulty=0.1)
    teacher = train_teacher(_tiny_cfg(epochs=1), data3, arch="student-mlp")
    with pytest.raises(ValueError):
        train_student(_tiny_cfg(epochs=1), teacher, data4, arch="student-mlp")
    with pytest.raises(ValueError):
        evaluate_model(teacher.net, data4)


# --- evaluation -------------------------------------------------------------

def test_evaluate_produces_valid_dump():
    data = with_human_labels(_tiny_data(), seed=0)
    model = train_teacher(_tiny_cfg(epochs=2), data, arch="student-mlp")
    dump = evaluate_model(model.net, data)
    assert dump.n_samples == data.n_samples
    assert dump.n_classes == data.n_classes
    assert dump.probs.dtype == np.float64
    assert np.allclose(dump.probs.sum(axis=1), 1.0, atol=1e-9)
    assert dump.human_probs is not None
    assert np.array_equal(dump.human_probs, data.human_probs)


def test_evaluate_batching_is_invisible(monkeypatch):
    data = _tiny_data()
    net = train_teacher(_tiny_cfg(epochs=1), data, arch="student-mlp").net
    whole = evaluate_model(net, data)  # 90 rows, one batch
    # identical call -> bitwise identical (no hidden state)
    assert np.array_equal(evaluate_model(net, data).probs, whole.probs)
    # different batch splits may reorder float accumulation, but only at ulp scale
    monkeypatch.setattr(distill, "EVAL_BATCH", 7)
    small = evaluate_model(net, data)
    assert np.allclose(small.probs, whole.probs, atol=1e-6)
    assert np.array_equal(small.probs.argmax(axis=1), whole.probs.argmax(axis=1))
