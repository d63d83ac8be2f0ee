import numpy as np
import pytest

from distillab.nn import (Conv2d, Dense, Flatten, MaxPool2d, Network, ReLU, ShapeError,
                          build_network, sgd_step)
from oracles import conv2d_valid_loops, maxpool_backward_loops, maxpool_loops


def _single_layer_net(layer, input_shape):
    return Network([layer], embedding_tap=0, input_shape=input_shape)


def test_identity_dense_passes_input_through():
    layer = Dense(3, 3)
    layer.weight = np.eye(3, dtype=np.float32)
    layer.bias = np.zeros(3, dtype=np.float32)
    net = _single_layer_net(layer, (3,))
    x = np.array([[0.1, -2.0, 3.5]], dtype=np.float32)
    logits, emb = net.forward(x)
    assert np.allclose(logits, x, atol=1e-7)
    assert np.allclose(emb, logits)


def test_zero_initialized_net_outputs_zero():
    net = Network([Dense(4, 2)], embedding_tap=0, input_shape=(4,))
    logits, _ = net.forward(np.random.default_rng(0).standard_normal((5, 4)))
    assert np.all(logits == 0)


def test_conv_matches_hand_unrolled_convolution():
    rng = np.random.default_rng(7)
    for _ in range(5):
        layer = Conv2d(2, 3, 2, padding="valid", rng=rng, dtype=np.float64)
        x = rng.standard_normal((2, 2, 3, 3))
        got = layer.forward(x, record=False)
        want = conv2d_valid_loops(x, layer.weight, layer.bias)
        assert np.allclose(got, want, atol=1e-12)


def test_conv_same_padding_preserves_spatial_dims():
    rng = np.random.default_rng(1)
    layer = Conv2d(1, 4, 3, padding="same", rng=rng)
    layer.name = "0:conv2d"
    out = layer.forward(rng.standard_normal((2, 1, 8, 8)).astype(np.float32), record=False)
    assert out.shape == (2, 4, 8, 8)


def test_maxpool_takes_window_maxima():
    layer = MaxPool2d(2)
    layer.name = "0:maxpool2d"
    x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
    out = layer.forward(x)
    assert np.array_equal(out[0, 0], [[5, 7], [13, 15]])


def test_maxpool_backward_routes_to_first_max_on_ties():
    layer = MaxPool2d(2)
    layer.name = "0:maxpool2d"
    x = np.ones((1, 1, 2, 2), dtype=np.float64)
    layer.forward(x)
    g = layer.backward(np.array([[[[1.0]]]]))
    # all four tie; the first window element takes the gradient
    assert g[0, 0, 0, 0] == 1.0 and g.sum() == 1.0


@pytest.mark.parametrize("size", [2, 3])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_maxpool_matches_per_window_oracle(size, dtype):
    rng = np.random.default_rng(40 + size)
    for _ in range(5):
        # post-ReLU input: most windows are all zero, so first-occurrence ties dominate
        x = np.maximum(rng.standard_normal((3, 2, 4 * size, 2 * size)) - 1.0, 0).astype(dtype)
        x[0, 0, :size, :size] = 0.5  # a window tied at a non-zero maximum
        assert np.mean(x == 0) > 0.5
        layer = MaxPool2d(size)
        layer.name = "0:maxpool2d"
        want, arg = maxpool_loops(x, size)
        got = layer.forward(x, record=True)
        assert got.dtype == x.dtype and np.array_equal(got, want)
        g = rng.standard_normal(want.shape).astype(dtype)
        gx = layer.backward(g)
        assert gx.dtype == g.dtype
        assert np.array_equal(gx, maxpool_backward_loops(g, arg, size))


def test_maxpool_record_false_keeps_recorded_state():
    rng = np.random.default_rng(3)
    layer = MaxPool2d(2)
    layer.name = "0:maxpool2d"
    x = np.maximum(rng.standard_normal((2, 3, 6, 6)), 0)
    layer.forward(x, record=True)
    masks, in_shape = [m.copy() for m in layer._masks], layer._in_shape
    layer.forward(np.maximum(rng.standard_normal((5, 3, 8, 8)), 0), record=False)
    assert layer._in_shape == in_shape
    assert all(np.array_equal(a, b) for a, b in zip(layer._masks, masks, strict=True))
    # the recorded forward still drives backward
    g = rng.standard_normal((2, 3, 3, 3))
    _, arg = maxpool_loops(x, 2)
    assert np.array_equal(layer.backward(g), maxpool_backward_loops(g, arg, 2))


def test_maxpool_rejects_indivisible_input():
    layer = MaxPool2d(2)
    layer.name = "3:maxpool2d"
    with pytest.raises(ShapeError, match="3:maxpool2d"):
        layer.forward(np.zeros((1, 1, 5, 4)))


def test_forward_shape_error_names_offending_layer():
    net = Network([Flatten(), Dense(9, 4), ReLU(), Dense(4, 2)],
                  embedding_tap=2, input_shape=(1, 3, 3))
    with pytest.raises(ShapeError, match="network input"):
        net.forward(np.zeros((2, 1, 4, 4)))
    with pytest.raises(ShapeError, match="1:dense"):
        Network([Flatten(), Dense(8, 4)], 1, (1, 3, 3))


def test_backward_before_forward_is_rejected():
    net = Network([Dense(3, 2)], 0, (3,))
    with pytest.raises(RuntimeError):
        net.backward(np.zeros((1, 2)))


def test_zero_upstream_gradient_gives_zero_param_gradients():
    rng = np.random.default_rng(9)
    net = build_network("teacher-cnn", (1, 8, 8), 3, rng)
    net.forward(rng.random((4, 1, 8, 8)).astype(np.float32))
    net.backward(np.zeros((4, 3), dtype=np.float32))
    for _, layer, pname, _ in net.param_items():
        assert np.all(layer.grads()[pname] == 0)


def test_dense_backward_hand_case():
    # single dense layer, quadratic loss L = 0.5 * sum((Wx + b)^2)
    layer = Dense(2, 2, dtype=np.float64)
    layer.weight = np.array([[1.0, 2.0], [3.0, -1.0]])
    layer.bias = np.array([0.5, -0.5])
    layer.name = "0:dense"
    x = np.array([[1.0, 2.0]])
    out = layer.forward(x)
    gx = layer.backward(out.copy())  # dL/dout = out
    # out = [1*1+2*3+0.5, 1*2+2*(-1)-0.5] = [7.5, -0.5]
    assert np.allclose(out, [[7.5, -0.5]])
    assert np.allclose(layer.grad_weight, np.outer(x[0], out[0]))
    assert np.allclose(layer.grad_bias, out[0])
    assert np.allclose(gx, out @ layer.weight.T)


def test_non_finite_logits_raise():
    net = Network([Dense(2, 2)], 0, (2,))
    net.layers[0].weight = np.full((2, 2), np.float32(3e38))
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
        net.forward(np.full((1, 2), 3e38, dtype=np.float32))


def test_sgd_lr_zero_is_a_no_op_for_params():
    rng = np.random.default_rng(3)
    net = build_network("student-mlp", (1, 4, 4), 2, rng)
    before = net.params_digest()
    net.forward(rng.random((2, 1, 4, 4)).astype(np.float32))
    net.backward(rng.standard_normal((2, 2)).astype(np.float32))
    sgd_step(net, lr=0.0, momentum=0.9, weight_decay=0.01)
    assert net.params_digest() == before


def test_sgd_rejects_negative_hyperparameters():
    net = Network([Dense(2, 2)], 0, (2,))
    with pytest.raises(ValueError):
        sgd_step(net, lr=-0.1)
    with pytest.raises(ValueError):
        sgd_step(net, lr=0.1, momentum=1.0)
    with pytest.raises(ValueError):
        sgd_step(net, lr=0.1, weight_decay=-1e-3)


def test_sgd_plain_step_is_param_minus_lr_grad():
    layer = Dense(2, 2, dtype=np.float64)
    layer.weight = np.array([[1.0, 2.0], [3.0, 4.0]])
    layer.bias = np.zeros(2)
    net = Network([layer], 0, (2,))
    layer.grad_weight = np.array([[1.0, -1.0], [0.5, 0.25]])
    layer.grad_bias = np.array([1.0, 2.0])
    sgd_step(net, lr=0.1, momentum=0.0, weight_decay=0.0)
    assert np.allclose(layer.weight, [[0.9, 2.1], [2.95, 3.975]], atol=1e-12)
    assert np.allclose(layer.bias, [-0.1, -0.2], atol=1e-12)


def test_sgd_two_momentum_steps_displace_2_9_lr_g():
    layer = Dense(1, 1, dtype=np.float64)
    layer.weight = np.array([[1.0]])
    layer.bias = np.array([0.0])
    net = Network([layer], 0, (1,))
    g = 0.5
    for _ in range(2):
        layer.grad_weight = np.array([[g]])
        layer.grad_bias = np.array([0.0])
        sgd_step(net, lr=0.1, momentum=0.9, weight_decay=0.0)
    assert abs(layer.weight[0, 0] - (1.0 - 0.1 * g * 2.9)) < 1e-12


def test_sgd_decoupled_weight_decay_uses_pre_step_params():
    layer = Dense(1, 1, dtype=np.float64)
    layer.weight = np.array([[2.0]])
    layer.bias = np.array([0.0])
    net = Network([layer], 0, (1,))
    layer.grad_weight = np.array([[1.0]])
    layer.grad_bias = np.array([0.0])
    sgd_step(net, lr=0.1, momentum=0.0, weight_decay=0.5)
    # p - lr*(g + wd*p) = 2 - 0.1*(1 + 1) = 1.8
    assert abs(layer.weight[0, 0] - 1.8) < 1e-12


def test_param_and_grad_shapes_always_match():
    rng = np.random.default_rng(0)
    for arch in ("teacher-cnn", "student-mlp", "student-cnn"):
        net = build_network(arch, (1, 8, 8), 4, rng)
        for _, layer, pname, p in net.param_items():
            assert layer.grads()[pname].shape == p.shape


def test_embedding_tap_produces_flat_embeddings():
    rng = np.random.default_rng(0)
    net = build_network("teacher-cnn", (1, 12, 12), 4, rng)
    logits, emb = net.forward(rng.random((3, 1, 12, 12)).astype(np.float32))
    assert logits.shape == (3, 4)
    assert emb.shape == (3, net.embedding_dim)
    assert emb.ndim == 2


def test_network_spec_round_trip_preserves_architecture():
    rng = np.random.default_rng(6)
    net = build_network("student-cnn", (3, 8, 8), 5, rng)
    clone = Network.from_spec(net.spec_dict())
    assert clone.spec_dict() == net.spec_dict()
    assert clone.input_shape == net.input_shape
    assert clone.n_outputs == net.n_outputs
    bad = net.spec_dict()
    bad["layers"][1] = {"kind": "dropout"}
    with pytest.raises(ValueError, match="unknown layer kind 'dropout'"):
        Network.from_spec(bad)


def test_params_digest_changes_with_params():
    rng = np.random.default_rng(12)
    net = build_network("student-mlp", (1, 4, 4), 2, rng)
    d1 = net.params_digest()
    net.layers[1].weight[0, 0] += 1.0
    assert net.params_digest() != d1


def test_record_false_leaves_caches_untouched():
    rng = np.random.default_rng(2)
    net = build_network("student-mlp", (1, 4, 4), 2, rng)
    x1 = rng.random((2, 1, 4, 4)).astype(np.float32)
    net.forward(x1, record=True)
    cached = [layer._x.copy() if getattr(layer, "_x", None) is not None else None
              for layer in net.layers if hasattr(layer, "_x")]
    net.forward(rng.random((2, 1, 4, 4)).astype(np.float32), record=False)
    cached_after = [layer._x.copy() if getattr(layer, "_x", None) is not None else None
                    for layer in net.layers if hasattr(layer, "_x")]
    for a, b in zip(cached, cached_after):
        if a is not None:
            assert np.array_equal(a, b)