import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from distillab.errors import FormatError
from distillab.nn import (ARCHITECTURES, LAYER_KINDS, Conv2d, Dense, Flatten, MaxPool2d, Network,
                          ReLU, ShapeError, build_network, sgd_step)
from distillab.runstore import load_checkpoint, save_checkpoint
from oracles import (conv2d_im2col_backward_reference, conv2d_im2col_reference,
                     conv2d_valid_loops, maxpool_backward_loops, maxpool_loops)


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


def _conv_against_reference(cin, cout, side, batch, dtype, padding, seed=0):
    rng = np.random.default_rng(seed)
    layer = Conv2d(cin, cout, 3, padding=padding, rng=rng, dtype=dtype)
    layer.name = "0:conv2d"
    x = rng.standard_normal((batch, cin, side, side)).astype(dtype)
    out = layer.forward(x, record=True)
    grad_out = rng.standard_normal(out.shape).astype(dtype)
    gx = layer.backward(grad_out)
    want = (conv2d_im2col_reference(x, layer.weight, layer.bias, padding),
            *conv2d_im2col_backward_reference(x, layer.weight, grad_out, padding))
    return (out, gx, layer.grad_weight, layer.grad_bias), want


# both teacher-cnn convolutions at the grid's 1x12x12 input
TEACHER_CONVS = [(1, 8, 12), (8, 16, 6)]


@pytest.mark.parametrize("cin, cout, side", TEACHER_CONVS)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("padding", ["same", "valid"])
def test_conv_matches_im2col_reference_bitwise(cin, cout, side, dtype, padding):
    for batch in (2, 16, 64, 232, 256):
        got, want = _conv_against_reference(cin, cout, side, batch, dtype, padding)
        for name, g, w in zip(("forward", "grad_input", "grad_weight", "grad_bias"), got, want):
            assert g.dtype == w.dtype and g.shape == w.shape, (name, batch)
            assert np.array_equal(g, w), (name, batch)


@pytest.mark.parametrize("cin, cout, side", TEACHER_CONVS)
def test_conv_batch_of_one_matches_reference_to_rounding(cin, cout, side):
    # at one row the reference's tensordot hands BLAS the columns as an F-order
    # view, so batch size 1 may differ from it in the last ulp
    got, want = _conv_against_reference(cin, cout, side, 1, np.float64, "same")
    for g, w in zip(got, want):
        assert np.allclose(g, w, rtol=1e-12, atol=1e-12)


def test_conv_kernel_larger_than_valid_input_raises_before_allocating():
    layer = Conv2d(1, 2, 3, padding="valid")
    layer.name = "4:conv2d"
    # a million 2x2 images as a broadcast view: no memory until a buffer is made
    x = np.broadcast_to(np.zeros((1, 1, 2, 2), dtype=np.float32), (1_000_000, 1, 2, 2))
    tracemalloc.start()
    try:
        with pytest.raises(ShapeError, match="4:conv2d"):
            layer.forward(x, record=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # the padded copy alone would take 16 MB
    with pytest.raises(ShapeError, match="0:conv2d"):
        Network([Conv2d(1, 2, 5, padding="valid"), Flatten()], 1, (1, 4, 4))


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
    with pytest.raises(ShapeError, match=r"\[B, C\] logits"):
        Network([Conv2d(1, 2, 3)], 0, (1, 4, 4))
    # 10 -> pool -> 5: the second max-pool cannot halve it
    with pytest.raises(ShapeError, match="5:maxpool2d"):
        build_network("teacher-cnn", (1, 10, 10), 4, np.random.default_rng(0))


@pytest.mark.parametrize("arch, calls", [
    ("teacher-cnn", ["dense", "relu", "dense", "flatten", "maxpool2d", "relu", "conv2d",
                     "maxpool2d", "relu", "conv2d:no-input-grad"]),
    ("student-mlp", ["dense", "relu", "dense:no-input-grad"]),
])
def test_backward_stops_at_the_lowest_layer_with_parameters(arch, calls):
    rng = np.random.default_rng(4)
    net = build_network(arch, (1, 12, 12), 4, rng)
    seen = []
    for layer in net.layers:
        def spy(g, _layer=layer, _backward=layer.backward, **kw):
            seen.append(_layer.kind + (":no-input-grad" if kw == {"input_grad": False} else ""))
            return _backward(g, **kw)
        layer.backward = spy
    net.forward(rng.random((3, 1, 12, 12)).astype(np.float32))
    assert net.backward(rng.standard_normal((3, 4)).astype(np.float32)) is None
    assert seen == calls


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


@pytest.mark.parametrize("input_shape", [(1, 12, 12), (1, 28, 28), (3, 32, 32)],
                         ids=lambda shape: "x".join(map(str, shape)))
@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_param_and_grad_shapes_always_match(arch, input_shape):
    rng = np.random.default_rng(0)
    net = build_network(arch, input_shape, 4, rng)
    for _, layer, pname, p in net.param_items():
        assert layer.grads()[pname].shape == p.shape
    logits, emb = net.forward(rng.random((2, *input_shape)), record=False)
    assert logits.shape == (2, net.n_outputs) == (2, 4)
    assert emb.shape == (2, net.embedding_dim)
    # the embedding is the penultimate output: the last layer maps it to the logits
    assert np.array_equal(logits, net.layers[-1].forward(emb, record=False))


def test_huge_declared_input_fails_without_allocating(tmp_path):
    spec = build_network("teacher-cnn", (3, 32, 32), 4, np.random.default_rng(0)).spec_dict()
    spec["input_shape"] = [3, 200000, 200000]
    tracemalloc.start()
    try:
        with pytest.raises(ShapeError, match=r"layer \d+:\w+"):
            Network.from_spec(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    (tmp_path / "network.json").write_text(json.dumps(spec), encoding="utf-8")
    with pytest.raises(FormatError, match="network.json"):
        load_checkpoint(tmp_path)


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


# sha256 of network.json as save_checkpoint writes it, for a [1, 12, 12] input and 4
# classes: the bytes of the layer specs and the network record, which replays read
NETWORK_JSON_SHA256 = {
    "teacher-cnn": "32cedc2c10f547e1fd373384e73d6e12bf1eac9880a6d8ae2e97d1f42da6284c",
    "student-mlp": "aa804f0714061b7ce67fa3cb14c71cd5202e735b7b5062b70f700961e6da677f",
    "student-cnn": "2139119584b4e46bf88b5fa444dcd487adb8e15ea2cebafc70c6c581278fa569",
}


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_network_json_bytes_are_pinned(arch, tmp_path):
    assert sorted(NETWORK_JSON_SHA256) == sorted(ARCHITECTURES)
    save_checkpoint(build_network(arch, (1, 12, 12), 4, np.random.default_rng(0)), tmp_path)
    assert hashlib.sha256((tmp_path / "network.json").read_bytes()).hexdigest() == \
        NETWORK_JSON_SHA256[arch]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_every_layer_kind_round_trips_through_its_spec(dtype):
    layers = [Conv2d(2, 3, 3, padding="valid", dtype=dtype), ReLU(), MaxPool2d(3),
              Conv2d(3, 4, 2, padding="same", dtype=dtype), MaxPool2d(2), Flatten(),
              Dense(4, 5, dtype=dtype), ReLU(), Dense(5, 2, dtype=dtype)]
    net = Network(layers, embedding_tap=7, input_shape=(2, 8, 8), dtype=dtype)
    assert {layer.kind for layer in layers} == set(LAYER_KINDS)
    spec = net.spec_dict()
    assert spec["layers"][0] == {"kind": "conv2d", "in_channels": 2, "out_channels": 3,
                                 "kernel_size": 3, "padding": "valid"}
    assert spec["layers"][2] == {"kind": "maxpool2d", "size": 3}
    assert spec["layers"][6] == {"kind": "dense", "in_features": 4, "out_features": 5}
    assert spec["layers"][1] == spec["layers"][7] == {"kind": "relu"}
    clone = Network.from_spec(spec)
    assert clone.spec_dict() == spec
    assert [type(layer) for layer in clone.layers] == [type(layer) for layer in layers]
    # parameters and their gradient slots, in the original's order and dtype
    assert [(key, arr.shape, arr.dtype) for key, _, _, arr in clone.param_items()] == \
        [(key, arr.shape, arr.dtype) for key, _, _, arr in net.param_items()] == \
        [(f"{i}.{p}", getattr(layers[i], p).shape, np.dtype(dtype))
         for i in (0, 3, 6, 8) for p in ("weight", "bias")]
    for layer in clone.layers:
        assert list(layer.grads()) == list(layer.params()) == list(layer.param_names)


def test_params_digest_changes_with_params():
    rng = np.random.default_rng(12)
    net = build_network("student-mlp", (1, 4, 4), 2, rng)
    d1 = net.params_digest()
    net.layers[1].weight[0, 0] += 1.0
    assert net.params_digest() != d1


def _oracle_forward(net, x):
    """The network's layers chained through the NCHW oracles; returns the logits
    and, per layer, its input and (for max-pool) the window argmax."""
    tape = []
    for layer in net.layers:
        arg = None
        if layer.kind == "conv2d":
            out = conv2d_im2col_reference(x, layer.weight, layer.bias, layer.padding)
        elif layer.kind == "relu":
            out = np.maximum(x, 0)
        elif layer.kind == "maxpool2d":
            out, arg = maxpool_loops(x, layer.size)
        elif layer.kind == "flatten":
            out = x.reshape(x.shape[0], -1)
        else:
            out = x @ layer.weight + layer.bias
        tape.append((x, arg))
        x = out
    return x, tape


def _oracle_param_grads(net, tape, g):
    """Parameter gradients of one backward pass chained through the NCHW oracles."""
    grads = {}
    for i in reversed(range(len(net.layers))):
        layer, (x, arg) = net.layers[i], tape[i]
        if layer.kind == "conv2d":
            g, gw, gb = conv2d_im2col_backward_reference(x, layer.weight, g, layer.padding)
            grads[i] = (gw, gb)
        elif layer.kind == "relu":
            g = g * (x > 0)
        elif layer.kind == "maxpool2d":
            g = maxpool_backward_loops(g, arg, layer.size)
        elif layer.kind == "flatten":
            g = g.reshape(x.shape)
        else:
            grads[i] = (x.T @ g, g.sum(axis=0))
            g = g @ layer.weight.T
    return grads


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_training_step_matches_nchw_oracle_chain_bitwise(arch):
    # the conv returns NCHW views of channels-last memory and ReLU and max-pool
    # keep that order; the parameter gradients must not move by one bit
    rng = np.random.default_rng(31)
    net = build_network(arch, (1, 12, 12), 4, rng)
    x = rng.random((64, 1, 12, 12)).astype(np.float32)
    g = rng.standard_normal((64, 4)).astype(np.float32)
    logits, _ = net.forward(x, record=True)
    assert net.backward(g) is None
    want_logits, tape = _oracle_forward(net, x)
    assert logits.tobytes() == want_logits.tobytes()
    want = _oracle_param_grads(net, tape, g)
    assert sorted(want) == sorted(i for i, layer in enumerate(net.layers) if layer.params())
    for i, (gw, gb) in want.items():
        layer = net.layers[i]
        assert layer.grad_weight.dtype == gw.dtype and layer.grad_bias.dtype == gb.dtype
        assert layer.grad_weight.tobytes() == gw.tobytes(), (arch, i, "weight")
        assert layer.grad_bias.tobytes() == gb.tobytes(), (arch, i, "bias")


@pytest.mark.parametrize("batch", [64, 232, 256])
def test_no_record_forward_matches_nchw_oracle_chain_bitwise(batch):
    rng = np.random.default_rng(batch)
    net = build_network("teacher-cnn", (1, 12, 12), 4, rng)
    x = rng.random((batch, 1, 12, 12)).astype(np.float32)
    logits, emb = net.forward(x, record=False)
    want, tape = _oracle_forward(net, x)
    assert logits.dtype == want.dtype and logits.tobytes() == want.tobytes()
    assert emb.tobytes() == tape[net.embedding_tap + 1][0].tobytes()


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