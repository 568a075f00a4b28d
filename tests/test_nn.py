import json
import tracemalloc

import numpy as np
import pytest

from grassopt.errors import DimensionError, PreconditionError
from grassopt.nn import (
    BatchNormLayer,
    ConvLayer,
    DenseLayer,
    EuclideanRef,
    Network,
    ReluLayer,
    Trainer,
    build_convnet,
    build_mlp,
    load_checkpoint,
    partition_parameters,
    save_checkpoint,
    softmax_ce,
)
from grassopt.nn.layers import FlattenLayer
from grassopt.optim import EuclideanHyper, default_eta_g

import bn_oracle
import conv_oracle


def _vector_rel_error(analytic, numeric):
    scale = max(float(np.max(np.abs(analytic))), float(np.max(np.abs(numeric))), 1e-8)
    return float(np.max(np.abs(analytic - numeric))) / scale


def _fd_loss_gradient(loss_fn, array, eps=1e-5):
    grad = np.zeros_like(array)
    flat = array.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.shape[0]):
        saved = flat[i]
        flat[i] = saved + eps
        fp = loss_fn()
        flat[i] = saved - eps
        fm = loss_fn()
        flat[i] = saved
        gflat[i] = (fp - fm) / (2.0 * eps)
    return grad


def _forward(net, x, training):
    """Logits and per-layer caches of one pass through ``net``'s layers in the given mode."""
    caches = []
    for layer in net.layers:
        x, cache = layer.forward(x, training=training)
        caches.append(cache)
    return x, caches


# ---------------------------------------------------------------- batch norm

def test_bn_constant_column_outputs_offset():
    bn = BatchNormLayer(2)
    bn.offset[:] = [0.7, -0.3]
    x = np.ones((8, 2)) * 4.2
    out, _ = bn.forward(x, training=True)
    assert out == pytest.approx(np.tile(bn.offset, (8, 1)), abs=1e-12)


def test_bn_normalizes_two_point_batch():
    bn = BatchNormLayer(1)
    out, _ = bn.forward(np.array([[-1.0], [1.0]]), training=True)
    assert out[:, 0] == pytest.approx([-1.0, 1.0], abs=1e-5)  # up to eps_bn


def test_bn_scale_invariance_of_forward():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((32, 4))
    w = rng.standard_normal((4, 3))
    bn = BatchNormLayer(3, eps_bn=1e-12)
    base, _ = bn.forward(x @ w, training=True)
    for k in (0.5, 3.0, 100.0):
        scaled, _ = bn.forward(x @ (k * w), training=True)
        assert np.max(np.abs(scaled - base)) < 1e-10


def test_bn_rejects_single_row_training_batch():
    bn = BatchNormLayer(3)
    with pytest.raises(PreconditionError):
        bn.forward(np.ones((1, 3)), training=True)


def test_bn_backward_zero_upstream():
    bn = BatchNormLayer(3)
    rng = np.random.default_rng(1)
    _, cache = bn.forward(rng.standard_normal((6, 3)), training=True)
    dx, grads = bn.backward(np.zeros((6, 3)), cache)
    assert np.max(np.abs(dx)) == 0.0
    assert np.max(np.abs(grads["offset"])) == 0.0
    assert np.max(np.abs(grads["scale"])) == 0.0


def test_bn_backward_matches_finite_differences():
    rng = np.random.default_rng(2)
    bn = BatchNormLayer(3)
    bn.scale[:] = rng.uniform(0.5, 1.5, 3)
    bn.offset[:] = rng.standard_normal(3)
    x = rng.standard_normal((7, 3))
    target = rng.standard_normal((7, 3))

    def loss_through(x_in):
        out, _ = bn.forward(x_in, training=True)
        return 0.5 * float(np.sum((out - target) ** 2))

    out, cache = bn.forward(x, training=True)
    dx, grads = bn.backward(out - target, cache)

    numeric_dx = _fd_loss_gradient(lambda: loss_through(x), x)
    assert _vector_rel_error(dx, numeric_dx) < 1e-5
    numeric_scale = _fd_loss_gradient(lambda: loss_through(x), bn.scale)
    assert _vector_rel_error(grads["scale"], numeric_scale) < 1e-5
    numeric_offset = _fd_loss_gradient(lambda: loss_through(x), bn.offset)
    assert _vector_rel_error(grads["offset"], numeric_offset) < 1e-5


def test_bn_weight_gradient_inverse_scaling():
    # Gradient of a loss with respect to w at k*w is (1/k) times the gradient at w.
    rng = np.random.default_rng(3)
    x = rng.standard_normal((16, 5))
    w = rng.standard_normal((5, 2))
    target = rng.standard_normal((16, 2))
    bn = BatchNormLayer(2, eps_bn=1e-12)

    def grad_at(weights):
        dense = DenseLayer(weights)
        z, dense_cache = dense.forward(x)
        out, bn_cache = bn.forward(z, training=True)
        dz, _ = bn.backward(out - target, bn_cache)
        _, grads = dense.backward(dz, dense_cache)
        return grads["W"]

    g1 = grad_at(w)
    for k in (0.5, 3.0, 100.0):
        gk = grad_at(k * w)
        assert _vector_rel_error(gk, g1 / k) < 1e-8


def test_bn_running_stats_updated_only_on_request():
    bn = BatchNormLayer(2)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((10, 2)) * 3.0 + 1.0
    before = bn.running_mean.copy()
    _, cache = bn.forward(x, training=True)
    assert np.array_equal(bn.running_mean, before)  # forward is pure
    bn.update_running(cache)
    expected = 0.9 * before + 0.1 * x.mean(axis=0)
    assert bn.running_mean == pytest.approx(expected, rel=1e-12)
    unbiased = x.var(axis=0) * 10 / 9
    assert bn.running_var == pytest.approx(0.9 * np.ones(2) + 0.1 * unbiased, rel=1e-12)


def test_bn_running_stats_update_in_place_with_the_out_of_place_bytes():
    bn = BatchNormLayer(6, momentum_stats=0.3)
    running_mean, running_var = bn.running_mean, bn.running_var
    rng = np.random.default_rng(31)
    for shape in [(10, 6), (4, 3, 5, 6), (7, 6)]:
        x = rng.standard_normal(shape) * 2.0 + 0.5
        _, cache = bn.forward(x, training=True)
        xhat, _, mean, var = cache
        rows = xhat.size // bn.units
        w = bn.momentum_stats
        expected_mean = (1.0 - w) * bn.running_mean + w * mean
        expected_var = (1.0 - w) * bn.running_var + w * (var * rows / (rows - 1))
        bn.update_running(cache)
        assert bn.running_mean is running_mean and bn.running_var is running_var
        assert bn.running_mean.tobytes() == expected_mean.tobytes()
        assert bn.running_var.tobytes() == expected_var.tobytes()


def test_bn_channels_last_equals_bn_of_rows():
    # A (m, h, w, c) batch is normalized per channel over its m*h*w rows.
    rng = np.random.default_rng(25)
    x = rng.standard_normal((4, 3, 5, 6)) * 2.0 + 0.5
    dout = rng.standard_normal(x.shape)
    image, rows = BatchNormLayer(6), BatchNormLayer(6)
    image.scale[:] = rows.scale[:] = rng.uniform(0.5, 2.0, 6)
    image.offset[:] = rows.offset[:] = rng.standard_normal(6)

    out4, cache4 = image.forward(x, training=True)
    out2, cache2 = rows.forward(x.reshape(-1, 6), training=True)
    assert out4.shape == x.shape
    assert out4.reshape(-1, 6).tobytes() == out2.tobytes()
    dx4, grads4 = image.backward(dout, cache4)
    dx2, grads2 = rows.backward(dout.reshape(-1, 6), cache2)
    assert dx4.shape == x.shape
    assert dx4.reshape(-1, 6).tobytes() == dx2.tobytes()
    assert grads4.keys() == grads2.keys()
    for name in grads4:
        assert grads4[name].tobytes() == grads2[name].tobytes(), name
    image.update_running(cache4)
    rows.update_running(cache2)
    assert image.running_mean.tobytes() == rows.running_mean.tobytes()
    assert image.running_var.tobytes() == rows.running_var.tobytes()
    eval4, _ = image.forward(x, training=False)
    eval2, _ = rows.forward(x.reshape(-1, 6), training=False)
    assert eval4.reshape(-1, 6).tobytes() == eval2.tobytes()


@pytest.mark.parametrize(
    "shape, wide",
    [
        ((32, 28, 28, 8), (784, 256)),
        ((32, 14, 14, 16), (392, 256)),
        ((256, 28, 28, 8), (6272, 256)),
        ((32, 256), (32, 256)),
        ((32, 128), (32, 128)),
        ((257, 8), (257, 8)),  # 257 is prime: no wider view
        ((2, 8), (1, 16)),  # the 2-row minimum
    ],
    ids=lambda v: "x".join(map(str, v)),
)
def test_bn_matches_row_oracle(shape, wide):
    rng = np.random.default_rng(26)
    units = shape[-1]
    x = rng.standard_normal(shape) * 3.0 + 1.5
    dout = rng.standard_normal(shape)
    bn, ref = BatchNormLayer(units), BatchNormLayer(units)
    bn.scale[:] = ref.scale[:] = rng.uniform(0.5, 2.0, units)
    bn.offset[:] = ref.offset[:] = rng.standard_normal(units)

    out, cache = bn.forward(x, training=True)
    ref_out, ref_cache = bn_oracle.forward(ref, x, training=True)
    assert cache[0].shape == wide
    assert out.shape == x.shape
    assert _vector_rel_error(out, ref_out) < 1e-12
    dx, grads = bn.backward(dout, cache)
    ref_dx, ref_grads = bn_oracle.backward(ref, dout, ref_cache)
    assert dx.shape == x.shape
    assert _vector_rel_error(dx, ref_dx) < 1e-12
    for name in ("offset", "scale"):
        assert _vector_rel_error(grads[name], ref_grads[name]) < 1e-12, name
    bn.update_running(cache)
    bn_oracle.update_running(ref, ref_cache)
    assert _vector_rel_error(bn.running_mean, ref.running_mean) < 1e-12
    assert _vector_rel_error(bn.running_var, ref.running_var) < 1e-12
    # eval mode, from the running statistics just folded in
    bn.running_mean, bn.running_var = ref.running_mean.copy(), ref.running_var.copy()
    eval_out, _ = bn.forward(x, training=False)
    ref_eval, _ = bn_oracle.forward(ref, x, training=False)
    assert _vector_rel_error(eval_out, ref_eval) < 1e-12


@pytest.mark.parametrize(
    "shape, k",
    [((32, 256), 1), ((64, 8), 32), ((4, 6, 6, 8), 24), ((32, 14, 14, 16), 16)],
    ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else f"k{v}",
)
def test_bn_one_pass_reductions(shape, k):
    # The batch variance and dgamma are one einsum pass each over the wide
    # view. They match the row oracle, and give the bytes of the product
    # temporary summed over rows that they replace.
    rng = np.random.default_rng(28)
    units = shape[-1]
    x = rng.standard_normal(shape) * 2.0 - 0.5
    dout = rng.standard_normal(shape)
    bn, ref = BatchNormLayer(units), BatchNormLayer(units)
    bn.scale[:] = ref.scale[:] = rng.uniform(0.5, 2.0, units)
    _, cache = bn.forward(x, training=True)
    xhat, _, mean, var = cache
    assert xhat.shape[1] == k * units
    _, grads = bn.backward(dout, cache)
    _, ref_cache = bn_oracle.forward(ref, x, training=True)
    _, ref_grads = bn_oracle.backward(ref, dout, ref_cache)
    assert _vector_rel_error(var, ref_cache[3]) < 1e-12
    assert _vector_rel_error(grads["scale"], ref_grads["scale"]) < 1e-12
    rows = x.size // units
    centered = x.reshape(xhat.shape) - np.tile(mean, k)
    two_pass_var = (centered * centered).sum(axis=0).reshape(k, units).sum(axis=0) / rows
    two_pass_dgamma = (dout.reshape(xhat.shape) * xhat).sum(axis=0).reshape(k, units).sum(axis=0)
    assert var.tobytes() == two_pass_var.tobytes()
    assert grads["scale"].tobytes() == two_pass_dgamma.tobytes()


def test_bn_rejects_single_image_pixel_in_train_mode_only():
    bn = BatchNormLayer(8)
    with pytest.raises(PreconditionError):
        bn.forward(np.ones((1, 1, 1, 8)), training=True)
    out, _ = bn.forward(np.ones((1, 1, 1, 8)), training=False)
    assert out.shape == (1, 1, 1, 8)


def test_bn_eval_cache_holds_nothing_for_backward_or_running_stats():
    rng = np.random.default_rng(30)
    bn = BatchNormLayer(8)
    bn.running_mean = rng.standard_normal(8)
    bn.running_var = rng.uniform(0.5, 2.0, 8)
    x = rng.standard_normal((4, 6, 6, 8))
    _, cache = bn.forward(x, training=False)
    assert cache is None  # no xhat, nor anything else the size of the batch
    with pytest.raises(PreconditionError):
        bn.backward(np.ones_like(x), cache)
    mean, var = bn.running_mean.tobytes(), bn.running_var.tobytes()
    bn.update_running(cache)
    assert bn.running_mean.tobytes() == mean
    assert bn.running_var.tobytes() == var


def test_bn_input_grad_off_keeps_parameter_gradients():
    rng = np.random.default_rng(27)
    bn = BatchNormLayer(8)
    x = rng.standard_normal((4, 6, 6, 8))
    dout = rng.standard_normal(x.shape)
    _, cache = bn.forward(x, training=True)
    _, full = bn.backward(dout, cache)
    dx, grads = bn.backward(dout, cache, input_grad=False)
    assert dx is None
    for name in full:
        assert grads[name].tobytes() == full[name].tobytes(), name


def test_bn_rejects_wrong_last_axis():
    bn = BatchNormLayer(3)
    with pytest.raises(DimensionError):
        bn.forward(np.zeros((2, 3, 4, 4)), training=True)  # channels-first
    with pytest.raises(DimensionError):
        bn.forward(np.zeros((8, 4)), training=True)


def test_bn_frozen_scale_stays_one():
    bn = BatchNormLayer(3, scale_trainable=False)
    assert "scale" not in bn.params()
    rng = np.random.default_rng(5)
    _, cache = bn.forward(rng.standard_normal((6, 3)), training=True)
    _, grads = bn.backward(rng.standard_normal((6, 3)), cache)
    assert "scale" not in grads
    assert np.array_equal(bn.scale, np.ones(3))


# ------------------------------------------------------------- other layers

def test_relu_example():
    relu = ReluLayer()
    out, _ = relu.forward(np.array([[-1.0, 2.0]]))
    assert np.array_equal(out, [[0.0, 2.0]])


def test_softmax_ce_extreme_logits():
    logits = np.array([[100.0, -100.0, -100.0]])
    loss, _ = softmax_ce(logits, np.array([0]))
    assert loss == pytest.approx(0.0, abs=1e-12)


def test_dense_backward_matches_finite_differences():
    rng = np.random.default_rng(6)
    layer = DenseLayer(rng.standard_normal((4, 3)), bias=rng.standard_normal(3))
    x = rng.standard_normal((5, 4))
    target = rng.standard_normal((5, 3))

    def loss():
        out, _ = layer.forward(x)
        return 0.5 * float(np.sum((out - target) ** 2))

    out, cache = layer.forward(x)
    dx, grads = layer.backward(out - target, cache)
    assert _vector_rel_error(grads["W"], _fd_loss_gradient(loss, layer.W)) < 1e-5
    assert _vector_rel_error(grads["bias"], _fd_loss_gradient(loss, layer.bias)) < 1e-5
    assert _vector_rel_error(dx, _fd_loss_gradient(loss, x)) < 1e-5


def test_conv_backward_matches_finite_differences():
    rng = np.random.default_rng(7)
    layer = ConvLayer(rng.standard_normal((3, 3, 2, 4)) * 0.5, stride=2, padding=1)
    x = rng.standard_normal((2, 5, 5, 2))
    out, cache = layer.forward(x)
    target = rng.standard_normal(out.shape)

    def loss():
        o, _ = layer.forward(x)
        return 0.5 * float(np.sum((o - target) ** 2))

    dx, grads = layer.backward(out - target, cache)
    assert _vector_rel_error(grads["filters"], _fd_loss_gradient(loss, layer.filters)) < 1e-5
    assert _vector_rel_error(dx, _fd_loss_gradient(loss, x)) < 1e-5


def test_conv_weight_matrix_is_unrolled_view():
    rng = np.random.default_rng(8)
    layer = ConvLayer(rng.standard_normal((3, 3, 2, 4)))
    wm = layer.weight_matrix()
    assert wm.shape == (18, 4)
    wm[:, 0] = 0.0
    assert np.max(np.abs(layer.filters[:, :, :, 0])) == 0.0  # shares memory


def _exact_or_close(a, b, exact):
    assert a.shape == b.shape
    if exact:
        assert a.tobytes() == b.tobytes()
    else:
        assert _vector_rel_error(a, b) <= 1e-12


@pytest.mark.parametrize("kernel", [(1, 1), (2, 2), (3, 3), (5, 3)], ids=lambda k: "x".join(map(str, k)))
@pytest.mark.parametrize("padding", [0, 1, 2])
@pytest.mark.parametrize("stride", [1, 2, 3])
def test_conv_matches_scatter_oracle(stride, padding, kernel):
    # Byte-equal from 3 input channels. A single input channel builds its
    # im2col matrix tap-major, so BLAS gets its transpose, and a tap group of
    # one channel can make a one-column product, for which numpy calls a
    # matrix-vector routine: there 1e-12 relative.
    rng = np.random.default_rng(40)
    kh, kw = kernel
    remainders = set()
    for cin in (1, 3, 8):
        for h, w in ((7, 7), (9, 10), (12, 11)):
            layer = ConvLayer(rng.standard_normal((kh, kw, cin, 4)), stride=stride, padding=padding)
            x = rng.standard_normal((3, h, w, cin))
            out, cache = layer.forward(x)
            ref_out, ref_cache = conv_oracle.forward(layer, x)
            _exact_or_close(out, ref_out, cin > 1)
            dout = rng.standard_normal(out.shape)
            dx, grads = layer.backward(dout, cache)
            ref_dx, ref_grads = conv_oracle.backward(layer, dout, ref_cache)
            _exact_or_close(grads["filters"], ref_grads["filters"], cin > 1)
            _exact_or_close(dx, ref_dx, cin > 1)
            no_dx, only = layer.backward(dout, cache, input_grad=False)
            assert no_dx is None and only["filters"].tobytes() == grads["filters"].tobytes()
            remainders.add((w + 2 * padding - kw) % stride)
    assert stride == 1 or len(remainders) > 1  # output columns that leave input columns over


@pytest.mark.parametrize("cin, cout, stride", [(1, 8, 1), (8, 16, 2)], ids=["first", "second"])
def test_benchmark_convs_are_byte_equal_to_oracle(cin, cout, stride):
    # The convnet's two convolutions at batch 32 and 64 (train step, evaluation).
    rng = np.random.default_rng(41)
    layer = ConvLayer(rng.standard_normal((3, 3, cin, cout)), stride=stride, padding=1)
    for m in (32, 64):
        x = rng.standard_normal((m, 28, 28, cin))
        out, cache = layer.forward(x)
        ref_out, ref_cache = conv_oracle.forward(layer, x)
        assert out.tobytes() == ref_out.tobytes()
        dout = rng.standard_normal(out.shape)
        dx, grads = layer.backward(dout, cache, input_grad=cin > 1)
        ref_dx, ref_grads = conv_oracle.backward(layer, dout, ref_cache, input_grad=cin > 1)
        assert grads["filters"].tobytes() == ref_grads["filters"].tobytes()
        assert (dx is None) == (ref_dx is None)
        if dx is not None:
            assert dx.tobytes() == ref_dx.tobytes()


# ----------------------------------------------------------------- networks

def _small_mlp(rng):
    return build_mlp(6, (4, 3), 3, rng), rng.standard_normal((8, 6))


def _small_convnet(rng):
    return build_convnet((2, 5, 5), 3, rng, channels=(3, 4)), rng.standard_normal((4, 5, 5, 2))


@pytest.mark.parametrize("build", [_small_mlp, _small_convnet], ids=["mlp", "conv"])
def test_end_to_end_gradients_match_finite_differences(build):
    rng = np.random.default_rng(9)
    net, x = build(rng)
    labels = rng.integers(0, 3, x.shape[0])

    def loss():
        logits, _ = _forward(net, x, training=True)
        value, _ = softmax_ce(logits, labels)
        return value

    _, grads, _ = net.loss_and_grads(x, labels)
    for k, layer in enumerate(net.layers):
        for name, param in layer.params().items():
            numeric = _fd_loss_gradient(loss, param, eps=1e-5)
            assert _vector_rel_error(grads[k][name], numeric) < 1e-4, f"layer {k} {name}"


def _state_bytes(net):
    out = []
    for layer in net.layers:
        out += [p.tobytes() for p in layer.params().values()]
        if isinstance(layer, BatchNormLayer):
            out += [layer.running_mean.tobytes(), layer.running_var.tobytes()]
    return out


def _move_running_stats(net, rng):
    """Put every BN layer's running statistics away from their initial values."""
    for layer in net.layers:
        if isinstance(layer, BatchNormLayer):
            layer.running_mean = rng.standard_normal(layer.units)
            layer.running_var = rng.uniform(0.5, 2.0, layer.units)


@pytest.mark.parametrize("build", [_small_mlp, _small_convnet], ids=["mlp", "conv"])
@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
def test_network_forward_is_pure(build, training):
    # The network's two passes, loss_and_grads (train) and evaluate (eval), touch no state.
    rng = np.random.default_rng(28)
    net, x = build(rng)
    labels = rng.integers(0, 3, x.shape[0])
    _move_running_stats(net, rng)
    before = _state_bytes(net)

    def run():
        if not training:
            return net.evaluate(x, labels)
        loss, grads, _ = net.loss_and_grads(x, labels)
        return loss, [g.tobytes() for layer in grads for g in layer.values()]

    first, second = run(), run()
    assert _state_bytes(net) == before
    assert first == second


@pytest.mark.parametrize("build", [_small_mlp, _small_convnet], ids=["mlp", "conv"])
def test_network_backward_skips_only_first_input_gradient(build):
    # Network.backward asks layer 0 for its parameter gradients alone; they
    # equal those of a full backward pass, and so do all other layers'.
    rng = np.random.default_rng(29)
    net, x = build(rng)
    labels = rng.integers(0, 3, x.shape[0])
    logits, caches = _forward(net, x, training=True)
    _, dlogits = softmax_ce(logits, labels)
    grads = net.backward(dlogits, caches)
    dx = dlogits
    for k in range(len(net.layers) - 1, -1, -1):
        dout = dx
        dx, full = net.layers[k].backward(dout, caches[k])
        assert grads[k].keys() == full.keys()
        for name in full:
            assert grads[k][name].tobytes() == full[name].tobytes(), f"layer {k} {name}"
    assert dx.shape == x.shape  # a direct call still returns the input gradient
    skipped, _ = net.layers[0].backward(dout, caches[0], input_grad=False)
    assert skipped is None


@pytest.mark.parametrize("build", [_small_mlp, _small_convnet], ids=["mlp", "conv"])
def test_evaluate_matches_whole_split_forward(build):
    # Streaming in batches of any size gives the loss and accuracy of one
    # eval-mode forward over the whole split, and touches no state.
    rng = np.random.default_rng(31)
    net, x = build(rng)
    _move_running_stats(net, rng)
    for layer in net.layers:
        if isinstance(layer, BatchNormLayer):
            layer.offset[:] = rng.standard_normal(layer.units)
            layer.scale[:] = rng.uniform(0.5, 2.0, layer.units)
    x = rng.standard_normal((300,) + x.shape[1:])
    labels = rng.integers(0, 3, x.shape[0])
    logits, _ = _forward(net, x, training=False)
    ref_loss, _ = softmax_ce(logits, labels)
    ref_acc = float(np.mean(logits.argmax(axis=1) == labels))
    before = _state_bytes(net)
    for batch_size in (1, 7, 64, 256, x.shape[0]):
        loss, acc = net.evaluate(x, labels, batch_size=batch_size)
        assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss), batch_size
        assert acc == ref_acc, batch_size
    assert _state_bytes(net) == before


def test_evaluate_rejects_bad_batch_size():
    rng = np.random.default_rng(32)
    net, x = _small_mlp(rng)
    labels = rng.integers(0, 3, x.shape[0])
    for batch_size in (0, -1):
        with pytest.raises(PreconditionError):
            net.evaluate(x, labels, batch_size=batch_size)
    assert net.evaluate(x[:0], labels[:0]) == (0.0, 0.0)


def _traced_peak(fn):
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    fn()
    return tracemalloc.get_traced_memory()[1] - base


def test_evaluate_memory_does_not_grow_with_the_split():
    # Evaluation keeps no caches, so its peak is set by one batch, whatever
    # the split size, and stays below one cache-keeping 256-image forward.
    rng = np.random.default_rng(33)
    net = build_convnet((1, 28, 28), 10, rng, channels=(8, 16))
    x = rng.standard_normal((2048, 28, 28, 1))
    labels = rng.integers(0, 10, x.shape[0])
    tracemalloc.start()
    try:
        small = _traced_peak(lambda: net.evaluate(x[:512], labels[:512]))
        large = _traced_peak(lambda: net.evaluate(x, labels))
        cached = _traced_peak(lambda: _forward(net, x[:256], training=False))
    finally:
        tracemalloc.stop()
    assert abs(large - small) <= 0.1 * small, (small, large)
    assert large < cached, (large, cached)


@pytest.mark.parametrize("optimizer, bound", [("sgd-g", 3.25), ("adam-g", 4.5), ("sgd", 1.9)])
def test_train_step_transient_memory_in_weights_of_the_first_layer(optimizer, bound):
    # The updates work in the gradients the backward returns and run their elementwise
    # chains in row blocks, so one step of the 784-(256,128) MLP allocates at most `bound`
    # times the bytes of its 784x256 weight; whole-array temporaries and a copying commit
    # read 5.4x, 7.4x and 2.37x.
    rng = np.random.default_rng(35)
    trainer = Trainer(build_mlp(784, (256, 128), 10, rng), optimizer)
    x, labels = rng.standard_normal((32, 784)), rng.integers(0, 10, 32)
    lr_g = default_eta_g(optimizer)
    for _ in range(2):  # momenta and velocities in place
        trainer.train_step(x, labels, lr_g, 0.01)
    tracemalloc.start()
    try:
        peak = _traced_peak(lambda: trainer.train_step(x, labels, lr_g, 0.01))
    finally:
        tracemalloc.stop()
    ratio = peak / trainer.net.layers[0].weight_matrix().nbytes
    assert ratio <= bound, ratio


def test_forward_scale_invariance_of_partitioned_columns():
    rng = np.random.default_rng(10)
    net = build_mlp(6, (4,), 3, rng, bn_eps=1e-12)
    x = rng.standard_normal((16, 6))
    part = partition_parameters(net)
    base, _ = _forward(net, x, training=True)
    assert part.grassmann_layers == (0,)
    wm = net.layers[0].weight_matrix()
    saved = wm[:, 1].copy()
    for k in (0.5, 3.0, 100.0):
        wm[:, 1] = k * saved
        out, _ = _forward(net, x, training=True)
        assert np.max(np.abs(out - base)) < 1e-10
    # negative scaling flips the pre-activation sign
    wm[:, 1] = -saved
    dense_out, _ = net.layers[0].forward(x, training=True)
    wm[:, 1] = saved
    dense_base, _ = net.layers[0].forward(x, training=True)
    assert np.max(np.abs(dense_out[:, 1] + dense_base[:, 1])) < 1e-12


def test_partition_under_complete_dense():
    rng = np.random.default_rng(11)
    net = Network([DenseLayer(rng.standard_normal((8, 4))), BatchNormLayer(4), ReluLayer()])
    part = partition_parameters(net)
    assert part.grassmann_layers == (0,)
    assert part.euclidean == (EuclideanRef(1, "offset", "bn"), EuclideanRef(1, "scale", "bn"))


def test_partition_over_complete_dense_stays_euclidean():
    rng = np.random.default_rng(12)
    net = Network([DenseLayer(rng.standard_normal((4, 8))), BatchNormLayer(8), ReluLayer()])
    part = partition_parameters(net)
    assert part.grassmann_layers == ()
    e = sum(net.layers[ref.layer_index].params()[ref.name].size for ref in part.euclidean)
    assert e == 4 * 8 + 8 + 8  # weights + offset + scale


def test_partition_final_dense_euclidean():
    rng = np.random.default_rng(13)
    net = Network([DenseLayer(rng.standard_normal((8, 3)), bias=np.zeros(3))])
    part = partition_parameters(net)
    assert part.grassmann_layers == ()
    assert {ref.name for ref in part.euclidean} == {"W", "bias"}


def test_partition_totality():
    rng = np.random.default_rng(14)
    net = build_mlp(10, (6, 4), 3, rng)
    part = partition_parameters(net)
    g = sum(net.layers[k].weight_matrix().size for k in part.grassmann_layers)
    e = sum(net.layers[ref.layer_index].params()[ref.name].size for ref in part.euclidean)
    total = sum(p.size for layer in net.layers for p in layer.params().values())
    assert g + e == total


def test_partition_counts_conv_unrolled():
    rng = np.random.default_rng(15)
    net = build_convnet((1, 8, 8), 3, rng, channels=(4, 8))
    part = partition_parameters(net)
    # conv1: 9 > 4 -> 4 points of dim 9; conv2: 36 > 8 -> 8 points of dim 36
    assert [net.layers[k].weight_matrix().shape for k in part.grassmann_layers] == [(9, 4), (36, 8)]


def test_grassmann_columns_initialized_unit():
    rng = np.random.default_rng(16)
    net = build_mlp(12, (6,), 3, rng)
    part = partition_parameters(net)
    assert part.grassmann_layers == (0,)
    for k in part.grassmann_layers:
        norms = np.linalg.norm(net.layers[k].weight_matrix(), axis=0)
        assert np.max(np.abs(norms - 1.0)) < 1e-12


# ------------------------------------------------------------------ trainer

def _toy_data(rng, n=40, dim=6, classes=3):
    x = rng.standard_normal((n, dim))
    labels = rng.integers(0, classes, n)
    return x, labels


def test_train_step_zero_lr_keeps_parameters():
    rng = np.random.default_rng(17)
    net = build_mlp(6, (4,), 3, rng)
    trainer = Trainer(net, "sgd-g", rng=rng, euclid=EuclideanHyper(weight_decay=0.0))
    x, labels = _toy_data(rng)
    before = [p.copy() for layer in net.layers for p in layer.params().values()]
    s1 = trainer.train_step(x, labels, 0.0, 0.0)
    after = [p for layer in net.layers for p in layer.params().values()]
    for b, a in zip(before, after):
        assert np.array_equal(b, a)
    # loss repeats bit-for-bit on the same batch
    s2 = trainer.train_step(x, labels, 0.0, 0.0)
    assert s1.loss == s2.loss


def test_train_step_decreases_separable_toy_loss():
    rng = np.random.default_rng(18)
    x = np.array([[1.0, 0.5, -0.2, 0.1], [-1.0, -0.5, 0.2, -0.1]])
    labels = np.array([0, 1])
    net = build_mlp(4, (3,), 2, rng)
    trainer = Trainer(net, "sgd-g", rng=rng)

    def loss_now():
        logits, _ = _forward(net, x, training=True)
        value, _ = softmax_ce(logits, labels)
        return value

    before = loss_now()
    trainer.train_step(x, labels, 0.2, 0.01)
    assert loss_now() < before


def test_train_step_preserves_unit_columns():
    rng = np.random.default_rng(19)
    net = build_mlp(8, (5, 4), 3, rng)
    trainer = Trainer(net, "adam-g", rng=rng)
    x, labels = _toy_data(rng, dim=8)
    for _ in range(20):
        trainer.train_step(x, labels, 0.05, 0.01)
    assert trainer.partition.grassmann_layers == (0, 3)
    for k in trainer.partition.grassmann_layers:
        norms = np.linalg.norm(net.layers[k].weight_matrix(), axis=0)
        assert np.max(np.abs(norms - 1.0)) < 1e-9


def test_training_is_deterministic_for_fixed_seed():
    angles, params = [], []
    for _ in range(2):
        rng = np.random.default_rng(123)
        net = build_mlp(6, (4,), 3, rng)
        trainer = Trainer(net, "sgd-g", rng=rng)
        data_rng = np.random.default_rng(7)
        x, labels = _toy_data(data_rng)
        angles.append([trainer.train_epoch(x, labels, 8, 0.2, 0.01).mean_angle for _ in range(5)])
        params.append([arr.tobytes() for layer in net.layers for arr in layer.params().values()])
    assert angles[0] == angles[1]
    assert params[0] == params[1]


def test_baseline_sgd_treats_everything_euclidean():
    rng = np.random.default_rng(20)
    net = build_mlp(6, (4,), 3, rng)
    trainer = Trainer(net, "sgd", rng=rng)
    assert trainer.partition.grassmann_layers == () and trainer.layer_states == []
    x, labels = _toy_data(rng)
    trainer.train_step(x, labels, 0.0, 0.01)  # lr_g unused
    wm = net.layers[0].weight_matrix()
    norms = np.linalg.norm(wm, axis=0)
    assert np.max(np.abs(norms - 1.0)) > 0.0  # columns are free to leave the sphere


def test_bn_weight_decay_defaults_per_optimizer():
    rng = np.random.default_rng(21)
    net = build_mlp(6, (4,), 3, rng)
    assert Trainer(net, "sgd", rng=rng).decay_groups["bn"] is True
    assert Trainer(net, "sgd-g", rng=rng).decay_groups["bn"] is False
    assert Trainer(net, "adam-g", rng=rng, bn_weight_decay=True).decay_groups["bn"] is True


def test_ortho_total_normalizes_columns_and_uses_unit_strength_at_alpha_zero():
    # (a/2) sum ||Y^T Y - I||^2 over the column-normalized BN-fed matrices; a = alpha, or 1 at alpha 0.
    rng = np.random.default_rng(23)
    net = build_mlp(6, (4, 3), 3, rng)
    expected = 0.0
    for k in (0, 3):
        wm = net.layers[k].weight_matrix()
        wm *= rng.uniform(0.5, 2.0, wm.shape[1])  # columns off the sphere, as under the sgd baseline
        y = wm / np.linalg.norm(wm, axis=0)
        expected += 0.5 * float(np.sum((y.T @ y - np.eye(y.shape[1])) ** 2))
    at_zero, at_tenth = Trainer(net, "sgd", alpha=0.0), Trainer(net, "sgd", alpha=0.1)
    assert at_zero.ortho_layers == (0, 3)
    assert at_zero.ortho_total() == pytest.approx(expected, rel=1e-12)
    assert at_tenth.ortho_total() == pytest.approx(0.1 * expected, rel=1e-12)


# --------------------------------------------------------------- checkpoint

def test_checkpoint_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(22)
    net = build_mlp(6, (4, 3), 3, rng)
    trainer = Trainer(net, "adam-g", rng=rng)
    x, labels = _toy_data(rng)
    for _ in range(5):
        trainer.train_step(x, labels, 0.05, 0.01)

    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, trainer)
    restored = load_checkpoint(path)

    # The format's layout: point i is column j of Grassmann layer k, over the
    # layers in order and the columns in order within each layer; Adam-G's
    # second moments are one array per layer, and its step count is stored once.
    points = [[0, j, 6] for j in range(4)] + [[3, j, 4] for j in range(3)]
    states = {s.layer_index: s for s in trainer.layer_states}
    with np.load(path) as archive:
        header = json.loads(bytes(archive["__header__"]).decode())
        assert header["partition"]["points"] == points and header["t"] == 5
        assert sum(name.startswith("point") for name in archive.files) == len(points)
        for i, (k, j, _) in enumerate(points):
            assert archive[f"point{i}.tau"].tobytes() == states[k].tau[:, j].tobytes()
        for k, state in states.items():
            assert archive[f"layer{k}.v"].tobytes() == state.v.tobytes()

    for layer, rlayer in zip(net.layers, restored.net.layers):
        for name, param in layer.params().items():
            assert np.array_equal(param, rlayer.params()[name]), name
        if isinstance(layer, BatchNormLayer):
            assert np.array_equal(layer.running_mean, rlayer.running_mean)
            assert np.array_equal(layer.running_var, rlayer.running_var)
    # Adam-G state is held per layer: one momentum matrix, per-column v, one t.
    assert len(trainer.layer_states) == len(restored.layer_states) == 2
    for s, r in zip(trainer.layer_states, restored.layer_states):
        assert s.layer_index == r.layer_index
        assert s.tau.tobytes() == r.tau.tobytes()
        assert s.base.tobytes() == r.base.tobytes()
        assert s.v.tobytes() == r.v.tobytes() and s.t == r.t == 5
    for s, r in zip(trainer.velocities, restored.velocities):
        assert np.array_equal(s, r)

    # the restored trainer continues identically
    s1 = trainer.train_step(x, labels, 0.05, 0.01)
    s2 = restored.train_step(x, labels, 0.05, 0.01)
    assert s1.loss == s2.loss


def test_checkpoint_conv_round_trip(tmp_path):
    rng = np.random.default_rng(23)
    net = build_convnet((1, 6, 6), 2, rng, channels=(3, 4))
    trainer = Trainer(net, "sgd-g", rng=rng)
    x = rng.standard_normal((6, 6, 6, 1))
    labels = rng.integers(0, 2, 6)
    trainer.train_step(x, labels, 0.2, 0.01)
    path = tmp_path / "conv.npz"
    save_checkpoint(path, trainer)
    restored = load_checkpoint(path)
    assert np.array_equal(net.layers[0].filters, restored.net.layers[0].filters)


def test_flatten_round_trip():
    # Channels-last in, (c, h, w)-ordered features out; backward inverts it.
    rng = np.random.default_rng(24)
    layer = FlattenLayer()
    x = rng.standard_normal((3, 4, 5, 2))
    out, cache = layer.forward(x)
    assert np.array_equal(out, x.transpose(0, 3, 1, 2).reshape(3, -1))
    dx, _ = layer.backward(out, cache)
    assert np.array_equal(dx, x)
