import numpy as np
import pytest

from grassopt.errors import PreconditionError
from grassopt.nn import (
    BatchNormLayer,
    ConvLayer,
    DenseLayer,
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
    x = rng.standard_normal((2, 2, 5, 5))
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


# ----------------------------------------------------------------- networks

def test_end_to_end_gradients_match_finite_differences():
    rng = np.random.default_rng(9)
    net = build_mlp(6, (4, 3), 3, rng)
    x = rng.standard_normal((8, 6))
    labels = rng.integers(0, 3, 8)

    def loss():
        logits, _ = net.forward(x, training=True)
        value, _ = softmax_ce(logits, labels)
        return value

    _, grads, _ = net.loss_and_grads(x, labels, training=True)
    for k, layer in enumerate(net.layers):
        for name, param in layer.params().items():
            numeric = _fd_loss_gradient(loss, param, eps=1e-5)
            assert _vector_rel_error(grads[k][name], numeric) < 1e-4, f"layer {k} {name}"


def test_forward_scale_invariance_of_partitioned_columns():
    rng = np.random.default_rng(10)
    net = build_mlp(6, (4,), 3, rng, bn_eps=1e-12)
    x = rng.standard_normal((16, 6))
    part = partition_parameters(net)
    base, _ = net.forward(x, training=True)
    ref = part.points[1]
    wm = net.layers[ref.layer_index].weight_matrix()
    saved = wm[:, ref.column].copy()
    for k in (0.5, 3.0, 100.0):
        wm[:, ref.column] = k * saved
        out, _ = net.forward(x, training=True)
        assert np.max(np.abs(out - base)) < 1e-10
    # negative scaling flips the pre-activation sign
    wm[:, ref.column] = -saved
    dense_out, _ = net.layers[0].forward(x, training=True)
    wm[:, ref.column] = saved
    dense_base, _ = net.layers[0].forward(x, training=True)
    assert np.max(np.abs(dense_out[:, ref.column] + dense_base[:, ref.column])) < 1e-12


def test_partition_under_complete_dense():
    rng = np.random.default_rng(11)
    net = Network([DenseLayer(rng.standard_normal((8, 4))), BatchNormLayer(4), ReluLayer()])
    part = partition_parameters(net)
    assert len(part.points) == 4
    assert all(ref.dim == 8 for ref in part.points)
    assert part.grassmann_layers == (0,)


def test_partition_over_complete_dense_stays_euclidean():
    rng = np.random.default_rng(12)
    net = Network([DenseLayer(rng.standard_normal((4, 8))), BatchNormLayer(8), ReluLayer()])
    part = partition_parameters(net)
    assert len(part.points) == 0
    g, e = part.scalar_counts(net)
    assert g == 0
    assert e == 4 * 8 + 8 + 8  # weights + offset + scale


def test_partition_final_dense_euclidean():
    rng = np.random.default_rng(13)
    net = Network([DenseLayer(rng.standard_normal((8, 3)), bias=np.zeros(3))])
    part = partition_parameters(net)
    assert len(part.points) == 0
    assert {ref.name for ref in part.euclidean} == {"W", "bias"}


def test_partition_totality():
    rng = np.random.default_rng(14)
    net = build_mlp(10, (6, 4), 3, rng)
    part = partition_parameters(net)
    g, e = part.scalar_counts(net)
    total = sum(p.size for layer in net.layers for p in layer.params().values())
    assert g + e == total


def test_partition_counts_conv_unrolled():
    rng = np.random.default_rng(15)
    net = build_convnet((1, 8, 8), 3, rng, channels=(4, 8))
    part = partition_parameters(net)
    # conv1: 9 > 4 -> 4 points of dim 9; conv2: 36 > 8 -> 8 points of dim 36
    dims = sorted(set(ref.dim for ref in part.points))
    assert dims == [9, 36]
    assert len(part.points) == 12


def test_grassmann_columns_initialized_unit():
    rng = np.random.default_rng(16)
    net = build_mlp(12, (6,), 3, rng)
    part = partition_parameters(net)
    for ref in part.points:
        wm = net.layers[ref.layer_index].weight_matrix()
        assert abs(np.linalg.norm(wm[:, ref.column]) - 1.0) < 1e-12


# ------------------------------------------------------------------ trainer

def _toy_data(rng, n=40, dim=6, classes=3):
    x = rng.standard_normal((n, dim))
    labels = rng.integers(0, classes, n)
    return x, labels


def test_train_step_zero_lr_keeps_parameters():
    rng = np.random.default_rng(17)
    net = build_mlp(6, (4,), 3, rng)
    trainer = Trainer(net, "sgd-g", rng=rng, weight_decay=0.0)
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
        logits, _ = net.forward(x, training=True)
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
    for ref in trainer.partition.points:
        wm = net.layers[ref.layer_index].weight_matrix()
        assert abs(np.linalg.norm(wm[:, ref.column]) - 1.0) < 1e-9


def test_training_is_deterministic_for_fixed_seed():
    losses = []
    for _ in range(2):
        rng = np.random.default_rng(123)
        net = build_mlp(6, (4,), 3, rng)
        trainer = Trainer(net, "sgd-g", rng=rng)
        data_rng = np.random.default_rng(7)
        x, labels = _toy_data(data_rng)
        trajectory = [trainer.train_epoch(x, labels, 8, 0.2, 0.01).mean_loss for _ in range(5)]
        losses.append(trajectory)
    assert losses[0] == losses[1]


def test_baseline_sgd_treats_everything_euclidean():
    rng = np.random.default_rng(20)
    net = build_mlp(6, (4,), 3, rng)
    trainer = Trainer(net, "sgd", rng=rng)
    assert len(trainer.partition.points) == 0
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

    for layer, rlayer in zip(net.layers, restored.net.layers):
        for name, param in layer.params().items():
            assert np.array_equal(param, rlayer.params()[name]), name
        if isinstance(layer, BatchNormLayer):
            assert np.array_equal(layer.running_mean, rlayer.running_mean)
            assert np.array_equal(layer.running_var, rlayer.running_var)
    # Grassmann state is held per layer: one momentum matrix, per-column v, one t.
    assert len(trainer.layer_states) == len(restored.layer_states) == 2
    for s, r in zip(trainer.layer_states, restored.layer_states):
        assert s.layer_index == r.layer_index
        assert s.tau.tobytes() == r.tau.tobytes()
        assert s.base.tobytes() == r.base.tobytes()
        assert s.v.tobytes() == r.v.tobytes() and s.t == r.t == 5
    for s, r in zip(trainer.euclid_states, restored.euclid_states):
        assert np.array_equal(s.velocity, r.velocity)
    assert [tuple(vars(p).values()) for p in trainer.partition.points] == [
        tuple(vars(p).values()) for p in restored.partition.points
    ]

    # the restored trainer continues identically
    s1 = trainer.train_step(x, labels, 0.05, 0.01)
    s2 = restored.train_step(x, labels, 0.05, 0.01)
    assert s1.loss == s2.loss


def test_checkpoint_conv_round_trip(tmp_path):
    rng = np.random.default_rng(23)
    net = build_convnet((1, 6, 6), 2, rng, channels=(3, 4))
    trainer = Trainer(net, "sgd-g", rng=rng)
    x = rng.standard_normal((6, 1, 6, 6))
    labels = rng.integers(0, 2, 6)
    trainer.train_step(x, labels, 0.2, 0.01)
    path = tmp_path / "conv.npz"
    save_checkpoint(path, trainer)
    restored = load_checkpoint(path)
    assert np.array_equal(net.layers[0].filters, restored.net.layers[0].filters)


def test_flatten_round_trip():
    rng = np.random.default_rng(24)
    layer = FlattenLayer()
    x = rng.standard_normal((3, 2, 4, 4))
    out, cache = layer.forward(x)
    assert out.shape == (3, 32)
    dx, _ = layer.backward(out, cache)
    assert np.array_equal(dx, x)
