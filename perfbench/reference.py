"""Plain-numpy oracles for the benchmark's correctness checks.

Nothing here calls into ``grassopt``: the forward pass, the normalization and
the loss are written out again from their definitions, so that a fault in the
program cannot hide by also being in the check. The checkpoint is read as the
plain ``.npz`` archive it is (``layer{k}.{name}`` arrays, ``point{i}.tau``
momenta, and a JSON ``__header__``).
"""

import json

import numpy as np

BN_EPS = 1e-5


def read_checkpoint(path):
    """(header dict, {name: array}) from a checkpoint archive."""
    with np.load(path) as archive:
        header = json.loads(bytes(archive["__header__"]).decode())
        arrays = {k: archive[k] for k in archive.files if k != "__header__"}
    return header, arrays


def standardize(train_raw, test_raw):
    """Test images standardized by the per-pixel mean and std of the train images."""
    train = train_raw.astype(np.float64)
    mean = train.mean(axis=0)
    std = train.std(axis=0)
    return (test_raw.astype(np.float64) - mean) / std


def conv2d(x, filters, stride, pad):
    """NCHW convolution as a direct sum over the kernel offsets of the padded input.

    ``filters`` is (kh, kw, c_in, c_out).
    """
    m, _, h, w = x.shape
    kh, kw, _, cout = filters.shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((m, cout, ho, wo))
    for di in range(kh):
        for dj in range(kw):
            patch = xp[:, :, di : di + stride * (ho - 1) + 1 : stride, dj : dj + stride * (wo - 1) + 1 : stride]
            out += np.einsum("mchw,cd->mdhw", patch, filters[di, dj])
    return out


def batchnorm_eval(x, arrays, k):
    """Eval-mode BN of layer ``k`` with its running statistics, per unit or per channel."""
    shape = (1, -1) + (1,) * (x.ndim - 2)
    mean = arrays[f"layer{k}.running_mean"].reshape(shape)
    var = arrays[f"layer{k}.running_var"].reshape(shape)
    scale = arrays[f"layer{k}.scale"].reshape(shape)
    offset = arrays[f"layer{k}.offset"].reshape(shape)
    return (x - mean) / np.sqrt(var + BN_EPS) * scale + offset


def relu(x):
    return np.where(x > 0, x, 0.0)


def logits(arch, arrays, x):
    """Eval-mode logits of the benchmark's MLP or convnet for images ``x`` (N, 1, 28, 28)."""
    if arch == "mlp":
        # layers: 0 dense, 1 BN, 2 ReLU, 3 dense, 4 BN, 5 ReLU, 6 dense + bias
        h = x.reshape(x.shape[0], -1)
        for k in (0, 3):
            h = relu(batchnorm_eval(h @ arrays[f"layer{k}.W"], arrays, k + 1))
        return h @ arrays["layer6.W"] + arrays["layer6.bias"]
    # layers: 0 conv s1, 1 BN, 2 ReLU, 3 conv s2, 4 BN, 5 ReLU, 6 flatten, 7 dense + bias
    h = relu(batchnorm_eval(conv2d(x, arrays["layer0.filters"], 1, 1), arrays, 1))
    h = relu(batchnorm_eval(conv2d(h, arrays["layer3.filters"], 2, 1), arrays, 4))
    h = h.reshape(h.shape[0], -1)
    return h @ arrays["layer7.W"] + arrays["layer7.bias"]


def loss_and_accuracy(z, labels):
    """Mean softmax cross-entropy and accuracy of logits ``z``."""
    top = z.max(axis=1, keepdims=True)
    lse = top[:, 0] + np.log(np.exp(z - top).sum(axis=1))
    loss = float(np.mean(lse - z[np.arange(z.shape[0]), labels]))
    acc = float(np.mean(z.argmax(axis=1) == labels))
    return loss, acc


def bn_fed_columns(arch, arrays):
    """{layer index: n-by-p matrix} of the weight matrices that feed BN and have n > p."""
    if arch == "mlp":
        mats = {0: arrays["layer0.W"], 3: arrays["layer3.W"]}
    else:
        mats = {k: arrays[f"layer{k}.filters"].reshape(-1, arrays[f"layer{k}.filters"].shape[-1]) for k in (0, 3)}
    return {k: m for k, m in mats.items() if m.shape[0] > m.shape[1]}
