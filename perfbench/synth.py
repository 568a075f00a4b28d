"""The benchmark's synthetic image set: 10 classes of 1x28x28 uint8 images.

Each class has a prototype made of a few Gaussian bumps at seeded positions.
A sample is its class prototype, shifted by up to two pixels in each axis,
scaled by a random contrast, lifted onto a grey background and covered with
Gaussian pixel noise, then rounded and clipped to uint8. Every pixel carries
noise, so no pixel has zero variance over the training split.
"""

import os

import numpy as np

from grassopt.data import write_idx

CLASSES = 10
SIDE = 28
BUMPS_PER_CLASS = 4
MAX_SHIFT = 2
BACKGROUND = 40.0
PEAK = 170.0
NOISE_SD = 30.0
CONTRAST = (0.6, 1.0)


def prototypes(rng: np.random.Generator) -> np.ndarray:
    """(CLASSES, SIDE, SIDE) float prototypes with values in [0, 1]."""
    grid = np.arange(SIDE, dtype=np.float64)
    out = np.zeros((CLASSES, SIDE, SIDE))
    for c in range(CLASSES):
        for _ in range(BUMPS_PER_CLASS):
            ci, cj = rng.uniform(5.0, SIDE - 6.0, size=2)
            width = rng.uniform(2.0, 4.0)
            bump = np.exp(-((grid[:, None] - ci) ** 2 + (grid[None, :] - cj) ** 2) / (2 * width**2))
            out[c] = np.maximum(out[c], bump)
    return out


def make_split(rng: np.random.Generator, protos: np.ndarray, count: int):
    """``count`` images (uint8, shape (count, 28, 28)) with balanced int labels."""
    labels = rng.permutation(np.arange(count) % CLASSES).astype(np.uint8)
    images = np.empty((count, SIDE, SIDE))
    shifts = rng.integers(-MAX_SHIFT, MAX_SHIFT + 1, size=(count, 2))
    contrast = rng.uniform(*CONTRAST, size=count)
    for i in range(count):
        img = np.roll(protos[labels[i]], tuple(shifts[i]), axis=(0, 1))
        images[i] = BACKGROUND + PEAK * contrast[i] * img
    images += NOISE_SD * rng.standard_normal(images.shape)
    return np.clip(np.rint(images), 0, 255).astype(np.uint8), labels


def sizes(tiny: bool) -> tuple[int, int]:
    """(train, test) split sizes; both are whole numbers of 32-sample batches."""
    return (320, 64) if tiny else (2048, 512)


def generate(seed: int, tiny: bool) -> dict:
    """The raw image set for ``seed``: uint8 images and labels of both splits."""
    n_train, n_test = sizes(tiny)
    rng = np.random.default_rng(seed)
    protos = prototypes(rng)
    train_x, train_y = make_split(rng, protos, n_train)
    test_x, test_y = make_split(rng, protos, n_test)
    return {"train_x": train_x, "train_y": train_y, "test_x": test_x, "test_y": test_y}


IDX_NAMES = {
    "train_x": "train-images-idx3-ubyte",
    "train_y": "train-labels-idx1-ubyte",
    "test_x": "t10k-images-idx3-ubyte",
    "test_y": "t10k-labels-idx1-ubyte",
}


def write_dataset(directory: str, seed: int, tiny: bool) -> None:
    """Write the train and ``t10k`` IDX pairs for ``seed`` into ``directory``."""
    os.makedirs(directory, exist_ok=True)
    for key, arr in generate(seed, tiny).items():
        write_idx(os.path.join(directory, IDX_NAMES[key]), arr)
