"""Dataset generation, IDX/CSV loading, and train-statistics normalization.

Normalization statistics are always computed from the training split and the
same affine transform is applied to the test split; an intensity mode divides
by 255 instead.
"""

import csv
import gzip
import os
import struct
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParseError, PreconditionError, ValidationError

__all__ = [
    "Dataset",
    "gen_blobs",
    "gen_spirals",
    "parse_idx",
    "write_idx",
    "load_idx",
    "load_csv",
    "normalize",
]


@dataclass(frozen=True)
class Dataset:
    """Train/test features and integer labels."""

    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    num_classes: int

    def __post_init__(self):
        for name, labels in (("train", self.train_y), ("test", self.test_y)):
            if labels.size and (labels.min() < 0 or labels.max() >= self.num_classes):
                raise ValidationError(
                    f"{name} labels out of range [0, {self.num_classes}): "
                    f"min={labels.min()}, max={labels.max()}"
                )

    @property
    def feature_shape(self):
        return self.train_x.shape[1:]


def _split_blob_centers(classes: int, dim: int) -> np.ndarray:
    """Class centers on a radius-3 circle in the first two coordinates."""
    centers = np.zeros((classes, dim))
    if dim == 1:
        centers[:, 0] = 3.0 * np.arange(classes)
        return centers
    angles = 2.0 * np.pi * np.arange(classes) / classes
    centers[:, 0] = 3.0 * np.cos(angles)
    centers[:, 1] = 3.0 * np.sin(angles)
    return centers


def gen_blobs(
    seed: int,
    n_per_class: int = 200,
    classes: int = 3,
    dim: int = 2,
    spread: float = 0.5,
    test_per_class: int | None = None,
) -> Dataset:
    """Gaussian blobs around well-separated class centers.

    Deterministic for a fixed seed. Centers sit on a radius-3 circle, so the
    pairwise center distance is at least ``6 sin(pi/classes)``; for ``spread``
    well below that margin (e.g. <= 0.7 with up to 4 classes) the training
    split is linearly separable in practice.
    """
    if n_per_class <= 0 or classes < 2 or dim < 1:
        raise PreconditionError("need n_per_class > 0, classes >= 2, dim >= 1")
    rng = np.random.default_rng(seed)
    centers = _split_blob_centers(classes, dim)
    n_test = test_per_class if test_per_class is not None else max(1, n_per_class // 4)

    def draw(count):
        xs, ys = [], []
        for c in range(classes):
            xs.append(centers[c] + spread * rng.standard_normal((count, dim)))
            ys.append(np.full(count, c, dtype=np.int64))
        return np.concatenate(xs), np.concatenate(ys)

    train_x, train_y = draw(n_per_class)
    test_x, test_y = draw(n_test)
    return Dataset(train_x, train_y, test_x, test_y, classes)


def gen_spirals(seed: int, n: int = 200, noise: float = 0.2) -> Dataset:
    """Two interleaved spirals with ``n`` points per class."""
    if n <= 0 or noise < 0:
        raise PreconditionError("need n > 0 and noise >= 0")
    rng = np.random.default_rng(seed)

    def draw(count):
        xs, ys = [], []
        for c in range(2):
            t = np.sqrt(rng.uniform(0.05, 1.0, count)) * 3.0 * np.pi
            r = t / (3.0 * np.pi) * 2.5
            angle = t + c * np.pi
            pts = np.column_stack([r * np.cos(angle), r * np.sin(angle)])
            pts += noise * rng.standard_normal(pts.shape) * 0.3
            xs.append(pts)
            ys.append(np.full(count, c, dtype=np.int64))
        return np.concatenate(xs), np.concatenate(ys)

    train_x, train_y = draw(n)
    test_x, test_y = draw(max(1, n // 4))
    return Dataset(train_x, train_y, test_x, test_y, 2)


_IDX_CODES = {
    0x08: np.dtype(">u1"),
    0x09: np.dtype(">i1"),
    0x0B: np.dtype(">i2"),
    0x0C: np.dtype(">i4"),
    0x0D: np.dtype(">f4"),
    0x0E: np.dtype(">f8"),
}
_IDX_CODE_FOR_KIND = {"u1": 0x08, "i1": 0x09, "i2": 0x0B, "i4": 0x0C, "f4": 0x0D, "f8": 0x0E}


def _open_maybe_gz(path, mode="rb"):
    return gzip.open(path, mode) if str(path).endswith(".gz") else open(path, mode)


def parse_idx(path) -> np.ndarray:
    """Parse one IDX tensor file (big-endian magic, dims, payload)."""
    with _open_maybe_gz(path) as fh:
        magic = fh.read(4)
        if len(magic) < 4:
            raise ParseError(f"{path}: truncated magic number at byte offset 0")
        zeros, code, ndim = struct.unpack(">HBB", magic)
        if zeros != 0:
            raise ParseError(f"{path}: bad magic number {magic[:2]!r} at byte offset 0")
        if code not in _IDX_CODES:
            raise ParseError(f"{path}: unknown dtype code 0x{code:02x} at byte offset 2")
        dim_bytes = fh.read(4 * ndim)
        if len(dim_bytes) < 4 * ndim:
            raise ParseError(f"{path}: truncated dimension list at byte offset 4")
        dims = struct.unpack(">" + "I" * ndim, dim_bytes)
        dtype = _IDX_CODES[code]
        count = int(np.prod(dims, dtype=np.int64)) if ndim else 1
        payload = fh.read()
        expected = count * dtype.itemsize
        if len(payload) != expected:
            raise ParseError(
                f"{path}: payload of {len(payload)} bytes, expected {expected} "
                f"at byte offset {4 + 4 * ndim}"
            )
        return np.frombuffer(payload, dtype=dtype).reshape(dims).astype(dtype.newbyteorder("="))


def write_idx(path, array) -> None:
    """Write an array as an IDX file (inverse of :func:`parse_idx`)."""
    array = np.asarray(array)
    kind = array.dtype.str.lstrip("<>=|")
    if kind not in _IDX_CODE_FOR_KIND:
        raise ValidationError(f"dtype {array.dtype} has no IDX type code")
    code = _IDX_CODE_FOR_KIND[kind]
    with _open_maybe_gz(path, "wb") as fh:
        fh.write(struct.pack(">HBB", 0, code, array.ndim))
        fh.write(struct.pack(">" + "I" * array.ndim, *array.shape))
        fh.write(array.astype(_IDX_CODES[code]).tobytes())


_IDX_NAMES = {
    "train_x": "train-images-idx3-ubyte",
    "train_y": "train-labels-idx1-ubyte",
    "test_x": "t10k-images-idx3-ubyte",
    "test_y": "t10k-labels-idx1-ubyte",
}


def _find_idx_file(directory, stem):
    for suffix in ("", ".gz"):
        candidate = os.path.join(directory, stem + suffix)
        if os.path.exists(candidate):
            return candidate
    return None


def load_idx(path, num_classes: int | None = None) -> Dataset:
    """Load an MNIST-style directory of IDX files into a Dataset.

    ``path`` must contain ``train-images-idx3-ubyte`` and
    ``train-labels-idx1-ubyte`` (optionally gzipped); the ``t10k`` pair is
    optional. Image tensors gain a channel axis; intensities are left raw.
    """
    if not os.path.isdir(path):
        raise ParseError(f"{path}: not a directory of IDX files")
    found = {key: _find_idx_file(path, stem) for key, stem in _IDX_NAMES.items()}
    if found["train_x"] is None or found["train_y"] is None:
        raise ParseError(f"{path}: missing train IDX files ({_IDX_NAMES['train_x']}[.gz])")

    def images(file):
        arr = parse_idx(file).astype(np.float64)
        if arr.ndim == 3:
            arr = arr[:, None, :, :]
        return arr

    def labels(file):
        arr = parse_idx(file)
        if arr.ndim != 1:
            raise ParseError(f"{file}: label tensor must be 1-D, got shape {arr.shape}")
        return arr.astype(np.int64)

    train_x = images(found["train_x"])
    train_y = labels(found["train_y"])
    if train_x.shape[0] != train_y.shape[0]:
        raise ValidationError(
            f"{path}: {train_x.shape[0]} train images but {train_y.shape[0]} labels"
        )
    if found["test_x"] is not None and found["test_y"] is not None:
        test_x = images(found["test_x"])
        test_y = labels(found["test_y"])
    else:
        test_x = np.zeros((0,) + train_x.shape[1:])
        test_y = np.zeros(0, dtype=np.int64)
    k = int(num_classes) if num_classes is not None else int(train_y.max()) + 1
    return Dataset(train_x, train_y, test_x, test_y, k)


def load_csv(path, schema) -> Dataset:
    """Load a headered CSV into the training split.

    ``schema`` requires ``label`` (column name) and ``num_classes``; every
    other column is a feature, in header order.
    """
    label_col = schema["label"]
    num_classes = int(schema["num_classes"])
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file (no header row) at line 1") from None
        if label_col not in header:
            raise ValidationError(f"{path}: label column {label_col!r} not in header {header}")
        idx = [header.index(c) for c in header if c != label_col]
        label_idx = header.index(label_col)
        rows, labels = [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ParseError(f"{path}: expected {len(header)} fields at line {lineno}, got {len(row)}")
            try:
                rows.append([float(row[i]) for i in idx])
                label = int(row[label_idx])
            except ValueError as exc:
                raise ParseError(f"{path}: non-numeric value at line {lineno} ({exc})") from None
            if not 0 <= label < num_classes:
                raise ValidationError(
                    f"{path}: label {label} out of range [0, {num_classes}) at line {lineno}"
                )
            labels.append(label)
    if not rows:
        raise ParseError(f"{path}: no data rows after the header")
    train_x = np.asarray(rows, dtype=np.float64)
    train_y = np.asarray(labels, dtype=np.int64)
    test_x = np.zeros((0, train_x.shape[1]))
    test_y = np.zeros(0, dtype=np.int64)
    return Dataset(train_x, train_y, test_x, test_y, num_classes)


_ZERO_VAR_EPS = 1e-12


def normalize(ds: Dataset, mode: str = "standard") -> Dataset:
    """Standardize by train-split statistics, or divide intensities by 255.

    Standard mode leaves train features with per-dimension mean 0 and standard
    deviation 1; zero-variance dimensions are mapped to zero with a warning.
    The identical transform is applied to the test split. Test data is never
    read when computing statistics.
    """
    if mode == "intensity":
        return replace(ds, train_x=ds.train_x / 255.0, test_x=ds.test_x / 255.0)
    if mode != "standard":
        raise PreconditionError(f"unknown normalization mode {mode!r}")
    if ds.train_x.shape[0] == 0:
        raise PreconditionError("cannot standardize an empty training split")
    mean = ds.train_x.mean(axis=0)
    std = ds.train_x.std(axis=0)
    if np.any(std < _ZERO_VAR_EPS):
        warnings.warn("zero-variance feature(s) stabilized during normalization", stacklevel=2)
    safe_std = np.where(std < _ZERO_VAR_EPS, 1.0, std)
    train = (ds.train_x - mean) / safe_std
    test = (ds.test_x - mean) / safe_std if ds.test_x.size else ds.test_x
    return replace(ds, train_x=train, test_x=test)
