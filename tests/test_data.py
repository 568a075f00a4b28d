import gzip
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from grassopt.data import (
    Dataset,
    gen_blobs,
    gen_spirals,
    load_csv,
    load_idx,
    normalize,
    parse_idx,
    write_idx,
)
from grassopt.config import make_config
from grassopt.errors import ParseError, PreconditionError, ValidationError
from grassopt.runner import build_dataset


# ------------------------------------------------------------------- blobs

def test_blobs_deterministic_bytes():
    a = gen_blobs(42, n_per_class=50, classes=3, dim=4, spread=0.5)
    b = gen_blobs(42, n_per_class=50, classes=3, dim=4, spread=0.5)
    assert a.train_x.tobytes() == b.train_x.tobytes()
    assert a.train_y.tobytes() == b.train_y.tobytes()
    assert a.test_x.tobytes() == b.test_x.tobytes()


def _perceptron_fits(x, y, epochs=200):
    # independent linear-separability oracle
    w = np.zeros(x.shape[1] + 1)
    signs = 2.0 * y - 1.0
    aug = np.hstack([x, np.ones((x.shape[0], 1))])
    for _ in range(epochs):
        wrong = 0
        for xi, si in zip(aug, signs):
            if si * float(w @ xi) <= 0:
                w += si * xi
                wrong += 1
        if wrong == 0:
            return True
    return False


def test_blobs_linearly_separable_at_small_spread():
    ds = gen_blobs(7, n_per_class=100, classes=2, dim=2, spread=0.3)
    assert _perceptron_fits(ds.train_x, ds.train_y)


def test_blobs_uniform_label_histogram():
    ds = gen_blobs(0, n_per_class=80, classes=4, dim=3, spread=0.4)
    counts = np.bincount(ds.train_y, minlength=4)
    assert np.array_equal(counts, [80, 80, 80, 80])


def test_blobs_validation():
    with pytest.raises(PreconditionError):
        gen_blobs(0, n_per_class=0)
    with pytest.raises(PreconditionError):
        gen_blobs(0, classes=1)


def test_spirals_shapes_and_labels():
    ds = gen_spirals(3, n=60, noise=0.1)
    assert ds.train_x.shape == (120, 2)
    assert set(np.unique(ds.train_y)) == {0, 1}
    assert ds.num_classes == 2
    again = gen_spirals(3, n=60, noise=0.1)
    assert ds.train_x.tobytes() == again.train_x.tobytes()


# --------------------------------------------------------------------- IDX

def _write_fixture_idx(path):
    # 4 samples of 2x3 ubyte images, authored directly at byte level
    payload = bytes(range(24))
    blob = struct.pack(">HBB", 0, 0x08, 3) + struct.pack(">III", 4, 2, 3) + payload
    path.write_bytes(blob)
    return np.arange(24, dtype=np.uint8).reshape(4, 2, 3)


def test_parse_idx_fixture_exact(tmp_path):
    path = tmp_path / "fixture-idx3-ubyte"
    expected = _write_fixture_idx(path)
    got = parse_idx(path)
    assert got.dtype == np.uint8
    assert np.array_equal(got, expected)


def test_idx_round_trip_byte_identical(tmp_path):
    path1 = tmp_path / "a-idx"
    path2 = tmp_path / "b-idx"
    _write_fixture_idx(path1)
    arr = parse_idx(path1)
    write_idx(path2, arr)
    assert path1.read_bytes() == path2.read_bytes()


def test_idx_round_trip_float64(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((3, 5))
    path = tmp_path / "f8-idx"
    write_idx(path, arr)
    assert np.array_equal(parse_idx(path), arr)


def test_parse_idx_bad_magic_names_offset(tmp_path):
    path = tmp_path / "bad"
    path.write_bytes(b"\x01\x02\x08\x01" + struct.pack(">I", 0))
    with pytest.raises(ParseError, match="byte offset 0"):
        parse_idx(path)


def test_parse_idx_unknown_dtype_names_offset(tmp_path):
    path = tmp_path / "bad2"
    path.write_bytes(struct.pack(">HBB", 0, 0x77, 1) + struct.pack(">I", 0))
    with pytest.raises(ParseError, match="byte offset 2"):
        parse_idx(path)


def test_parse_idx_truncated_payload(tmp_path):
    path = tmp_path / "bad3"
    path.write_bytes(struct.pack(">HBB", 0, 0x08, 1) + struct.pack(">I", 10) + b"\x00" * 4)
    with pytest.raises(ParseError, match="expected 10"):
        parse_idx(path)


def test_load_idx_directory(tmp_path):
    rng = np.random.default_rng(1)
    images = rng.integers(0, 256, (10, 4, 4)).astype(np.uint8)
    labels = rng.integers(0, 3, 10).astype(np.uint8)
    write_idx(tmp_path / "train-images-idx3-ubyte", images)
    write_idx(tmp_path / "train-labels-idx1-ubyte.gz", labels)
    ds = load_idx(tmp_path, num_classes=3)
    assert ds.train_x.shape == (10, 1, 4, 4)
    assert np.array_equal(ds.train_y, labels.astype(np.int64))
    assert ds.test_x.shape[0] == 0


def test_load_idx_label_out_of_range(tmp_path):
    images = np.zeros((2, 2, 2), dtype=np.uint8)
    labels = np.array([0, 10], dtype=np.uint8)
    write_idx(tmp_path / "train-images-idx3-ubyte", images)
    write_idx(tmp_path / "train-labels-idx1-ubyte", labels)
    with pytest.raises(ValidationError):
        load_idx(tmp_path, num_classes=10)


def test_gzip_transparent_round_trip(tmp_path):
    arr = np.arange(6, dtype=np.uint8)
    write_idx(tmp_path / "x-idx.gz", arr)
    with gzip.open(tmp_path / "x-idx.gz", "rb") as fh:
        assert fh.read(4) == struct.pack(">HBB", 0, 0x08, 1)
    assert np.array_equal(parse_idx(tmp_path / "x-idx.gz"), arr)


# --------------------------------------------------------------------- CSV

def test_load_csv_basic(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("f1,f2,label\n1.0,2.0,0\n3.0,4.0,1\n")
    ds = load_csv(path, {"label": "label", "num_classes": 2})
    assert np.array_equal(ds.train_x, [[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(ds.train_y, [0, 1])


def test_load_csv_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ParseError):
        load_csv(path, {"label": "label", "num_classes": 2})


def test_load_csv_header_only(tmp_path):
    path = tmp_path / "hdr.csv"
    path.write_text("f1,label\n")
    with pytest.raises(ParseError, match="no data rows"):
        load_csv(path, {"label": "label", "num_classes": 2})


def test_load_csv_label_range(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f1,label\n1.0,10\n")
    with pytest.raises(ValidationError, match="line 2"):
        load_csv(path, {"label": "label", "num_classes": 10})


def test_load_csv_non_numeric_names_line(tmp_path):
    path = tmp_path / "nn.csv"
    path.write_text("f1,label\n1.0,0\nxyz,1\n")
    with pytest.raises(ParseError, match="line 3"):
        load_csv(path, {"label": "label", "num_classes": 2})


@pytest.mark.parametrize("header", ["a,a,label", "a,label,label"])
def test_load_csv_refuses_repeated_column(tmp_path, header):
    path = tmp_path / "dup.csv"
    path.write_text(f"{header}\n1.0,2.0,0\n3.0,4.0,1\n")
    repeated = "label" if header.endswith("label,label") else "a"
    with pytest.raises(ValidationError, match=f"repeats column '{repeated}'"):
        load_csv(path, {"label": "label", "num_classes": 2})


def test_load_csv_label_only_has_no_feature_columns(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("label\n0\n1\n1\n")
    ds = load_csv(path, {"label": "label", "num_classes": 2})
    assert ds.train_x.shape == (3, 0) and ds.test_x.shape == (0, 0)


def test_load_csv_peak_memory_is_one_copy_of_the_result(tmp_path):
    rng = np.random.default_rng(37)
    raw = rng.integers(0, 256, (512, 784))
    labels = np.arange(512) % 10
    path = tmp_path / "wide.csv"
    lines = [",".join([f"f{i}" for i in range(784)] + ["label"])]
    lines += [",".join(map(str, [*row, label])) for row, label in zip(raw.tolist(), labels.tolist())]
    path.write_text("\n".join(lines) + "\n")
    tracemalloc.start()
    try:
        ds = load_csv(path, {"label": "label", "num_classes": 10})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ds.train_x.dtype == np.float64 and ds.train_x.flags.writeable
    assert np.array_equal(ds.train_x, raw) and np.array_equal(ds.train_y, labels)
    returned = sum(a.nbytes for a in (ds.train_x, ds.train_y, ds.test_x, ds.test_y))
    assert peak <= 1.15 * returned, f"peak {peak} bytes for {returned} bytes of arrays"


# ------------------------------------------------------------ normalization

def test_normalize_standardizes_train_split():
    ds = gen_blobs(5, n_per_class=100, classes=3, dim=4, spread=0.7)
    out = normalize(ds)
    assert np.max(np.abs(out.train_x.mean(axis=0))) < 1e-9
    assert np.max(np.abs(out.train_x.std(axis=0) - 1.0)) < 1e-9


def test_normalize_idempotent():
    ds = gen_blobs(6, n_per_class=50, classes=2, dim=3, spread=0.5)
    once = normalize(ds)
    once_train, once_test = once.train_x.copy(), once.test_x.copy()
    twice = normalize(once)
    assert np.max(np.abs(twice.train_x - once_train)) < 1e-9
    assert np.max(np.abs(twice.test_x - once_test)) < 1e-9


def test_normalize_constant_feature_warns_and_zeroes():
    x = np.column_stack([np.ones(10), np.arange(10, dtype=float)])
    ds = Dataset(x, np.zeros(10, dtype=np.int64), x[:2], np.zeros(2, dtype=np.int64), 2)
    with pytest.warns(UserWarning, match="zero-variance"):
        out = normalize(ds)
    assert np.max(np.abs(out.train_x[:, 0])) == 0.0


def test_normalize_intensity_mode():
    x = np.array([[255.0, 0.0], [127.5, 255.0]])
    ds = Dataset(x, np.zeros(2, dtype=np.int64), x[:0], np.zeros(0, dtype=np.int64), 2)
    out = normalize(ds, mode="intensity")
    assert out.train_x[0, 0] == 1.0
    assert out.train_x[1, 0] == 0.5


def test_normalize_never_reads_test_split():
    # NaNs in the test split must not poison the statistics, and the train
    # transform must equal the train-only computation.
    base = gen_blobs(9, n_per_class=40, classes=2, dim=3, spread=0.5)
    poisoned = Dataset(
        base.train_x,
        base.train_y,
        np.full_like(base.test_x, np.nan),
        base.test_y,
        base.num_classes,
    )
    raw_train = base.train_x.copy()
    out = normalize(poisoned)
    mean, std = raw_train.mean(axis=0), raw_train.std(axis=0)
    assert np.isfinite(out.train_x).all()
    assert np.array_equal(out.train_x, (raw_train - mean) / std)


def test_transform_identical_across_splits():
    ds = gen_blobs(10, n_per_class=60, classes=2, dim=3, spread=0.5)
    raw_train, raw_test = ds.train_x.copy(), ds.test_x.copy()
    out = normalize(ds)
    mean, std = raw_train.mean(axis=0), raw_train.std(axis=0)
    assert np.array_equal(out.train_x, (raw_train - mean) / std)
    assert np.array_equal(out.test_x, (raw_test - mean) / std)


# The out-of-place transform that normalize replaced; in-place results must match it.
def _oracle_standardize(train, test):
    mean, std = train.mean(axis=0), train.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    return (train - mean) / std, (test - mean) / std


def _labelled(train_x, test_x):
    return Dataset(train_x, np.zeros(len(train_x), dtype=np.int64),
                   test_x, np.zeros(len(test_x), dtype=np.int64), 2)


def _image_split(seed):
    rng = np.random.default_rng(seed)
    train = rng.integers(0, 256, (96, 1, 28, 28)).astype(np.float64)
    train[:, :, :3, :] = 0.0  # blank border rows, as in MNIST: zero-variance pixels
    return _labelled(train, rng.integers(0, 256, (24, 1, 28, 28)).astype(np.float64))


def _zero_variance_split(seed):
    rng = np.random.default_rng(seed)
    train = rng.standard_normal((50, 5)) * 4.0 + 2.0
    train[:, 1] = 3.25
    train[:, 4] = -7.0
    return _labelled(train, rng.standard_normal((12, 5)))


def _nan_test_split(seed):
    base = gen_blobs(seed, n_per_class=40, classes=3, dim=6, spread=0.6)
    test = base.test_x.copy()
    test[::3, 2] = np.nan
    return _labelled(base.train_x, test)


@pytest.mark.parametrize("make", [
    lambda: gen_blobs(11, n_per_class=170, classes=3, dim=16, spread=0.6),
    lambda: gen_spirals(12, n=230, noise=0.2),
    lambda: _image_split(13),
    lambda: _zero_variance_split(14),
    lambda: _nan_test_split(15),
], ids=["blobs16", "spirals", "images", "zero-variance", "nan-test"])
def test_normalize_in_place_matches_out_of_place_bytes(make):
    ds = make()
    want_train, want_test = _oracle_standardize(ds.train_x, ds.test_x)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = normalize(ds)
    assert out.train_x is ds.train_x and out.test_x is ds.test_x  # no copy was made
    assert out.train_x.tobytes() == want_train.tobytes()
    assert out.test_x.tobytes() == want_test.tobytes()


def test_normalize_single_feature_within_one_ulp_of_out_of_place():
    # np.std sums an (n, 1) column pairwise, the einsum in order: the bits may differ.
    rng = np.random.default_rng(16)
    for n in (100, 1000, 5000):
        ds = _labelled(rng.standard_normal((n, 1)) * 3.0 + 1.0, rng.standard_normal((n // 4, 1)))
        want_train, want_test = _oracle_standardize(ds.train_x, ds.test_x)
        out = normalize(ds)
        for got, want in ((out.train_x, want_train), (out.test_x, want_test)):
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-15


def test_normalize_copies_read_only_and_integer_splits_without_writing():
    rng = np.random.default_rng(17)
    raw = rng.standard_normal((40, 3)) * 2.0 + 1.0
    read_only = np.frombuffer(raw.tobytes()).reshape(raw.shape)
    ints = rng.integers(0, 256, (10, 3))
    ints_before = ints.copy()
    assert not read_only.flags.writeable
    out = normalize(_labelled(read_only, ints))
    want_train, want_test = _oracle_standardize(raw, ints_before.astype(np.float64))
    assert np.array_equal(read_only, raw) and np.array_equal(ints, ints_before)
    assert out.train_x.tobytes() == want_train.tobytes()
    assert out.test_x.tobytes() == want_test.tobytes()
    out = normalize(_labelled(read_only, ints), mode="intensity")
    assert np.array_equal(read_only, raw) and np.array_equal(ints, ints_before)
    assert np.array_equal(out.train_x, raw / 255.0)
    assert np.array_equal(out.test_x, ints_before / 255.0)


@pytest.mark.parametrize("mode", ["standard", "intensity"])
def test_normalize_transforms_a_test_split_aliasing_train_once(mode):
    x = gen_blobs(18, n_per_class=30, classes=2, dim=4, spread=0.5).train_x
    raw = x.copy()
    for test in (x, x[::2], x[5:9]):
        x[...] = raw
        test_raw = test.copy()
        out = normalize(_labelled(x, test), mode)
        if mode == "intensity":
            want_train, want_test = raw / 255.0, test_raw / 255.0
        else:
            want_train, want_test = _oracle_standardize(raw, test_raw)
        assert out.test_x is not out.train_x
        assert out.train_x.tobytes() == want_train.tobytes()
        assert out.test_x.tobytes() == want_test.tobytes()


@pytest.mark.parametrize("mode", ["standard", "intensity"])
def test_build_dataset_peak_memory_is_one_copy_per_split(tmp_path, mode):
    rng = np.random.default_rng(19)
    for stem, count in (("train", 384), ("t10k", 128)):
        write_idx(tmp_path / f"{stem}-images-idx3-ubyte",
                  rng.integers(0, 256, (count, 28, 28)).astype(np.uint8))
        write_idx(tmp_path / f"{stem}-labels-idx1-ubyte", (np.arange(count) % 10).astype(np.uint8))
    cfg = make_config(dataset="idx", data_path=str(tmp_path), classes=10, normalize_mode=mode)
    tracemalloc.start()
    try:
        ds = build_dataset(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ds.train_x.shape == (384, 1, 28, 28) and ds.test_x.shape == (128, 1, 28, 28)
    returned = sum(a.nbytes for a in (ds.train_x, ds.train_y, ds.test_x, ds.test_y))
    assert peak <= 1.15 * returned, f"peak {peak} bytes for {returned} bytes of arrays"


def test_dataset_label_range_validated():
    with pytest.raises(ValidationError):
        Dataset(np.zeros((2, 2)), np.array([0, 5]), np.zeros((0, 2)), np.zeros(0, dtype=int), 3)
