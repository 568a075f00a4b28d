import gzip
import struct

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
from grassopt.errors import ParseError, PreconditionError, ValidationError


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


# ------------------------------------------------------------ normalization

def test_normalize_standardizes_train_split():
    ds = gen_blobs(5, n_per_class=100, classes=3, dim=4, spread=0.7)
    out = normalize(ds)
    assert np.max(np.abs(out.train_x.mean(axis=0))) < 1e-9
    assert np.max(np.abs(out.train_x.std(axis=0) - 1.0)) < 1e-9


def test_normalize_idempotent():
    ds = gen_blobs(6, n_per_class=50, classes=2, dim=3, spread=0.5)
    once = normalize(ds)
    twice = normalize(once)
    assert np.max(np.abs(twice.train_x - once.train_x)) < 1e-9
    assert np.max(np.abs(twice.test_x - once.test_x)) < 1e-9


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
    out = normalize(poisoned)
    mean, std = base.train_x.mean(axis=0), base.train_x.std(axis=0)
    assert np.isfinite(out.train_x).all()
    assert np.array_equal(out.train_x, (base.train_x - mean) / std)


def test_transform_identical_across_splits():
    ds = gen_blobs(10, n_per_class=60, classes=2, dim=3, spread=0.5)
    out = normalize(ds)
    mean, std = ds.train_x.mean(axis=0), ds.train_x.std(axis=0)
    assert np.array_equal(out.train_x, (ds.train_x - mean) / std)
    assert np.array_equal(out.test_x, (ds.test_x - mean) / std)


def test_dataset_label_range_validated():
    with pytest.raises(ValidationError):
        Dataset(np.zeros((2, 2)), np.array([0, 5]), np.zeros((0, 2)), np.zeros(0, dtype=int), 3)
