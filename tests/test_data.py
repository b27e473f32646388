"""Dataset generators, file round-trips, and stratified splitting."""

import numpy as np
import pytest

from uqnet.data import (
    DataError,
    Dataset,
    SplitSpec,
    load_csv,
    load_idx,
    save_csv,
    save_idx,
    split,
    synth_blobs,
    synth_textures,
)


def fit_linear_probe(X, y, n_classes, steps=400, lr=1.0):
    """Plain-numpy multinomial logistic regression (the tests' independent oracle)."""
    n, d = X.shape
    W = np.zeros((d, n_classes))
    b = np.zeros(n_classes)
    onehot = np.eye(n_classes)[y]
    for _ in range(steps):
        z = X @ W + b
        z -= z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        g = (p - onehot) / n
        W -= lr * (X.T @ g)
        b -= lr * g.sum(axis=0)
    return W, b


def probe_accuracy(train, test):
    Xtr = train.inputs.reshape(train.n, -1)
    Xte = test.inputs.reshape(test.n, -1)
    W, b = fit_linear_probe(Xtr, train.labels, train.n_classes)
    pred = (Xte @ W + b).argmax(axis=1)
    return float((pred == test.labels).mean())


class TestBlobs:
    def test_deterministic(self):
        a = synth_blobs(100, overlap=0.3, seed=5)
        b = synth_blobs(100, overlap=0.3, seed=5)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_overlap_zero_is_linearly_separable(self):
        ds = synth_blobs(2000, overlap=0.0, seed=1)
        tr, _, te = split(ds, SplitSpec(0.7, 0.1, 0.2, seed=1))
        assert probe_accuracy(tr, te) >= 0.99

    def test_overlap_one_is_chance_level(self):
        ds = synth_blobs(2000, overlap=1.0, seed=2)
        tr, _, te = split(ds, SplitSpec(0.7, 0.1, 0.2, seed=2))
        acc = probe_accuracy(tr, te)
        assert abs(acc - 0.25) < 0.05

    def test_extra_dims_are_noise(self):
        ds = synth_blobs(50, overlap=0.0, dim=6, seed=3)
        assert ds.inputs.shape == (50, 6)

    def test_validation(self):
        with pytest.raises(ValueError):
            synth_blobs(2, n_classes=4)
        with pytest.raises(ValueError):
            synth_blobs(10, dim=1)
        with pytest.raises(ValueError):
            synth_blobs(10, overlap=2.0)


class TestTextures:
    def test_deterministic(self):
        a = synth_textures(40, noise=0.2, seed=9)
        b = synth_textures(40, noise=0.2, seed=9)
        np.testing.assert_array_equal(a.inputs, b.inputs)

    def test_horizontal_stripes_structure(self):
        ds = synth_textures(40, noise=0.0, seed=4)
        imgs = ds.inputs[ds.labels == 0][:, 0]
        for img in imgs:
            # each row is constant
            assert np.all(img == img[:, :1])
            # down a column, values alternate with period 4
            col = img[:, 0]
            assert np.array_equal(col[4:8], 1.0 - col[0:4])

    def test_vertical_stripes_structure(self):
        ds = synth_textures(40, noise=0.0, seed=4)
        imgs = ds.inputs[ds.labels == 1][:, 0]
        for img in imgs:
            assert np.all(img == img[:1, :])

    def test_noise_free_classes_linearly_separable(self):
        ds = synth_textures(600, noise=0.0, seed=6)
        tr, _, te = split(ds, SplitSpec(0.7, 0.1, 0.2, seed=6))
        assert probe_accuracy(tr, te) >= 0.99

    def test_values_are_8bit_quantized(self):
        ds = synth_textures(30, noise=0.7, seed=7)
        scaled = ds.inputs * 255.0
        assert np.abs(scaled - np.round(scaled)).max() < 1e-9
        assert ds.inputs.min() >= 0.0 and ds.inputs.max() <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            synth_textures(10, size=4)
        with pytest.raises(ValueError):
            synth_textures(10, noise=-1.0)


class TestCsv:
    def test_round_trip_identity(self, tmp_path):
        ds = synth_blobs(50, overlap=0.3, dim=3, seed=8)
        path = str(tmp_path / "blobs.csv")
        save_csv(ds, path)
        back = load_csv(path)
        np.testing.assert_array_equal(back.inputs, ds.inputs)
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_small_fixture(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("f0,f1,label\n1.5,2.5,0\n-1.0,0.25,1\n3.0,4.0,1\n")
        ds = load_csv(str(path))
        assert ds.n == 3
        assert ds.inputs.shape == (3, 2)
        np.testing.assert_array_equal(ds.labels, [0, 1, 1])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError, match="no records"):
            load_csv(str(path))

    def test_header_only(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("f0,label\n")
        with pytest.raises(DataError, match="no records"):
            load_csv(str(path))

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("f0,f1,label\n1.0,2.0,0\n1.0,0\n")
        with pytest.raises(DataError, match="line 3"):
            load_csv(str(path))

    def test_non_numeric_field_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\nok,0\n")
        with pytest.raises(DataError, match="line 2"):
            load_csv(str(path))

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "nolabel.csv"
        path.write_text("f0,f1\n1.0,2.0\n")
        with pytest.raises(DataError, match="label"):
            load_csv(str(path))

    def test_non_integer_label(self, tmp_path):
        # a non-finite cell too: int() of it raised OverflowError or a
        # ValueError that named neither the file nor the line
        path = tmp_path / "fl.csv"
        for cell in ("0.5", "inf", "-inf", "1e400", "nan"):
            path.write_text(f"f0,label\n1.0,0\n1.0,{cell}\n")
            with pytest.raises(DataError, match=f"fl.csv: line 3: label '{cell}' is not an integer"):
                load_csv(str(path))


class TestIdx:
    def test_round_trip_identity(self, tmp_path):
        ds = synth_textures(25, noise=0.4, seed=10)
        ip, lp = str(tmp_path / "img.idx"), str(tmp_path / "lab.idx")
        save_idx(ds, ip, lp)
        back = load_idx(ip, lp)
        np.testing.assert_array_equal(back.inputs, ds.inputs)
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_wrong_magic_reports_offset(self, tmp_path):
        ip = tmp_path / "bad.idx"
        ip.write_bytes(b"\x01\x02\x03\x04" + b"\x00" * 12)
        with pytest.raises(DataError, match="offset 0"):
            load_idx(str(ip), str(ip))

    def test_wrong_type_code_reports_offset(self, tmp_path):
        ip = tmp_path / "f32.idx"
        ip.write_bytes(bytes([0, 0, 0x0D, 3]) + (0).to_bytes(4, "big") * 3)
        with pytest.raises(DataError, match="offset 2"):
            load_idx(str(ip), str(ip))

    def test_count_mismatch(self, tmp_path):
        ds = synth_textures(10, seed=1)
        ip, lp = str(tmp_path / "i.idx"), str(tmp_path / "l.idx")
        save_idx(ds, ip, lp)
        other = synth_textures(8, seed=1)
        lp2 = str(tmp_path / "l2.idx")
        save_idx(other, str(tmp_path / "i2.idx"), lp2)
        with pytest.raises(DataError, match="10 images but .*8 labels"):
            load_idx(ip, lp2)

    def test_unquantized_data_rejected(self, tmp_path):
        ds = Dataset(np.full((4, 1, 8, 8), 1.0 / 7.0), np.zeros(4, dtype=int), ["a"])
        with pytest.raises(ValueError, match="8-bit"):
            save_idx(ds, str(tmp_path / "i.idx"), str(tmp_path / "l.idx"))


class TestSplit:
    def test_sizes_exact(self):
        ds = synth_blobs(100, seed=0)
        tr, va, te = split(ds, SplitSpec(0.8, 0.1, 0.1, seed=0))
        assert (tr.n, va.n, te.n) == (80, 10, 10)

    def test_deterministic(self):
        ds = synth_blobs(200, seed=0)
        a = split(ds, SplitSpec(seed=3))
        b = split(ds, SplitSpec(seed=3))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.inputs, y.inputs)

    def test_disjoint_and_exhaustive(self):
        ds = synth_blobs(157, seed=1)
        keys = ds.inputs[:, 0]  # coordinates are unique w.p. 1
        tr, va, te = split(ds, SplitSpec(0.6, 0.2, 0.2, seed=1))
        merged = np.concatenate([tr.inputs[:, 0], va.inputs[:, 0], te.inputs[:, 0]])
        assert len(merged) == 157
        assert len(np.unique(merged)) == 157
        assert set(merged) == set(keys)

    def test_stratification_within_one(self):
        ds = synth_blobs(400, n_classes=4, seed=2)  # 100 per class
        tr, va, te = split(ds, SplitSpec(0.8, 0.1, 0.1, seed=2))
        np.testing.assert_array_equal(tr.class_counts(), [80, 80, 80, 80])
        np.testing.assert_array_equal(va.class_counts(), [10, 10, 10, 10])
        np.testing.assert_array_equal(te.class_counts(), [10, 10, 10, 10])

    def test_uneven_classes_deviate_at_most_one(self):
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 4, size=237)
        ds = Dataset(rng.normal(size=(237, 2)), labels, [f"c{k}" for k in range(4)])
        tr, va, te = split(ds, SplitSpec(0.7, 0.15, 0.15, seed=5))
        for part, frac in ((tr, 0.7), (va, 0.15), (te, 0.15)):
            for c in range(4):
                ideal = ds.class_counts()[c] * frac
                assert abs(part.class_counts()[c] - ideal) <= 1.0

    def test_empty_split_rejected(self):
        ds = synth_blobs(100, seed=0)
        with pytest.raises(ValueError, match="split would be empty"):
            split(ds, SplitSpec(1.0, 0.0, 0.0, seed=0))

    def test_bad_fractions_rejected(self):
        ds = synth_blobs(100, seed=0)
        with pytest.raises(ValueError, match="sum to 1"):
            split(ds, SplitSpec(0.5, 0.2, 0.2, seed=0))
