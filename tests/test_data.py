import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from netshrink.data import (
    Dataset,
    _class_ids,
    load_raster,
    raster_header,
    save_raster,
    split,
    synth_classification,
    three_way_split,
)
from netshrink.errors import ParseError


class TestSynthClassification:
    def test_same_seed_identical(self):
        a = synth_classification(4, 10, 8, 8, seed=5)
        b = synth_classification(4, 10, 8, 8, seed=5)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_different_seed_differs(self):
        a = synth_classification(4, 10, 8, 8, seed=5)
        b = synth_classification(4, 10, 8, 8, seed=6)
        assert not np.array_equal(a.images, b.images)

    def test_class_balance(self):
        ds = synth_classification(5, 7, 4, 4, seed=0)
        counts = np.bincount(ds.labels, minlength=5)
        np.testing.assert_array_equal(counts, 7)

    def test_zero_noise_nearest_prototype_is_perfect(self):
        ds = synth_classification(3, 20, 6, 6, seed=1, noise=0.0)
        rng = np.random.default_rng(1)
        prototypes = rng.standard_normal((3, 3, 6, 6)).astype(np.float32)
        flat = ds.images.reshape(len(ds), -1)
        proto_flat = prototypes.reshape(3, -1)
        d2 = ((flat[:, None, :] - proto_flat[None, :, :]) ** 2).sum(axis=2)
        assert (d2.argmin(axis=1) == ds.labels).mean() == 1.0


class TestSplit:
    def test_ninety_ten(self):
        ds = synth_classification(4, 25, 4, 4, seed=2)
        train, holdout = split(ds, 0.1, seed=0)
        assert (len(train), len(holdout)) == (90, 10)

    def test_union_is_original_multiset(self):
        ds = synth_classification(3, 11, 4, 4, seed=3)
        train, holdout = split(ds, 0.25, seed=1)
        merged = np.concatenate([train.images, holdout.images]).reshape(len(ds), -1)
        original = ds.images.reshape(len(ds), -1)
        merged_sorted = merged[np.lexsort(merged.T)]
        original_sorted = original[np.lexsort(original.T)]
        np.testing.assert_array_equal(merged_sorted, original_sorted)

    def test_disjoint(self):
        ds = synth_classification(2, 30, 4, 4, seed=4)
        ds.images += np.arange(len(ds), dtype=np.float32)[:, None, None, None]  # unique rows
        train, holdout = split(ds, 0.2, seed=2)
        train_keys = {im.tobytes() for im in train.images}
        holdout_keys = {im.tobytes() for im in holdout.images}
        assert not train_keys & holdout_keys

    def test_stratification_within_one_of_proportional(self):
        rng = np.random.default_rng(5)
        labels = np.concatenate([np.full(37, 0), np.full(23, 1), np.full(40, 2)])
        rng.shuffle(labels)
        ds = Dataset(rng.standard_normal((100, 1, 2, 2)).astype(np.float32), labels, 3)
        for frac in (0.1, 0.2, 0.3):
            _, holdout = split(ds, frac, seed=3)
            for c, n_c in ((0, 37), (1, 23), (2, 40)):
                got = int((holdout.labels == c).sum())
                assert abs(got - frac * n_c) < 1.0

    def test_deterministic_per_seed(self):
        ds = synth_classification(4, 25, 4, 4, seed=6)
        a = split(ds, 0.1, seed=9)[1]
        b = split(ds, 0.1, seed=9)[1]
        np.testing.assert_array_equal(a.images, b.images)

    def test_empty_split_rejected(self):
        ds = synth_classification(2, 2, 4, 4, seed=7)
        with pytest.raises(ValueError, match="empty split"):
            split(ds, 0.01, seed=0)

    def test_class_ids_are_np_unique_s_with_an_empty_class(self):
        labels = np.array([4, 0, 4, 1, 0, 6], dtype=np.int64)  # 2, 3 and 5 are empty
        assert _class_ids(labels).tolist() == np.unique(labels).tolist() == [0, 1, 4, 6]

    def test_split_does_not_import_numpy_ma(self):
        # np.unique imports numpy.ma on its first call, a cost the CLI need not pay
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        code = (
            "import sys\n"
            "from netshrink.data import synth_classification, three_way_split\n"
            "three_way_split(synth_classification(4, 30, 4, 4, seed=8), 0.1, 0.2, seed=0)\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_three_way_tags(self):
        ds = synth_classification(4, 30, 4, 4, seed=8)
        train, holdout, test = three_way_split(ds, 0.1, 0.2, seed=0)
        assert len(train) + len(holdout) + len(test) == len(ds)


class TestRaster:
    def make(self, n=5, seed=0):
        rng = np.random.default_rng(seed)
        images = rng.integers(0, 256, size=(n, 2, 3, 4)).astype(np.float32) / 255.0
        labels = rng.integers(0, 3, size=n).astype(np.int64)
        return Dataset(images, labels, 3)

    def test_minimal_round_trip(self, tmp_path):
        ds = self.make(n=1)
        path = tmp_path / "one.raster"
        save_raster(path, ds)
        back = load_raster(path)
        np.testing.assert_allclose(back.images, ds.images, atol=1e-6)
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.classes == 3

    def test_save_load_save_byte_identical(self, tmp_path):
        ds = self.make(n=7, seed=1)
        p1, p2 = tmp_path / "a.raster", tmp_path / "b.raster"
        save_raster(p1, ds)
        save_raster(p2, load_raster(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.raster"
        path.write_bytes(b"NOTRIGHT" + b"\0" * 40)
        with pytest.raises(ParseError, match="magic at byte 0"):
            load_raster(path)

    def test_truncated_body_is_an_error_not_partial_data(self, tmp_path):
        ds = self.make(n=4, seed=2)
        path = tmp_path / "trunc.raster"
        save_raster(path, ds)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ParseError, match="truncated"):
            load_raster(path)

    def test_header_is_read_without_the_body(self, tmp_path):
        path = tmp_path / "head.raster"
        save_raster(path, self.make(n=6))
        blob = path.read_bytes()
        assert raster_header(path) == (6, 2, 3, 4, 3)
        path.write_bytes(blob[:28])  # magic + header only
        assert raster_header(path) == (6, 2, 3, 4, 3)
        path.write_bytes(blob[:20])
        with pytest.raises(ParseError, match="truncated header at byte 20"):
            raster_header(path)

    def test_unreadable_path_is_a_parse_error(self, tmp_path):
        for path in (tmp_path, tmp_path / "missing.raster"):
            with pytest.raises(ParseError, match="cannot be read"):
                raster_header(path)
            with pytest.raises(ParseError, match="cannot be read"):
                load_raster(path)

    def test_out_of_range_pixels_rejected(self, tmp_path):
        ds = self.make()
        ds.images[0, 0, 0, 0] = 2.0
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            save_raster(tmp_path / "x.raster", ds)
