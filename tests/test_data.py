"""IDX I/O, synthetic data, batching, and config parsing."""

import dataclasses
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import fail_binary_writes
from peerkd import data
from peerkd.errors import ConfigError, DataError, FormatError


def write_idx_pair(tmp_path, images, labels, image_magic=0x00000803,
                   label_magic=0x00000801, label_count=None, truncate_images=0):
    """Hand-assemble IDX byte files; knobs to corrupt them on purpose."""
    n, h, w = images.shape
    img_path = tmp_path / "images.idx"
    lbl_path = tmp_path / "labels.idx"
    body = struct.pack(">IIII", image_magic, n, h, w) + images.astype(np.uint8).tobytes()
    if truncate_images:
        body = body[:-truncate_images]
    img_path.write_bytes(body)
    lbl_path.write_bytes(struct.pack(">II", label_magic, label_count if label_count is not None else n)
                         + labels.astype(np.uint8).tobytes())
    return str(img_path), str(lbl_path)


class TestLoadIdx:
    def test_well_formed_fixture(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, (10, 28, 28), dtype=np.uint8)
        labels = rng.integers(0, 6, 10, dtype=np.uint8)
        ds = data.load_idx(*write_idx_pair(tmp_path, images, labels))
        assert ds.images.shape == (10, 1, 28, 28)
        assert ds.n == 10
        np.testing.assert_array_equal(ds.labels, labels)

    def test_pixel_scaling_endpoint(self, tmp_path):
        images = np.full((2, 4, 4), 255, dtype=np.uint8)
        labels = np.zeros(2, dtype=np.uint8)
        ds = data.load_idx(*write_idx_pair(tmp_path, images, labels))
        np.testing.assert_array_equal(ds.images, 1.0)

    def test_magic_mismatch_names_offset(self, tmp_path):
        images = np.zeros((2, 4, 4), dtype=np.uint8)
        labels = np.zeros(2, dtype=np.uint8)
        paths = write_idx_pair(tmp_path, images, labels, image_magic=0x00000899)
        with pytest.raises(FormatError, match="offset 0"):
            data.load_idx(*paths)

    def test_truncated_payload_names_offset(self, tmp_path):
        images = np.zeros((2, 4, 4), dtype=np.uint8)
        labels = np.zeros(2, dtype=np.uint8)
        paths = write_idx_pair(tmp_path, images, labels, truncate_images=5)
        with pytest.raises(FormatError, match="offset"):
            data.load_idx(*paths)

    def test_count_mismatch_names_offset(self, tmp_path):
        images = np.zeros((3, 4, 4), dtype=np.uint8)
        labels = np.zeros(3, dtype=np.uint8)
        paths = write_idx_pair(tmp_path, images, labels, label_count=7)
        with pytest.raises(FormatError, match="offset 4"):
            data.load_idx(*paths)

    @pytest.mark.parametrize("which,end", [(0, 16 + 2 * 16), (1, 8 + 2)], ids=["images", "labels"])
    def test_trailing_bytes_name_offset(self, tmp_path, which, end):
        images = np.zeros((2, 4, 4), dtype=np.uint8)
        labels = np.zeros(2, dtype=np.uint8)
        paths = write_idx_pair(tmp_path, images, labels)
        with open(paths[which], "ab") as f:
            f.write(bytes(70))
        with pytest.raises(FormatError, match=f"70 trailing bytes at byte offset {end}$"):
            data.load_idx(*paths)

    def test_header_past_any_file_size_names_offset(self, tmp_path):
        path = tmp_path / "huge.idx"
        path.write_bytes(struct.pack(">IIII", 0x00000803, *(0xFFFFFFFF,) * 3))
        with pytest.raises(FormatError, match="truncated at byte offset 16"):
            data.load_idx(path, path)

    def test_round_trip_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        images = rng.integers(0, 256, (6, 8, 8), dtype=np.uint8)
        labels = rng.integers(0, 4, 6, dtype=np.uint8)
        ds = data.load_idx(*write_idx_pair(tmp_path, images, labels))
        out_img = tmp_path / "o.idx"
        out_lbl = tmp_path / "l.idx"
        data.save_idx(ds, out_img, out_lbl)
        again = data.load_idx(out_img, out_lbl)
        np.testing.assert_array_equal(ds.images, again.images)
        np.testing.assert_array_equal(ds.labels, again.labels)

    @pytest.mark.parametrize("label", [300, -1])
    def test_save_refuses_labels_a_byte_cannot_hold(self, tmp_path, label):
        ds = data.Dataset(np.zeros((2, 1, 4, 4), np.float32), np.array([0, label]))
        with pytest.raises(DataError, match=rf"labels must lie in \[0, 255\], got range"):
            data.save_idx(ds, tmp_path / "o.idx", tmp_path / "l.idx")
        assert list(tmp_path.iterdir()) == []

    def test_failed_save_keeps_previous_files(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(2)
        images = rng.integers(0, 256, (4, 8, 8), dtype=np.uint8)
        ds = data.load_idx(*write_idx_pair(tmp_path, images, np.arange(4, dtype=np.uint8)))
        out_img, out_lbl = tmp_path / "o.idx", tmp_path / "l.idx"
        data.save_idx(ds, out_img, out_lbl)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        fail_binary_writes(monkeypatch)
        with pytest.raises(OSError, match="No space"):
            data.save_idx(data.Dataset(ds.images[::-1], ds.labels[::-1]), out_img, out_lbl)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def nearest_template_accuracy(ds, templates):
    flat = templates.reshape(templates.shape[0], -1)
    preds = []
    for img in ds.images[:, 0]:
        dists = ((flat - img.reshape(-1)) ** 2).sum(axis=1)
        preds.append(int(dists.argmin()))
    return float((np.asarray(preds) == ds.labels).mean())


class TestSynthBlobs:
    def test_zero_noise_identical_within_class(self):
        ds = data.synth_blobs(3, 5, 12, 0.0, seed=0)
        for c in range(3):
            imgs = ds.images[ds.labels == c]
            assert (imgs == imgs[0]).all()

    def test_balanced_counts(self):
        ds = data.synth_blobs(3, 100, 12, 0.2, seed=0)
        assert ds.n == 300
        for c in range(3):
            assert int((ds.labels == c).sum()) == 100

    def test_template_oracle_accuracy(self):
        ds = data.synth_blobs(6, 50, 16, 0.1, seed=3)
        templates = data.class_templates(6, 16)
        assert nearest_template_accuracy(ds, templates) >= 0.99

    def test_deterministic_per_seed(self):
        a = data.synth_blobs(4, 10, 10, 0.3, seed=7)
        b = data.synth_blobs(4, 10, 10, 0.3, seed=7)
        np.testing.assert_array_equal(a.images, b.images)
        c = data.synth_blobs(4, 10, 10, 0.3, seed=8)
        assert not np.array_equal(a.images, c.images)

    def test_values_in_unit_interval(self):
        ds = data.synth_blobs(5, 20, 12, 0.5, seed=1)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0


class TestStandardize:
    def test_train_split_statistics(self):
        ds = data.synth_blobs(6, 100, 16, 0.35, seed=0)
        mean, std = data.channel_stats(ds)
        out = data.standardize(ds, mean, std)
        assert abs(float(out.images.mean())) < 1e-5
        assert abs(float(out.images.var()) - 1.0) < 1e-3

    def test_eval_reuses_train_stats(self):
        train = data.synth_blobs(4, 50, 12, 0.3, seed=0)
        test = data.synth_blobs(4, 20, 12, 0.3, seed=1)
        mean, std = data.channel_stats(train)
        out = data.standardize(test, mean, std)
        expect = (test.images - mean[None, :, None, None]) / std[None, :, None, None]
        np.testing.assert_allclose(out.images, expect, rtol=1e-6)


class TestBatches:
    def test_remainder_batch_kept(self):
        ds = data.synth_blobs(2, 5, 8, 0.1, seed=0)  # n = 10
        sizes = [len(y) for _, y in data.batches(ds, 4, seed=0, epoch=0)]
        assert sizes == [4, 4, 2]

    def test_same_seed_epoch_identical(self):
        a = data.batch_indices(50, 8, seed=3, epoch=2)
        b = data.batch_indices(50, 8, seed=3, epoch=2)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_different_epochs_differ(self):
        a = np.concatenate(data.batch_indices(50, 8, seed=3, epoch=0))
        b = np.concatenate(data.batch_indices(50, 8, seed=3, epoch=1))
        assert not np.array_equal(a, b)

    @given(st.integers(1, 60), st.integers(1, 17), st.integers(0, 5), st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, n, bs, seed, epoch):
        idx = np.concatenate(data.batch_indices(n, bs, seed, epoch))
        assert sorted(idx.tolist()) == list(range(n))


class TestRunConfig:
    def test_defaults_validate(self):
        data.RunConfig().validate()

    def test_parse_file_and_overrides(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(
            "# experiment\n"
            "method = dml\n"
            "archs = tiny-a, tiny-b  # mixed pair\n"
            "epochs = 4\n"
            "temperature = 2.5\n"
            "milestones_logit = 2,3\n"
            "adversarial = off\n"
        )
        cfg = data.build_config(data.parse_config_file(cfg_path), {"epochs": "7"})
        assert cfg.method == "dml"
        assert cfg.archs == ["tiny-a", "tiny-b"]
        assert cfg.epochs == 7  # flag override wins
        assert cfg.temperature == 2.5
        assert cfg.milestones_logit == [2, 3]
        assert cfg.adversarial is False

    def test_file_of_default_strings_builds_the_defaults(self, tmp_path):
        # each value is parsed as the kind of its field's default
        lines = []
        for f in dataclasses.fields(data.RunConfig):
            value = getattr(data.RunConfig(), f.name)
            text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
            lines.append(f"{f.name} = {text}\n")
        cfg_path = tmp_path / "defaults.cfg"
        cfg_path.write_text("".join(lines))
        cfg = data.build_config(data.parse_config_file(cfg_path))
        assert cfg == data.RunConfig()
        assert [type(getattr(cfg, f.name)) for f in dataclasses.fields(cfg)] == \
            [type(getattr(data.RunConfig(), f.name)) for f in dataclasses.fields(cfg)]

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            data.build_config({"not_a_field": "1"})

    def test_method_validation(self):
        names = "('afd', 'dml', 'l1', 'l1_kd', 'l1_kd_offline', 'kd_ensemble', 'vanilla')"
        with pytest.raises(ConfigError, match=re.escape(f"expected one of {names}")):
            data.build_config({"method": "one"})
        with pytest.raises(ConfigError):
            data.build_config({"method": "afd", "archs": "tiny-a"})

    @pytest.mark.parametrize("method", ["afd", "dml", "kd_ensemble", "l1", "l1_kd"])
    def test_method_with_a_peer_term_refuses_one_net(self, method):
        with pytest.raises(ConfigError, match=f"^method '{method}' needs at least 2 networks$"):
            data.build_config({"method": method, "archs": "tiny-a"})

    @pytest.mark.parametrize("archs", ["tiny-a", "tiny-a,tiny-a,tiny-a"])
    def test_offline_expects_exactly_two_nets(self, archs):
        with pytest.raises(ConfigError, match="^l1_kd_offline expects exactly 2 networks"):
            data.build_config({"method": "l1_kd_offline", "archs": archs,
                               "teacher_checkpoint": "t.afdk"})

    def test_offline_requires_checkpoint(self):
        with pytest.raises(ConfigError):
            data.build_config({"method": "l1_kd_offline"})

    def test_k_replication(self):
        cfg = data.build_config({"method": "afd", "archs": "tiny-a", "k": "3"})
        assert cfg.resolved_archs() == ["tiny-a"] * 3

    def test_negative_k_is_refused_by_name(self):
        with pytest.raises(ConfigError, match="^k must be >= 0, got -2$"):
            data.build_config({"archs": "tiny-a", "k": "-2"})

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("just some words\n")
        with pytest.raises(ConfigError):
            data.parse_config_file(p)

    def test_unsorted_milestones(self):
        with pytest.raises(ConfigError):
            data.build_config({"milestones_logit": "5,2"})
