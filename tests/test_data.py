"""Tests for SynthDrive generation, loaders, transforms and label noise."""

import os

import numpy as np
import pytest

from repro.data import (
    DataLoader,
    HorizontalFlip,
    PixelNoise,
    SynthDriveConfig,
    SynthDriveDataset,
    TemporalJitter,
    compose,
    generate_dataset,
    inject_label_noise,
)
from repro.sdl import LabelCodec
from repro.sim.scenarios import SCENARIO_FAMILIES


@pytest.fixture(scope="module")
def small_dataset():
    config = SynthDriveConfig(num_clips=24, frames=8, height=32, width=32,
                              seed=1)
    return generate_dataset(config)


class TestGeneration:
    def test_shapes(self, small_dataset):
        assert small_dataset.videos.shape == (24, 8, 3, 32, 32)
        assert len(small_dataset.descriptions) == 24
        assert small_dataset.videos.dtype == np.float32

    def test_pixel_range(self, small_dataset):
        assert small_dataset.videos.min() >= 0.0
        assert small_dataset.videos.max() <= 1.0

    def test_balanced_families(self, small_dataset):
        counts = {}
        for f in small_dataset.families:
            counts[f] = counts.get(f, 0) + 1
        assert len(counts) == min(len(SCENARIO_FAMILIES), 24)
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_deterministic(self):
        cfg = SynthDriveConfig(num_clips=4, frames=4, seed=3)
        a, b = generate_dataset(cfg), generate_dataset(cfg)
        np.testing.assert_array_equal(a.videos, b.videos)
        assert a.descriptions == b.descriptions

    def test_different_seeds_differ(self):
        a = generate_dataset(SynthDriveConfig(num_clips=4, frames=4, seed=3))
        b = generate_dataset(SynthDriveConfig(num_clips=4, frames=4, seed=4))
        assert not np.allclose(a.videos, b.videos)

    def test_family_subset(self):
        cfg = SynthDriveConfig(num_clips=6, frames=4,
                               families=("cut-in", "lead-brake"), seed=0)
        ds = generate_dataset(cfg)
        assert set(ds.families) == {"cut-in", "lead-brake"}

    def test_unknown_family_raises(self):
        with pytest.raises(KeyError):
            generate_dataset(SynthDriveConfig(num_clips=2,
                                              families=("warp",)))

    def test_too_many_frames_raises(self):
        cfg = SynthDriveConfig(num_clips=1, frames=200, duration=2.0)
        with pytest.raises(ValueError):
            generate_dataset(cfg)

    def test_targets_encoded(self, small_dataset):
        t = small_dataset.targets
        assert t["scene"].shape == (24,)
        assert t["actors"].shape == (24, 3)


class TestDatasetOps:
    def test_getitem(self, small_dataset):
        video, desc, family = small_dataset[0]
        assert video.shape == (8, 3, 32, 32)
        assert family in SCENARIO_FAMILIES

    def test_subset(self, small_dataset):
        sub = small_dataset.subset([0, 2, 4])
        assert len(sub) == 3
        np.testing.assert_array_equal(sub.videos[1],
                                      small_dataset.videos[2])

    def test_split_partition(self, small_dataset):
        train, val, test = small_dataset.split((0.5, 0.25, 0.25), seed=0)
        assert len(train) + len(val) + len(test) == len(small_dataset)

    def test_split_stratified(self, small_dataset):
        train, _, _ = small_dataset.split((0.5, 0.25, 0.25), seed=0)
        counts = {}
        for f in train.families:
            counts[f] = counts.get(f, 0) + 1
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_split_invalid_fractions(self, small_dataset):
        with pytest.raises(ValueError):
            small_dataset.split((0.5, 0.5, 0.5))

    def test_save_load_roundtrip(self, small_dataset, tmp_path):
        path = str(tmp_path / "ds.npz")
        small_dataset.save(path)
        loaded = SynthDriveDataset.load(path)
        np.testing.assert_array_equal(loaded.videos, small_dataset.videos)
        assert loaded.descriptions == small_dataset.descriptions
        assert loaded.families == small_dataset.families

    def test_save_appends_npz_like_numpy(self, small_dataset, tmp_path):
        small_dataset.save(str(tmp_path / "ds"))
        assert sorted(os.listdir(tmp_path)) == ["ds.npz"]
        loaded = SynthDriveDataset.load(str(tmp_path / "ds.npz"))
        assert loaded.families == small_dataset.families

    def test_misaligned_inputs_raise(self, small_dataset):
        with pytest.raises(ValueError):
            SynthDriveDataset(small_dataset.videos,
                              small_dataset.descriptions[:-1],
                              small_dataset.families)


class TestDataLoader:
    def test_batch_shapes(self, small_dataset):
        loader = DataLoader(small_dataset, batch_size=8, shuffle=False)
        batch = next(iter(loader))
        assert batch["video"].shape == (8, 8, 3, 32, 32)
        assert batch["scene"].shape == (8,)
        assert batch["actors"].shape == (8, 3)

    def test_covers_all_samples(self, small_dataset):
        loader = DataLoader(small_dataset, batch_size=10, shuffle=True)
        total = sum(len(b["scene"]) for b in loader)
        assert total == len(small_dataset)

    def test_drop_last(self, small_dataset):
        loader = DataLoader(small_dataset, batch_size=10, drop_last=True)
        sizes = [len(b["scene"]) for b in loader]
        assert sizes == [10, 10]

    def test_len(self, small_dataset):
        assert len(DataLoader(small_dataset, batch_size=10)) == 3
        assert len(DataLoader(small_dataset, batch_size=10,
                              drop_last=True)) == 2

    def test_shuffle_changes_order_between_epochs(self, small_dataset):
        loader = DataLoader(small_dataset, batch_size=24, shuffle=True,
                            seed=0)
        first = next(iter(loader))["scene"]
        second = next(iter(loader))["scene"]
        # Same multiset, very likely different order.
        assert sorted(first) == sorted(second)

    def test_invalid_batch_size(self, small_dataset):
        with pytest.raises(ValueError):
            DataLoader(small_dataset, batch_size=0)

    def test_no_shuffle_is_stable(self, small_dataset):
        loader = DataLoader(small_dataset, batch_size=6, shuffle=False)
        a = np.concatenate([b["scene"] for b in loader])
        b = np.concatenate([b["scene"] for b in loader])
        np.testing.assert_array_equal(a, b)


class TestTransforms:
    def make_clip(self):
        rng = np.random.default_rng(0)
        video = rng.random((4, 3, 8, 8)).astype(np.float32)
        codec = LabelCodec()
        from repro.sdl import ScenarioDescription
        desc = ScenarioDescription(scene="straight-road",
                                   ego_action="lane-change-left")
        return video, codec.encode(desc), codec

    def test_flip_mirrors_pixels(self):
        video, targets, codec = self.make_clip()
        flip = HorizontalFlip(codec, p=1.0)
        flipped, _ = flip(video, targets, np.random.default_rng(0))
        np.testing.assert_array_equal(flipped, video[..., ::-1])

    def test_flip_remaps_labels(self):
        video, targets, codec = self.make_clip()
        flip = HorizontalFlip(codec, p=1.0)
        _, new_targets = flip(video, targets, np.random.default_rng(0))
        left = list(codec.vocab.ego_actions).index("lane-change-left")
        right = list(codec.vocab.ego_actions).index("lane-change-right")
        assert targets["ego_action"] == left
        assert new_targets["ego_action"] == right

    def test_flip_probability_zero_is_identity(self):
        video, targets, codec = self.make_clip()
        flip = HorizontalFlip(codec, p=0.0)
        out, new_targets = flip(video, targets, np.random.default_rng(0))
        np.testing.assert_array_equal(out, video)
        assert new_targets["ego_action"] == targets["ego_action"]

    def test_pixel_noise_bounded(self):
        video, targets, _ = self.make_clip()
        noisy, _ = PixelNoise(std=0.5)(video, targets,
                                       np.random.default_rng(0))
        assert noisy.min() >= 0.0 and noisy.max() <= 1.0

    def test_temporal_jitter_preserves_shape(self):
        video, targets, _ = self.make_clip()
        jittered, _ = TemporalJitter(max_shift=2)(
            video, targets, np.random.default_rng(1)
        )
        assert jittered.shape == video.shape

    def test_compose_applies_in_order(self):
        video, targets, codec = self.make_clip()
        pipeline = compose([HorizontalFlip(codec, p=1.0),
                            PixelNoise(std=0.0)])
        out, new_targets = pipeline(video, targets,
                                    np.random.default_rng(0))
        np.testing.assert_array_equal(out, video[..., ::-1])


class TestLabelNoise:
    def make_targets(self, n=200):
        codec = LabelCodec()
        rng = np.random.default_rng(0)
        return {
            "scene": rng.integers(0, 2, n),
            "ego_action": rng.integers(0, 8, n),
            "actors": (rng.random((n, 3)) > 0.5).astype(np.float32),
            "actor_actions": (rng.random((n, 6)) > 0.5).astype(np.float32),
        }, codec

    def test_zero_rate_unchanged_binary(self):
        targets, codec = self.make_targets()
        noisy = inject_label_noise(targets, 0.0,
                                   num_classes=codec.head_sizes)
        np.testing.assert_array_equal(noisy["actors"], targets["actors"])
        np.testing.assert_array_equal(noisy["scene"], targets["scene"])

    def test_flip_rate_approximate(self):
        targets, codec = self.make_targets()
        noisy = inject_label_noise(targets, 0.3, seed=1,
                                   num_classes=codec.head_sizes)
        flipped = (noisy["actor_actions"] != targets["actor_actions"]).mean()
        assert 0.2 < flipped < 0.4

    def test_original_not_mutated(self):
        targets, codec = self.make_targets()
        before = targets["actors"].copy()
        inject_label_noise(targets, 0.5, num_classes=codec.head_sizes)
        np.testing.assert_array_equal(targets["actors"], before)

    def test_invalid_rate(self):
        targets, _ = self.make_targets()
        with pytest.raises(ValueError):
            inject_label_noise(targets, 1.5)

    def test_deterministic_given_seed(self):
        targets, codec = self.make_targets()
        a = inject_label_noise(targets, 0.2, seed=5,
                               num_classes=codec.head_sizes)
        b = inject_label_noise(targets, 0.2, seed=5,
                               num_classes=codec.head_sizes)
        np.testing.assert_array_equal(a["ego_action"], b["ego_action"])
