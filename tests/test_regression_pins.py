"""Regression pins: dtype preservation, inference-mode purity, and
known-good seeded outputs that must not drift silently."""

import hashlib

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad
from repro.data import SynthDriveConfig, generate_dataset
from repro.models import ModelConfig, build_model
from repro.sdl import annotate
from repro.sim import simulate_scenario
from repro.train import TrainConfig, Trainer


class TestDtypePreservation:
    def test_ops_stay_float32(self):
        x = Tensor(np.ones((3, 3), dtype=np.float32))
        for out in (x + 1.0, x * 2.0, x @ x, x.mean(), x.tanh(),
                    x.reshape(9), x[0]):
            assert out.dtype == np.float32, out

    def test_model_output_float32(self):
        model = build_model("vt-divided", ModelConfig(
            frames=4, height=16, width=16, dim=16, depth=1, num_heads=2,
        ))
        video = Tensor(np.zeros((1, 4, 3, 16, 16), dtype=np.float32))
        out = model(video)
        for head in out.values():
            assert head.dtype == np.float32

    def test_dataset_videos_float32(self):
        dataset = generate_dataset(SynthDriveConfig(
            num_clips=2, frames=4, height=16, width=16, seed=0,
        ))
        assert dataset.videos.dtype == np.float32


class TestInferencePurity:
    def test_no_grad_forward_leaves_no_graph(self):
        model = build_model("frame-mlp", ModelConfig(
            frames=4, height=16, width=16, dim=16, depth=1, num_heads=2,
        ))
        model.eval()
        video = Tensor(np.zeros((2, 4, 3, 16, 16), dtype=np.float32))
        with no_grad():
            out = model(video)
        for head in out.values():
            assert not head.requires_grad
            assert head._backward is None

    def test_eval_forward_deterministic(self):
        model = build_model("vt-divided", ModelConfig(
            frames=4, height=16, width=16, dim=16, depth=1, num_heads=2,
            dropout=0.3,
        ))
        model.eval()
        video = Tensor(np.random.default_rng(0).random(
            (1, 4, 3, 16, 16)).astype(np.float32))
        a = model(video)["ego_action"].data
        b = model(video)["ego_action"].data
        np.testing.assert_array_equal(a, b)

    def test_train_forward_stochastic_with_dropout(self):
        model = build_model("vt-divided", ModelConfig(
            frames=4, height=16, width=16, dim=16, depth=1, num_heads=2,
            dropout=0.3,
        ))
        model.train()
        video = Tensor(np.random.default_rng(0).random(
            (1, 4, 3, 16, 16)).astype(np.float32))
        a = model(video)["ego_action"].data
        b = model(video)["ego_action"].data
        assert not np.allclose(a, b)


class TestSeededGroundTruthPins:
    """Known-good annotations for fixed seeds — silent changes to the
    simulator or annotator must be deliberate."""

    def test_lead_brake_seed0(self):
        desc = annotate(simulate_scenario("lead-brake", seed=0).snapshots)
        assert desc.ego_action == "decelerate"
        assert desc.actor_actions >= {"leading", "braking"}

    def test_turn_left_seed0(self):
        desc = annotate(simulate_scenario("turn-left", seed=0).snapshots)
        assert desc.scene == "intersection"
        assert desc.ego_action == "turn-left"

    def test_overtake_seed0(self):
        desc = annotate(simulate_scenario("overtake", seed=0).snapshots)
        assert desc.ego_action == "lane-change-left"

    def test_dataset_label_distribution_stable(self):
        """The balanced 14-family dataset covers every scene and at
        least 6 distinct ego actions."""
        dataset = generate_dataset(SynthDriveConfig(
            num_clips=28, frames=4, height=16, width=16, seed=0,
        ))
        scenes = {d.scene for d in dataset.descriptions}
        egos = {d.ego_action for d in dataset.descriptions}
        assert scenes == {"straight-road", "intersection"}
        assert len(egos) >= 6


def _float_kernels_digest() -> str:
    """Digest of the float32 kernels a train step leans on (BLAS sgemm,
    numpy's exp/tanh/sqrt/log1p/division) over fixed inputs.  Other
    CPUs or BLAS builds may round these differently, and then no
    trained weight can match a digest recorded elsewhere."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((33, 40), dtype=np.float32)
    b = rng.standard_normal((40, 24), dtype=np.float32)
    c = a @ b
    digest = hashlib.sha256()
    for out in (c, np.exp(c), np.tanh(c), np.sqrt(np.abs(c)),
                np.log1p(np.exp(-np.abs(c))), 1.0 / (1.0 + c * c)):
        digest.update(np.ascontiguousarray(out, dtype=np.float32))
    return digest.hexdigest()


class TestTrainedWeightsPin:
    """Two epochs of seeded training, dropout on, give these exact
    weights.  The digests were recorded before the autograd backward
    stopped scatter-adding basic-index gradients and copying fresh ones
    (docs/performance.md, "Training step"); any change to a gradient bit
    moves them.  Recorded on x86-64 with numpy 2.4's bundled OpenBLAS."""

    KERNELS = "772ca599e5c7a2680836c295ad3691e0269834aac359c353dd30803994567346"
    CFG = ModelConfig(frames=4, height=32, width=32, dim=16, depth=2,
                      num_heads=2, dropout=0.2, seed=11)
    DIGESTS = {
        "vt-divided":
            "b28610f410c18b3437dcce26023c49fcbe347eb212ad7cab6cd8f8072491c43b",
        "vt-factorized":
            "b9e9838ce7a06f6ecc38d6fb219e36cf8e607852436f5441dcf13e0ba43b8f88",
    }

    @pytest.fixture(scope="class")
    def data(self):
        return generate_dataset(SynthDriveConfig(
            num_clips=48, frames=4, height=32, width=32, seed=3,
        ))

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_two_epoch_weights_pinned(self, data, name):
        if _float_kernels_digest() != self.KERNELS:
            pytest.skip("float32 kernels round differently on this host")
        model = build_model(name, self.CFG)
        Trainer(model, TrainConfig(epochs=2, batch_size=16, seed=5)).fit(data)
        digest = hashlib.sha256()
        for pname, param in sorted(model.named_parameters()):
            digest.update(pname.encode())
            digest.update(np.ascontiguousarray(param.data))
        assert digest.hexdigest() == self.DIGESTS[name]
