"""Tests for SDL statistics and the extra autograd ops."""

import numpy as np
import pytest

from repro.autograd import Tensor, gradcheck
from repro.autograd import functional as F
from repro.sdl import ScenarioDescription
from repro.sdl.statistics import (
    format_statistics,
    imbalance_report,
    tag_frequencies,
)

RNG = np.random.default_rng(3)


def descs():
    return [
        ScenarioDescription(scene="straight-road", ego_action="stop",
                            actors=frozenset({"pedestrian"}),
                            actor_actions=frozenset({"crossing"})),
        ScenarioDescription(scene="straight-road",
                            ego_action="drive-straight",
                            actors=frozenset({"car"}),
                            actor_actions=frozenset({"leading"})),
        ScenarioDescription(scene="intersection", ego_action="turn-left"),
        ScenarioDescription(scene="straight-road",
                            ego_action="drive-straight",
                            actors=frozenset({"car"}),
                            actor_actions=frozenset({"leading"})),
    ]


class TestStatistics:
    def test_frequencies_normalised(self):
        freqs = tag_frequencies(descs())
        assert freqs["scene"]["straight-road"] == pytest.approx(0.75)
        assert freqs["ego_action"]["drive-straight"] == pytest.approx(0.5)
        assert freqs["actors"]["car"] == pytest.approx(0.5)

    def test_empty_corpus_raises(self):
        with pytest.raises(ValueError):
            tag_frequencies([])

    def test_imbalance_report_fields(self):
        report = imbalance_report(descs())
        assert 0 < report["rarest_tag_rate"] <= report["most_common_tag_rate"]
        assert report["ego_action_entropy"] > 0
        assert report["ego_action_classes_present"] == 3

    def test_format_contains_sections(self):
        text = format_statistics(descs())
        assert "[scene]" in text
        assert "[imbalance]" in text
        assert "4 clips" in text

    def test_cli_stats(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "d.npz")
        assert main(["generate", "--clips", "4", "--frames", "4",
                     "--out", path]) == 0
        capsys.readouterr()
        assert main(["stats", "--data", path]) == 0
        out = capsys.readouterr().out
        assert "[ego_action]" in out


class TestExtraOps:
    def test_min_matches_numpy(self):
        x = Tensor(RNG.standard_normal((4, 5)))
        np.testing.assert_allclose(x.min(axis=1).data,
                                   x.data.min(axis=1), rtol=1e-6)

    def test_min_grad(self):
        x = Tensor(RNG.standard_normal((3, 4)), requires_grad=True)
        gradcheck(lambda a: a.min(axis=1).sum(), [x])

    def test_abs_forward_and_grad(self):
        x = Tensor(np.array([-2.0, 3.0, -0.5]), requires_grad=True)
        out = x.abs()
        np.testing.assert_array_equal(out.data, [2.0, 3.0, 0.5])
        out.sum().backward()
        np.testing.assert_array_equal(x.grad, [-1.0, 1.0, -1.0])

    def test_split_shapes_and_grad(self):
        x = Tensor(RNG.standard_normal((6, 3)), requires_grad=True)
        parts = F.split(x, 3, axis=0)
        assert len(parts) == 3
        assert parts[0].shape == (2, 3)
        (parts[0].sum() + parts[2].sum() * 2.0).backward()
        np.testing.assert_allclose(x.grad[:2], 1.0)
        np.testing.assert_allclose(x.grad[2:4], 0.0)
        np.testing.assert_allclose(x.grad[4:], 2.0)

    def test_split_indivisible_raises(self):
        with pytest.raises(ValueError):
            F.split(Tensor(np.zeros((5, 2))), 2, axis=0)

    def test_tile_forward_and_grad(self):
        x = Tensor(RNG.standard_normal((2, 3)), requires_grad=True)
        out = F.tile(x, 3, axis=0)
        assert out.shape == (6, 3)
        out.sum().backward()
        np.testing.assert_allclose(x.grad, 3.0)

    def test_tile_invalid_reps(self):
        with pytest.raises(ValueError):
            F.tile(Tensor(np.zeros(2)), 0)
