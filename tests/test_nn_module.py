"""Tests for the module system: registration, modes, state dicts."""

import os

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor


def make_mlp(seed=0):
    rng = np.random.default_rng(seed)
    return nn.Sequential(
        nn.Linear(4, 8, rng=rng),
        nn.ReLU(),
        nn.Linear(8, 2, rng=rng),
    )


class TestRegistration:
    def test_parameters_discovered(self):
        mlp = make_mlp()
        # two Linears with weight+bias
        assert len(mlp.parameters()) == 4

    def test_named_parameters_unique_names(self):
        names = [n for n, _ in make_mlp().named_parameters()]
        assert len(names) == len(set(names))

    def test_nested_modulelist_discovered(self):
        class Net(nn.Module):
            def __init__(self):
                super().__init__()
                self.blocks = nn.ModuleList([nn.Linear(2, 2) for _ in range(3)])

        assert len(Net().parameters()) == 6

    def test_num_parameters(self):
        mlp = make_mlp()
        assert mlp.num_parameters() == 4 * 8 + 8 + 8 * 2 + 2

    def test_modules_iterates_submodules(self):
        mlp = make_mlp()
        kinds = [type(m).__name__ for m in mlp.modules()]
        assert kinds.count("Linear") == 2


class TestModes:
    def test_train_eval_propagates(self):
        class Net(nn.Module):
            def __init__(self):
                super().__init__()
                self.drop = nn.Dropout(0.5)

        net = Net()
        net.eval()
        assert not net.drop.training
        net.train()
        assert net.drop.training

    def test_dropout_inactive_in_eval(self):
        drop = nn.Dropout(0.9, rng=np.random.default_rng(0))
        drop.eval()
        x = Tensor(np.ones((10, 10)))
        np.testing.assert_array_equal(drop(x).data, x.data)

    def test_dropout_invalid_p(self):
        with pytest.raises(ValueError):
            nn.Dropout(1.0)


class TestStateDict:
    def test_roundtrip(self):
        a, b = make_mlp(seed=1), make_mlp(seed=2)
        b.load_state_dict(a.state_dict())
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_state_dict_is_copy(self):
        mlp = make_mlp()
        state = mlp.state_dict()
        first = next(iter(state))
        state[first] += 100.0
        assert not np.allclose(dict(mlp.named_parameters())[first].data,
                               state[first])

    def test_missing_key_raises(self):
        mlp = make_mlp()
        state = mlp.state_dict()
        state.pop(next(iter(state)))
        with pytest.raises(KeyError):
            mlp.load_state_dict(state)

    def test_unexpected_key_raises(self):
        mlp = make_mlp()
        state = mlp.state_dict()
        state["bogus"] = np.zeros(3)
        with pytest.raises(KeyError):
            mlp.load_state_dict(state)

    def test_shape_mismatch_raises(self):
        mlp = make_mlp()
        state = mlp.state_dict()
        first = next(iter(state))
        state[first] = np.zeros((1, 1), dtype=np.float32)
        with pytest.raises(ValueError):
            mlp.load_state_dict(state)

    def test_save_load_npz(self, tmp_path):
        a, b = make_mlp(seed=3), make_mlp(seed=4)
        path = str(tmp_path / "ckpt.npz")
        a.save(path)
        b.load(path)
        x = Tensor(np.random.default_rng(0).standard_normal((2, 4)))
        np.testing.assert_allclose(a(x).data, b(x).data, rtol=1e-6)

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path,
                                                   monkeypatch):
        # A save that dies mid-write (disk full, interrupt) must leave
        # the previous checkpoint loadable and no temp file behind.
        a, b = make_mlp(seed=3), make_mlp(seed=4)
        path = str(tmp_path / "ckpt.npz")
        a.save(path)

        def torn_savez(file, **arrays):
            handle = open(file, "wb") if isinstance(file, str) else file
            handle.write(b"PK\x03\x04 torn archive")
            raise OSError("simulated crash mid-save")

        monkeypatch.setattr(np, "savez", torn_savez)
        with pytest.raises(OSError, match="mid-save"):
            b.save(path)
        monkeypatch.undo()
        b.load(path)
        x = Tensor(np.random.default_rng(0).standard_normal((2, 4)))
        np.testing.assert_allclose(a(x).data, b(x).data, rtol=1e-6)
        assert sorted(os.listdir(tmp_path)) == ["ckpt.npz"]

    def test_zero_grad_clears(self):
        mlp = make_mlp()
        x = Tensor(np.ones((2, 4)))
        mlp(x).sum().backward()
        assert any(p.grad is not None for p in mlp.parameters())
        mlp.zero_grad()
        assert all(p.grad is None for p in mlp.parameters())


class TestSequential:
    def test_forward_order(self):
        seq = make_mlp()
        x = Tensor(np.random.default_rng(1).standard_normal((3, 4)))
        manual = seq[2](seq[1](seq[0](x)))
        np.testing.assert_allclose(seq(x).data, manual.data, rtol=1e-6)

    def test_len_getitem(self):
        seq = make_mlp()
        assert len(seq) == 3
        assert isinstance(seq[0], nn.Linear)

    def test_modulelist_forward_raises(self):
        with pytest.raises(RuntimeError):
            nn.ModuleList([nn.Linear(2, 2)])(None)
