"""Tests for corpus export (JSONL) and the attention-pooling option."""

import json

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.core import ScenarioExtractor
from repro.core.export import export_corpus, load_corpus, result_to_record
from repro.data import SynthDriveConfig, generate_dataset
from repro.models import ModelConfig, build_model

CFG = ModelConfig(frames=4, height=16, width=16, dim=16, depth=1,
                  num_heads=2, dropout=0.0)


@pytest.fixture(scope="module")
def corpus_setup():
    dataset = generate_dataset(SynthDriveConfig(
        num_clips=8, frames=4, height=16, width=16, seed=12,
        families=("free-drive", "lead-brake"),
    ))
    model = build_model("frame-mlp", CFG)
    return ScenarioExtractor(model), dataset


class TestExport:
    def test_jsonl_roundtrip(self, corpus_setup, tmp_path):
        extractor, dataset = corpus_setup
        path = str(tmp_path / "corpus.jsonl")
        records = export_corpus(extractor, dataset.videos, path,
                                families=dataset.families)
        assert len(records) == 8
        loaded = load_corpus(path)
        assert loaded == sorted(records, key=lambda r: r["clip_id"])

    def test_record_fields(self, corpus_setup):
        extractor, dataset = corpus_setup
        result = extractor.extract(dataset.videos[0])
        record = result_to_record(3, result, family="lead-brake")
        assert record["clip_id"] == 3
        assert record["family"] == "lead-brake"
        assert 0.0 <= record["criticality"] <= 1.0
        assert "ego_action" in record["description"]

    def test_export_without_file(self, corpus_setup):
        extractor, dataset = corpus_setup
        records = export_corpus(extractor, dataset.videos[:2], path=None)
        assert len(records) == 2

    def test_load_rejects_bad_vocabulary(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        bad = {"clip_id": 0, "description": {
            "scene": "moon", "ego_action": "hover",
            "actors": [], "actor_actions": [],
        }}
        with open(path, "w") as f:
            f.write(json.dumps(bad) + "\n")
        with pytest.raises(ValueError):
            load_corpus(path)

    def test_load_skips_blank_lines(self, corpus_setup, tmp_path):
        extractor, dataset = corpus_setup
        path = str(tmp_path / "corpus.jsonl")
        export_corpus(extractor, dataset.videos[:2], path)
        with open(path, "a") as f:
            f.write("\n\n")
        assert len(load_corpus(path)) == 2

    def test_chunked_export_matches_one_shot(self, corpus_setup,
                                             tmp_path):
        extractor, dataset = corpus_setup
        one = str(tmp_path / "one.jsonl")
        chunked = str(tmp_path / "chunked.jsonl")
        export_corpus(extractor, dataset.videos, one,
                      families=dataset.families)
        export_corpus(extractor, dataset.videos, chunked,
                      families=dataset.families, chunk_size=3)
        assert load_corpus(chunked) == load_corpus(one)

    def test_crash_mid_export_preserves_previous_file(self, corpus_setup,
                                                      tmp_path,
                                                      monkeypatch):
        extractor, dataset = corpus_setup
        path = str(tmp_path / "corpus.jsonl")
        export_corpus(extractor, dataset.videos[:4], path)
        before = load_corpus(path)

        real = extractor.extract_batch
        calls = {"n": 0}

        def crash_on_second(clips, batch_size=None):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise RuntimeError("simulated export crash")
            return real(clips, batch_size=batch_size)

        monkeypatch.setattr(extractor, "extract_batch", crash_on_second)
        with pytest.raises(RuntimeError, match="export crash"):
            export_corpus(extractor, dataset.videos, path, chunk_size=3)
        # The interrupted run never truncated the published file and
        # left no partial temp file behind.
        assert load_corpus(path) == before
        assert not list(tmp_path.glob("*.tmp"))

    def test_failed_first_export_leaves_nothing(self, corpus_setup,
                                                tmp_path, monkeypatch):
        extractor, dataset = corpus_setup
        path = str(tmp_path / "fresh.jsonl")

        def always_crash(clips, batch_size=None):
            raise RuntimeError("boom")

        monkeypatch.setattr(extractor, "extract_batch", always_crash)
        with pytest.raises(RuntimeError):
            export_corpus(extractor, dataset.videos, path, chunk_size=2)
        assert not (tmp_path / "fresh.jsonl").exists()
        assert not list(tmp_path.glob("*.tmp"))


class TestAttentionPooling:
    def test_config_validates_pool(self):
        with pytest.raises(ValueError):
            ModelConfig(pool="max")

    def test_attention_pool_forward_shape(self):
        cfg = ModelConfig(frames=4, height=16, width=16, dim=16, depth=1,
                          num_heads=2, dropout=0.0, pool="attention")
        model = build_model("vt-divided", cfg)
        x = Tensor(np.random.default_rng(0).random(
            (2, 4, 3, 16, 16)).astype(np.float32))
        assert model.feature(x).shape == (2, 16)

    def test_attention_pool_grads(self):
        cfg = ModelConfig(frames=4, height=16, width=16, dim=16, depth=1,
                          num_heads=2, dropout=0.0, pool="attention")
        model = build_model("vt-divided", cfg)
        x = Tensor(np.random.default_rng(0).random(
            (1, 4, 3, 16, 16)).astype(np.float32))
        out = model(x)
        loss = None
        for v in out.values():
            term = (v * v).mean()
            loss = term if loss is None else loss + term
        loss.backward()
        assert model.pool_query.grad is not None

    def test_pool_modes_differ(self):
        base = dict(frames=4, height=16, width=16, dim=16, depth=1,
                    num_heads=2, dropout=0.0)
        mean_model = build_model("vt-divided", ModelConfig(**base))
        attn_model = build_model("vt-divided",
                                 ModelConfig(**base, pool="attention"))
        mean_model.eval(), attn_model.eval()
        x = Tensor(np.random.default_rng(1).random(
            (1, 4, 3, 16, 16)).astype(np.float32))
        assert not np.allclose(mean_model.feature(x).data,
                               attn_model.feature(x).data)


class TestCLIMine:
    def test_mine_command(self, tmp_path, capsys):
        from repro.cli import main

        data_path = str(tmp_path / "data.npz")
        ckpt_path = str(tmp_path / "model.npz")
        out_path = str(tmp_path / "corpus.jsonl")
        assert main(["generate", "--clips", "6", "--frames", "4",
                     "--out", data_path]) == 0
        assert main(["train", "--data", data_path, "--out", ckpt_path,
                     "--epochs", "1", "--model", "frame-mlp",
                     "--dim", "16", "--depth", "1", "--heads", "2"]) == 0
        capsys.readouterr()
        assert main(["mine", "--data", data_path,
                     "--checkpoint", ckpt_path, "--out", out_path,
                     "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "wrote 6 records" in out
        assert out.count("crit=") == 2
        assert len(load_corpus(out_path)) == 6
