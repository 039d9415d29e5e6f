"""Tests for the command-line interface."""

import argparse
import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core import ScenarioExtractor
from repro.data import SynthDriveDataset
from repro.models import ModelConfig, build_model


@pytest.fixture(scope="module")
def dataset_file(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cli") / "data.npz")
    code = main(["generate", "--clips", "12", "--frames", "4",
                 "--out", path])
    assert code == 0
    return path


@pytest.fixture(scope="module")
def checkpoint_file(dataset_file, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cli") / "model.npz")
    code = main(["train", "--data", dataset_file, "--out", path,
                 "--epochs", "1", "--model", "frame-mlp",
                 "--dim", "16", "--depth", "1", "--heads", "2"])
    assert code == 0
    return path


def _subcommands():
    action = next(a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return sorted(action.choices)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize("command", _subcommands())
    def test_subcommand_help(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: repro {command}")
        assert "deprecated" not in out.lower()

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--data", "x",
                                       "--out", "y", "--model", "gpt"])


class TestGenerate:
    def test_output_loadable(self, dataset_file):
        dataset = SynthDriveDataset.load(dataset_file)
        assert len(dataset) == 12
        assert dataset.videos.shape[1] == 4


class TestTrainExtractEvaluate:
    def test_extract_prints_sentences(self, dataset_file, checkpoint_file,
                                      capsys):
        # self-describing checkpoint: no model-shape flags needed
        code = main(["extract", "--data", dataset_file,
                     "--checkpoint", checkpoint_file, "--limit", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("clip ") == 3
        assert "ego vehicle" in out

    def test_extract_json_mode(self, dataset_file, checkpoint_file,
                               capsys):
        code = main(["extract", "--data", dataset_file,
                     "--checkpoint", checkpoint_file, "--limit", "1",
                     "--json"])
        assert code == 0
        out = capsys.readouterr().out
        payload = out.strip().splitlines()[1].strip()
        decoded = json.loads(payload)
        assert "ego_action" in decoded

    def test_evaluate_emits_metrics_json(self, dataset_file,
                                         checkpoint_file, capsys):
        code = main(["evaluate", "--data", dataset_file,
                     "--checkpoint", checkpoint_file])
        assert code == 0
        metrics = json.loads(capsys.readouterr().out)
        assert "ego_acc" in metrics
        assert 0.0 <= metrics["ego_acc"] <= 1.0


CONSUMERS = ["extract", "evaluate", "serve", "mine"]


class TestCheckpointOnlyConsumers:
    """Consumers take the architecture from the checkpoint alone."""

    @pytest.mark.parametrize("command", CONSUMERS)
    def test_shape_flags_rejected(self, command):
        # fp32 is the only inference precision: neither the CLI nor the
        # extractor takes a precision knob.
        for flag in (["--dim", "32"], ["--precision", "int8"]):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args([command, "--data", "x",
                                           "--checkpoint", "m.npz",
                                           *flag])
            assert exc.value.code == 2, flag
        model = build_model("vt-divided", ModelConfig(frames=4))
        with pytest.raises(TypeError):
            ScenarioExtractor(model, precision="fp32")

    def test_train_keeps_shape_flags(self):
        args = build_parser().parse_args(["train", "--data", "x",
                                          "--out", "y", "--model",
                                          "frame-mlp", "--dim", "16"])
        assert (args.model, args.dim) == ("frame-mlp", 16)

    @pytest.mark.parametrize("command", CONSUMERS)
    def test_weights_only_checkpoint_exits_2(self, command, dataset_file,
                                             tmp_path, capsys):
        # Regression: a checkpoint without metadata used to be loaded
        # into the historical default architecture.
        model = build_model("vt-divided", ModelConfig(frames=4))
        legacy = str(tmp_path / "legacy.npz")
        np.savez(legacy, **model.state_dict())
        argv = [command, "--data", dataset_file, "--checkpoint", legacy]
        if command == "mine":
            argv += ["--out", str(tmp_path / "records.jsonl")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "no self-describing metadata" in err
        assert "build_model" in err


class TestServe:
    def test_serve_burst_json_summary(self, dataset_file,
                                      checkpoint_file, capsys):
        code = main(["serve", "--data", dataset_file,
                     "--checkpoint", checkpoint_file,
                     "--requests", "16", "--concurrency", "8",
                     "--max-wait-ms", "20", "--json"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["schema"] == "repro.serve/v1"
        assert summary["statuses"]["ok"] == 16
        assert summary["silent_failures"] == 0
        assert summary["batches"]["max_size"] > 1
        assert summary["health"]["breaker"] == "closed"

    def test_serve_fault_injection_fully_accounted(self, dataset_file,
                                                   checkpoint_file,
                                                   capsys):
        code = main(["serve", "--data", dataset_file,
                     "--checkpoint", checkpoint_file,
                     "--requests", "24", "--concurrency", "8",
                     "--inject-failure-rate", "0.4",
                     "--allow-failures", "--json"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["silent_failures"] == 0
        assert sum(summary["statuses"].values()) == 24
        assert summary["statuses"]["error"] == 0

    def test_serve_metrics_export(self, dataset_file, checkpoint_file,
                                  tmp_path, capsys):
        out = str(tmp_path / "metrics.jsonl")
        code = main(["serve", "--data", dataset_file,
                     "--checkpoint", checkpoint_file,
                     "--requests", "4", "--metrics-out", out])
        assert code == 0
        with open(out, encoding="utf-8") as fh:
            names = {json.loads(line)["name"] for line in fh}
        assert "serve.requests" in names
        assert "serve.batch_size" in names


class TestTop:
    @pytest.mark.parametrize("follow", [
        [], ["--follow", "--iterations", "1", "--interval", "0"]],
        ids=["once", "follow"])
    def test_missing_event_log_exits_2(self, tmp_path, capsys, follow):
        missing = str(tmp_path / "no-such-log")
        assert main(["top", "--from-events", missing, *follow]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: no event log at {missing}\n"
        assert captured.out == ""
