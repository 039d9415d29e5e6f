"""Output pins for the ``repro`` commands that assemble services and
fleet indexes.

``repro mine`` stdout is compared byte for byte with the files under
``tests/golden/`` (temporary paths replaced by ``<root>``).  The model
is an untrained, seeded ``vt-divided`` checkpoint, so the pins depend
on no training run.  ``repro serve --json`` is pinned on its key set
and its deterministic fields.
"""

import json
import os
import threading

import pytest

from repro.cli import main
from repro.models import ModelConfig, build_model

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


@pytest.fixture(scope="module")
def pinned(tmp_path_factory):
    """A 12-clip dataset, the same clips as a 3-shard corpus, and a
    seeded untrained checkpoint."""
    root = tmp_path_factory.mktemp("pins")
    data = str(root / "data.npz")
    assert main(["generate", "--clips", "12", "--frames", "4",
                 "--out", data]) == 0
    assert main(["generate", "--clips", "12", "--frames", "4",
                 "--corpus-dir", str(root / "corpus"),
                 "--shard-size", "5"]) == 0
    model = build_model("vt-divided", ModelConfig(
        frames=4, dim=16, depth=1, num_heads=2, seed=3))
    checkpoint = str(root / "model.npz")
    model.save(checkpoint)
    return root, data, checkpoint


def _mine(capsys, root, argv):
    capsys.readouterr()
    assert main(["mine", *argv]) == 0
    return capsys.readouterr().out.replace(str(root), "<root>")


def _golden(name):
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as handle:
        return handle.read()


def mine_outputs(capsys, pinned):
    """The four pinned ``repro mine`` stdouts, keyed by golden name."""
    root, data, checkpoint = pinned
    query = ["--ego-action", "stop", "--actor", "pedestrian",
             "--top", "3", "--top-k", "4"]
    return {
        "mine-data.json": _mine(capsys, root, [
            "--data", data, "--checkpoint", checkpoint,
            "--out", str(root / "records.jsonl"), "--json", *query]),
        "mine-data.txt": _mine(capsys, root, [
            "--data", data, "--checkpoint", checkpoint,
            "--out", str(root / "records-cached.jsonl"),
            "--cache-dir", str(root / "cache"), *query]),
        # Cold pass, then a resumed pass that skips every shard.
        "mine-corpus.json": _mine(capsys, root, [
            "--corpus-dir", str(root / "corpus"),
            "--checkpoint", checkpoint, "--json", *query]),
        "mine-corpus.txt": _mine(capsys, root, [
            "--corpus-dir", str(root / "corpus"),
            "--checkpoint", checkpoint, *query]),
    }


def test_mine_output_is_pinned(pinned, capsys):
    for name, out in mine_outputs(capsys, pinned).items():
        assert out == _golden(name), name


SERVE_KEYS = {"schema", "requests", "workers", "concurrency", "elapsed_s",
              "served_clips_per_s", "statuses", "silent_failures",
              "retried_requests", "health"}
HEALTH_KEYS = {"schema", "role", "status", "ready", "queue_depth",
               "inflight", "breaker", "model_version", "precision",
               "uptime_s", "requests", "slo"}


@pytest.mark.parametrize("workers,extra_keys,extra_health_keys", [
    (1, {"batches"}, {"reuse"}),
    (2, set(), {"world_size", "workers", "workers_up", "outstanding"}),
])
def test_serve_json_is_pinned(pinned, capsys, workers, extra_keys,
                              extra_health_keys):
    root, data, checkpoint = pinned
    capsys.readouterr()
    assert main(["serve", "--data", data, "--checkpoint", checkpoint,
                 "--requests", "12", "--workers", str(workers),
                 "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert set(summary) == SERVE_KEYS | extra_keys
    assert set(summary["health"]) == HEALTH_KEYS | extra_health_keys
    assert summary["schema"] == "repro.serve/v1"
    assert summary["requests"] == 12
    assert summary["workers"] == workers
    assert summary["statuses"] == {"ok": 12, "degraded": 0, "shed": 0,
                                   "timeout": 0, "error": 0}
    assert summary["silent_failures"] == 0
    assert summary["health"]["precision"] == "fp32"


def test_prom_writer_stops_when_serve_raises(pinned, tmp_path):
    # A canary checkpoint of another clip length makes the reload raise
    # inside the burst; the Prometheus writer thread must not outlive
    # the command.
    _, data, checkpoint = pinned
    other = build_model("vt-divided", ModelConfig(
        frames=8, dim=16, depth=1, num_heads=2, seed=3))
    other_path = str(tmp_path / "other.npz")
    other.save(other_path)
    with pytest.raises(ValueError):
        main(["serve", "--data", data, "--checkpoint", checkpoint,
              "--requests", "4", "--prometheus-out",
              str(tmp_path / "serve.prom"),
              "--canary-checkpoint", other_path])
    writers = [thread for thread in threading.enumerate()
               if thread.name == "repro-prom-writer"]
    for thread in writers:
        thread.join(timeout=5.0)
    assert not any(thread.is_alive() for thread in writers)
