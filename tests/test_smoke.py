"""End-to-end CLI smoke runs (``pytest -m smoke`` selects them).

Each test drives the real ``repro`` commands the way an operator would
and checks the cross-command invariants; they are part of the tier-1
suite, so a local ``pytest`` run proves what CI proves.
"""

import json

import pytest

from repro.cli import main

pytestmark = pytest.mark.smoke


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A 12-clip dataset and a frame-mlp checkpoint trained on it."""
    root = tmp_path_factory.mktemp("smoke")
    data = str(root / "smoke-data.npz")
    model = str(root / "smoke-model.npz")
    assert main(["generate", "--clips", "12", "--frames", "4",
                 "--out", data]) == 0
    assert main(["train", "--data", data, "--out", model,
                 "--model", "frame-mlp", "--dim", "16", "--depth", "1",
                 "--heads", "2", "--epochs", "1"]) == 0
    return root, data, model


def test_pool_burst_replays_from_event_log(trained, capsys):
    # A fault-injected burst through a 3-worker sharded pool accounts
    # for every request, reports a healthy repro.health/v1 rollup,
    # keeps each clip on the shard its content hash owns, and replays
    # exactly from the event log.
    root, data, model = trained
    events_dir = str(root / "pool-events")
    capsys.readouterr()
    assert main(["serve", "--data", data, "--checkpoint", model,
                 "--workers", "3", "--requests", "64",
                 "--concurrency", "8", "--max-wait-ms", "20",
                 "--inject-failure-rate", "0.2", "--allow-failures",
                 "--events-dir", events_dir,
                 "--cache-dir", str(root / "pool-cache"), "--json"]) == 0
    serve = json.loads(capsys.readouterr().out)
    assert main(["top", "--from-events", events_dir, "--json"]) == 0
    top = json.loads(capsys.readouterr().out)

    assert serve["schema"] == "repro.serve/v1"
    assert serve["workers"] == 3
    assert serve["silent_failures"] == 0
    assert sum(serve["statuses"].values()) == serve["requests"]
    assert serve["statuses"]["error"] == 0
    health = serve["health"]
    assert health["schema"] == "repro.health/v1"
    assert health["role"] == "pool"
    assert health["workers_up"] == 3
    assert sorted(health["workers"]) == ["0", "1", "2"]
    for doc in health["workers"].values():
        assert doc["schema"] == "repro.health/v1"
        assert doc["role"] == "service"
        assert doc["status"] == "ok"
    # 64 requests cycle 12 distinct clips, each owned by exactly one
    # shard: at most 12 entries pool-wide, and everything after a
    # shard's first sight of a clip (or a degraded, uncached answer)
    # is a shard-local hit.
    cache = health["cache"]
    assert cache["entries"] <= 12
    assert cache["hits"] >= serve["requests"] - 2 * 12

    assert top["schema"] == "repro.top/v1"
    life = top["lifecycles"]
    assert life["ids_seen"] == serve["requests"]
    assert life["fully_joined"]
    pool = top["pool"]
    assert pool is not None, "event replay lost the pool panel"
    assert pool["workers"] == 3
    per_worker = pool["per_worker"]
    assert sorted(per_worker) == ["0", "1", "2"]
    assert sum(w["routed"] for w in per_worker.values()) \
        == serve["requests"]
    assert not any(w["dead"] for w in per_worker.values())


def test_cache_rerun_is_pure_reuse(trained, capsys):
    # Populate the extraction cache, re-run, and require the re-run to
    # be pure cache: zero forward passes, full hit rate, bit-identical
    # exported records and mining hits (see docs/caching.md).
    root, data, model = trained
    runs = []
    for i in (1, 2):
        out = root / f"mine-run{i}.jsonl"
        capsys.readouterr()
        assert main(["mine", "--data", data, "--checkpoint", model,
                     "--out", str(out), "--cache-dir",
                     str(root / "smoke-cache"), "--ego-action", "stop",
                     "--json"]) == 0
        runs.append((json.loads(capsys.readouterr().out),
                     out.read_text()))
    (first, first_jsonl), (second, second_jsonl) = runs

    assert first["schema"] == "repro.mine/v1"
    assert first["extracted_clips"] == first["clips"], first["cache"]
    assert second["extracted_clips"] == 0, second["cache"]
    assert second["cache"]["hit_rate"] == 1.0, second["cache"]
    assert first_jsonl == second_jsonl, \
        "cached re-run changed the exported records"
    assert first["hits"] == second["hits"], \
        "cached re-run changed the mining hits"


def test_fleet_mining_resumes_and_repairs(trained, capsys):
    # Out-of-core mining resumability (docs/mining.md): mine a sharded
    # on-disk corpus, re-run (must skip every shard), then delete half
    # the per-shard stores and re-run again: only the deleted shards
    # may re-extract, and the results must be unchanged.
    root, _, model = trained
    corpus = root / "fleet-corpus"
    assert main(["generate", "--clips", "16", "--frames", "4",
                 "--corpus-dir", str(corpus), "--shard-size", "4"]) == 0

    def mine():
        capsys.readouterr()
        assert main(["mine", "--corpus-dir", str(corpus),
                     "--checkpoint", model, "--ego-action", "stop",
                     "--json"]) == 0
        return json.loads(capsys.readouterr().out)

    first = mine()
    second = mine()
    # Simulate partial store loss: drop half the shard stores.
    tags = sorted(corpus.glob("_fleet/*/*.tags.jsonl"))
    assert len(tags) == 4, tags
    for path in tags[:2]:
        path.unlink()
        path.with_name(path.name.replace(".tags.jsonl",
                                         ".vectors.npy")).unlink()
    third = mine()

    assert first["schema"] == "repro.mine/v1"
    assert first["fleet"]["shards_extracted"] == 4, first["fleet"]
    assert first["clips"] == 16, first
    # Full re-run: pure resume, zero forward passes.
    assert second["fleet"]["shards_extracted"] == 0, second["fleet"]
    assert second["fleet"]["shards_skipped"] == 4, second["fleet"]
    assert second["extracted_clips"] == 0, second
    # After deleting 2 stores: exactly those 2 re-extract.
    assert third["fleet"]["shards_extracted"] == 2, third["fleet"]
    assert third["fleet"]["shards_skipped"] == 2, third["fleet"]
    # Results never change across resume or repair.
    assert first["hits"], "the stop query matched nothing"
    assert first["hits"] == second["hits"] == third["hits"]
    assert first["top_criticality"] == second["top_criticality"] \
        == third["top_criticality"]
