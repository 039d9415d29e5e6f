"""End-to-end CLI smoke runs (``pytest -m smoke`` selects them).

Each test drives the real ``repro`` commands the way an operator would
and checks the cross-command invariants; they are part of the tier-1
suite, so a local ``pytest`` run proves what CI proves.
"""

import json

import pytest

from repro.cli import main
from repro.models import ModelConfig, build_model
from repro.obs import metrics

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
        assert doc["role"] == "replica"
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


def test_fault_burst_replays_from_event_log(trained, capsys):
    # A fault-injected burst recorded to the structured event log is
    # exactly reproducible from the log alone: `repro top
    # --from-events` accounts for every request per status and joins
    # every lifecycle enqueue -> terminal result by request id (see
    # docs/observability.md).
    root, data, model = trained
    events_dir = str(root / "obs-events")
    prom = root / "obs-metrics.prom"
    capsys.readouterr()
    assert main(["serve", "--data", data, "--checkpoint", model,
                 "--requests", "64", "--concurrency", "8",
                 "--max-wait-ms", "20", "--inject-failure-rate", "0.3",
                 "--allow-failures", "--events-dir", events_dir,
                 "--prometheus-out", str(prom), "--json"]) == 0
    serve = json.loads(capsys.readouterr().out)
    assert main(["top", "--from-events", events_dir, "--json"]) == 0
    top = json.loads(capsys.readouterr().out)

    assert top["schema"] == "repro.top/v1"
    served_statuses = {k: v for k, v in serve["statuses"].items() if v}
    assert top["requests"]["statuses"] == served_statuses
    assert top["requests"]["total"] == serve["requests"]
    assert top["requests"]["retried"] == serve["retried_requests"]
    life = top["lifecycles"]
    assert life["ids_seen"] == serve["requests"]
    assert life["fully_joined"], life
    exposition = prom.read_text()
    assert "serve_requests_total" in exposition
    assert "serve_batch_size_bucket" in exposition


def test_pool_worker_metrics_ship_home(trained, capsys):
    # The pool telemetry plane (docs/observability.md, "Pool telemetry
    # plane"): a fault-injected 3-worker burst leaves a merged
    # Prometheus exposition whose worker-labelled series agree per rank
    # with the parent's routed accounting, and the replicas' internal
    # cache activity is visible in the `repro top --from-events` replay
    # of the pool event log.
    root, data, model = trained
    events_dir = str(root / "tele-events")
    prom = root / "tele-metrics.prom"
    metrics.reset()  # the exposition must hold this burst alone
    capsys.readouterr()
    assert main(["serve", "--data", data, "--checkpoint", model,
                 "--workers", "3", "--requests", "48",
                 "--concurrency", "8", "--max-wait-ms", "20",
                 "--inject-failure-rate", "0.2", "--allow-failures",
                 "--events-dir", events_dir,
                 "--cache-dir", str(root / "tele-cache"),
                 "--telemetry-interval", "0.05",
                 "--prometheus-out", str(prom), "--json"]) == 0
    serve = json.loads(capsys.readouterr().out)
    assert main(["top", "--from-events", events_dir, "--json"]) == 0
    top = json.loads(capsys.readouterr().out)

    assert serve["silent_failures"] == 0, serve
    series = {}
    for line in prom.read_text().splitlines():
        if not line.startswith("#"):
            name, value = line.rsplit(" ", 1)
            series[name] = float(value)

    def rank_series(family, rank, *labels):
        return [value for name, value in series.items()
                if name.startswith(family) and f'worker="{rank}"' in name
                and all(label in name for label in labels)]

    routed = {}
    for rank in range(3):
        [routed[rank]] = rank_series("serve_pool_routed_total", rank)
        assert rank_series("telemetry_frames_total", rank)[0] >= 1
        # Worker-side per-status totals, shipped home and merged under
        # the rank's label, equal what the parent routed to that rank:
        # nothing lost, nothing doubled.
        shipped = sum(rank_series("serve_requests_total", rank))
        assert shipped == routed[rank], (rank, shipped, routed)
        # The merged batch-size histogram is internally consistent:
        # le="+Inf" equals _count.
        inf = rank_series("serve_batch_size_bucket", rank, 'le="+Inf"')
        count = rank_series("serve_batch_size_count", rank)
        assert inf and count and inf[0] == count[0], (inf, count)
    assert sum(routed.values()) \
        == serve["requests"] - serve["statuses"].get("shed", 0)
    # 48 requests cycle 12 distinct clips: the shipped shard-local
    # cache counters show hits pool-wide.
    assert sum(value for name, value in series.items()
               if name.startswith("cache_hit_total")
               and 'worker="' in name) > 0, "no worker cache activity"
    assert top["lifecycles"]["fully_joined"], top["lifecycles"]
    per_worker = top["pool"]["per_worker"]
    assert sorted(per_worker) == ["0", "1", "2"], per_worker
    assert sum(w["cache_hits"] + w["cache_misses"]
               for w in per_worker.values()) > 0, per_worker
    assert sum(w["forwards"] for w in per_worker.values()) > 0


def test_fleet_heartbeats_reach_ring_and_replay(trained, capsys):
    # A small mine leaves >= 1 fleet_progress heartbeat in the event
    # log with monotone clip counts and a final beat, and a readable
    # snapshot ring next to the store (docs/mining.md).
    root, _, model = trained
    corpus = str(root / "heartbeat-corpus")
    events_dir = str(root / "mine-events")
    assert main(["generate", "--clips", "16", "--frames", "4",
                 "--corpus-dir", corpus, "--shard-size", "4"]) == 0
    capsys.readouterr()
    assert main(["mine", "--corpus-dir", corpus, "--checkpoint", model,
                 "--events-dir", events_dir,
                 "--heartbeat-interval", "0.001", "--ego-action", "stop",
                 "--json"]) == 0
    mine = json.loads(capsys.readouterr().out)
    assert main(["top", "--from-events", events_dir, "--json"]) == 0
    fleet = json.loads(capsys.readouterr().out)["fleet"]

    with open(mine["telemetry_ring"], encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle]
    assert records, "empty telemetry ring"
    assert all(r["schema"] == "repro.telemetry/v1" for r in records)
    assert records[-1]["progress"]["final"], records[-1]
    clip_counts = [r["progress"]["clips_done"] for r in records]
    assert clip_counts == sorted(clip_counts)
    assert clip_counts[-1] == 16
    assert fleet is not None, "replay lost the fleet panel"
    assert fleet["heartbeats"] >= 1, fleet
    assert fleet["monotone"], fleet
    assert fleet["last"]["final"], fleet
    assert fleet["last"]["clips_done"] == 16, fleet


def test_drift_alert_and_canary_refusal(trained, capsys):
    # A burst with an injected mid-stream distribution shift trips the
    # drift detector, and a degraded canary checkpoint is refused by
    # the shadow gate with the serving model untouched — both live and
    # replayed from the event log alone (docs/observability.md,
    # "Quality monitoring & canary reloads").
    root, data, model = trained
    # An untrained, differently seeded checkpoint of the same shape:
    # reload() would accept it; only the canary can tell it apart.
    bad = str(root / "smoke-bad.npz")
    build_model("frame-mlp", ModelConfig(
        frames=4, dim=16, depth=1, num_heads=2, seed=7)).save(bad)
    events_dir = str(root / "quality-events")
    capsys.readouterr()
    assert main(["serve", "--data", data, "--checkpoint", model,
                 "--requests", "48", "--concurrency", "8",
                 "--max-wait-ms", "20", "--quality",
                 "--quality-window", "8", "--drift-reference", "12",
                 "--drift-window", "12", "--drift-min-samples", "6",
                 "--shift-after", "24", "--canary-checkpoint", bad,
                 "--events-dir", events_dir, "--allow-failures",
                 "--json"]) == 0
    quality = json.loads(capsys.readouterr().out)["quality"]
    assert main(["top", "--from-events", events_dir, "--json"]) == 0
    top = json.loads(capsys.readouterr().out)

    assert quality["windows"] >= 4, quality
    assert quality["drift_alerts"] >= 1, \
        "injected shift never tripped the drift detector"
    canary = quality["canary"]
    assert canary["attempted"], canary
    assert not canary["accepted"], "degraded canary was accepted"
    verdict = canary["verdict"]
    assert verdict["agreement"] < verdict["agreement_floor"], verdict
    assert canary["model_version_after"] \
        == canary["model_version_before"], \
        "refused canary still changed the serving model"
    replayed = top["quality"]
    assert replayed is not None, "event replay lost the quality panel"
    assert replayed["windows"] == quality["windows"]
    assert replayed["drift_alerts"] >= 1, replayed
    assert replayed["canary"]["refused"] == 1, replayed["canary"]
    assert top["lifecycles"]["fully_joined"], top["lifecycles"]
