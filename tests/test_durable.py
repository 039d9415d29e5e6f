"""Durability of every persisted artifact (``repro.durable``).

Unit cases pin the module's primitives.  The crash-injection case kills
a child process at every write boundary of a fleet mine + export (right
before and right after each atomic publish, at the first, a middle and
the last record append, and halfway through one append), resumes in the
same directories, and checks the recovery invariants of
``docs/architecture.md`` ("Durability").
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import types

import numpy as np
import pytest

from repro import durable
from repro.core import ExtractionCache, ScenarioExtractor, fleet
from repro.core.export import export_corpus
from repro.data import SynthDriveConfig, generate_dataset
from repro.core.pipeline import ExtractionResult
from repro.durable import Appender, atomic_open, read_records, torn_tail
from repro.models import ModelConfig, build_model
from repro.obs import events as obs_events
from repro.obs import metrics
from repro.obs.events import EventLog, read_event_log, read_events
from repro.sdl import ScenarioDescription

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# vt-divided is bitwise batch-size invariant, so a resumed pass that
# re-extracts part of a shard reproduces the clean run exactly.
CFG = ModelConfig(frames=4, height=16, width=16, dim=16, depth=1,
                  num_heads=2, dropout=0.0)

#: Exit status of a child killed at its kill point.
KILLED = 17


# ----------------------------------------------------------------------
# Primitives
class TestPrimitives:
    def test_interleaved_publishers_each_publish_whole(self, tmp_path):
        # Two publishers of one path racing: with one shared temp name
        # the second truncates the first's temp file and the result is
        # a mix.  Unique temp names make the last replace win whole.
        path = tmp_path / "artifact.txt"
        with atomic_open(path) as first:
            first.write("A" * 1000)
            with atomic_open(path) as second:
                second.write("B" * 10)
            assert path.read_text() == "B" * 10
            first.write("A" * 1000)
        assert path.read_text() == "A" * 2000
        assert sorted(os.listdir(tmp_path)) == ["artifact.txt"]

    def test_failed_publish_keeps_previous_file(self, tmp_path):
        path = tmp_path / "artifact.bin"
        durable.atomic_write(path, b"old")
        with pytest.raises(RuntimeError):
            with atomic_open(path, "wb") as handle:
                handle.write(b"partial")
                raise RuntimeError("crash mid-write")
        assert path.read_bytes() == b"old"
        assert sorted(os.listdir(tmp_path)) == ["artifact.bin"]

    def test_appender_and_torn_tail(self, tmp_path):
        path = str(tmp_path / "sub" / "log.jsonl")
        appender = Appender(path)
        appender.write('{"n": 1}\n')
        appender.write(b'{"n": 2}\n')
        # Write-through: a reader sees each record at once.
        assert list(read_records(path)) == [{"n": 1}, {"n": 2}]
        assert not torn_tail(path)
        appender.write('{"n": 3')
        assert torn_tail(path)
        appender.close()
        open(str(tmp_path / "empty"), "w").close()
        assert not torn_tail(str(tmp_path / "empty"))

    def test_read_records_strict_and_tolerant(self, tmp_path):
        path = str(tmp_path / "records.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"n": 1}\n\n{torn\n{"n": 3}\n{"m": 4}\n')
        with pytest.raises(json.JSONDecodeError):
            list(read_records(path))
        bad = []
        records = read_records(path, parse=lambda r: r["n"],
                               on_corrupt=lambda lineno, exc:
                               bad.append((lineno, type(exc))))
        assert list(records) == [1, 3]
        assert bad == [(3, json.JSONDecodeError), (5, KeyError)]


# ----------------------------------------------------------------------
# Crash injection
def _patch_primitives(kill=None):
    """Route ``repro.durable``'s ``os.replace`` / ``os.write`` through a
    recorder; at ``kill`` (``[kind, index, when]``) exit the process.

    Returns the write boundaries seen, in order: ``("replace", dst)``
    and ``("write", (data, into_empty_file))``.
    """
    seen = []
    counts = {"replace": 0, "write": 0}
    proxy = types.ModuleType("os")
    proxy.__dict__.update(os.__dict__)

    def boundary(kind, payload):
        counts[kind] += 1
        seen.append((kind, payload))

    def hit(kind, when):
        return kill == [kind, counts[kind] - 1, when]

    def replace(src, dst):
        boundary("replace", os.fspath(dst))
        if hit("replace", "before"):
            os._exit(KILLED)
        os.replace(src, dst)
        if hit("replace", "after"):
            os._exit(KILLED)

    def write(fd, data):
        boundary("write", (bytes(data), os.fstat(fd).st_size == 0))
        if hit("write", "before"):
            os._exit(KILLED)
        if hit("write", "half"):
            os.write(fd, data[:len(data) // 2])
            os._exit(KILLED)
        written = os.write(fd, data)
        if hit("write", "after"):
            os._exit(KILLED)
        return written

    proxy.replace = replace
    proxy.write = write
    durable.os = proxy
    return seen


def _workload(dirs, extractor, on_forward):
    """Mine the corpus (disk cache, active event log with small
    segments, the store's telemetry ring), then re-export over the
    existing export file; ``on_forward(n)`` after each forward pass.
    Returns the hits, the top criticality, the cache and the log."""
    real = extractor.extract_batch

    def counted(clips, batch_size=None):
        results = real(clips, batch_size=batch_size)
        on_forward(len(clips))
        return results

    extractor.extract_batch = counted
    log = EventLog(dirs["events"], rotate_bytes=2048)
    previous = obs_events.set_active(log)
    try:
        cache = ExtractionCache(dirs["cache"])
        hits, _ = fleet.mine_corpus(
            extractor, dirs["corpus"], store_dir=dirs["store"],
            cache=cache, heartbeat_s=60.0, ego_action="stop")
        index = fleet.FleetIndex.open(dirs["corpus"], extractor,
                                      store_dir=dirs["store"])
        clips = np.concatenate([
            fleet.load_shard(dirs["corpus"], shard)[0]
            for shard in fleet.corpus_shards(dirs["corpus"])])
        export_corpus(extractor, clips, dirs["export"], cache=cache)
    finally:
        obs_events.set_active(previous)
        del extractor.extract_batch
    return {"hits": hits, "top": fleet.top_criticality(index, 5),
            "cache": cache, "log": log}


def _child_main():
    """Entry point of the killed child: ``python -c`` with the run's
    directories and kill point as one JSON argument.  Forward passes
    are logged to ``forwards.log``, which outlives the kill."""
    spec = json.loads(sys.argv[1])
    log = os.path.join(spec["dirs"]["base"], "forwards.log")

    def on_forward(n):
        with open(log, "a") as handle:
            handle.write(f"{n}\n")

    _patch_primitives(spec["kill"])
    extractor = ScenarioExtractor(build_model("vt-divided", CFG))
    _workload(spec["dirs"], extractor, on_forward)
    os._exit(0)


@pytest.fixture(scope="module")
def crash_setup(tmp_path_factory):
    """A 4-shard x 4-clip corpus, the old export, and a clean run."""
    root = tmp_path_factory.mktemp("durable")
    dataset = generate_dataset(SynthDriveConfig(
        num_clips=16, frames=4, height=16, width=16, seed=11,
        families=("free-drive", "pedestrian-crossing", "lead-brake")))
    corpus = str(root / "corpus")
    fleet.write_corpus(dataset.videos, corpus, shard_size=4)
    extractor = ScenarioExtractor(build_model("vt-divided", CFG))
    old_export = root / "old.jsonl"
    export_corpus(extractor, dataset.videos[:6], str(old_export))

    clean_dirs = _run_dirs(root / "clean", corpus, old_export)
    real_os = durable.os
    forwards = []
    try:
        boundaries = _patch_primitives()
        clean = _workload(clean_dirs, extractor, forwards.append)
    finally:
        durable.os = real_os
    assert sum(forwards) == 16
    clean["export"] = pathlib.Path(clean_dirs["export"]).read_bytes()
    clean["old_export"] = old_export.read_bytes()
    assert clean["export"] != clean["old_export"]
    return root, corpus, extractor, boundaries, clean


def _run_dirs(base, corpus, old_export):
    os.makedirs(base / "out")
    (base / "out" / "corpus.jsonl").write_bytes(old_export.read_bytes())
    return {"base": str(base), "corpus": corpus,
            "store": str(base / "store"),
            "cache": str(base / "cache"), "events": str(base / "events"),
            "export": str(base / "out" / "corpus.jsonl")}


def _kill_points(boundaries):
    """Before/after every publish; before/after the first, a middle and
    the last append; halfway through a middle cache and a middle event
    append; and before the first append after an event-log rotation."""
    replaces = sum(1 for kind, _ in boundaries if kind == "replace")
    writes = [payload for kind, payload in boundaries if kind == "write"]
    points = [["replace", i, when] for i in range(replaces)
              for when in ("before", "after")]
    for i in (0, len(writes) // 2, len(writes) - 1):
        points += [["write", i, "before"], ["write", i, "after"]]
    cache = [i for i, (data, _) in enumerate(writes)
             if b"repro.cache/v1" in data]
    events = [i for i, (data, _) in enumerate(writes)
              if b"repro.events/v1" in data]
    points += [["write", cache[len(cache) // 2], "half"],
               ["write", events[len(events) // 2], "half"]]
    rotated = [i for i in events[1:] if writes[i][1]]
    assert rotated, "the workload never rotated its event log"
    points.append(["write", rotated[0], "before"])
    return points, writes


def test_crash_at_every_write_boundary_recovers(crash_setup, tmp_path):
    root, corpus, extractor, boundaries, clean = crash_setup
    points, writes = _kill_points(boundaries)
    published = {dst for kind, dst in boundaries if kind == "replace"}
    # Every artifact of the workload is on a boundary.
    assert {os.path.basename(p) for p in published} >= {
        "shard-0000.vectors.npy", "shard-0003.tags.jsonl",
        "manifest.json", "telemetry.jsonl", "corpus.jsonl"}

    # Two children at a time; each crashed run is then resumed here.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT]))
    for start in range(0, len(points), 2):
        runs = []
        for n, kill in enumerate(points[start:start + 2], start=start):
            dirs = _run_dirs(tmp_path / f"run{n:02d}", corpus,
                             root / "old.jsonl")
            runs.append((kill, dirs, subprocess.Popen(
                [sys.executable, "-c",
                 "from tests.test_durable import _child_main; "
                 "_child_main()",
                 json.dumps({"dirs": dirs, "kill": kill})],
                cwd=ROOT, env=env)))
        for kill, dirs, child in runs:
            assert child.wait(timeout=120) == KILLED, kill
            _check_recovery(kill, dirs, extractor, clean, writes)


def _check_recovery(kill, dirs, extractor, clean, writes):
    # The previous export survives intact until the new one is whole.
    export = pathlib.Path(dirs["export"])
    assert export.read_bytes() in (clean["old_export"], clean["export"]), kill
    before = [e["seq"] for e in read_event_log(dirs["events"])]
    leftovers = [name for _, _, files in os.walk(dirs["base"])
                 for name in files if name.endswith(".tmp")]
    if kill[0] == "replace" and kill[2] == "before":
        assert leftovers, kill  # resumed readers must step over these

    forwards = []
    resumed = _workload(dirs, extractor, forwards.append)
    assert resumed["hits"] == clean["hits"], kill
    assert resumed["top"] == clean["top"], kill
    assert export.read_bytes() == clean["export"], kill
    # Across crash and resume, only clips of the shard in flight may be
    # forwarded twice.
    log = pathlib.Path(dirs["base"], "forwards.log")
    crashed = (sum(map(int, log.read_text().split())) if log.exists()
               else 0)
    assert 0 <= crashed + sum(forwards) - 16 <= 4, (kill, crashed,
                                                    forwards)

    torn = kill[2] == "half"
    torn_cache = torn and b"repro.cache/v1" in writes[kill[1]][0]
    assert resumed["cache"].corrupt == int(torn_cache), kill
    # The resumed appends did not land on a torn line.
    reloaded = ExtractionCache(dirs["cache"])
    assert (len(reloaded), reloaded.corrupt) == (16, int(torn_cache)), kill
    corrupt = metrics.counter("events.corrupt")
    start = corrupt.value
    events = read_event_log(dirs["events"])
    assert corrupt.value - start == int(torn and not torn_cache), kill
    # seq strictly increases across the restart, and every event the
    # resumed pass emitted is readable after the pre-crash ones.
    seqs = [e["seq"] for e in events]
    assert seqs == sorted(set(seqs)), kill
    assert seqs[:len(before)] == before, kill
    emitted = resumed["log"].stats()["events"]
    assert len(seqs) == len(before) + emitted > len(before), kill


# ----------------------------------------------------------------------
# Corpus writer
#: Source rows of the killed corpus writer: 3 shards of 2, 2 and 1 clips.
CORPUS_SHARD_SIZE = 2
CORPUS_FAMILIES = ["free-drive", "lead-brake", "free-drive",
                   "pedestrian-crossing", "lead-brake"]


def _corpus_rows():
    rng = np.random.default_rng(5)
    return rng.random((len(CORPUS_FAMILIES), 2, 3, 4, 4), dtype=np.float32)


def _write_corpus(corpus_dir):
    return fleet.write_corpus(_corpus_rows(), corpus_dir,
                              shard_size=CORPUS_SHARD_SIZE,
                              families=CORPUS_FAMILIES)


def _corpus_child_main():
    """Entry point of a corpus writer killed at one write boundary:
    ``python -c`` with the corpus directory and the kill point as one
    JSON argument."""
    spec = json.loads(sys.argv[1])
    _patch_primitives(spec["kill"])
    _write_corpus(spec["corpus"])
    os._exit(0)


def test_write_corpus_crash_leaves_whole_shards(tmp_path):
    real_os = durable.os
    try:
        boundaries = _patch_primitives()
        _write_corpus(str(tmp_path / "clean"))
    finally:
        durable.os = real_os
    # Per shard, families.json is published before clips.npy.
    published = [os.path.relpath(dst, tmp_path / "clean")
                 for kind, dst in boundaries if kind == "replace"]
    assert published == [
        os.path.join(f"shard-{i:04d}", name) for i in range(3)
        for name in ("families.json", "clips.npy")]
    points = [["replace", i, when] for i in range(len(published))
              for when in ("before", "after")]

    rows = _corpus_rows()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT]))
    for start in range(0, len(points), 2):
        runs = []
        for n, kill in enumerate(points[start:start + 2], start=start):
            corpus = str(tmp_path / f"run{n:02d}")
            runs.append((kill, corpus, subprocess.Popen(
                [sys.executable, "-c",
                 "from tests.test_durable import _corpus_child_main; "
                 "_corpus_child_main()",
                 json.dumps({"corpus": corpus, "kill": kill})],
                cwd=ROOT, env=env)))
        for kill, corpus, child in runs:
            assert child.wait(timeout=120) == KILLED, kill
            # A shard is whole once its clips.npy is published.
            published_clips = (kill[1] + (kill[2] == "after")) // 2
            whole = 0
            for shard in fleet.corpus_shards(corpus):
                clips, families = fleet.load_shard(corpus, shard)
                if "clips.npy" not in os.listdir(
                        os.path.join(corpus, shard)):
                    assert len(clips) == 0 and families == [], kill
                    continue
                first = int(shard[len("shard-"):]) * CORPUS_SHARD_SIZE
                want = slice(first, first + CORPUS_SHARD_SIZE)
                assert np.array_equal(np.array(clips), rows[want]), kill
                assert families == CORPUS_FAMILIES[want], kill
                whole += 1
            assert whole == published_clips, kill


# ----------------------------------------------------------------------
# Held descriptors
#: A child that emits ``argv[2]`` events into ``argv[1]``, reports, and
#: waits to be killed.
_EMITTER = """
import sys
from repro.obs.events import EventLog
log = EventLog(sys.argv[1])
for i in range(int(sys.argv[2])):
    log.emit("tick", request_id=i)
print("ready", flush=True)
sys.stdin.read()
"""


def _result(ego):
    description = ScenarioDescription("straight-road", ego, frozenset(),
                                      frozenset())
    return ExtractionResult(description=description,
                            sentence=description.to_sentence(),
                            confidences={"scene": 0.9}, frame_range=(0, 4))


class TestHeldDescriptors:
    def test_sigkill_between_appends_keeps_every_record(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        child = subprocess.Popen(
            [sys.executable, "-c", _EMITTER, str(tmp_path), "40"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
            text=True)
        try:
            assert child.stdout.readline() == "ready\n"
            os.kill(child.pid, signal.SIGKILL)
            assert child.wait(timeout=30) == -signal.SIGKILL
        finally:
            if child.poll() is None:
                child.kill()
            child.stdin.close()
            child.stdout.close()
        corrupt = metrics.counter("events.corrupt")
        start = corrupt.value
        lines = (tmp_path / "events.jsonl").read_text().split("\n")
        assert lines[-1] == ""  # no torn tail
        assert [json.loads(line)["seq"] for line in lines[:-1]] \
            == list(range(1, 41))
        reopened = EventLog(str(tmp_path))
        assert reopened.emit("tick")["seq"] == 41
        assert [e["seq"] for e in read_event_log(str(tmp_path))] \
            == list(range(1, 42))
        assert corrupt.value == start

    def test_emit_after_rotation_lands_in_new_segment(self, tmp_path):
        log = EventLog(str(tmp_path), rotate_bytes=1024)
        while log.stats()["rotations"] == 0:
            log.emit("tick")
        log.emit("marker")
        # The record that crossed the threshold opened the new segment.
        assert [e["event"] for e in read_events(log.path)] \
            == ["tick", "marker"]
        rotated = list(read_events(str(tmp_path / "events-000001.jsonl")))
        assert {e["event"] for e in rotated} == {"tick"}
        assert [e["seq"] for e in read_event_log(str(tmp_path))] \
            == list(range(1, len(rotated) + 3))

    def test_cache_put_after_eviction_and_clear_persists(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        unbounded = ExtractionCache(cache_dir)
        for key, ego in (("a", "stop"), ("b", "decelerate"),
                         ("c", "accelerate")):
            unbounded.put(key, _result(ego))
        # Eviction at load compacts the file, then a put appends.
        cache = ExtractionCache(cache_dir, max_entries=2)
        assert cache.evictions == 1
        cache.put("d", _result("turn-left"))
        fresh = ExtractionCache(cache_dir)
        assert (len(fresh), fresh.corrupt) == (2, 0)
        assert "c" in fresh and fresh.get("d") == _result("turn-left")
        # Eviction on put compacts too.
        cache.put("e", _result("turn-right"))
        cache.put("f", _result("stop"))
        fresh = ExtractionCache(cache_dir)
        assert (len(fresh), fresh.corrupt) == (2, 0)
        assert "e" in fresh and "f" in fresh
        cache.clear()
        cache.put("g", _result("decelerate"))
        fresh = ExtractionCache(cache_dir)
        assert (len(fresh), fresh.corrupt) == (1, 0)
        assert fresh.get("g") == _result("decelerate")
