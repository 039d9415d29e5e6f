import json
import os

import numpy as np
import pytest

from bench import workloads
from bench.speed import SpeedMeter
from bench.trace import Tracer
from repro.core.cache import clip_content_hash

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

#: Tiny sizes per workload, passed as function arguments.
TINY = {
    "serve-mixed": dict(base_clips=8, warmup=4, low=12, high=12, burst=8,
                        bursts=2, check_sample=8),
    "timeline": dict(videos=2, frames=48, passes=2),
    "mine-fleet": dict(clips=32, shard_size=16, passes=2, queries=12,
                       check_queries=4),
    "train": dict(clips=32, epochs=3),
}


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _live_children():
    """Pids of this process's children that are still running."""
    pids = []
    for task in os.listdir("/proc/self/task"):
        with open(f"/proc/self/task/{task}/children", encoding="ascii") as fh:
            pids += fh.read().split()
    return pids


def test_schedule_is_a_function_of_the_seed():
    phases = workloads.serve_phases(1.0, warmup=5, low=30, high=30,
                                    burst=20, bursts=2)
    first = workloads.serve_schedule(3, phases, base_clips=16)
    assert first == workloads.serve_schedule(3, phases, base_clips=16)
    assert first != workloads.serve_schedule(4, phases, base_clips=16)
    assert [r.phase for r in first].count("burst2") == 20
    assert all(r.offset == 0.0 for r in first if r.phase == "burst1")
    low = [r.offset for r in first if r.phase == "low"]
    assert low == sorted(low) and low[0] > 0.0


def test_fresh_clips_are_distinct_and_repeats_identical():
    phases = workloads.serve_phases(1.0, warmup=0, low=60, high=0,
                                    burst=0, bursts=0)
    schedule = workloads.serve_schedule(0, phases, base_clips=4)
    base = np.random.default_rng(0).random((4, 2, 3, 8, 8),
                                           dtype=np.float32)
    fresh_total = sum(not r.repeat for r in schedule)
    make = workloads.ClipMaker(0, base, fresh_total)
    again = workloads.ClipMaker(0, base, fresh_total)
    hashes = {}
    for request in schedule:
        clip = make(request)
        assert np.array_equal(clip, again(request))
        assert np.abs(clip - base[request.base]).max() < 1 / 255
        hashes.setdefault(request.fresh, set()).add(clip_content_hash(clip))
    assert any(r.repeat for r in schedule)
    assert all(len(h) == 1 for h in hashes.values())
    assert len(set.union(*hashes.values())) == fresh_total


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("workload", list(TINY))
def test_workload_emits_every_listed_metric(workload, trace, tmp_path,
                                            monkeypatch):
    benchmark = _benchmark()
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in benchmark[section]}
    # Host-speed samples are benchmark work: none may fall inside a span,
    # where it would count as time of the layer the span wraps.
    tracers, inside = [], []

    class SpyTracer(Tracer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tracers.append(self)

    def sample(meter):
        inside.extend(frame[2] for tracer in tracers
                      for frame in tracer._stack())
        return real_sample(meter)

    real_sample = SpeedMeter.sample
    monkeypatch.setattr(workloads, "Tracer", SpyTracer)
    monkeypatch.setattr(SpeedMeter, "sample", sample)
    record = workloads.run(workload, seed=0, seconds=1.0, trace=trace,
                           work_dir=str(tmp_path / "work"),
                           trace_path=str(tmp_path / "trace.json"),
                           setup_reps=2, prep_clips=16, prep_epochs=1,
                           **TINY[workload])
    assert inside == []
    assert len(tracers) == trace
    # Every process the run started has ended, helpers included: a
    # multiprocessing spawn would leave its resource tracker running.
    assert _live_children() == []
    result = record["result"]
    assert record["failures"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == expected
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())
    if trace:
        assert (tmp_path / "trace.json").exists()
    else:
        assert all(result["metrics"][m]["value"] > 0 for m in expected)
