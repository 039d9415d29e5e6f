"""Wall-clock performance gates, run by ``pytest -m perf``.

The tier-1 command deselects them (``addopts`` in ``pyproject.toml``):
their bounds hold only on an otherwise idle machine with BLAS pinned to
one thread per process (``OMP_NUM_THREADS=1`` and friends), so that the
scaling under test is the pool's, not the BLAS thread pool's.  End-to-end
speed regressions are ``bench/compare.py``'s job (``bench/README.md``);
these tests bound properties the benchmark workloads do not isolate.
"""

import time

import numpy as np
import pytest

from repro.core import ScenarioExtractor
from repro.data import SynthDriveConfig, generate_dataset
from repro.models import ModelConfig, build_model
from repro.serve import ServiceClient, ServiceConfig
from repro.serve.pool import ServicePool
from repro.train import TrainConfig, Trainer

pytestmark = pytest.mark.perf


def _random_clips(cfg, n, seed):
    rng = np.random.default_rng(seed)
    return rng.random(
        (n, cfg.frames, cfg.channels, cfg.height, cfg.width)
    ).astype(np.float32)


def _pool_burst_seconds(model, clips, workers, telemetry_interval_s=0.25):
    """Wall time of one burst of distinct ``clips`` through a pool.

    Distinct content hashes spread evenly over the shards.  A warm-up
    burst pays each process's one-time numpy initialisation and is not
    timed.
    """
    config = ServiceConfig(max_batch=8, max_wait_s=0.002,
                           max_queue=len(clips))
    concurrency = min(len(clips), 32)
    with ServicePool(model, config, workers=workers,
                     telemetry_interval_s=telemetry_interval_s) as pool:
        client = ServiceClient(pool)
        client.extract_many(list(clips[:4 * workers]),
                            concurrency=concurrency)
        start = time.perf_counter()
        client.extract_many(list(clips), concurrency=concurrency)
        return time.perf_counter() - start


def test_pool_scales_near_linearly():
    """Pool-vs-pool throughput on a compute-bound transformer: >=1.7x at
    2 workers and >=2.4x at 4, against width 1 (IPC on both sides)."""
    model = build_model("vt-divided", ModelConfig(
        frames=8, dim=64, depth=2, num_heads=4))
    clips = _random_clips(model.config, 48, seed=1)
    seconds = {width: _pool_burst_seconds(model, clips, width)
               for width in (1, 2, 4)}
    speedup = {width: seconds[1] / seconds[width] for width in (2, 4)}
    print(f"pool speedup vs width 1: {speedup[2]:.2f}x @2, "
          f"{speedup[4]:.2f}x @4")
    assert speedup[2] >= 1.7, f"2-worker speedup {speedup[2]:.2f}x < 1.7x"
    assert speedup[4] >= 2.4, f"4-worker speedup {speedup[4]:.2f}x < 2.4x"


def test_telemetry_shipping_costs_under_five_percent():
    """The same 2-worker burst with worker telemetry shipping at 0.25 s
    vs off; best of four seeds to shrug off machine noise."""
    model = build_model("frame-mlp", ModelConfig(
        frames=4, dim=16, depth=1, num_heads=2))
    ratios = []
    for seed in range(4):
        clips = _random_clips(model.config, 32, seed=seed)
        off = _pool_burst_seconds(model, clips, 2, telemetry_interval_s=None)
        on = _pool_burst_seconds(model, clips, 2, telemetry_interval_s=0.25)
        ratios.append(on / off)
    print("telemetry overhead ratios:", [round(r, 3) for r in ratios])
    assert min(ratios) < 1.05, \
        f"telemetry shipping overhead {min(ratios):.3f} >= 1.05"


def test_sliding_reuse_pays_and_stays_bit_identical():
    """Memoized sliding extraction on a trained factorized transformer at
    stride = window / 4: >=1.5x faster than naive and bit-identical."""
    dataset = generate_dataset(SynthDriveConfig(num_clips=48, frames=8,
                                                seed=0))
    model = build_model("vt-factorized", ModelConfig(
        frames=8, dim=48, depth=2, num_heads=4, seed=0))
    Trainer(model, TrainConfig(epochs=2, batch_size=16, seed=0)).fit(dataset)
    cfg = model.config
    window, stride = cfg.frames, cfg.frames // 4
    video = np.random.default_rng(0).random(
        (192, cfg.channels, cfg.height, cfg.width)).astype(np.float32)

    def timed(reuse):
        # Fresh extractors so no run starts with a warm frame memo.
        ScenarioExtractor(model).extract_sliding(video, window, stride,
                                                 reuse=reuse)
        extractor = ScenarioExtractor(model)
        start = time.perf_counter()
        results = extractor.extract_sliding(video, window, stride,
                                            reuse=reuse)
        return time.perf_counter() - start, results

    naive_s, naive = timed(reuse=False)
    memo_s, memoized = timed(reuse=True)
    print(f"sliding reuse speedup: {naive_s / memo_s:.2f}x")
    assert [(r.description, r.sentence, r.confidences, r.frame_range,
             r.tag_confidences) for r in memoized] \
        == [(r.description, r.sentence, r.confidences, r.frame_range,
             r.tag_confidences) for r in naive]
    assert naive_s / memo_s >= 1.5, \
        f"sliding reuse speedup {naive_s / memo_s:.2f}x < 1.5x"
