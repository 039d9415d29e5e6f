"""Span tracer for the benchmark's traced runs.

:meth:`Tracer.install` monkeypatches the public entry points of each
layer (listed in :data:`TARGETS`) with wrappers that record a span per
call; :meth:`Tracer.uninstall` restores the originals.  Nothing inside
``src/`` is edited: the spans sit around the calls into each layer.

A span records its name, start, end, parent span, pid, thread and the
operation (request or pass) the calling thread was working on.  Self
time is the span's duration minus the part its child spans cover; spans
of one thread nest, so that part is the sum of the children's
durations.  In the installing process spans are recorded only while
:attr:`Tracer.active` is set (the measured section, not set-up or
checks); forked processes always record.

Every span also adds its call count, inclusive and self seconds to
``bench.span_*{span=<name>}`` counters in the process's
``repro.obs.metrics`` registry.  Serving-pool workers fork with the
wrappers in place, and the pool's telemetry plane ships those counters
home under ``worker=<rank>``, so :meth:`Tracer.totals` read after the
pool stops covers the workers too.  Span records themselves stay in the
process that installed the tracer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.registry import get_registry

#: Registry series the wrappers feed (summed over every label set).
CALLS = "bench.span_calls"
INCLUSIVE = "bench.span_seconds"
SELF = "bench.span_self_seconds"
ITEMS = "bench.items"


def _attention(args) -> str:
    return "nn.attention." + args[0].span_name.rsplit("/", 1)[-1]


def _batch_rows(args) -> int:
    return int(args[1].shape[0])


#: ``(module, attribute path, span name, item counter)``.  The span name
#: is a string or a function of the call's positional arguments; the
#: item counter (clips or windows through a model head) normalises the
#: per-clip nn times.  ``DataLoader.__iter__`` gets one span per batch.
TARGETS: Tuple[Tuple[str, str, object, Optional[Callable]], ...] = (
    ("repro.serve.pool", "ServicePool.submit", "serve.pool_submit", None),
    ("repro.serve.service", "ExtractionService.submit",
     "serve.service_submit", None),
    ("repro.core.cache", "ExtractionCache.get", "cache.get", None),
    ("repro.core.cache", "ExtractionCache.put", "cache.put", None),
    ("repro.obs.events", "EventLog.emit", "obs.emit", None),
    ("repro.obs.quality", "QualityMonitor.observe", "obs.quality_observe",
     None),
    ("repro.core.pipeline", "ScenarioExtractor.extract_batch",
     "pipeline.extract_batch", None),
    ("repro.core.pipeline", "ScenarioExtractor.extract_sliding",
     "pipeline.extract_sliding", None),
    ("repro.core.pipeline", "ScenarioExtractor.logits", "pipeline.logits",
     None),
    ("repro.sdl.codec", "LabelCodec.decode_batch", "pipeline.decode", None),
    ("repro.models.video_transformer", "VideoTransformer.frame_features",
     "pipeline.frame_features", None),
    ("repro.models.video_transformer",
     "VideoTransformer.head_logits_from_frame_features",
     "pipeline.window_head", _batch_rows),
    ("repro.models.video_transformer", "VideoTransformer.forward",
     "nn.model", _batch_rows),
    ("repro.models.video_transformer", "DividedSTBlock.forward", "nn.block",
     None),
    ("repro.nn.transformer", "TransformerEncoderLayer.forward", "nn.block",
     None),
    ("repro.nn.patches", "PatchEmbed2D.forward", "nn.patch_embed", None),
    ("repro.nn.attention", "MultiHeadAttention.forward", _attention, None),
    ("repro.nn.transformer", "MLP.forward", "nn.mlp", None),
    ("repro.nn.layers", "LayerNorm.forward", "nn.norm", None),
    ("repro.models.heads", "SDLHead.forward", "nn.head", None),
    ("repro.core.fleet", "extract_corpus", "fleet.extract_corpus", None),
    ("repro.core.fleet", "load_clip", "fleet.load_clip", None),
    ("repro.core.fleet", "FleetStore.has_shard", "fleet.has_shard", None),
    ("repro.core.fleet", "FleetStore.write_shard", "fleet.write_shard",
     None),
    ("repro.core.fleet", "FleetStore.write_manifest", "fleet.manifest",
     None),
    ("repro.core.fleet", "FleetStore.read_shard_records",
     "fleet.read_records", None),
    ("repro.core.fleet", "FleetIndex.open", "fleet.open", None),
    ("repro.core.fleet", "FleetIndex.query", "fleet.query", None),
    ("repro.core.fleet", "sdl_vector", "sdl.vector", None),
    ("repro.sdl.description", "ScenarioDescription.from_dict",
     "sdl.from_dict", None),
    ("repro.train.trainer", "Trainer.fit", "train.fit", None),
    ("repro.train.losses", "MultiTaskLoss.__call__", "train.loss", None),
    ("repro.autograd.tensor", "Tensor.backward", "autograd.backward", None),
    ("repro.train.trainer", "clip_grad_norm", "optim.clip_grad_norm", None),
    ("repro.optim.optimizers", "Adam.step", "optim.step", None),
    ("repro.optim.schedulers", "CosineWithWarmup.step", "optim.schedule",
     None),
    ("repro.data.loader", "DataLoader.__iter__", "data.batch", None),
)


def layer_of(span: str) -> str:
    """The layer a span name belongs to (its first dotted component)."""
    return span.split(".", 1)[0]


class Tracer:
    """In-memory span recorder plus the wrappers that feed it.

    ``clock`` is injectable for tests; it must be monotonic seconds.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 registry=None) -> None:
        self.clock = clock
        self.registry = registry if registry is not None else get_registry()
        self.pid = os.getpid()
        self.active = False
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._series: Dict[str, tuple] = {}
        self._items = self.registry.counter(ITEMS)
        self._patches: List[tuple] = []
        self._baseline: Dict[Tuple[str, str], float] = {}

    # -- recording -----------------------------------------------------
    def set_op(self, op) -> None:
        """Tag later spans of the calling thread with operation ``op``."""
        self._local.op = op

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> list:
        stack = self._stack()
        frame = [next(self._ids), stack[-1][0] if stack else 0, name,
                 self.clock(), 0.0]
        stack.append(frame)
        return frame

    def discard(self, frame: list) -> None:
        """Close ``frame`` without recording it."""
        self._stack().pop()

    def exit(self, frame: list, items: int = 0) -> None:
        end = self.clock()
        stack = self._stack()
        stack.pop()
        duration = end - frame[3]
        self_s = duration - frame[4]
        if stack:
            stack[-1][4] += duration
        name = frame[2]
        with self._lock:
            series = self._series.get(name)
            if series is None:
                series = self._series[name] = (
                    self.registry.counter(CALLS, span=name),
                    self.registry.counter(INCLUSIVE, span=name),
                    self.registry.counter(SELF, span=name))
            series[0].inc()
            series[1].inc(duration)
            series[2].inc(max(self_s, 0.0))
            if items:
                self._items.inc(items)
            if os.getpid() == self.pid:
                self.spans.append((frame[0], frame[1], name, frame[3], end,
                                   self_s, self.pid,
                                   threading.get_ident(),
                                   getattr(self._local, "op", None)))

    # -- wrappers ------------------------------------------------------
    def recording(self) -> bool:
        return self.active or os.getpid() != self.pid

    def _wrap(self, fn: Callable, name, items: Optional[Callable]):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording():
                return fn(*args, **kwargs)
            frame = tracer.enter(name(args) if callable(name) else name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit(frame, items(args) if items else 0)

        return wrapper

    def _wrap_iter(self, fn: Callable, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            if not tracer.recording():
                yield from iterator
                return
            end = object()
            while True:
                frame = tracer.enter(name)
                try:
                    item = next(iterator, end)
                except BaseException:
                    tracer.discard(frame)
                    raise
                if item is end:
                    tracer.discard(frame)
                    return
                tracer.exit(frame)
                yield item

        return wrapper

    def install(self) -> "Tracer":
        """Patch every target; remembers the registry baseline."""
        if self._patches:
            return self
        self._baseline = self._read_registry()
        for module_name, path, name, items in TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = inspect.getattr_static(owner, attr)
            if isinstance(original, classmethod):
                patched = classmethod(self._wrap(original.__func__, name,
                                                 items))
            elif attr == "__iter__":
                patched = self._wrap_iter(original, name)
            else:
                patched = self._wrap(original, name, items)
            owned = not inspect.isclass(owner) or attr in vars(owner)
            self._patches.append((owner, attr, original, owned))
            setattr(owner, attr, patched)
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        for owner, attr, original, owned in reversed(self._patches):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches = []

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- read-out ------------------------------------------------------
    def _read_registry(self) -> Dict[Tuple[str, str], float]:
        values: Dict[Tuple[str, str], float] = {}
        for row in self.registry.snapshot():
            if row["name"] in (CALLS, INCLUSIVE, SELF, ITEMS):
                key = (row["name"], row["labels"].get("span", ""))
                values[key] = values.get(key, 0.0) + row["value"]
        return values

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per-span ``calls`` / ``incl_s`` / ``self_s`` since
        :meth:`install`, summed over this process and every worker whose
        telemetry has been merged into the registry."""
        now = self._read_registry()
        out: Dict[str, Dict[str, float]] = {}
        fields = {CALLS: "calls", INCLUSIVE: "incl_s", SELF: "self_s"}
        for (series, span), value in now.items():
            if series == ITEMS:
                continue
            delta = value - self._baseline.get((series, span), 0.0)
            if delta:
                out.setdefault(span, {"calls": 0.0, "incl_s": 0.0,
                                      "self_s": 0.0})[fields[series]] = delta
        return out

    def items(self) -> float:
        """Clips or windows through a model head since :meth:`install`."""
        key = (ITEMS, "")
        return self._read_registry().get(key, 0.0) - self._baseline.get(
            key, 0.0)

    def write(self, path: str, **header) -> None:
        """Write the recorded spans and the per-span totals as JSON."""
        document = dict(header)
        document["fields"] = ["id", "parent", "name", "start", "end",
                              "self_s", "pid", "thread", "op"]
        document["totals"] = self.totals()
        document["spans"] = self.spans
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
