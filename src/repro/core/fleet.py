"""Out-of-core fleet corpus mining: streaming, resumable, partitioned.

The paper's headline use-case is fleet-scale mining — "find every
pedestrian-crossing clip" over logs far larger than memory.  The
in-memory :class:`~repro.core.mining.ScenarioMiner` holds every SDL
vector in RAM and extracts the corpus in one call; this module is the
same pipeline restructured around an object-store-style corpus layout
so none of corpus, descriptions or vectors ever needs to fit at once::

    corpus_dir/
      shard-0000/clips.npy         # (n, T, C, H, W) float32, mmap-able
      shard-0000/families.json     #   (optional) JSON list of n names
      shard-0001/...

That is corpus layout v2.  Layout v1 (one ``shard-NNNN/clip-*.npz``
object per clip: array ``clip`` plus an optional ``family`` tag) is
still read, never written; :func:`load_shard` is the one reader of both.

Extraction (:func:`extract_corpus`) walks the shards in sorted order
and, one shard at a time, runs the clips through
:func:`~repro.core.cache.cached_extract_batch` and persists two files
per shard plus a corpus manifest under a **fingerprint-keyed** store
directory::

    store_dir/<fingerprint>/
      shard-0000.tags.jsonl        # per-clip tag records (export schema)
      shard-0000.vectors.npy       # float32 (n, D) SDL embedding matrix
      manifest.json                # repro.fleet/v1 corpus manifest

``fingerprint`` is ``extractor_version × vocabulary hash × decode
threshold`` — exactly the non-clip components of the extraction-cache
key — so resumability is *skip-if-result-exists*: a shard whose two
store files already exist under the current fingerprint is never
re-extracted, an interrupted run resumes where it stopped with zero
repeat forward passes, and results from a different model version /
vocabulary / threshold can never be served as current (they live in a
different directory).

Queries go through :class:`FleetIndex`: on the first query the
per-shard SDL-vector files are stacked into one float32 matrix in
manifest order, so a row's position is its global clip id, and every
query is one :func:`~repro.core.retrieval.cosine_topk` call over it —
the top-k is bit-identical to :meth:`ScenarioMiner.query` over the same
clips.

Counters (``repro.obs``): ``fleet.shards_scanned`` /
``fleet.shards_skipped`` / ``fleet.shards_extracted`` /
``fleet.clips_extracted`` and the ``fleet.vectors_mapped`` gauge (rows
stacked).

Long passes are no longer a black box between shards: on a wall-clock
cadence (``heartbeat_s``) :func:`extract_corpus` emits
``fleet_progress`` events through the active event log (shards/clips
done, forward passes, throughput, ETA), appends the same progress plus
a ``fleet.*`` registry snapshot to a bounded ``repro.telemetry/v1``
JSONL ring (``telemetry.jsonl`` in the fingerprint store), and invokes
an optional ``on_progress`` callback — the hooks behind the
``repro top --from-events`` fleet panel and the ``repro mine
--corpus-dir`` live progress line.  See ``docs/mining.md``.
"""

from __future__ import annotations

import heapq
import json
import os
import time
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.cache import (
    ExtractionCache,
    cached_extract_batch,
    extractor_version,
)
from repro.core.export import result_to_record
from repro.core.mining import MiningHit, tag_query
from repro.core.pipeline import ScenarioExtractor
from repro.core.retrieval import cosine_topk
from repro.durable import atomic_open, read_records
from repro.obs import get_logger, metrics
from repro.obs import events as obs_events
from repro.obs.telemetry import SnapshotRing
from repro.sdl.description import ScenarioDescription
from repro.sdl.similarity import sdl_vector

#: Schema tag of the corpus manifest.
FLEET_FORMAT = "repro.fleet/v1"

#: Manifest file name inside a fingerprint store directory.
MANIFEST_FILE = "manifest.json"

#: Telemetry snapshot ring file name inside a fingerprint store.
TELEMETRY_FILE = "telemetry.jsonl"

#: Default store root inside a corpus directory.
DEFAULT_STORE_DIR = "_fleet"

_SHARD_PREFIX = "shard-"
_CLIP_PREFIX = "clip-"
_CLIPS_FILE = "clips.npy"
_FAMILIES_FILE = "families.json"
_TAGS_SUFFIX = ".tags.jsonl"
_VECTORS_SUFFIX = ".vectors.npy"

_logger = get_logger("core.fleet")


# -- corpus layout ------------------------------------------------------
def write_corpus(clips: np.ndarray, corpus_dir: str,
                 shard_size: int = 64,
                 families: Optional[Sequence[str]] = None) -> Dict[str, int]:
    """Materialise clips ``(N, T, C, H, W)`` as a sharded corpus layout.

    Each shard is one ``shard-NNNN/clips.npy`` float32 array (plus
    ``families.json`` when ``families`` is given, published first, so a
    shard is complete once its ``clips.npy`` exists).  Shards hold the
    clips in order, so the global clip id of the walk (sorted shards,
    rows in order) equals the clip's position in ``clips`` — the
    property the out-of-core / in-memory parity guarantees rely on.
    Refuses a ``corpus_dir`` that already holds shards: mixing them
    would break that identity.  Returns ``{"shards", "clips"}``.
    """
    clips = np.asarray(clips)
    if clips.ndim != 5:
        raise ValueError("expected (N, T, C, H, W) clips")
    if shard_size <= 0:
        raise ValueError("shard_size must be positive")
    if families is not None and len(families) != len(clips):
        raise ValueError("families must align with clips")
    corpus_dir = os.fspath(corpus_dir)
    if os.path.isdir(corpus_dir) and corpus_shards(corpus_dir):
        raise FileExistsError(f"corpus {corpus_dir} already holds shards")
    shards = 0
    for start in range(0, len(clips), shard_size):
        stop = min(start + shard_size, len(clips))
        shard_dir = os.path.join(corpus_dir,
                                 f"{_SHARD_PREFIX}{shards:04d}")
        if families is not None:
            with atomic_open(os.path.join(shard_dir,
                                          _FAMILIES_FILE)) as handle:
                json.dump([str(f) for f in families[start:stop]], handle)
        with atomic_open(os.path.join(shard_dir, _CLIPS_FILE),
                         "wb") as handle:
            np.save(handle, np.ascontiguousarray(clips[start:stop],
                                                 dtype=np.float32))
        shards += 1
    return {"shards": shards, "clips": len(clips)}


def corpus_shards(corpus_dir: str) -> List[str]:
    """Sorted shard directory names of a corpus layout."""
    corpus_dir = os.fspath(corpus_dir)
    if not os.path.isdir(corpus_dir):
        raise FileNotFoundError(f"no corpus at {corpus_dir}")
    return sorted(
        name for name in os.listdir(corpus_dir)
        if name.startswith(_SHARD_PREFIX)
        and os.path.isdir(os.path.join(corpus_dir, name))
    )


def _clip_objects(shard_dir: str) -> List[str]:
    """A shard's clip objects: ``[clips.npy]`` (layout v2), the sorted
    ``clip-*.npz`` names (v1) or ``[]`` (no clips)."""
    names = os.listdir(shard_dir)
    objects = sorted(name for name in names
                     if name.startswith(_CLIP_PREFIX)
                     and name.endswith(".npz"))
    if _CLIPS_FILE in names:
        if objects:
            raise ValueError(f"shard {shard_dir} holds both {_CLIPS_FILE}"
                             f" and clip-*.npz objects")
        return [_CLIPS_FILE]
    return objects


def load_clip(path: str) -> Tuple[np.ndarray, Optional[str]]:
    """One layout-v1 clip object: the ``(T, C, H, W)`` array and its
    family tag."""
    with np.load(path, allow_pickle=False) as archive:
        clip = archive["clip"]
        family = (str(archive["family"])
                  if "family" in archive.files else None)
    return clip, family


def load_shard(corpus_dir: str, shard: str,
               ) -> Tuple[np.ndarray, List[Optional[str]]]:
    """One shard's clips ``(n, T, C, H, W)`` and their family tags.

    A layout-v2 shard comes back memory-mapped: only the ``.npy`` header
    is read until rows are touched.  A v1 shard is loaded object by
    object.  A shard with no clips gives an empty array; one holding
    both layouts raises ``ValueError``.
    """
    shard_dir = os.path.join(os.fspath(corpus_dir), shard)
    objects = _clip_objects(shard_dir)
    if objects == [_CLIPS_FILE]:
        clips = np.load(os.path.join(shard_dir, _CLIPS_FILE),
                        mmap_mode="r")
        try:
            with open(os.path.join(shard_dir, _FAMILIES_FILE),
                      encoding="utf-8") as handle:
                families = json.load(handle)
        except FileNotFoundError:
            families = [None] * len(clips)
        if len(families) != len(clips):
            raise ValueError(f"shard {shard_dir}: {len(families)} "
                             f"families for {len(clips)} clips")
        return clips, families
    loaded = [load_clip(os.path.join(shard_dir, name)) for name in objects]
    clips = (np.stack([clip for clip, _ in loaded]) if loaded
             else np.zeros((0,), dtype=np.float32))
    return clips, [family for _, family in loaded]


def corpus_clip_shape(corpus_dir: str) -> Tuple[int, ...]:
    """Shape ``(T, C, H, W)`` of the corpus' clips (from the first)."""
    for shard in corpus_shards(corpus_dir):
        clips, _ = load_shard(corpus_dir, shard)
        if len(clips):
            return tuple(clips.shape[1:])
    raise FileNotFoundError(f"corpus {corpus_dir} holds no clips")


# -- fingerprint + store ------------------------------------------------
def extraction_fingerprint(extractor: ScenarioExtractor) -> str:
    """The resumability key: model version × vocabulary × threshold.

    The same components (minus the per-clip hash) that address the
    extraction cache — two extractors share a fingerprint iff their
    persisted tag stores are interchangeable.
    """
    version = extractor_version(extractor)
    vocab = extractor.codec.vocab.content_hash[:12]
    return f"{version}-{vocab}-t{extractor.threshold:g}"


class FleetStore:
    """Paths and (de)serialisation of one fingerprint's shard stores."""

    def __init__(self, store_dir: str, fingerprint: str) -> None:
        self.root = os.path.join(os.fspath(store_dir), fingerprint)
        self.fingerprint = fingerprint

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.root, MANIFEST_FILE)

    def tags_path(self, shard: str) -> str:
        return os.path.join(self.root, shard + _TAGS_SUFFIX)

    def vectors_path(self, shard: str) -> str:
        return os.path.join(self.root, shard + _VECTORS_SUFFIX)

    def has_shard(self, shard: str, expected_clips: int) -> bool:
        """Skip-if-result-exists: both files present and the vector
        array row count matches the shard's clip count."""
        tags, vectors = self.tags_path(shard), self.vectors_path(shard)
        if not (os.path.exists(tags) and os.path.exists(vectors)):
            return False
        try:
            rows = np.load(vectors, mmap_mode="r").shape[0]
        except Exception:
            return False
        return rows == expected_clips

    def write_shard(self, shard: str, records: List[dict],
                    matrix: np.ndarray) -> None:
        """Persist one shard's tag store + vector array (one atomic
        publish per file, records last — the skip check keys on both
        files existing)."""
        with atomic_open(self.vectors_path(shard), "wb") as handle:
            np.save(handle, np.ascontiguousarray(matrix,
                                                 dtype=np.float32))
        with atomic_open(self.tags_path(shard)) as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")

    def read_shard_records(self, shard: str) -> List[dict]:
        return list(read_records(self.tags_path(shard)))

    def write_manifest(self, manifest: dict) -> None:
        with atomic_open(self.manifest_path) as handle:
            json.dump(manifest, handle, sort_keys=True, indent=2)

    def read_manifest(self) -> dict:
        with open(self.manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        if manifest.get("schema") != FLEET_FORMAT:
            raise ValueError(
                f"unknown fleet manifest schema "
                f"{manifest.get('schema')!r}")
        return manifest


def _resolve_store(corpus_dir: str, store_dir: Optional[str],
                   fingerprint: str) -> FleetStore:
    root = (os.fspath(store_dir) if store_dir is not None
            else os.path.join(os.fspath(corpus_dir), DEFAULT_STORE_DIR))
    return FleetStore(root, fingerprint)


# -- extraction ---------------------------------------------------------
@dataclass
class FleetStats:
    """Accounting of one :func:`extract_corpus` pass."""

    fingerprint: str
    store_root: str
    shards: int = 0
    shards_skipped: int = 0
    shards_extracted: int = 0
    clips: int = 0
    clips_extracted: int = 0
    shard_clip_counts: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "store_root": self.store_root,
            "shards": self.shards,
            "shards_skipped": self.shards_skipped,
            "shards_extracted": self.shards_extracted,
            "clips": self.clips,
            "clips_extracted": self.clips_extracted,
        }


class _FleetHeartbeat:
    """Wall-clock progress heartbeats of one extraction pass.

    Every beat does three things with one progress document:
    ``fleet_progress`` through the active event log (the ``repro top
    --from-events`` fleet panel), an append to the store's
    ``repro.telemetry/v1`` snapshot ring (progress + the ``fleet.*``
    slice of the registry), and the ``on_progress`` callback (the CLI
    live line).  Beats fire at most every ``interval_s`` — except the
    final one, which always fires so even a sub-interval pass leaves a
    complete progress trail.
    """

    def __init__(self, store: FleetStore, interval_s: float,
                 on_progress: Optional[Callable[[dict], None]]) -> None:
        self.interval_s = float(interval_s)
        self.on_progress = on_progress
        self._ring: Optional[SnapshotRing] = None
        self._store = store
        self._started = time.monotonic()
        self._next_beat = self._started + self.interval_s

    def beat(self, stats: FleetStats, shards_total: int,
             forwards: int, final: bool = False) -> Optional[dict]:
        now = time.monotonic()
        if not final and now < self._next_beat:
            return None
        self._next_beat = now + self.interval_s
        elapsed = max(now - self._started, 1e-9)
        done = stats.shards_skipped + stats.shards_extracted
        throughput = stats.clips_extracted / elapsed
        eta_s = ((shards_total - done) * (elapsed / done)
                 if done else None)
        progress = {
            "fingerprint": stats.fingerprint,
            "shards_done": done,
            "shards_total": shards_total,
            "shards_skipped": stats.shards_skipped,
            "shards_extracted": stats.shards_extracted,
            "clips_done": stats.clips,
            "clips_extracted": stats.clips_extracted,
            "forwards": forwards,
            "elapsed_s": elapsed,
            "clips_per_s": throughput,
            "eta_s": eta_s,
            "final": final,
        }
        obs_events.emit("fleet_progress", **progress)
        try:
            if self._ring is None:
                self._ring = SnapshotRing(os.path.join(
                    self._store.root, TELEMETRY_FILE))
            self._ring.append({
                "kind": "fleet_progress", "ts": time.time(),
                "progress": progress,
                "metrics": [row for row in metrics.snapshot()
                            if row["name"].startswith("fleet.")],
            })
        except OSError:  # progress telemetry never fails the pass
            _logger.warning("fleet telemetry ring write failed",
                            exc_info=True)
        if self.on_progress is not None:
            self.on_progress(progress)
        return progress


def extract_corpus(extractor: ScenarioExtractor, corpus_dir: str,
                   store_dir: Optional[str] = None,
                   cache: Optional[ExtractionCache] = None,
                   batch_size: Optional[int] = None,
                   heartbeat_s: float = 5.0,
                   on_progress: Optional[Callable[[dict], None]] = None,
                   ) -> FleetStats:
    """Walk the corpus shard by shard, extracting what isn't persisted.

    One shard's clips are mapped (layout v2) or loaded (v1) at a time;
    a v2 shard whose store files already exist under the current
    fingerprint is skipped with only its ``clips.npy`` header read.
    With a ``cache``, the forward passes of extracted shards
    additionally dedupe per clip.
    The manifest is (re)written at the end of every pass, so a pass
    that completes always leaves a queryable store.  Returns the pass
    accounting; raising mid-pass loses at most the shard in flight.

    Progress heartbeats (``fleet_progress`` events, the store's
    telemetry ring, ``on_progress``) fire at most every
    ``heartbeat_s`` seconds plus once at the end — see
    :class:`_FleetHeartbeat`.
    """
    if heartbeat_s <= 0:
        raise ValueError("heartbeat_s must be positive")
    fingerprint = extraction_fingerprint(extractor)
    store = _resolve_store(corpus_dir, store_dir, fingerprint)
    stats = FleetStats(fingerprint=fingerprint, store_root=store.root)
    heartbeat = _FleetHeartbeat(store, heartbeat_s, on_progress)
    shards = corpus_shards(corpus_dir)
    shard_entries = []
    offset = 0
    forwards = 0
    for shard in shards:
        clips, families = load_shard(corpus_dir, shard)
        n = len(clips)
        if not n:
            continue
        stats.shards += 1
        stats.shard_clip_counts[shard] = n
        metrics.counter("fleet.shards_scanned").inc()
        if store.has_shard(shard, n):
            stats.shards_skipped += 1
            metrics.counter("fleet.shards_skipped").inc()
        else:
            misses_before = cache.misses if cache is not None else 0
            results = cached_extract_batch(extractor, clips, cache,
                                           batch_size=batch_size)
            forwards += (cache.misses - misses_before
                         if cache is not None else n)
            objects = _clip_objects(os.path.join(corpus_dir, shard))
            if objects == [_CLIPS_FILE]:
                objects = [f"{_CLIPS_FILE}#{row}" for row in range(n)]
            records = []
            vectors = np.zeros(
                (n, len(sdl_vector(results[0].description))),
                dtype=np.float32)
            for i, result in enumerate(results):
                record = result_to_record(offset + i, result,
                                          family=families[i])
                record["shard"] = shard
                record["object"] = objects[i]
                records.append(record)
                vectors[i] = sdl_vector(result.description)
            store.write_shard(shard, records, vectors)
            stats.shards_extracted += 1
            stats.clips_extracted += n
            metrics.counter("fleet.shards_extracted").inc()
            metrics.counter("fleet.clips_extracted").inc(n)
            _logger.info("extracted shard %s (%d clips)", shard, n)
        shard_entries.append({"name": shard, "clips": n,
                              "offset": offset})
        offset += n
        stats.clips = offset
        heartbeat.beat(stats, len(shards), forwards)
    stats.clips = offset
    store.write_manifest({
        "schema": FLEET_FORMAT,
        "fingerprint": fingerprint,
        "corpus_dir": os.path.abspath(os.fspath(corpus_dir)),
        "shards": shard_entries,
        "clips": offset,
    })
    heartbeat.beat(stats, len(shards), forwards, final=True)
    return stats


# -- stacked retrieval -------------------------------------------------
class FleetIndex:
    """Retrieval over a fingerprint store's shard files.

    ``open`` reads only the manifest.  The first query stacks the
    per-shard SDL-vector files into one float32 matrix in manifest
    order, with one row-norm vector, so a row's position is its global
    clip id; each query is then one :func:`cosine_topk` call over it,
    and a hit's shard is found from the manifest offsets.  The query
    vectors sit in RAM: 19 float32 values (76 B) per clip, about 16 MB
    for 215,090 clips.  Tag records stay on disk until a hit needs
    them.  Rankings are bit-identical to the in-memory
    :class:`~repro.core.mining.ScenarioMiner` over the same clips.
    """

    def __init__(self, store: FleetStore) -> None:
        self.store = store
        manifest = store.read_manifest()
        self.manifest = manifest
        self._shards: List[dict] = list(manifest["shards"])
        self._offsets = np.array([int(e["offset"]) for e in self._shards],
                                 dtype=np.int64)
        self._stacked: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._record_cache: Dict[str, List[dict]] = {}

    @classmethod
    def open(cls, corpus_dir: str, extractor: ScenarioExtractor,
             store_dir: Optional[str] = None) -> "FleetIndex":
        """Open the store matching ``extractor``'s fingerprint."""
        fingerprint = extraction_fingerprint(extractor)
        return cls(_resolve_store(corpus_dir, store_dir, fingerprint))

    def __len__(self) -> int:
        return int(self.manifest["clips"])

    @property
    def shards(self) -> int:
        return len(self._shards)

    def _matrix(self, shard: str) -> np.ndarray:
        """One shard's memory-mapped SDL-vector file."""
        return np.load(self.store.vectors_path(shard), mmap_mode="r")

    def _stack(self) -> Tuple[np.ndarray, np.ndarray]:
        """The stacked vectors and their row norms, built on first use."""
        if self._stacked is None:
            matrix = np.concatenate([self._matrix(entry["name"])
                                     for entry in self._shards])
            self._stacked = (matrix, np.linalg.norm(matrix, axis=1))
            metrics.gauge("fleet.vectors_mapped").add(float(len(matrix)))
        return self._stacked

    def _record(self, shard: str, local_index: int) -> dict:
        records = self._record_cache.get(shard)
        if records is None:
            records = self.store.read_shard_records(shard)
            self._record_cache[shard] = records
        return records[local_index]

    def query(self, query: ScenarioDescription, top_k: int = 5,
              min_score: float = 0.0) -> List[MiningHit]:
        """Rank the corpus by SDL similarity; same contract as
        :meth:`ScenarioMiner.query` (inclusive ``min_score``, ties by
        ascending clip id)."""
        if len(self) == 0:
            raise RuntimeError("fleet index holds no clips; run "
                               "extract_corpus() first")
        if top_k <= 0:
            raise ValueError("top_k must be positive")
        matrix, norms = self._stack()
        ids, scores = cosine_topk(matrix, norms, sdl_vector(query), top_k)
        shard_of = np.searchsorted(self._offsets, ids, side="right") - 1
        hits: List[MiningHit] = []
        for clip_id, score, shard in zip(ids.tolist(), scores.tolist(),
                                         shard_of.tolist()):
            if score < min_score:
                continue
            entry = self._shards[shard]
            record = self._record(entry["name"],
                                  clip_id - int(entry["offset"]))
            desc = ScenarioDescription.from_dict(record["description"])
            hits.append(MiningHit(clip_id=clip_id, score=score,
                                  description=desc,
                                  sentence=record["sentence"]))
        return hits

    def query_tags(self, top_k: int = 5, min_score: float = 0.0,
                   **tags) -> List[MiningHit]:
        """Keyword-tag convenience query, mirroring
        :meth:`ScenarioMiner.query_tags`."""
        return self.query(tag_query(**tags), top_k=top_k,
                          min_score=min_score)

    def iter_records(self) -> Iterator[dict]:
        """Stream every tag record in global clip-id order."""
        for entry in self._shards:
            for record in self.store.read_shard_records(entry["name"]):
                yield record


def top_criticality(index: FleetIndex, n: int) -> List[dict]:
    """The ``n`` most critical clips, streamed shard by shard.

    Keeps only a heap of ``n`` records in memory (ties resolve toward
    the lower clip id — the same ordering a full sort would give).
    """
    best = heapq.nsmallest(
        n, index.iter_records(),
        key=lambda r: (-float(r["criticality"]), int(r["clip_id"])))
    return [
        {"clip_id": record["clip_id"],
         "criticality": record["criticality"],
         "sentence": record["sentence"]}
        for record in best
    ]


def mine_corpus(extractor: ScenarioExtractor, corpus_dir: str,
                query: Optional[ScenarioDescription] = None,
                top_k: int = 5, min_score: float = 0.0,
                store_dir: Optional[str] = None,
                cache: Optional[ExtractionCache] = None,
                heartbeat_s: float = 5.0,
                on_progress: Optional[Callable[[dict], None]] = None,
                **tags) -> Tuple[List[MiningHit], FleetStats]:
    """Extract-or-resume the corpus, then answer one query.

    The one-call fleet counterpart of :func:`repro.api.mine`: runs
    :func:`extract_corpus` (pure skip for already-persisted shards),
    opens the index, and ranks.  Returns the hits and the
    extraction-pass accounting.
    """
    if query is not None and tags:
        raise ValueError("pass either query or tags, not both")
    stats = extract_corpus(extractor, corpus_dir, store_dir=store_dir,
                           cache=cache, heartbeat_s=heartbeat_s,
                           on_progress=on_progress)
    index = FleetIndex.open(corpus_dir, extractor, store_dir=store_dir)
    if query is not None:
        hits = index.query(query, top_k=top_k, min_score=min_score)
    elif tags:
        hits = index.query_tags(top_k=top_k, min_score=min_score,
                                **tags)
    else:
        hits = []
    return hits, stats


__all__ = [
    "DEFAULT_STORE_DIR",
    "FLEET_FORMAT",
    "MANIFEST_FILE",
    "TELEMETRY_FILE",
    "FleetIndex",
    "FleetStats",
    "FleetStore",
    "corpus_clip_shape",
    "corpus_shards",
    "extract_corpus",
    "extraction_fingerprint",
    "load_clip",
    "load_shard",
    "mine_corpus",
    "top_criticality",
    "write_corpus",
]
