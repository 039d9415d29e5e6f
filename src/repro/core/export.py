"""Corpus-level export of extraction results (JSONL).

The interchange format for downstream consumers: one JSON object per
clip with the structured description, the generated sentence, head
confidences and the criticality proxy — what a fleet-log indexing
service would persist.
"""

from __future__ import annotations

import contextlib
import json
from typing import List, Optional, Sequence

import numpy as np

from repro.core.criticality import description_criticality
from repro.core.pipeline import ExtractionResult, ScenarioExtractor
from repro.durable import atomic_open, read_records
from repro.sdl.description import ScenarioDescription


def result_to_record(clip_id: int, result: ExtractionResult,
                     family: Optional[str] = None) -> dict:
    """Flatten one extraction result into a JSON-serialisable record."""
    record = {
        "clip_id": clip_id,
        "description": result.description.to_dict(),
        "sentence": result.sentence,
        "confidences": {k: round(float(v), 4)
                        for k, v in result.confidences.items()},
        "criticality": round(description_criticality(result.description), 4),
        "frame_range": list(result.frame_range),
    }
    if family is not None:
        record["family"] = family
    return record


def export_corpus(extractor: ScenarioExtractor, clips: np.ndarray,
                  path: str,
                  families: Optional[Sequence[str]] = None,
                  cache=None,
                  chunk_size: Optional[int] = None) -> List[dict]:
    """Extract every clip and write one JSON line per clip to ``path``.

    Extraction is streamed in bounded chunks (``chunk_size`` clips per
    :func:`~repro.core.cache.cached_extract_batch` call, defaulting to
    the extractor's batch size) and the file is written **atomically**:
    lines go to a temp file as chunks complete, published over ``path``
    (:func:`repro.durable.atomic_open`) only after the last record — a
    crash mid-export leaves any previous export intact instead of a
    truncated file that :func:`load_corpus` would half-parse.

    Returns the records (also useful without the file side-effect via
    ``path=None`` — then nothing is written).  An optional
    :class:`~repro.core.cache.ExtractionCache` answers already-described
    clips without a forward pass.  For corpora larger than memory, use
    the per-shard stores of :mod:`repro.core.fleet` instead — this
    function still buffers the returned record list.
    """
    from repro.core.cache import cached_extract_batch

    clips = np.asarray(clips)
    if chunk_size is None:
        chunk_size = max(int(getattr(extractor, "batch_size", 16)), 1)
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    records: List[dict] = []
    with (contextlib.nullcontext() if path is None
          else atomic_open(path)) as handle:
        for start in range(0, len(clips), chunk_size):
            chunk = clips[start:start + chunk_size]
            results = cached_extract_batch(extractor, chunk, cache)
            for offset, result in enumerate(results):
                i = start + offset
                record = result_to_record(
                    i, result,
                    families[i] if families is not None else None)
                records.append(record)
                if handle is not None:
                    handle.write(json.dumps(record, sort_keys=True)
                                 + "\n")
    return records


def load_corpus(path: str) -> List[dict]:
    """Read records written by :func:`export_corpus`; descriptions are
    re-validated through :class:`ScenarioDescription`."""
    records = list(read_records(path))
    for record in records:  # validation: raises on vocabulary drift
        ScenarioDescription.from_dict(record["description"])
    return records
