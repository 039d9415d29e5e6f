"""The paper's contribution: end-to-end scenario description extraction,
scenario mining over clip corpora, and description-based retrieval —
backed by a persistent, model-versioned extraction cache."""

from repro.core.pipeline import ExtractionResult, ScenarioExtractor
from repro.core.cache import (
    ExtractionCache,
    cached_extract_batch,
    cached_extract_sliding,
    clip_content_hash,
    extractor_version,
    model_fingerprint,
)
from repro.core.fleet import (
    FleetIndex,
    FleetStats,
    FleetStore,
    extract_corpus,
    extraction_fingerprint,
    mine_corpus,
    write_corpus,
)
from repro.core.mining import MiningHit, ScenarioMiner
from repro.core.retrieval import retrieval_metrics

__all__ = [
    "ScenarioExtractor",
    "ExtractionResult",
    "ExtractionCache",
    "FleetIndex",
    "FleetStats",
    "FleetStore",
    "ScenarioMiner",
    "MiningHit",
    "extract_corpus",
    "extraction_fingerprint",
    "mine_corpus",
    "write_corpus",
    "cached_extract_batch",
    "cached_extract_sliding",
    "clip_content_hash",
    "extractor_version",
    "model_fingerprint",
    "retrieval_metrics",
]
