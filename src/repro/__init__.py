"""repro — Automated traffic scenario description extraction using video
transformers (reproduction of Harder & Behl, DATE ASD 2024).

Layered architecture (bottom-up):

- ``repro.autograd`` — numpy reverse-mode autodiff substrate.
- ``repro.nn`` / ``repro.optim`` — neural-net layers and optimizers.
- ``repro.sim`` — traffic microsimulation + BEV video renderer.
- ``repro.sdl`` — Scenario Description Language (vocabulary, annotator,
  codec, similarity, embeddings).
- ``repro.data`` — SynthDrive synthetic clip dataset and loaders.
- ``repro.models`` — video transformers and baselines.
- ``repro.train`` — multi-task training loop, metrics, checkpoints.
- ``repro.core`` — the paper's contribution: the end-to-end
  :class:`~repro.core.pipeline.ScenarioExtractor`, scenario mining and
  text-to-video retrieval.
- ``repro.serve`` — fault-tolerant extraction service: micro-batching,
  retries, load shedding, circuit-breaker degradation, hot reload.
- ``repro.eval`` — experiment harness regenerating every table/figure.
- ``repro.obs`` — telemetry: metrics registry, tracing spans, event
  log, SLOs and quality monitoring (off by default).

The **stable public API** lives in :mod:`repro.api` and is re-exported
here lazily: ``repro.load_extractor``, ``repro.extract_clip``,
``repro.extract_video``, ``repro.mine``, ``repro.retrieve`` plus the
result/service classes (``repro.api.serve`` starts a service; the name
is not re-exported because ``repro.serve`` is the subpackage).  Callers
should use the facade instead of importing ``repro.core.*`` internals.
"""

__version__ = "1.1.0"

#: Names re-exported lazily from :mod:`repro.api` (PEP 562) so that
#: ``import repro`` stays cheap and free of circular imports.
_API_EXPORTS = (
    "CanaryRefusedError",
    "DriftConfig",
    "ExtractionCache",
    "ExtractionResult",
    "ExtractionService",
    "MiningHit",
    "QualityConfig",
    "QualityMonitor",
    "ScenarioDescription",
    "ScenarioExtractor",
    "ServiceClient",
    "ServiceConfig",
    "ServicePool",
    "build_corpus",
    "extract_clip",
    "extract_video",
    "load_extractor",
    "mine",
    "mine_corpus",
    "retrieve",
)

__all__ = [
    "api",
    "autograd",
    "nn",
    "optim",
    "sim",
    "sdl",
    "data",
    "models",
    "train",
    "core",
    "serve",
    "eval",
    "obs",
    *_API_EXPORTS,
]


def __getattr__(name: str):
    if name in _API_EXPORTS:
        from repro import api

        return getattr(api, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
