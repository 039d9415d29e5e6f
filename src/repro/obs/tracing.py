"""Named stage spans: the one in-process stage timer.

Usage::

    from repro.obs import span

    with span("train/epoch"):
        with span("train/forward"):
            ...

When telemetry is *disabled* (the default), :func:`span` returns a
shared no-op context manager — the cost is one module-global check per
call and nothing is recorded.  When *enabled*, every span exit observes
the ``span.seconds{name=...}`` histogram of the default metrics registry
and calls the event-log span hook, if one is installed.  Nothing else
is kept.  The registry is process-global, so a span that closes on a
replica thread lands in the same series as the caller's, and the pool
telemetry plane carries worker series to the parent under
``worker=<rank>``.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Optional

from repro.obs.registry import get_registry

_ENABLED = False


def is_enabled() -> bool:
    """True when spans (and hot-path metric recording) are active."""
    return _ENABLED


def _set_enabled(flag: bool) -> None:
    global _ENABLED
    _ENABLED = bool(flag)


#: Optional span-exit callback ``(name, seconds)`` — installed by
#: :func:`repro.obs.events.set_active` to persist request-correlated
#: spans into the event log.  ``None`` (the default) costs one check.
_SPAN_HOOK: Optional[Callable[[str, float], None]] = None


def set_span_hook(hook: Optional[Callable[[str, float], None]]) -> None:
    """Install (or with ``None`` remove) the span-exit hook."""
    global _SPAN_HOOK
    _SPAN_HOOK = hook


class _NoopSpan:
    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NOOP = _NoopSpan()


class _Span:
    __slots__ = ("name", "start")

    def __init__(self, name: str) -> None:
        self.name = name

    def __enter__(self) -> "_Span":
        self.start = perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        elapsed = perf_counter() - self.start
        get_registry().histogram("span.seconds", name=self.name) \
            .observe(elapsed)
        if _SPAN_HOOK is not None:
            _SPAN_HOOK(self.name, elapsed)
        return False


def span(name: str):
    """Context manager timing a named stage into ``span.seconds``.

    No-op (shared singleton, nothing recorded) while telemetry is
    disabled.
    """
    if not _ENABLED:
        return _NOOP
    return _Span(name)
