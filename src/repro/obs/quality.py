"""Model-quality observability: scorecards, drift alerts, canary gate.

The SLO tracker watches requests; this module watches whether the
deployed model keeps extracting the right SDL tags — the paper's core
claim (Table 1) — without waiting for the next offline eval run.  One
:class:`QualityMonitor` per
:class:`~repro.serve.service.ExtractionService`:

- **scorecards** — per-model-version accounting of every served
  result: statuses, per-tag positive rates, per-head decode-confidence
  histograms and means;
- **drift detection** — a :class:`~repro.obs.drift.DriftDetector`
  compares the rolling SDL tag distribution and decode-confidence
  distribution against a pinned reference window (PSI + KL, warmup
  and min-sample guarded) and fires a latched ``drift_alert`` event
  exactly once per sustained shift;
- **shadow canary** — a seeded reservoir of recent live clips; an
  incoming checkpoint runs shadow inference on the slice, its
  tag-agreement and confidence-shift against the serving model are
  scored, and :meth:`canary` returns an accept/refuse verdict the
  service uses to gate ``reload()`` (refusals raise
  :class:`CanaryRefusedError` and leave the serving model untouched).

Each result is encoded once (``DriftDetector.encode``); scorecards and
the current ``quality_window`` count it in that layout, and
``DriftConfig.confidence_bins`` is the one confidence bin count.

Everything surfaces through the existing observability substrate:
``repro.events/v1`` events (``quality_window`` / ``drift_alert`` /
``canary_start`` / ``canary_verdict``), ``quality.*`` / ``drift.*`` /
``canary.*`` registry series (and therefore the Prometheus
exposition), ``service.health()["quality"]`` and the ``repro top``
quality panel.  See ``docs/observability.md``.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.eval.calibration import expected_calibration_error
from repro.obs import events as obs_events
from repro.obs import metrics
from repro.obs.drift import HEADS, DriftConfig, DriftDetector
from repro.obs.events import EventLog

__all__ = [
    "CanaryRefusedError",
    "QualityConfig",
    "QualityMonitor",
]


class CanaryRefusedError(RuntimeError):
    """A canary-gated hot-reload was refused.

    Raised by :meth:`ExtractionService.reload` when the candidate
    checkpoint's shadow-inference agreement with the serving model
    falls below the configured floor.  ``verdict`` carries the full
    scored comparison (the same dict recorded in the
    ``canary_verdict`` event); the serving model is unchanged.
    """

    def __init__(self, verdict: Dict[str, object]) -> None:
        reasons = ", ".join(verdict.get("reasons", ())) or "refused"
        shift = verdict.get("confidence_shift")
        shift_text = "n/a" if shift is None else f"{shift:.3f}"
        super().__init__(
            f"canary refused checkpoint swap: {reasons} "
            f"(agreement {verdict.get('agreement', 0.0):.3f}, "
            f"confidence shift {shift_text})"
        )
        self.verdict = verdict


@dataclass(frozen=True)
class QualityConfig:
    """Knobs of :class:`QualityMonitor`.

    ``window`` is the ``quality_window`` emission cadence (served
    results per window).  ``drift`` configures the
    :class:`~repro.obs.drift.DriftDetector` windows and thresholds.
    The canary keeps a seeded reservoir of ``canary_sample`` live
    clips, refuses to judge below ``canary_min_samples``, and accepts
    a candidate only when mean tag agreement is at least
    ``canary_min_agreement`` (and, when set, mean absolute per-head
    confidence shift is at most ``canary_max_confidence_shift``; a
    non-finite shift is refused).
    """

    window: int = 64
    drift: DriftConfig = field(default_factory=DriftConfig)
    canary_sample: int = 8
    canary_min_samples: int = 4
    canary_min_agreement: float = 0.8
    canary_max_confidence_shift: Optional[float] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise ValueError("window must be positive")
        if self.canary_sample <= 0:
            raise ValueError("canary_sample must be positive")
        if not 0 < self.canary_min_samples <= self.canary_sample:
            raise ValueError(
                "need 0 < canary_min_samples <= canary_sample")
        if not 0.0 <= self.canary_min_agreement <= 1.0:
            raise ValueError("canary_min_agreement must be in [0, 1]")
        if (self.canary_max_confidence_shift is not None
                and self.canary_max_confidence_shift <= 0):
            raise ValueError(
                "canary_max_confidence_shift must be positive")


class _Tally:
    """Served results counted in the :meth:`DriftDetector.encode`
    layout: one version's scorecard, or the current window (guarded by
    the monitor lock)."""

    __slots__ = ("requests", "counts", "confidence_sums", "statuses",
                 "cached")

    def __init__(self, size: int) -> None:
        self.requests = 0
        self.counts = np.zeros(size, dtype=np.int64)
        self.confidence_sums = np.zeros(len(HEADS))
        self.statuses: Dict[str, int] = {}
        self.cached = 0

    def add(self, indices: np.ndarray, values: List[float], status: str,
            cached: bool) -> None:
        self.requests += 1
        self.counts[indices] += 1  # each index at most once per result
        self.confidence_sums += values
        self.statuses[status] = self.statuses.get(status, 0) + 1
        self.cached += bool(cached)

    def mean_confidence(self) -> Dict[str, float]:
        return dict(zip(HEADS,
                        (self.confidence_sums / self.requests).tolist()))


class QualityMonitor:
    """Streaming quality monitor fed by every served ``ServeResult``.

    Parameters
    ----------
    codec:
        The extractor's :class:`~repro.sdl.codec.LabelCodec` — its
        vocabulary sizes the tag accounting and drift windows.
    config:
        :class:`QualityConfig`; defaults throughout.
    events:
        Optional explicit :class:`~repro.obs.events.EventLog`.  When
        ``None`` the monitor emits through the process-wide active log
        (which the owning service installs on ``start()``), so it
        works standalone too.

    Thread-safe; :meth:`observe` is called from the service worker and
    intake threads.
    """

    def __init__(self, codec, config: Optional[QualityConfig] = None,
                 events: Optional[EventLog] = None) -> None:
        self.config = config or QualityConfig()
        self.codec = codec
        self.vocab = codec.vocab
        self.events = events
        self._lock = threading.Lock()
        self.drift = DriftDetector(self.vocab, self.config.drift)
        self._scorecards: Dict[int, _Tally] = {}
        self._window = _Tally(self.drift.size)
        self._observed = 0
        self._windows = 0
        self._drift_active = False
        self._drift_alerts: List[Dict[str, object]] = []
        self._last_version = 0
        # Version of the last reload: older results stay out of drift.
        self._reload_version = 0
        # canary reservoir of live clips
        self._rng = np.random.default_rng(self.config.seed)
        self._canary_clips: List[np.ndarray] = []
        self._canary_seen = 0
        self._canary_starts = 0
        self._canary_accepted = 0
        self._canary_refused = 0
        self._last_verdict: Optional[Dict[str, object]] = None
        # cached metric handles (hot path: one observe per request)
        self._windows_counter = metrics.counter("quality.windows")
        self._alerts_counter = metrics.counter("drift.alerts")
        self._conf_gauges = {
            head: metrics.gauge("quality.mean_confidence", head=head)
            for head in HEADS
        }
        self._tag_psi_gauges = {
            head: metrics.gauge("drift.tag_psi", head=head)
            for head in HEADS
        }
        self._conf_psi_gauge = metrics.gauge("drift.confidence_psi")
        self._conf_kl_gauge = metrics.gauge("drift.confidence_kl")

    # -- event plumbing ------------------------------------------------
    def _emit(self, event: str, **fields) -> None:
        log = (self.events if self.events is not None
               else obs_events.get_active())
        if log is not None:
            log.emit(event, **fields)

    # -- intake --------------------------------------------------------
    def observe(self, result) -> None:
        """Account one served :class:`~repro.serve.service.ServeResult`.

        Only results carrying an extraction (``ok`` / ``degraded``)
        are scored; the request-level statuses already live in the
        SLO tracker.  Emits a ``quality_window`` event every
        ``config.window`` observations and a latched ``drift_alert``
        when the detector crosses its thresholds.
        """
        extraction = result.result
        if extraction is None:
            return
        indices, values = self.drift.encode(extraction.description,
                                            extraction.confidences)
        version = int(getattr(result, "model_version", 0))
        flush = None
        with self._lock:
            self._observed += 1
            self._last_version = max(self._last_version, version)
            # A batch that ran on the old model can resolve after the
            # reload: its own scorecard counts it, the new drift
            # reference must not.  Checked and fed under the lock, so a
            # concurrent ``on_reload`` cannot re-pin in between.
            fresh = version >= self._reload_version
            if fresh:
                self.drift.add(indices)
            card = self._scorecards.get(version)
            if card is None:
                card = self._scorecards[version] = _Tally(self.drift.size)
            for tally in (card, self._window):
                tally.add(indices, values, result.status, result.cached)
            if self._window.requests >= self.config.window:
                flush = self._flush_window_locked()
        # Alert emission happens outside the monitor lock.
        if fresh:
            self._check_drift()
        if flush is not None:
            self._windows_counter.inc()
            self._emit("quality_window", **flush)

    def _flush_window_locked(self) -> Dict[str, object]:
        window = self._window
        mean_conf = window.mean_confidence()
        for head, value in mean_conf.items():
            self._conf_gauges[head].set(value)
        self._windows += 1
        self._window = _Tally(self.drift.size)
        return {
            "window": self._windows,
            "requests": window.requests,
            "statuses": dict(sorted(window.statuses.items())),
            "mean_confidence": mean_conf,
            "model_version": self._last_version,
        }

    def _check_drift(self) -> None:
        drifting, scores = self.drift.check()
        if scores is not None:
            for head, value in scores["tag_psi"].items():
                self._tag_psi_gauges[head].set(value)
            self._conf_psi_gauge.set(scores["confidence_psi"])
            self._conf_kl_gauge.set(scores["confidence_kl"])
        fire = None
        with self._lock:
            if drifting and not self._drift_active:
                self._drift_active = True
                fire = {
                    "tag_psi": scores["tag_psi"],
                    "tag_psi_max": scores["tag_psi_max"],
                    "confidence_psi": scores["confidence_psi"],
                    "confidence_kl": scores["confidence_kl"],
                    "window_samples": scores["window_samples"],
                    "psi_threshold": self.config.drift.psi_threshold,
                    "kl_threshold": self.config.drift.kl_threshold,
                    "model_version": self._last_version,
                }
                self._drift_alerts.append(fire)
            elif not drifting and self._drift_active:
                self._drift_active = False
        if fire is not None:
            self._alerts_counter.inc()
            self._emit("drift_alert", **fire)

    def on_reload(self, version: int) -> None:
        """A model swap happened: re-pin the drift reference.

        The old model's output distribution is no longer the yardstick
        for the new one, so the next ``reference_size`` observations of
        ``version`` or later re-pin it; the drift latch re-arms."""
        with self._lock:
            self.drift.pin_reference()
            self._drift_active = False
            self._reload_version = version
            self._last_version = max(self._last_version, version)

    # -- canary --------------------------------------------------------
    def sample_clip(self, clip: np.ndarray) -> None:
        """Reservoir-sample one live clip into the canary slice.

        Classic Algorithm-R on a seeded generator: every live clip has
        equal probability of being in the slice, the slice is bounded
        at ``canary_sample`` clips, and the selection is reproducible.
        """
        with self._lock:
            self._canary_seen += 1
            if len(self._canary_clips) < self.config.canary_sample:
                self._canary_clips.append(clip)
                return
            index = int(self._rng.integers(0, self._canary_seen))
            if index < self.config.canary_sample:
                self._canary_clips[index] = clip

    @property
    def canary_ready(self) -> bool:
        """Whether enough live traffic was sampled to judge a canary."""
        with self._lock:
            return (len(self._canary_clips)
                    >= self.config.canary_min_samples)

    def canary(self, serving, candidate,
               serving_version: int = 0) -> Dict[str, object]:
        """Shadow-run ``candidate`` on the sampled slice and judge it.

        Both extractors describe the same sampled live clips; the
        verdict scores mean per-clip tag agreement (scene and ego
        match 0/1, multi-label heads as the fraction of vocabulary
        tags with identical presence decisions, averaged over heads)
        and the mean absolute per-head confidence shift, plus the
        candidate's ECE with agreement as proxy correctness.  Emits
        ``canary_start`` / ``canary_verdict`` events and counts
        ``canary.verdicts{outcome=...}``; the caller (the service's
        ``reload``) enforces the verdict.
        """
        with self._lock:
            clips = list(self._canary_clips)
            self._canary_starts += 1
        if len(clips) < self.config.canary_min_samples:
            raise RuntimeError(
                f"canary needs at least "
                f"{self.config.canary_min_samples} sampled clips, "
                f"have {len(clips)}"
            )
        self._emit("canary_start", samples=len(clips),
                   serving_version=serving_version)
        batch = np.stack(clips)
        serving_results = serving.extract_batch(batch)
        candidate_results = candidate.extract_batch(batch)
        head_agreement = {head: 0.0 for head in HEADS}
        shift = 0.0
        confs: List[float] = []
        correct: List[bool] = []
        for base, cand in zip(serving_results, candidate_results):
            agree = _head_agreement(base.description, cand.description,
                                    self.vocab)
            for head in HEADS:
                head_agreement[head] += agree[head]
                confidence = float(cand.confidences.get(head, 0.0))
                shift += abs(confidence
                             - float(base.confidences.get(head, 0.0)))
                confs.append(confidence)
                correct.append(agree[head] >= 1.0)
        n = len(clips)
        for head in HEADS:
            head_agreement[head] /= n
        agreement = sum(head_agreement.values()) / len(HEADS)
        confidence_shift = shift / (n * len(HEADS))
        # A NaN clip makes the shift NaN, which no comparison refuses:
        # record it as ``None`` (strict JSON) and refuse it when bounded.
        if not math.isfinite(confidence_shift):
            confidence_shift = None
        cfg = self.config
        reasons = []
        if agreement < cfg.canary_min_agreement:
            reasons.append(
                f"agreement {agreement:.3f} < floor "
                f"{cfg.canary_min_agreement:.3f}")
        bound = cfg.canary_max_confidence_shift
        if bound is not None and confidence_shift is None:
            reasons.append("confidence shift is not finite")
        elif bound is not None and confidence_shift > bound:
            reasons.append(
                f"confidence shift {confidence_shift:.3f} > {bound:.3f}")
        accepted = not reasons
        verdict = {
            "accepted": accepted,
            "samples": n,
            "agreement": agreement,
            "per_head_agreement": head_agreement,
            "confidence_shift": confidence_shift,
            "agreement_floor": cfg.canary_min_agreement,
            # NaN confidences (a NaN clip) fall in no bin.
            "candidate_ece_vs_serving": expected_calibration_error(
                confs, correct, cfg.drift.confidence_bins),
            "reasons": reasons,
            "serving_version": serving_version,
        }
        with self._lock:
            self._last_verdict = verdict
            if accepted:
                self._canary_accepted += 1
            else:
                self._canary_refused += 1
        metrics.counter(
            "canary.verdicts",
            outcome="accepted" if accepted else "refused").inc()
        self._emit("canary_verdict", **verdict)
        return verdict

    # -- reporting -----------------------------------------------------
    def alerts(self) -> List[Dict[str, object]]:
        """Drift alerts fired so far (most recent last)."""
        with self._lock:
            return list(self._drift_alerts)

    def report(self) -> Dict[str, object]:
        """JSON-serialisable quality snapshot for ``health()`` / CLI."""
        scores = self.drift.scores()
        with self._lock:
            return {
                "observed": self._observed,
                "windows": self._windows,
                "models": {
                    str(version): self._scorecard(card)
                    for version, card in sorted(self._scorecards.items())
                },
                "drift": {
                    "scores": scores,
                    "active": self._drift_active,
                    "alerts": list(self._drift_alerts),
                    "alert_count": len(self._drift_alerts),
                },
                "canary": {
                    "sampled_clips": len(self._canary_clips),
                    "clips_seen": self._canary_seen,
                    "starts": self._canary_starts,
                    "accepted": self._canary_accepted,
                    "refused": self._canary_refused,
                    "last_verdict": self._last_verdict,
                },
            }

    def _scorecard(self, card: _Tally) -> Dict[str, object]:
        """One version's report, sliced out of its count vector."""
        n = card.requests
        counts = card.counts.tolist()
        rates = (card.counts / n).tolist()
        drift = self.drift
        return {
            "requests": n,
            "statuses": dict(sorted(card.statuses.items())),
            "cached": card.cached,
            "mean_confidence": card.mean_confidence(),
            "confidence_histogram": {
                head: counts[part]
                for head, part in drift.confidence_slices.items()},
            "tag_positive_rate": {
                head: dict(zip(drift.head_tags[head], rates[part]))
                for head, part in drift.tag_slices.items()},
        }


def _head_agreement(base, candidate, vocab) -> Dict[str, float]:
    """Per-head tag agreement between two decoded descriptions.

    Categorical heads agree 0/1; multi-label heads agree as the
    fraction of the vocabulary whose presence decision matches
    (symmetric difference over tag space).
    """
    return {
        "scene": 1.0 if base.scene == candidate.scene else 0.0,
        "ego_action": 1.0 if base.ego_action == candidate.ego_action
        else 0.0,
        "actors": 1.0 - (len(base.actors ^ candidate.actors)
                         / len(vocab.actor_types)),
        "actor_actions": 1.0 - (
            len(base.actor_actions ^ candidate.actor_actions)
            / len(vocab.actor_actions)),
    }
