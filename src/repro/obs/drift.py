"""Input/output drift detection for the serving tier (``repro.obs``).

The extractor's deployed quality cannot be measured directly — there is
no ground truth for live traffic — but a *shift* in what the model
emits is measurable: when the distribution of decoded SDL tags or of
decode confidences moves away from a pinned reference window, the model
is operating off the distribution it was validated on ("Eyes on the
Road" shows traffic-video models degrade sharply there).  This module
hosts the math and the streaming detector:

- :func:`psi` — the population stability index between two discrete
  distributions, the standard banking/ML-ops drift score
  (``< 0.1`` stable, ``0.1–0.25`` moderate, ``> 0.25`` major shift);
- :func:`kl_divergence` — Kullback–Leibler divergence, reported
  alongside PSI for the confidence histograms (PSI is symmetric-ish
  and bounded-ish; KL weights tail collapse more heavily);
- :class:`DriftDetector` — consumes one decoded result at a time,
  pins the first ``reference_size`` observations as the reference
  window, maintains a rolling current window, and scores per-head
  tag-distribution PSI plus confidence-distribution PSI/KL with
  explicit warmup and min-sample guards (no score, and therefore no
  alert, until both windows are populated).

:meth:`DriftDetector.encode` is the one encoding of a served result,
which the quality monitor's scorecards and windows count in too.

The detector is pure accounting — it never emits events or metrics
itself; :class:`repro.obs.quality.QualityMonitor` owns one and turns
threshold crossings into ``drift_alert`` events, gauges and alerts.
See ``docs/observability.md`` ("Quality monitoring & canary reloads").
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "HEADS",
    "DriftConfig",
    "DriftDetector",
    "confidence_bin",
    "kl_divergence",
    "psi",
]

#: ``np.sum`` of a 1-D array without the Python-level wrapper: the same
#: pairwise reduction, so the same bits.
_sum = np.add.reduce

#: The four decode heads, in layout and report order.
HEADS = ("scene", "ego_action", "actors", "actor_actions")


# ----------------------------------------------------------------------
# Divergence math
# ----------------------------------------------------------------------
def _as_distribution(counts: Sequence[float], epsilon: float) -> np.ndarray:
    """Counts → probabilities with an epsilon floor (then renormalised).

    The floor keeps empty bins from producing infinite scores — the
    conventional PSI smoothing — while preserving ``p.sum() == 1``.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim != 1 or counts.size == 0:
        raise ValueError("expected a non-empty 1-D count/probability vector")
    if np.any(counts < 0):
        raise ValueError("counts must be non-negative")
    total = counts.sum()
    if total <= 0:
        raise ValueError("distribution has no mass")
    probs = np.maximum(counts / total, epsilon)
    return probs / probs.sum()


def psi(reference: Sequence[float], current: Sequence[float],
        epsilon: float = 1e-4) -> float:
    """Population stability index between two count/probability vectors.

    ``sum((p_cur - p_ref) * ln(p_cur / p_ref))`` over bins, with both
    sides epsilon-smoothed.  Zero iff the (smoothed) distributions are
    identical; always non-negative.
    """
    ref = _as_distribution(reference, epsilon)
    cur = _as_distribution(current, epsilon)
    if ref.shape != cur.shape:
        raise ValueError(
            f"distribution shapes differ: {ref.shape} vs {cur.shape}"
        )
    return float(np.sum((cur - ref) * np.log(cur / ref)))


def kl_divergence(p: Sequence[float], q: Sequence[float],
                  epsilon: float = 1e-4) -> float:
    """``KL(p || q)`` over count/probability vectors, epsilon-smoothed.

    Measured in nats.  Zero iff the (smoothed) distributions agree.
    """
    p_probs = _as_distribution(p, epsilon)
    q_probs = _as_distribution(q, epsilon)
    if p_probs.shape != q_probs.shape:
        raise ValueError(
            f"distribution shapes differ: {p_probs.shape} vs "
            f"{q_probs.shape}"
        )
    return float(np.sum(p_probs * np.log(p_probs / q_probs)))


def confidence_bin(confidence: float, n_bins: int) -> int:
    """Equal-width bin index for a confidence in [0, 1].

    Matches the ``(low, high]`` binning of
    :func:`repro.eval.calibration.reliability_bins` (0.0 lands in the
    first bin), so drift histograms and calibration bins line up.
    Out-of-range values clamp; NaN (a model fed non-finite input) lands
    in the first bin, so no model output makes the caller raise.
    """
    if n_bins <= 0:
        raise ValueError("n_bins must be positive")
    confidence = float(confidence)
    if not confidence > 0.0:
        return 0
    return min(math.ceil(min(confidence, 1.0) * n_bins) - 1, n_bins - 1)


# ----------------------------------------------------------------------
# Streaming detector
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DriftConfig:
    """Knobs of :class:`DriftDetector`.

    ``reference_size`` observations are pinned as the reference window
    (warmup: no scores before it fills); the current window holds the
    most recent ``window_size`` observations and produces no scores
    below ``min_samples`` (guard against noisy tiny-sample PSI).  An
    alert condition is ``tag PSI > psi_threshold`` on any head, or
    ``confidence PSI > psi_threshold``, or
    ``confidence KL > kl_threshold``.
    """

    reference_size: int = 64
    window_size: int = 64
    min_samples: int = 24
    confidence_bins: int = 10
    psi_threshold: float = 0.25
    kl_threshold: float = 0.5
    epsilon: float = 1e-4

    def __post_init__(self) -> None:
        if self.reference_size <= 0 or self.window_size <= 0:
            raise ValueError("window sizes must be positive")
        if not 0 < self.min_samples <= self.window_size:
            raise ValueError("need 0 < min_samples <= window_size")
        if self.confidence_bins <= 0:
            raise ValueError("confidence_bins must be positive")
        if self.psi_threshold <= 0 or self.kl_threshold <= 0:
            raise ValueError("thresholds must be positive")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")


class DriftDetector:
    """Streaming tag- and confidence-distribution drift scoring.

    Parameters
    ----------
    vocab:
        The SDL :class:`~repro.sdl.vocabulary.Vocabulary` — its tag
        order sizes the per-head count vectors.
    config:
        :class:`DriftConfig` windows and thresholds.

    Feed one decoded result at a time via :meth:`observe` (or
    :meth:`add` its :meth:`encode` indices); read :meth:`scores`
    (``None`` while a guard is active) and :meth:`check`.  Thread-safe.

    An encoded result indexes the four tag heads in vocabulary order
    (``tag_slices``), then each head's confidence bins
    (``confidence_slices``).  Both windows are one count vector each
    with the heads' bins pooled (exact on whole counts).  Scoring runs
    every element-wise step of :func:`psi` / :func:`kl_divergence` once
    over the whole vector and sums each head's slice, so every score is
    bitwise what those functions return for the head alone.  The
    reference distribution is computed once per pinned reference.
    """

    def __init__(self, vocab, config: Optional[DriftConfig] = None) -> None:
        self.config = config or DriftConfig()
        self.vocab = vocab
        self._lock = threading.Lock()
        self.head_tags: Dict[str, Tuple[str, ...]] = {
            "scene": tuple(vocab.scenes),
            "ego_action": tuple(vocab.ego_actions),
            "actors": tuple(vocab.actor_types),
            "actor_actions": tuple(vocab.actor_actions),
        }
        # Stacked index of every tag, and each head's slice.
        self._tag_index: Dict[str, Dict[str, int]] = {}
        self.tag_slices: Dict[str, slice] = {}
        start = 0
        for head, tags in self.head_tags.items():
            self._tag_index[head] = {tag: start + i
                                     for i, tag in enumerate(tags)}
            self.tag_slices[head] = slice(start, start + len(tags))
            start += len(tags)
        bins = self.config.confidence_bins
        self.confidence_slices = {
            head: slice(start + i * bins, start + (i + 1) * bins)
            for i, head in enumerate(HEADS)}
        #: Length of an encoded count vector.
        self.size = start + len(HEADS) * bins
        # Window layout: the tags, then the pooled confidence bins.
        self._conf = slice(start, start + bins)
        self._pooled = np.concatenate((
            np.arange(start), start + np.tile(np.arange(bins), len(HEADS))))
        self._segments = list(self.tag_slices.values()) + [self._conf]
        self._starts = [s.start for s in self._segments]
        # Segment number of every stacked entry (broadcasts a
        # per-segment value over its entries).
        self._segment_of = np.repeat(
            np.arange(len(self._segments)),
            [s.stop - s.start for s in self._segments])
        self._reference_n = 0
        self._ref = np.zeros(self._conf.stop, dtype=np.float64)
        # (distribution, per-segment mass) of the pinned reference.
        self._ref_dist: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._window: Deque[List[int]] = deque()
        self._win = np.zeros(self._conf.stop, dtype=np.float64)
        self._observed = 0

    # -- intake --------------------------------------------------------
    def encode(self, description, confidences: Dict[str, float]
               ) -> Tuple[np.ndarray, List[float]]:
        """``(indices, values)`` of one decoded result.

        ``indices`` are the stacked count-vector entries it counts
        into, each at most once (tags are sets, every head has its own
        bins); ``values`` its confidences in :data:`HEADS` order (a
        missing head reads 0.0).
        """
        index = self._tag_index
        values = [float(confidences.get(head, 0.0)) for head in HEADS]
        bins = self.config.confidence_bins
        indices = [index["scene"][description.scene],
                   index["ego_action"][description.ego_action]]
        indices += [index["actors"][a] for a in description.actors]
        indices += [index["actor_actions"][a]
                    for a in description.actor_actions]
        indices += [part.start + confidence_bin(value, bins)
                    for part, value in zip(
                        self.confidence_slices.values(), values)]
        return np.array(indices, dtype=np.intp), values

    def observe(self, description, confidences: Dict[str, float]) -> None:
        """Account one decoded result.

        ``description`` is the decoded
        :class:`~repro.sdl.description.ScenarioDescription`;
        ``confidences`` the per-head decode confidences (the
        ``ExtractionResult.confidences`` dict).
        """
        self.add(self.encode(description, confidences)[0])

    def add(self, indices: np.ndarray) -> None:
        """Account one result's :meth:`encode` indices.  The first
        ``reference_size`` results pin the reference; later ones roll
        through the current window."""
        # Two heads may share a pooled bin, so fancy ``+=`` would drop a
        # count; ``np.add.at`` releases the GIL and stalls the serving
        # thread that calls this.  A loop over a few ints does neither.
        pooled = self._pooled[indices].tolist()
        with self._lock:
            self._observed += 1
            if self._reference_n < self.config.reference_size:
                self._reference_n += 1
                counts = self._ref
                for index in pooled:
                    counts[index] += 1.0
                return
            self._window.append(pooled)
            win = self._win
            for index in pooled:
                win[index] += 1.0
            if len(self._window) > self.config.window_size:
                for index in self._window.popleft():
                    win[index] -= 1.0

    def pin_reference(self) -> None:
        """Restart reference collection from the next observation.

        Used after an *accepted* model swap: the old model's output
        distribution is no longer the yardstick for the new one.
        """
        with self._lock:
            self._reference_n = 0
            self._ref[:] = 0.0
            self._ref_dist = None
            self._win[:] = 0.0
            self._window.clear()

    def _distribution(self, counts: np.ndarray
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """:func:`_as_distribution` of every segment of ``counts`` at
        once, with each segment's mass (a massless segment's entries
        are meaningless)."""
        if counts.min() < 0:
            raise ValueError("counts must be non-negative")
        # Whole counts: any summation order gives the exact mass.
        mass = np.add.reduceat(counts, self._starts)
        if mass[-1] <= 0:
            raise ValueError("distribution has no mass")
        segment_of = self._segment_of
        probs = np.maximum(
            counts / np.where(mass > 0, mass, 1.0)[segment_of],
            self.config.epsilon)
        # A sum per slice: the pairwise order _as_distribution uses.
        sums = np.array([_sum(probs[s]) for s in self._segments])
        return probs / sums[segment_of], mass

    # -- scoring -------------------------------------------------------
    @property
    def warmed_up(self) -> bool:
        with self._lock:
            return self._reference_n >= self.config.reference_size

    def scores(self) -> Optional[Dict[str, object]]:
        """Current drift scores, or ``None`` while a guard is active.

        Guards: the reference window must be fully pinned (warmup) and
        the current window must hold at least ``min_samples``
        observations — partial windows produce garbage PSI.
        """
        with self._lock:
            if self._reference_n < self.config.reference_size:
                return None
            if len(self._window) < self.config.min_samples:
                return None
            if self._ref_dist is None:
                self._ref_dist = self._distribution(self._ref)
            ref, ref_mass = self._ref_dist
            cur, cur_mass = self._distribution(self._win)
            log_ratio = np.log(cur / ref)
            terms = (cur - ref) * log_ratio
            tag_psi = {}
            for i, (head, part) in enumerate(self.tag_slices.items()):
                # A multilabel head where no tag fired in a window has
                # no mass to compare — report 0 (no evidence of drift).
                if ref_mass[i] <= 0 or cur_mass[i] <= 0:
                    tag_psi[head] = 0.0
                else:
                    tag_psi[head] = float(_sum(terms[part]))
            conf = self._conf
            conf_psi = float(_sum(terms[conf]))
            conf_kl = float(_sum(cur[conf] * log_ratio[conf]))
            return {
                "tag_psi": tag_psi,
                "tag_psi_max": max(tag_psi.values()),
                "confidence_psi": conf_psi,
                "confidence_kl": conf_kl,
                "reference_samples": self._reference_n,
                "window_samples": len(self._window),
                "observed": self._observed,
            }

    def check(self) -> Tuple[bool, Optional[Dict[str, object]]]:
        """``(drifting, scores)`` under the configured thresholds.

        ``drifting`` is ``False`` whenever :meth:`scores` is guarded
        (``None``) — a warmup can never fire an alert.
        """
        scores = self.scores()
        if scores is None:
            return False, None
        cfg = self.config
        drifting = (scores["tag_psi_max"] > cfg.psi_threshold
                    or scores["confidence_psi"] > cfg.psi_threshold
                    or scores["confidence_kl"] > cfg.kl_threshold)
        return drifting, scores
