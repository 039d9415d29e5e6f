"""Text/SDL → video retrieval and its evaluation metrics (Table 3).

Scenario2Vector-style evaluation: each test clip's ground-truth
description acts as the "text query"; the system must retrieve the clip
whose *extracted* description embeds closest to the query.  Quality is
reported as Recall@k and mean reciprocal rank (MRR).

The index is incremental: ``add_batch`` / ``add_clips`` append to the
existing contents under fresh, stable clip ids, and ``add_clips`` can
populate from an extraction cache so re-indexing a known corpus costs
no forward passes (see ``docs/caching.md``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.sdl.description import ScenarioDescription
from repro.sdl.similarity import sdl_vector


def topk_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` best scores, ordered by (-score, index).

    Uses ``np.argpartition`` to avoid a full sort, then resolves the
    boundary exactly: every index tied with the k-th score enters the
    candidate set before the final (small) ordering pass, so the result
    is identical to a stable full sort — ties break toward the lower
    index — without its O(n log n) cost.
    """
    n = len(scores)
    k = min(k, n)
    if k <= 0:
        return np.zeros(0, dtype=np.intp)
    if k < n:
        top = np.argpartition(-scores, k - 1)[:k]
        boundary = scores[top].min()
        candidates = np.nonzero(scores >= boundary)[0]
    else:
        candidates = np.arange(n)
    order = np.lexsort((candidates, -scores[candidates]))
    return candidates[order][:k]


def cosine_topk(matrix: np.ndarray, row_norms: np.ndarray,
                q: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Positions and SDL cosine scores of the ``k`` rows of ``matrix``
    closest to ``q``, best first (ties by position).  Every index scores
    through here: a zero denominator scores 0 and scores are clipped to
    ``[0, 1]``.  ``row_norms`` is ``np.linalg.norm(matrix, axis=1)``."""
    denom = row_norms * np.linalg.norm(q)
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = np.where(denom == 0.0, 0.0, matrix @ q / denom)
    scores = np.clip(scores, 0.0, 1.0)
    positions = topk_indices(scores, k)
    return positions, scores[positions]


class RetrievalIndex:
    """In-memory cosine-similarity index over SDL embedding vectors.

    ``extractor`` (and optionally ``cache``) enable
    :meth:`add_clips` — indexing raw clips through extraction.
    """

    def __init__(self, extractor=None, cache=None) -> None:
        self._ids: List[int] = []
        self._id_set: Set[int] = set()
        self._descriptions: List[ScenarioDescription] = []
        self._vectors: List[np.ndarray] = []
        self._matrix: Optional[np.ndarray] = None
        self._row_norms: Optional[np.ndarray] = None
        self._extractor = extractor
        self._cache = cache

    def add(self, clip_id: int, description: ScenarioDescription) -> None:
        """Add one clip under a caller-chosen id; ids must be unique.

        Membership is checked against a side set, so indexing N clips
        costs O(N) total (the list-scan it replaced made it O(N²)).
        """
        if clip_id in self._id_set:
            raise ValueError(f"clip id {clip_id} already indexed")
        self._ids.append(clip_id)
        self._id_set.add(clip_id)
        self._descriptions.append(description)
        self._vectors.append(sdl_vector(description))
        self._matrix = None
        self._row_norms = None

    def add_batch(self, descriptions: Sequence[ScenarioDescription]
                  ) -> List[int]:
        """Append descriptions under fresh sequential ids.

        Ids continue from the current index size, so repeated calls
        never collide (a second batch used to silently reuse ids
        0..n-1, corrupting ``retrieval_metrics`` tie resolution).
        Returns the assigned ids.
        """
        start = len(self._ids)
        ids = list(range(start, start + len(descriptions)))
        for clip_id, desc in zip(ids, descriptions):
            self.add(clip_id, desc)
        return ids

    def add_clips(self, clips: np.ndarray,
                  extractor=None, cache=None) -> List[int]:
        """Extract and index clips ``(N, T, C, H, W)`` incrementally.

        Uses the index's configured extractor/cache unless overridden.
        Cache hits skip the forward pass entirely.  Returns the stable
        ids assigned to these clips.
        """
        from repro.core.cache import cached_extract_batch

        extractor = extractor or self._extractor
        if extractor is None:
            raise ValueError("add_clips needs an extractor (pass one "
                             "here or to the constructor)")
        cache = cache if cache is not None else self._cache
        results = cached_extract_batch(extractor, np.asarray(clips), cache)
        return self.add_batch([r.description for r in results])

    def __len__(self) -> int:
        return len(self._ids)

    def description(self, position: int) -> ScenarioDescription:
        """The description stored at ``position`` (insertion order)."""
        return self._descriptions[position]

    def _stacked(self) -> Tuple[np.ndarray, np.ndarray]:
        """The stacked embedding matrix and its row norms, cached.

        Rebuilt lazily after an append invalidates it — repeated
        queries over an unchanged index reuse one allocation instead of
        re-stacking every vector per query (which made
        ``retrieval_metrics``' query-per-clip loop quadratic).
        """
        if self._matrix is None:
            self._matrix = np.stack(self._vectors)
            self._row_norms = np.linalg.norm(self._matrix, axis=1)
        return self._matrix, self._row_norms

    def search(self, description: ScenarioDescription, top_k: int = 5
               ) -> List[Tuple[int, int, float]]:
        """The ``top_k`` closest clips as ``(position, clip_id, score)``,
        best first (ties by insertion order)."""
        if not self._ids:
            raise RuntimeError("empty retrieval index")
        matrix, row_norms = self._stacked()
        positions, scores = cosine_topk(matrix, row_norms,
                                        sdl_vector(description), top_k)
        return [(int(p), self._ids[p], float(s))
                for p, s in zip(positions, scores)]

    def query(self, description: ScenarioDescription,
              top_k: int = 5) -> List[int]:
        """Clip ids ranked by similarity to the query description."""
        return [clip_id for _, clip_id, _ in self.search(description,
                                                         top_k)]


def retrieval_metrics(queries: Sequence[ScenarioDescription],
                      index: RetrievalIndex,
                      correct_ids: Sequence[int],
                      ks: Sequence[int] = (1, 5)) -> Dict[str, float]:
    """Recall@k and MRR when query ``i`` should retrieve
    ``correct_ids[i]``.

    Ties in SDL space are common (identical descriptions embed
    identically), so recall counts a hit when the correct id appears in
    the top-k of a stable ranking.
    """
    if len(queries) != len(correct_ids):
        raise ValueError("queries and correct_ids must align")
    hits = {k: 0 for k in ks}
    reciprocal_ranks = []
    for query, target in zip(queries, correct_ids):
        ranked = index.query(query, top_k=len(index))
        rank = ranked.index(target) + 1 if target in ranked else None
        for k in ks:
            if rank is not None and rank <= k:
                hits[k] += 1
        reciprocal_ranks.append(1.0 / rank if rank else 0.0)
    n = max(len(queries), 1)
    metrics = {f"recall@{k}": hits[k] / n for k in ks}
    metrics["mrr"] = float(np.mean(reciprocal_ranks)) if queries else 0.0
    return metrics
