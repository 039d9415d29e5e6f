"""SDL cosine top-k scoring and text → video retrieval metrics (Table 3).

Scenario2Vector-style evaluation: each test clip's ground-truth
description acts as the "text query"; the system must retrieve the clip
whose *extracted* description embeds closest to the query.  Quality is
reported as Recall@k and mean reciprocal rank (MRR) over the rankings
of a :class:`~repro.core.mining.ScenarioMiner`, whose
:meth:`~repro.core.mining.SDLIndex.rank` scores through
:func:`cosine_topk`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Sequence, Tuple

import numpy as np

from repro.sdl.description import ScenarioDescription

if TYPE_CHECKING:
    from repro.core.mining import ScenarioMiner


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


def retrieval_metrics(queries: Sequence[ScenarioDescription],
                      index: "ScenarioMiner",
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
        ranked = index.rank(query, top_k=len(index))[0].tolist()
        rank = ranked.index(target) + 1 if target in ranked else None
        for k in ks:
            if rank is not None and rank <= k:
                hits[k] += 1
        reciprocal_ranks.append(1.0 / rank if rank else 0.0)
    n = max(len(queries), 1)
    metrics = {f"recall@{k}": hits[k] / n for k in ks}
    metrics["mrr"] = float(np.mean(reciprocal_ranks)) if queries else 0.0
    return metrics
