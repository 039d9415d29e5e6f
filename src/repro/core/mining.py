"""Scenario mining and retrieval: rank clips by SDL similarity to a
queried scenario description.

The downstream use-case motivating automated extraction: a fleet
operator asks "show me every pedestrian-crossing clip" and the miner
ranks a corpus by SDL similarity between the query and each clip's
*extracted* description.  Text→video retrieval (Table 3) runs the same
ranking, with a ground-truth description as the query.

:class:`SDLIndex` holds that one query for both indexes: the in-memory
:class:`ScenarioMiner` below and the on-disk
:class:`~repro.core.fleet.FleetIndex`.  Each index supplies only its
stacked SDL-vector matrix with row norms and how a hit's description
and sentence are found.

The miner is incremental: :meth:`ScenarioMiner.add_clips` appends new
clips under stable ids (their insertion positions) without touching
what is already indexed, and an optional
:class:`~repro.core.cache.ExtractionCache` answers repeat clips without
a forward pass (see ``docs/caching.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cache import cached_extract_batch
from repro.core.pipeline import ScenarioExtractor
from repro.core.retrieval import cosine_topk
from repro.sdl.description import ScenarioDescription
from repro.sdl.similarity import sdl_vector


@dataclass(frozen=True)
class MiningHit:
    clip_id: int
    score: float
    description: ScenarioDescription
    sentence: str


def tag_query(**tags) -> ScenarioDescription:
    """The query description keyword tags stand for, e.g.
    ``tag_query(ego_action="stop", actors={"pedestrian"})``."""
    return ScenarioDescription(
        scene=tags.get("scene", "straight-road"),
        ego_action=tags.get("ego_action", "drive-straight"),
        actors=frozenset(tags.get("actors", ())),
        actor_actions=frozenset(tags.get("actor_actions", ())),
    )


class SDLIndex:
    """Cosine top-k over SDL vectors, shared by every index.

    A subclass provides ``__len__``, ``_stack()`` (the stacked vectors
    and their row norms; a row's position is its clip id),
    ``_describe(clip_ids)`` (each hit's description and sentence, for
    an array of clip ids) and
    ``_EMPTY`` (the message for querying an empty index).
    """

    _EMPTY = "index holds no clips"

    def rank(self, query: ScenarioDescription, top_k: int = 5
             ) -> Tuple[np.ndarray, np.ndarray]:
        """Clip ids and scores of the ``top_k`` clips closest to
        ``query``, best first; ties rank by ascending clip id."""
        if not len(self):
            raise RuntimeError(self._EMPTY)
        if top_k <= 0:
            raise ValueError("top_k must be positive")
        matrix, norms = self._stack()
        return cosine_topk(matrix, norms, sdl_vector(query), top_k)

    def query(self, query: ScenarioDescription, top_k: int = 5,
              min_score: float = 0.0) -> List[MiningHit]:
        """Rank indexed clips by SDL similarity to ``query``.

        ``min_score`` is an **inclusive** floor: a hit scoring exactly
        ``min_score`` is returned, and every clip tied at the threshold
        is treated identically (the filter is applied per score, so
        threshold ties can't be half-dropped).  Ties in score rank by
        ascending clip id.
        """
        ids, scores = self.rank(query, top_k)
        # Scores come best first, so the hits at or above the floor are
        # a prefix of the ranking.
        kept = [score for score in scores.tolist() if score >= min_score]
        ids = ids[:len(kept)]
        return [MiningHit(clip_id, score, desc, sentence)
                for clip_id, score, (desc, sentence)
                in zip(ids.tolist(), kept, self._describe(ids))]

    def query_tags(self, top_k: int = 5, min_score: float = 0.0,
                   **tags) -> List[MiningHit]:
        """Convenience query from keyword tags, e.g.
        ``query_tags(ego_action="stop", actors={"pedestrian"})``;
        ``min_score`` is forwarded to :meth:`query`."""
        return self.query(tag_query(**tags), top_k=top_k,
                          min_score=min_score)


class ScenarioMiner(SDLIndex):
    """The in-memory index: clips or descriptions, ranked by SDL
    similarity; a clip's id is its insertion position.

    ``extractor`` (and optionally ``cache``) are needed only to index
    raw clips; a description-only index needs no model.
    """

    _EMPTY = "miner has no indexed clips; call index()"

    def __init__(self, extractor: Optional[ScenarioExtractor] = None,
                 cache=None) -> None:
        self.extractor = extractor
        self.cache = cache
        self._clear()

    def _clear(self) -> None:
        self._descriptions: List[ScenarioDescription] = []
        self._vectors: List[np.ndarray] = []
        self._stacked: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # -- indexing -----------------------------------------------------
    def index(self, clips: np.ndarray) -> None:
        """Extract and store descriptions for a corpus
        ``(N, T, C, H, W)``; replaces any previous index."""
        self._clear()
        self.add_clips(clips)

    def add_clips(self, clips: np.ndarray) -> List[int]:
        """Incrementally index clips ``(N, T, C, H, W)``.

        Appends to the existing index and returns the stable clip ids
        assigned to these clips (continuing from the current size, so
        ids handed out by earlier calls keep their meaning).  With a
        cache attached, clips seen before — under the same model
        version, vocabulary and threshold — skip extraction entirely.
        """
        if self.extractor is None:
            raise ValueError("add_clips needs an extractor; pass one to "
                             "ScenarioMiner")
        results = cached_extract_batch(self.extractor, np.asarray(clips),
                                       self.cache)
        return self.add_descriptions([r.description for r in results])

    def index_descriptions(self,
                           descriptions: Sequence[ScenarioDescription]
                           ) -> None:
        """Index pre-computed descriptions (e.g. ground truth);
        replaces any previous index."""
        self._clear()
        self.add_descriptions(descriptions)

    def add_descriptions(self,
                         descriptions: Sequence[ScenarioDescription]
                         ) -> List[int]:
        """Append pre-computed descriptions; returns their clip ids,
        which continue from the current size."""
        start = len(self._descriptions)
        self._descriptions.extend(descriptions)
        self._vectors.extend(sdl_vector(d) for d in descriptions)
        self._stacked = None
        return list(range(start, len(self._descriptions)))

    def __len__(self) -> int:
        return len(self._descriptions)

    @property
    def size(self) -> int:
        return len(self)

    # -- SDLIndex -----------------------------------------------------
    def _stack(self) -> Tuple[np.ndarray, np.ndarray]:
        """The stacked vectors and their row norms, cached until the
        next append, so repeated queries over an unchanged index reuse
        one matrix."""
        if self._stacked is None:
            matrix = np.stack(self._vectors)
            self._stacked = (matrix, np.linalg.norm(matrix, axis=1))
        return self._stacked

    def _describe(self, clip_ids: np.ndarray
                  ) -> Iterable[Tuple[ScenarioDescription, str]]:
        for clip_id in clip_ids.tolist():
            desc = self._descriptions[clip_id]
            yield desc, desc.to_sentence()
