"""Scenario mining: find clips matching a queried scenario description.

The downstream use-case motivating automated extraction: a fleet
operator asks "show me every pedestrian-crossing clip" and the miner
ranks a corpus by SDL similarity between the query and each clip's
*extracted* description.

The miner is incremental: :meth:`ScenarioMiner.add_clips` appends new
clips under stable, caller-visible ids without touching what is already
indexed, and an optional :class:`~repro.core.cache.ExtractionCache`
answers repeat clips without a forward pass (see ``docs/caching.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.core.pipeline import ScenarioExtractor
from repro.core.retrieval import RetrievalIndex
from repro.sdl.description import ScenarioDescription


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


class ScenarioMiner:
    """Indexes a clip corpus by extracted descriptions and answers
    description queries; a clip's id is its position in the
    underlying :class:`~repro.core.retrieval.RetrievalIndex`."""

    def __init__(self, extractor: ScenarioExtractor, cache=None) -> None:
        self.extractor = extractor
        self.cache = cache
        self._index = RetrievalIndex()

    # -- indexing -----------------------------------------------------
    def index(self, clips: np.ndarray) -> None:
        """Extract and store descriptions for a corpus
        ``(N, T, C, H, W)``; replaces any previous index."""
        self._index = RetrievalIndex()
        self.add_clips(clips)

    def add_clips(self, clips: np.ndarray) -> List[int]:
        """Incrementally index clips ``(N, T, C, H, W)``.

        Appends to the existing index and returns the stable clip ids
        assigned to these clips (continuing from the current size, so
        ids handed out by earlier calls keep their meaning).  With a
        cache attached, clips seen before — under the same model
        version, vocabulary and threshold — skip extraction entirely.
        """
        return self._index.add_clips(clips, extractor=self.extractor,
                                     cache=self.cache)

    def index_descriptions(self,
                           descriptions: Sequence[ScenarioDescription]
                           ) -> None:
        """Index pre-computed descriptions (e.g. ground truth);
        replaces any previous index."""
        self._index = RetrievalIndex()
        self.add_descriptions(descriptions)

    def add_descriptions(self,
                         descriptions: Sequence[ScenarioDescription]
                         ) -> List[int]:
        """Append pre-computed descriptions; returns their clip ids."""
        return self._index.add_batch(descriptions)

    @property
    def size(self) -> int:
        return len(self._index)

    # -- querying -----------------------------------------------------
    def query(self, query: ScenarioDescription, top_k: int = 5,
              min_score: float = 0.0) -> List[MiningHit]:
        """Rank indexed clips by SDL similarity to ``query``.

        ``min_score`` is an **inclusive** floor: a hit scoring exactly
        ``min_score`` is returned, and every clip tied at the threshold
        is treated identically (the filter is applied per score, never
        by truncating a sorted prefix, so threshold ties can't be
        half-dropped).  Ties in score rank by ascending clip id.
        """
        if not len(self._index):
            raise RuntimeError("miner has no indexed clips; call index()")
        if top_k <= 0:
            raise ValueError("top_k must be positive")
        hits = []
        for position, clip_id, score in self._index.search(query, top_k):
            if score < min_score:
                continue
            desc = self._index.description(position)
            hits.append(MiningHit(clip_id=clip_id, score=score,
                                  description=desc,
                                  sentence=desc.to_sentence()))
        return hits

    def query_tags(self, top_k: int = 5, min_score: float = 0.0,
                   **tags) -> List[MiningHit]:
        """Convenience query from keyword tags, e.g.
        ``query_tags(ego_action="stop", actors={"pedestrian"})``.

        ``min_score`` is forwarded to :meth:`query` (it used to be
        silently dropped on this path)."""
        return self.query(tag_query(**tags), top_k=top_k,
                          min_score=min_score)
