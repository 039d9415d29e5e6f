"""In-process client for :class:`~repro.serve.service.ExtractionService`.

Callers submit clips and receive :class:`~repro.serve.service.ServeResult`
objects — never exceptions for service-side faults (sheds, timeouts,
degradation all arrive as explicit statuses).  ``extract_many`` drives a
concurrent burst through a thread pool, which is what gives the
micro-batcher something to coalesce.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.serve.service import ExtractionService, ServeResult


class ServiceClient:
    """Thin convenience wrapper over a running service."""

    def __init__(self, service: ExtractionService) -> None:
        self.service = service

    # -- single requests ----------------------------------------------
    def extract(self, clip: np.ndarray,
                timeout: Optional[float] = None) -> ServeResult:
        """Extract one clip ``(T, C, H, W)``; blocks for the outcome."""
        return self.service.extract(clip, timeout=timeout)

    # -- bursts --------------------------------------------------------
    def extract_many(self, clips: Sequence[np.ndarray],
                     concurrency: int = 8,
                     timeout: Optional[float] = None) -> List[ServeResult]:
        """Submit ``clips`` concurrently; results in submission order.

        ``concurrency`` caps the number of in-flight waits, emulating
        that many independent callers.
        """
        if concurrency <= 0:
            raise ValueError("concurrency must be positive")

        def one(clip: np.ndarray) -> ServeResult:
            return self.service.submit(clip, timeout=timeout).result()

        with ThreadPoolExecutor(max_workers=concurrency) as pool:
            return list(pool.map(one, clips))

    # -- probes --------------------------------------------------------
    def health(self) -> Dict[str, object]:
        return self.service.health()

    def ready(self) -> bool:
        return self.service.ready()
