"""SynthDrive: the synthetic driving-clip dataset.

Substitutes the public driving-video datasets used by the paper (see
DESIGN.md §2): scenario scripts drive the microsimulation, the BEV
renderer produces clips, and the rule-based annotator produces SDL
ground truth.  Generation is fully seeded and balanced over scenario
families by default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.durable import atomic_open
from repro.nn.module import checkpoint_path
from repro.sdl.annotator import annotate
from repro.sdl.codec import LabelCodec
from repro.sdl.description import ScenarioDescription
from repro.sim.render import BEVRenderer, RenderConfig
from repro.sim.scenarios import SCENARIO_FAMILIES, simulate_scenario


@dataclass(frozen=True)
class SynthDriveConfig:
    """Generation parameters for a SynthDrive dataset."""

    num_clips: int = 120
    frames: int = 16
    height: int = 32
    width: int = 32
    duration: float = 8.0
    seed: int = 0
    families: Optional[Tuple[str, ...]] = None  # default: all families
    balanced: bool = True
    fps: Optional[float] = None
    """Frame sampling: ``None`` spreads ``frames`` evenly over the whole
    recording (temporal context = full duration regardless of ``frames``);
    a value samples at that fixed rate centred on the recording midpoint,
    so temporal context grows with ``frames`` — required for clip-length
    ablations (Figure 2)."""
    view: str = "bev"
    """Rendering: ``"bev"`` (ego-centred bird's-eye view) or ``"camera"``
    (forward-facing perspective projection, dashcam-style)."""
    ambient_traffic: int = 0
    """Background vehicles injected into side lanes (distractors)."""

    def __post_init__(self) -> None:
        if self.view not in ("bev", "camera"):
            raise ValueError(f"view must be 'bev' or 'camera', "
                             f"got {self.view!r}")

    def resolved_families(self) -> Tuple[str, ...]:
        if self.families is None:
            return tuple(sorted(SCENARIO_FAMILIES))
        unknown = set(self.families) - set(SCENARIO_FAMILIES)
        if unknown:
            raise KeyError(f"unknown scenario families: {sorted(unknown)}")
        return tuple(self.families)


class SynthDriveDataset:
    """In-memory clip dataset: videos, SDL descriptions, encoded targets."""

    def __init__(self, videos: np.ndarray,
                 descriptions: List[ScenarioDescription],
                 families: List[str],
                 codec: Optional[LabelCodec] = None) -> None:
        if len(videos) != len(descriptions) or len(videos) != len(families):
            raise ValueError("videos, descriptions and families must align")
        self.videos = videos
        self.descriptions = descriptions
        self.families = families
        self.codec = codec or LabelCodec()
        self.targets = self.codec.encode_batch(descriptions)

    def __len__(self) -> int:
        return len(self.videos)

    def __getitem__(self, index: int):
        return (
            self.videos[index],
            self.descriptions[index],
            self.families[index],
        )

    def subset(self, indices: Sequence[int]) -> "SynthDriveDataset":
        indices = np.asarray(indices, dtype=np.int64)
        return SynthDriveDataset(
            self.videos[indices],
            [self.descriptions[i] for i in indices],
            [self.families[i] for i in indices],
            codec=self.codec,
        )

    def split(self, fractions: Tuple[float, float, float] = (0.7, 0.15, 0.15),
              seed: int = 0):
        """Shuffled train/val/test split (stratified by family)."""
        if abs(sum(fractions) - 1.0) > 1e-6:
            raise ValueError("split fractions must sum to 1")
        rng = np.random.default_rng(seed)
        by_family: Dict[str, List[int]] = {}
        for i, family in enumerate(self.families):
            by_family.setdefault(family, []).append(i)
        train_idx, val_idx, test_idx = [], [], []
        for family in sorted(by_family):
            indices = np.array(by_family[family])
            rng.shuffle(indices)
            n = len(indices)
            n_train = int(round(fractions[0] * n))
            n_val = int(round(fractions[1] * n))
            train_idx.extend(indices[:n_train])
            val_idx.extend(indices[n_train:n_train + n_val])
            test_idx.extend(indices[n_train + n_val:])
        return (self.subset(train_idx), self.subset(val_idx),
                self.subset(test_idx))

    def save(self, path: str) -> None:
        """Persist to ``.npz`` (videos + JSON descriptions + families),
        atomically, under the :func:`checkpoint_path` name."""
        descriptions = [d.to_json() for d in self.descriptions]
        with atomic_open(checkpoint_path(path), "wb") as handle:
            np.savez_compressed(handle, videos=self.videos,
                                descriptions=np.array(descriptions),
                                families=np.array(self.families))

    @classmethod
    def load(cls, path: str) -> "SynthDriveDataset":
        with np.load(path, allow_pickle=False) as archive:
            videos = archive["videos"]
            descriptions = [ScenarioDescription.from_json(str(s))
                            for s in archive["descriptions"]]
            families = [str(f) for f in archive["families"]]
        return cls(videos, descriptions, families)


def _frame_indices(total: int, frames: int, dt: float,
                   fps: Optional[float] = None) -> np.ndarray:
    """Snapshot indices for one clip.

    Without ``fps``: evenly spaced over the whole recording.  With
    ``fps``: ``frames`` consecutive samples at that rate, centred on the
    recording midpoint (clamped to the recording).
    """
    if frames > total:
        raise ValueError(f"cannot sample {frames} frames from {total}")
    if fps is None:
        return np.linspace(0, total - 1, frames).round().astype(int)
    step = max(int(round(1.0 / (fps * dt))), 1)
    span = (frames - 1) * step
    if span > total - 1:
        raise ValueError(
            f"{frames} frames at {fps} fps need {span + 1} snapshots, "
            f"recording has {total}"
        )
    start = (total - 1 - span) // 2
    return start + step * np.arange(frames)


def generate_clip(family: str, seed: int, config: SynthDriveConfig):
    """Simulate, render and annotate one clip."""
    recording = simulate_scenario(family, seed=seed,
                                  duration=config.duration,
                                  ambient_traffic=config.ambient_traffic)
    if config.view == "camera":
        from repro.sim.camera import CameraConfig, PerspectiveRenderer

        renderer = PerspectiveRenderer(
            CameraConfig(height=config.height, width=config.width),
            road=recording.road,
        )
    else:
        renderer = BEVRenderer(
            RenderConfig(height=config.height, width=config.width,
                         ego_row=int(config.height * 0.8)),
            road=recording.road,
        )
    indices = _frame_indices(len(recording.snapshots), config.frames,
                             recording.dt, config.fps)
    frames = np.stack(
        [renderer.render(recording.snapshots[i]) for i in indices]
    )
    description = annotate(recording.snapshots)
    return frames, description


def _clip_task(task: Tuple[str, int, SynthDriveConfig]):
    """Module-level worker for :func:`generate_dataset` (picklable)."""
    family, clip_seed, config = task
    return generate_clip(family, clip_seed, config)


def _clip_plan(config: SynthDriveConfig) -> List[Tuple[str, int]]:
    """The ``(family, seed)`` schedule for every clip.

    Computed up front — independent of how the clips are later executed
    — so serial and parallel generation are bit-identical by
    construction: each clip's output depends only on its own
    ``(family, seed, config)``.
    """
    families = config.resolved_families()
    rng = np.random.default_rng(config.seed)
    plan = []
    for i in range(config.num_clips):
        if config.balanced:
            family = families[i % len(families)]
        else:
            family = families[int(rng.integers(len(families)))]
        plan.append((family, int(config.seed * 100_003 + i)))
    return plan


def generate_dataset(config: SynthDriveConfig,
                     workers: int = 0) -> SynthDriveDataset:
    """Generate a seeded, (by default) family-balanced dataset.

    ``workers > 1`` fans clip generation out over a process pool;
    because every clip is generated from a precomputed per-clip seed,
    the result is bit-for-bit identical to the serial path (asserted by
    ``tests/test_autograd_fused.py``).
    """
    plan = _clip_plan(config)
    tasks = [(family, seed, config) for family, seed in plan]
    if workers > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        chunksize = max(1, len(tasks) // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            clips = list(pool.map(_clip_task, tasks, chunksize=chunksize))
    else:
        clips = [_clip_task(task) for task in tasks]
    videos = np.stack([frames for frames, _ in clips])
    descriptions = [description for _, description in clips]
    family_labels = [family for family, _ in plan]
    return SynthDriveDataset(videos, descriptions, family_labels)
