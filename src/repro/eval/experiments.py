"""Experiment runners, one per reconstructed table/figure.

Every runner is deterministic given its :class:`ExperimentScale` and is
invoked both by the ``benchmarks/`` suite and by users reproducing
EXPERIMENTS.md.  Dataset generation is memoised per process so the six
Table-1 models share the same split.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.mining import ScenarioMiner
from repro.core.retrieval import retrieval_metrics
from repro.data import SynthDriveConfig, generate_dataset, inject_label_noise
from repro.models import ModelConfig, build_model
from repro.sdl.codec import LabelCodec
from repro.train import TrainConfig, Trainer

TABLE1_MODELS = ("frame-mlp", "c3d", "frame-vit", "vt-joint", "vt-divided",
                 "vt-factorized")


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs trading fidelity for wall-clock; the defaults target
    CPU benchmark runs of tens of seconds per model."""

    num_clips: int = 240
    frames: int = 8
    height: int = 32
    width: int = 32
    dim: int = 48
    depth: int = 2
    num_heads: int = 4
    epochs: int = 10
    batch_size: int = 16
    lr: float = 3e-3
    seed: int = 0

    def model_config(self, **overrides) -> ModelConfig:
        params = dict(
            frames=self.frames, height=self.height, width=self.width,
            dim=self.dim, depth=self.depth, num_heads=self.num_heads,
            seed=self.seed,
        )
        params.update(overrides)
        return ModelConfig(**params)

    def train_config(self, **overrides) -> TrainConfig:
        params = dict(epochs=self.epochs, batch_size=self.batch_size,
                      lr=self.lr, seed=self.seed)
        params.update(overrides)
        return TrainConfig(**params)


@lru_cache(maxsize=16)
def _cached_dataset(num_clips: int, frames: int, height: int, width: int,
                    seed: int, fps: Optional[float], view: str):
    config = SynthDriveConfig(num_clips=num_clips, frames=frames,
                              height=height, width=width, seed=seed,
                              fps=fps, view=view)
    return generate_dataset(config)


def prepare_data(scale: ExperimentScale, frames: Optional[int] = None,
                 fps: Optional[float] = None, view: str = "bev"):
    """Generate (memoised) and split the dataset for a scale."""
    dataset = _cached_dataset(scale.num_clips, frames or scale.frames,
                              scale.height, scale.width, scale.seed, fps,
                              view)
    return dataset.split((0.7, 0.15, 0.15), seed=scale.seed)


def train_model(name: str, scale: ExperimentScale,
                train_set=None, test_set=None,
                model_overrides: Optional[dict] = None,
                train_overrides: Optional[dict] = None,
                target_override=None):
    """Train one registered model and evaluate on the test split.

    Returns ``(trainer, metrics, train_seconds)``.
    """
    if train_set is None or test_set is None:
        train_set, _, test_set = prepare_data(scale)
    model = build_model(name, scale.model_config(**(model_overrides or {})))
    trainer = Trainer(model, scale.train_config(**(train_overrides or {})))
    start = time.perf_counter()
    trainer.fit(train_set, target_override=target_override)
    seconds = time.perf_counter() - start
    metrics = trainer.evaluate(test_set)
    return trainer, metrics, seconds


# ----------------------------------------------------------------------
# Table 1 — model comparison
# ----------------------------------------------------------------------
def run_table1_model_comparison(
    scale: ExperimentScale,
    models: Sequence[str] = TABLE1_MODELS,
) -> Dict[str, Dict[str, float]]:
    train_set, _, test_set = prepare_data(scale)
    results = {}
    for name in models:
        _, metrics, seconds = train_model(name, scale, train_set, test_set)
        metrics = dict(metrics)
        metrics["train_s"] = seconds
        results[name] = metrics
    return results


# ----------------------------------------------------------------------
# Table 2 — per-tag breakdown of the best video transformer
# ----------------------------------------------------------------------
def run_table2_per_tag(scale: ExperimentScale,
                       model: str = "vt-divided") -> Dict[str, Dict]:
    train_set, _, test_set = prepare_data(scale)
    trainer, _, _ = train_model(model, scale, train_set, test_set)
    return trainer.per_tag_report(test_set)


# ----------------------------------------------------------------------
# Table 3 — description-based retrieval
# ----------------------------------------------------------------------
def run_table3_retrieval(scale: ExperimentScale,
                         model: str = "vt-divided",
                         baseline: str = "frame-vit"
                         ) -> Dict[str, Dict[str, float]]:
    """Recall@k / MRR of text→video retrieval using extracted
    descriptions, compared against a spatial-only baseline, ground-truth
    (oracle) indexing, and random ranking."""
    train_set, _, test_set = prepare_data(scale)
    queries = list(test_set.descriptions)
    correct = list(range(len(queries)))
    results: Dict[str, Dict[str, float]] = {}

    for name in (model, baseline):
        trainer, _, _ = train_model(name, scale, train_set, test_set)
        extracted = trainer.codec.decode_batch(
            trainer.predict_logits(test_set.videos)
        )
        index = ScenarioMiner()
        index.add_descriptions(extracted)
        results[name] = retrieval_metrics(queries, index, correct)

    oracle = ScenarioMiner()
    oracle.add_descriptions(queries)
    results["oracle"] = retrieval_metrics(queries, oracle, correct)

    rng = np.random.default_rng(scale.seed)
    n = len(queries)
    random_hits = {1: 0, 5: 0}
    rr = []
    for i in range(n):
        ranking = rng.permutation(n)
        rank = int(np.where(ranking == i)[0][0]) + 1
        for k in random_hits:
            random_hits[k] += rank <= k
        rr.append(1.0 / rank)
    results["random"] = {
        "recall@1": random_hits[1] / n,
        "recall@5": random_hits[5] / n,
        "mrr": float(np.mean(rr)),
    }
    return results


# ----------------------------------------------------------------------
# Table 4 — efficiency
# ----------------------------------------------------------------------
def run_table4_efficiency(scale: ExperimentScale,
                          models: Sequence[str] = TABLE1_MODELS
                          ) -> Dict[str, Dict[str, float]]:
    """Analytic GFLOPs + measured throughput per model."""
    from repro.eval.efficiency import estimate_flops, measure_throughput

    results = {}
    for name in models:
        model = build_model(name, scale.model_config())
        stats = measure_throughput(model, batch_size=scale.batch_size)
        results[name] = {
            "params": float(model.num_parameters()),
            "gflops": estimate_flops(model) / 1e9,
            **stats,
        }
    return results


# ----------------------------------------------------------------------
# Figure 2 — accuracy vs clip length
# ----------------------------------------------------------------------
def run_fig2_clip_length(scale: ExperimentScale,
                         lengths: Sequence[int] = (2, 4, 8, 16),
                         model: str = "vt-divided",
                         fps: float = 2.0
                         ) -> Dict[int, Dict[str, float]]:
    """Clips are sampled at a fixed frame rate so temporal context is
    proportional to the frame count (T frames ≙ T/fps seconds)."""
    series = {}
    for frames in lengths:
        train_set, _, test_set = prepare_data(scale, frames=frames,
                                              fps=fps)
        _, metrics, _ = train_model(
            model, scale, train_set, test_set,
            model_overrides={"frames": frames},
        )
        series[frames] = {
            "ego_acc": metrics["ego_acc"],
            "actions_macro_f1": metrics["actions_macro_f1"],
        }
    return series


# ----------------------------------------------------------------------
# Figure 3 — accuracy vs training-set size
# ----------------------------------------------------------------------
def run_fig3_data_scaling(scale: ExperimentScale,
                          sizes: Sequence[int] = (60, 120, 240),
                          model: str = "vt-divided"
                          ) -> Dict[int, Dict[str, float]]:
    series = {}
    max_scale = replace(scale, num_clips=max(sizes))
    full_train, _, test_set = prepare_data(max_scale)
    rng = np.random.default_rng(scale.seed)
    order = rng.permutation(len(full_train))
    for size in sizes:
        subset = full_train.subset(order[:min(int(size * 0.7),
                                              len(full_train))])
        _, metrics, _ = train_model(model, scale, subset, test_set)
        series[size] = {
            "ego_acc": metrics["ego_acc"],
            "actions_macro_f1": metrics["actions_macro_f1"],
        }
    return series


# ----------------------------------------------------------------------
# Figure 4 — attention factorization ablation
# ----------------------------------------------------------------------
def run_fig4_attention_ablation(scale: ExperimentScale
                                ) -> Dict[str, Dict[str, float]]:
    from repro.eval.efficiency import estimate_flops

    train_set, _, test_set = prepare_data(scale)
    results = {}
    for name in ("vt-joint", "vt-divided", "vt-factorized"):
        trainer, metrics, seconds = train_model(name, scale, train_set,
                                                test_set)
        results[name] = {
            "ego_acc": metrics["ego_acc"],
            "actions_macro_f1": metrics["actions_macro_f1"],
            "gflops": estimate_flops(trainer.model) / 1e9,
            "train_s": seconds,
        }
    return results


# ----------------------------------------------------------------------
# Figure 8 — criticality triage from extracted descriptions
# ----------------------------------------------------------------------
def run_fig8_criticality(scale: ExperimentScale,
                         corpus_clips: int = 84,
                         model: str = "vt-divided",
                         top_k: int = 15) -> Dict[str, Dict[str, float]]:
    """Triage a corpus "most critical first" using only extracted
    descriptions; score against ground-truth surrogate safety metrics
    (Spearman rank correlation + top-k triage precision), with oracle
    (ground-truth descriptions) and random baselines."""
    from scipy import stats as scipy_stats

    from repro.core.criticality import (
        description_criticality,
        rank_descriptions,
        triage_precision,
    )
    from repro.core.pipeline import ScenarioExtractor
    from repro.data.synthdrive import generate_clip
    from repro.sim.safety import compute_safety_metrics
    from repro.sim.scenarios import SCENARIO_FAMILIES, simulate_scenario

    train_set, _, _ = prepare_data(scale)
    trainer, _, _ = train_model(model, scale, train_set, train_set)
    extractor = ScenarioExtractor(trainer.model)

    # Build a corpus with ground-truth safety metrics per clip.
    config = SynthDriveConfig(num_clips=corpus_clips, frames=scale.frames,
                              height=scale.height, width=scale.width,
                              seed=scale.seed + 80_000)
    families = config.resolved_families()
    clips, truth_scores, truth_descs = [], [], []
    for i in range(corpus_clips):
        family = families[i % len(families)]
        clip_seed = int(config.seed * 100_003 + i)
        frames, desc = generate_clip(family, clip_seed, config)
        recording = simulate_scenario(family, seed=clip_seed,
                                      duration=config.duration)
        clips.append(frames)
        truth_descs.append(desc)
        truth_scores.append(
            compute_safety_metrics(recording.snapshots).criticality_score()
        )
    clips = np.stack(clips)
    truth_scores = np.array(truth_scores)
    truth_ranking = list(np.argsort(-truth_scores, kind="stable"))

    results: Dict[str, Dict[str, float]] = {}

    corpus_mean = float(truth_scores.mean())

    def lift(ranking) -> float:
        top = truth_scores[np.asarray(ranking[:top_k])]
        return float(top.mean() / max(corpus_mean, 1e-9))

    extracted = [r.description for r in extractor.extract_batch(clips)]
    for name, descs in (("extracted", extracted), ("oracle", truth_descs)):
        proxy_scores = np.array([description_criticality(d) for d in descs])
        ranking = rank_descriptions(descs)
        corr = scipy_stats.spearmanr(proxy_scores, truth_scores).statistic
        results[name] = {
            "spearman": float(corr),
            f"triage_lift@{top_k}": lift(ranking),
            f"triage_p@{top_k}": triage_precision(ranking, truth_ranking,
                                                  top_k),
        }

    rng = np.random.default_rng(scale.seed)
    random_ranking = list(rng.permutation(corpus_clips))
    results["random"] = {
        "spearman": 0.0,
        f"triage_lift@{top_k}": lift(random_ranking),
        f"triage_p@{top_k}": triage_precision(random_ranking,
                                              truth_ranking, top_k),
    }
    return results


# ----------------------------------------------------------------------
# Figure 7 — robustness to traffic density (distribution shift)
# ----------------------------------------------------------------------
def run_fig7_traffic_density(scale: ExperimentScale,
                             densities: Sequence[int] = (0, 2, 4),
                             model: str = "vt-divided",
                             test_clips: int = 84
                             ) -> Dict[int, Dict[str, float]]:
    """Train on the default (sparse) distribution, evaluate on test sets
    with increasing ambient-traffic density — a distribution-shift /
    distractor-robustness probe."""
    train_set, _, _ = prepare_data(scale)
    trainer, _, _ = train_model(model, scale, train_set, train_set)
    series = {}
    for density in densities:
        config = SynthDriveConfig(
            num_clips=test_clips, frames=scale.frames,
            height=scale.height, width=scale.width,
            seed=scale.seed + 50_000 + density,
            ambient_traffic=density,
        )
        shifted = generate_dataset(config)
        metrics = trainer.evaluate(shifted)
        series[density] = {
            "ego_acc": metrics["ego_acc"],
            "actions_macro_f1": metrics["actions_macro_f1"],
        }
    return series


# ----------------------------------------------------------------------
# Table 7 — input-view ablation: BEV vs perspective camera
# ----------------------------------------------------------------------
def run_table7_view_ablation(scale: ExperimentScale,
                             model: str = "vt-divided"
                             ) -> Dict[str, Dict[str, float]]:
    """Train the same architecture on BEV and on perspective-camera
    renderings of the same scenarios.  Both views carry the relevant
    evidence; perspective adds scale/occlusion effects, so a modest gap
    in its disfavour is the expected shape."""
    results = {}
    for view in ("bev", "camera"):
        train_set, _, test_set = prepare_data(scale, view=view)
        _, metrics, seconds = train_model(model, scale, train_set,
                                          test_set)
        results[view] = {
            "ego_acc": metrics["ego_acc"],
            "actions_macro_f1": metrics["actions_macro_f1"],
            "subset_acc": metrics["subset_acc"],
            "train_s": seconds,
        }
    return results


# ----------------------------------------------------------------------
# Table 6 — masked-clip pretraining ablation (label efficiency)
# ----------------------------------------------------------------------
def run_table6_pretraining(scale: ExperimentScale,
                           labelled_clips: int = 50,
                           pretrain_epochs: int = 12,
                           mask_ratio: float = 0.6
                           ) -> Dict[str, Dict[str, float]]:
    """Scratch vs masked-clip-pretrained divided transformer fine-tuned
    on few labelled clips.  Reports both plus the pretraining loss drop.

    On this substrate the result is *negative* (see EXPERIMENTS.md):
    pixel reconstruction of sparse BEV rasters is dominated by
    background structure and degrades the pooled representation.  The
    runner exists to reproduce that finding, not to flatter it.
    """
    from repro.models.pretrain import pretrain_backbone

    train_set, _, test_set = prepare_data(scale)
    rng = np.random.default_rng(scale.seed)
    order = rng.permutation(len(train_set))
    small = train_set.subset(order[:labelled_clips])

    results: Dict[str, Dict[str, float]] = {}

    model = build_model("vt-divided", scale.model_config())
    trainer = Trainer(model, scale.train_config())
    trainer.fit(small)
    metrics = trainer.evaluate(test_set)
    results["scratch"] = {"ego_acc": metrics["ego_acc"],
                          "actions_macro_f1": metrics["actions_macro_f1"]}

    model = build_model("vt-divided", scale.model_config())
    history = pretrain_backbone(model, train_set.videos,
                                epochs=pretrain_epochs,
                                mask_ratio=mask_ratio, seed=scale.seed)
    trainer = Trainer(model, scale.train_config())
    trainer.fit(small)
    metrics = trainer.evaluate(test_set)
    results["pretrained"] = {
        "ego_acc": metrics["ego_acc"],
        "actions_macro_f1": metrics["actions_macro_f1"],
        "pretrain_mse_first": history[0],
        "pretrain_mse_last": history[-1],
    }
    return results


# ----------------------------------------------------------------------
# Figure 6 — temporal localization over long drives
# ----------------------------------------------------------------------
def run_fig6_localization(scale: ExperimentScale,
                          strides: Sequence[int] = (2, 4),
                          n_drives: int = 6,
                          segments_per_drive: int = 3,
                          model: str = "vt-divided"
                          ) -> Dict[str, Dict[str, float]]:
    """Sliding-window scenario-timeline extraction vs a single global
    description, scored at frame level against ground-truth timelines."""
    from repro.core.pipeline import ScenarioExtractor
    from repro.data.synthdrive import _frame_indices
    from repro.eval.localization import (
        frame_level_metrics,
        predictions_to_frame_tags,
    )
    from repro.sdl.timeline import TagTimeline, annotate_timeline
    from repro.sim.render import BEVRenderer, RenderConfig
    from repro.sim.scenarios import SCENARIO_FAMILIES, simulate_scenario

    train_set, _, _ = prepare_data(scale)
    trainer, _, _ = train_model(model, scale, train_set, train_set)
    extractor = ScenarioExtractor(trainer.model)

    families = sorted(SCENARIO_FAMILIES)
    rng = np.random.default_rng(scale.seed + 1)
    window = scale.frames
    scores: Dict[str, List[float]] = {f"stride-{s}": [] for s in strides}
    scores["global"] = []

    for drive in range(n_drives):
        clips = []
        timelines = []
        for seg in range(segments_per_drive):
            family = families[int(rng.integers(len(families)))]
            seed = 7_000 + drive * 100 + seg
            rec = simulate_scenario(family, seed=seed)
            renderer = BEVRenderer(
                RenderConfig(height=scale.height, width=scale.width,
                             ego_row=int(scale.height * 0.8)),
                road=rec.road,
            )
            indices = _frame_indices(len(rec.snapshots), scale.frames,
                                     rec.dt, None)
            clips.append(np.stack(
                [renderer.render(rec.snapshots[i]) for i in indices]
            ))
            timelines.append(
                annotate_timeline(rec.snapshots, dt=rec.dt)
                .subsample(indices)
            )
        video = np.concatenate(clips, axis=0)
        truth = TagTimeline.concatenate(timelines)

        for stride in strides:
            results = extractor.extract_sliding(video, window=window,
                                                stride=stride)
            predicted = predictions_to_frame_tags(results, len(video))
            metrics = frame_level_metrics(predicted, truth)
            scores[f"stride-{stride}"].append(metrics["_micro"]["f1"])

        # Global baseline: one description from a uniform sample of the
        # whole drive, applied to every frame.
        global_idx = np.linspace(0, len(video) - 1, window).astype(int)
        global_result = extractor.extract(video[global_idx])
        from repro.core.pipeline import ExtractionResult
        global_spanned = ExtractionResult(
            description=global_result.description,
            sentence=global_result.sentence,
            confidences=global_result.confidences,
            frame_range=(0, len(video)),
        )
        predicted = predictions_to_frame_tags([global_spanned], len(video))
        metrics = frame_level_metrics(predicted, truth)
        scores["global"].append(metrics["_micro"]["f1"])

    return {name: {"frame_micro_f1": float(np.mean(vals))}
            for name, vals in scores.items()}


# ----------------------------------------------------------------------
# Figure 5 — robustness to label noise
# ----------------------------------------------------------------------
def run_fig5_label_noise(scale: ExperimentScale,
                         rates: Sequence[float] = (0.0, 0.1, 0.2, 0.3),
                         model: str = "vt-divided"
                         ) -> Dict[float, Dict[str, float]]:
    train_set, _, test_set = prepare_data(scale)
    codec = LabelCodec()
    series = {}
    for rate in rates:
        noisy = inject_label_noise(train_set.targets, rate,
                                   seed=scale.seed,
                                   num_classes=codec.head_sizes)
        _, metrics, _ = train_model(model, scale, train_set, test_set,
                                    target_override=noisy)
        series[rate] = {
            "ego_acc": metrics["ego_acc"],
            "actions_macro_f1": metrics["actions_macro_f1"],
        }
    return series
