"""Text→video retrieval via SDL embeddings (Scenario2Vector-style).

Run:  python examples/retrieval_demo.py

Each held-out clip's ground-truth description plays the role of a text
query; the index holds descriptions *extracted* from video.  Reports
Recall@1/5 and MRR, compared against a random-ranking floor.
"""

import numpy as np

from repro.api import ScenarioMiner, load_extractor, retrieval_metrics
from repro.data import SynthDriveConfig, generate_dataset
from repro.models import ModelConfig, build_model
from repro.train import TrainConfig, Trainer


def main() -> None:
    dataset = generate_dataset(SynthDriveConfig(num_clips=240, frames=8,
                                                seed=21))
    train_set, _, test_set = dataset.split((0.7, 0.15, 0.15), seed=0)

    print("training vt-divided extractor ...")
    model = build_model("vt-divided", ModelConfig(frames=8))
    trainer = Trainer(model, TrainConfig(epochs=20))
    trainer.fit(train_set)

    print("indexing extracted descriptions of the test corpus ...")
    extractor = load_extractor(model=model)
    extracted = [r.description
                 for r in extractor.extract_batch(test_set.videos)]
    index = ScenarioMiner()
    index.add_descriptions(extracted)

    queries = list(test_set.descriptions)
    correct = list(range(len(queries)))
    metrics = retrieval_metrics(queries, index, correct)
    print("retrieval with extracted descriptions:",
          {k: round(v, 3) for k, v in metrics.items()})

    rng = np.random.default_rng(0)
    n = len(queries)
    rr = []
    for i in range(n):
        rank = int(np.where(rng.permutation(n) == i)[0][0]) + 1
        rr.append(1.0 / rank)
    print(f"random-ranking MRR floor: {np.mean(rr):.3f}")

    print("\nexample query:")
    print(f"  text:  {queries[0].to_sentence()}")
    top, _ = index.rank(queries[0], top_k=3)
    for rank, clip_id in enumerate(top.tolist(), 1):
        print(f"  #{rank}: clip {clip_id} — "
              f"{extracted[clip_id].to_sentence()}")


if __name__ == "__main__":
    main()
