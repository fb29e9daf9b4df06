"""Demo: end-to-end train → predict → tiered evaluation on an
out-of-distribution environment split.

Run with: python3 demos/04_train_and_evaluate.py  (about half a minute)
"""
import sys

import numpy as np

from slotcast import evaluator
from slotcast.predictor import TrainConfig, predict_many, train
from slotcast.synth import WorkloadConfig, generate, split_by_environment


def main():
    records = generate(WorkloadConfig(n_queries=6750, seed=42))
    train_pool, test_pool = split_by_environment(
        records, [], test_envs=["env_s_b", "env_m_b"])
    train_records, test_records = train_pool[:1500], test_pool[:1500]
    print(f"train: {len(train_records)} queries from "
          f"{len({r.environment for r in train_records})} environments; "
          f"test: {len(test_records)} from 2 held-out environments")

    bundle = train(train_records, TrainConfig())
    print(f"route counts: {bundle.metadata['route_counts']}, "
          f"fallbacks: {bundle.fallback_routes}")

    results = predict_many(bundle, test_records)
    actual = np.array([r.slot_min for r in test_records])
    predicted = np.array([r.slot_min for r in results])
    report = evaluator.tiered_eval(actual, predicted,
                                   base=bundle.train_baselines)
    sys.stdout.write("\n" + evaluator.emit_report(report, "text").decode())


if __name__ == "__main__":
    main()
