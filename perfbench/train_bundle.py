"""Train the bundle an inference workload serves and save it to a file.

It runs in its own process so that the serving process's peak RSS leaves
training out. The last stdout line is ``{"train_s": <seconds>, "raw_s":
<seconds>}``: the wall time of ``predictor.train`` at reference speed (see
``speed.Sampler``) and as measured.

    python3 perfbench/train_bundle.py --seed 1 --size full --output b.slb
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from slotcast import predictor  # noqa: E402

from inputs import SIZES, acceptance_split  # noqa: E402
from speed import training_sampler  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=sorted(SIZES), required=True)
    parser.add_argument("--output", required=True)
    args = parser.parse_args()
    size = SIZES[args.size]
    train, _ = acceptance_split(args.seed, size)
    with training_sampler() as sampler:
        t0 = time.perf_counter()
        bundle = predictor.train(train, size.train_config())
        t1 = time.perf_counter()
    predictor.save_bundle(bundle, args.output)
    print(json.dumps({"train_s": sampler.at_reference(t0, t1),
                      "raw_s": t1 - t0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
