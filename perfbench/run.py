"""Run one slotcast benchmark workload; the last stdout line is the result.

    python3 perfbench/run.py --workload advise --seed 1 --seconds 10 --trace 0

Run it from the repository root. ``--trace 0`` prints every end-to-end
metric named in ``BENCHMARK.json``; ``--trace 1`` prints every per-layer
metric, from a run whose first half is untraced and whose second half wraps
slotcast's layer functions in spans (the difference is the tracing
overhead). The exit code is 0 when every output check passes, 1 when one
fails, and 2 when there is nothing to benchmark. Work files, spans and a
copy of each result go to ``.bench_build/perfbench/``.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".bench_build" / "perfbench"


def run_units(workload, out, seconds, fingerprints, tracer=None):
    """Repeat the workload's fixed unit for ``seconds`` (at least once)."""
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        fingerprints.add(out.attempt(workload.unit, tracer, len(times)))
        times.append(time.perf_counter() - t0)
    return times


def set_ups(workload, count):
    """Durations of ``count`` set-ups, at reference speed."""
    speed, timed = workload.speed, []
    for _ in range(count):
        speed.probe()
        t0 = time.perf_counter()
        workload.set_up()
        timed.append((t0, time.perf_counter() - t0))
    speed.probe()
    return [speed.at_reference(t0, d) for t0, d in timed]


def end_to_end(workload, out, seconds, tracer_mod):
    # half the set-ups before the loop and half after it, so that their
    # median spans the run rather than one moment of the machine's speed
    per_side = workload.inputs.size.setup_repeats
    setups = set_ups(workload, per_side)
    metrics = workload.measure(seconds)
    setups += set_ups(workload, per_side)
    metrics.update(workload.finish())
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    out.check(not tracer_mod.wrapped_names(),
              "an untraced run found slotcast wrapped")
    return metrics


def traced(workload, out, seconds, tracer_mod, spans_path):
    fingerprints = set()
    workload.set_up()
    plain = run_units(workload, out, seconds / 2, fingerprints)
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        tracer.request = "setup"
        workload.set_up()
        wrapped = run_units(workload, out, seconds / 2, fingerprints, tracer)
    finally:
        tracer.uninstall()
    out.check(not tracer_mod.wrapped_names(), "tracer left wrappers behind")
    out.check(len(fingerprints) == 1,
              "units gave different outputs (traced vs untraced or repeats)")
    tracer.write_spans(spans_path)
    metrics = tracer_mod.layer_metrics(tracer, len(wrapped))
    metrics.update(workload.layer_extras())
    plain_s, wrapped_s = statistics.median(plain), statistics.median(wrapped)
    metrics["trace.unit_ms"] = 1000 * plain_s
    metrics["trace.overhead_ms"] = 1000 * (wrapped_s - plain_s)
    metrics["trace.overhead_share"] = (wrapped_s - plain_s) / plain_s
    print(f"trace: {len(plain)} untraced and {len(wrapped)} traced units, "
          f"{len(tracer.spans)} spans written to {spans_path}")
    return metrics


def report_fingerprints(fingerprints, seed: int) -> None:
    """Print each fingerprint and whether it matches the recorded one; a
    change is reported, never failed on."""
    recorded = json.loads((HERE / "baseline.json").read_text())[
        "fingerprints"].get(str(seed), {})
    for name, value in sorted(fingerprints.items()):
        if name not in recorded:
            status = "no recorded value for this seed"
        elif recorded[name] == value:
            status = "unchanged"
        else:
            status = f"CHANGED (recorded {recorded[name]})"
        print(f"fingerprint.{name} {value} {status}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full",
                        help="'smoke' runs a seconds-long pass for tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "slotcast" / "__init__.py").is_file():
        print("perfbench: no slotcast sources under src/", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracer as tracer_mod
    from inputs import SIZES, make_inputs
    from workloads import WORKLOADS, Outcome

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.workload not in WORKLOADS or args.size not in SIZES:
        print(f"perfbench: workloads are {sorted(WORKLOADS)}, sizes are "
              f"{sorted(SIZES)}", file=sys.stderr)
        return 2

    WORKDIR.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-{args.size}-{args.seed}-trace{args.trace}"
    out = Outcome()
    workload = WORKLOADS[args.workload](
        make_inputs(args.seed, args.size), WORKDIR, out)
    try:
        workload.prepare()
        # keep the benchmark's own inputs (thousands of generated records)
        # out of the collector's passes, so that collection pauses in the
        # timed work grow with the program's heap, not the benchmark's
        gc.collect()
        gc.freeze()
        if args.trace:
            metrics = traced(workload, out, args.seconds, tracer_mod,
                             WORKDIR / f"spans-{tag}.jsonl")
        else:
            metrics = end_to_end(workload, out, args.seconds, tracer_mod)
    finally:
        workload.cleanup()

    report_fingerprints(out.fingerprints, args.seed)
    for m in wanted:
        out.check(m["name"] in metrics, f"metric {m['name']} not measured")
    for problem in out.problems:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": not out.problems,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0),
                                "unit": m["unit"]} for m in wanted},
    }
    (WORKDIR / f"result-{tag}.json").write_text(json.dumps(
        dict(result, fingerprints=out.fingerprints, problems=out.problems),
        indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
