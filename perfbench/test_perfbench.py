"""The benchmark's own tests: span coverage, smoke runs of every workload,
tracer install/uninstall, and the refusal to run without sources.

    python3 -m pytest -q perfbench

Each smoke run is the real command at ``--size smoke`` (a few seconds).
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
ALL = frozenset(WORKLOADS)
SERVING = frozenset({"advise", "batch-score"})
TRAIN = frozenset({"train"})
NONE = frozenset()

# Workloads on which each layer does work; on the others it must read 0.
WORK = {
    "sql_analyzer.clean_query": ALL,
    "sql_analyzer.complexity_score": ALL,
    "sql_analyzer.tokens": ALL,
    "featurizer.Featurizer.transform": ALL,
    "featurizer.Featurizer.transform.rows": ALL,
    "featurizer.transform_text": ALL,
    "featurizer.project_text": ALL,
    "featurizer.fit_text": TRAIN,
    "featurizer.transform_text_corpus": TRAIN,
    "featurizer.fit_svd": TRAIN,
    "featurizer.vocab_size": TRAIN,
    "featurizer.svd_rank_requested": TRAIN,
    "featurizer.svd_rank_kept": TRAIN,
    "gbrt.fit": TRAIN,
    "gbrt.histograms": TRAIN,
    "gbrt.histograms.rows": TRAIN,
    "gbrt.BinMapper.fit": TRAIN,
    "gbrt.split_searches": TRAIN,
    "gbrt.split_search_useful_share": TRAIN,
    # binning runs inside gbrt.fit as well as at inference
    "gbrt.BinMapper.transform": ALL,
    "gbrt.Forest.predict": SERVING,
    "gbrt.Forest.predict.rows": SERVING,
    "gbrt.trees": SERVING,
    "gbrt.leaves": SERVING,
    "predictor.deserialize_bundle": SERVING,
    "predictor.serialize_bundle": TRAIN,
    "predictor.routes.simple": SERVING,
    "predictor.routes.complex": SERVING,
    "predictor.predict": frozenset({"advise"}),
    "predictor.predict_many": frozenset({"batch-score"}),
    "predictor.train": TRAIN,
    "evaluator.tiered_eval": frozenset({"batch-score"}),
    "cli.ingest": TRAIN,
    "cli.ingest.read": TRAIN,
    # generated logs hold no DDL, timed-out or anomalous rows
    "cli.ingest.dropped": NONE,
}


def _layer(metric: str) -> str:
    for suffix in (".self_s", ".calls"):
        if metric.endswith(suffix) and metric[:-len(suffix)] in WORK:
            return metric[:-len(suffix)]
    return metric


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _smoke(workload: str, trace: int) -> dict:
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=WORKLOADS)
def traced(request):
    return request.param, _smoke(request.param, trace=1)


def test_every_layer_metric_has_an_expectation():
    layer_metrics = [m["name"] for m in SPEC["per_layer"]
                     if not m["name"].startswith("trace.")]
    assert sorted({_layer(m) for m in layer_metrics}) == sorted(WORK)


def test_span_coverage(traced):
    workload, result = traced
    assert result["correct"] and result["failed"] == 0
    wrong = []
    for name, metric in result["metrics"].items():
        if name.startswith("trace."):
            continue
        expect_work = workload in WORK[_layer(name)]
        if (metric["value"] != 0) != expect_work:
            wrong.append(f"{name}={metric['value']}")
    assert not wrong, f"{workload}: {wrong}"


def test_trace_reports_overhead(traced):
    _, result = traced
    assert result["metrics"]["trace.unit_ms"]["value"] > 0
    assert "trace.overhead_share" in result["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_end_to_end(workload):
    result = _smoke(workload, trace=0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert list(result["metrics"]) == names
    assert all(result["metrics"][n]["value"] > 0 for n in names)


def test_tracer_wraps_every_binding_and_restores():
    from slotcast import cli, featurizer, gbrt, predictor, sql_analyzer
    before = (sql_analyzer.clean_query, predictor.clean_query,
              cli.clean_query, gbrt.histograms,
              vars(gbrt.BinMapper)["fit"], featurizer.Featurizer.transform)
    t = tracer.Tracer()
    t.install()
    try:
        assert predictor.clean_query is sql_analyzer.clean_query
        assert cli.clean_query is sql_analyzer.clean_query
        assert sql_analyzer.clean_query is not before[0]
        assert gbrt.histograms is not before[3]
        assert "gbrt.histograms" in tracer.wrapped_names()
        sql_analyzer.analyze_sql("SELECT a FROM t GROUP BY a")
        with pytest.raises(RuntimeError):
            tracer.Tracer().install()
    finally:
        t.uninstall()
    after = (sql_analyzer.clean_query, predictor.clean_query,
             cli.clean_query, gbrt.histograms,
             vars(gbrt.BinMapper)["fit"], featurizer.Featurizer.transform)
    assert all(a is b for a, b in zip(before, after))
    assert tracer.wrapped_names() == []
    names = [span[0] for span in t.spans]
    assert names == ["sql_analyzer.clean_query",
                     "sql_analyzer.complexity_score"]


def test_self_time_subtracts_children():
    t = tracer.Tracer()
    t.spans[:] = [("outer", 0.0, 10.0, -1, "u0"),
                  ("inner", 1.0, 4.0, 0, "u0"),
                  ("inner", 5.0, 6.0, 0, "u0"),
                  ("leaf", 2.0, 3.0, 1, "u0")]
    unit = t.self_times()["unit"]
    assert unit["outer"] == (6.0, 1)
    assert unit["inner"] == (3.0, 2)
    assert unit["leaf"] == (1.0, 1)


def test_p99_rules():
    from scipy.stats.mstats import hdquantiles

    from workloads import p99
    rng = np.random.default_rng(0)
    many = rng.lognormal(3.3, 0.25, size=1200)
    assert p99(many) == pytest.approx(hdquantiles(many, prob=[0.99])[0],
                                      rel=1e-6)
    few = list(range(1, 16))  # under 20 samples: the median
    assert p99(few) == 8
    assert p99(list(range(30))) == pytest.approx(19)  # ten beyond it


def test_sampler_scales_and_restores_the_handler():
    import signal
    import time

    import speed
    before = signal.getsignal(signal.SIGALRM)
    with speed.Sampler(speed.kernel, speed.REFERENCE_S, 0.05) as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 1.0:
            sum(range(1000))
        t1 = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.seconds) >= 10  # entry, exit and the timer's
    own = sum(d for t, d in zip(sampler.times, sampler.seconds)
              if t0 <= t < t1)
    assert own > 0
    mean_speed = np.mean([1 / d for t, d in zip(sampler.times,
                                                sampler.seconds)
                          if t0 <= t < t1])
    assert sampler.at_reference(t0, t1) == pytest.approx(
        (t1 - t0 - own) * speed.REFERENCE_S * mean_speed)


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "advise", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
