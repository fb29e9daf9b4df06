import json

import numpy as np
import pytest

from slotcast.errors import EmptyInput, LengthMismatch
from slotcast.evaluator import (
    BASELINE_TEST,
    BASELINE_TRAIN,
    TIERS,
    Baselines,
    emit_report,
    metrics,
    tiered_eval,
)

from naive_oracles import naive_metrics


# ---------------------------------------------------------------------------
# Metric fixtures
# ---------------------------------------------------------------------------

def test_worked_example():
    m = metrics([0.0, 2.0], [1.0, 1.0])
    assert m.mae == 1.0
    assert m.rmse == 1.0
    assert m.explained_variance == 0.0
    assert m.variance_ratio == 0.0


def test_perfect_prediction():
    m = metrics([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert m.mae == 0.0 and m.rmse == 0.0
    assert m.explained_variance == 1.0
    assert m.variance_ratio == 1.0


def test_zero_actual_variance_yields_none():
    m = metrics([1.0, 1.0, 1.0], [2.0, 2.0, 2.0])
    assert m.mae == 1.0 and m.rmse == 1.0
    assert m.explained_variance is None
    assert m.variance_ratio is None


def test_errors():
    with pytest.raises(EmptyInput):
        metrics([], [])
    with pytest.raises(LengthMismatch):
        metrics([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        metrics([1.0, np.nan], [0.0, 0.0])


def test_matches_naive_oracle():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(2, 40))
        a = rng.normal(size=n) * 10
        p = a + rng.normal(size=n)
        m = metrics(a, p)
        mae, rmse, ev, ratio = naive_metrics(list(a), list(p))
        assert m.mae == pytest.approx(mae, abs=1e-10)
        assert m.rmse == pytest.approx(rmse, abs=1e-10)
        assert m.explained_variance == pytest.approx(ev, abs=1e-10)
        assert m.variance_ratio == pytest.approx(ratio, abs=1e-10)


def test_median_minimizes_mae_mean_minimizes_rmse():
    rng = np.random.default_rng(1)
    a = np.exp(rng.normal(size=200) * 2)  # skewed
    med, mean = float(np.median(a)), float(a.mean())
    mae_at_med = metrics(a, np.full(200, med)).mae
    rmse_at_mean = metrics(a, np.full(200, mean)).rmse
    for c in np.linspace(a.min(), a.max(), 101):
        const = np.full(200, c)
        assert mae_at_med <= metrics(a, const).mae + 1e-9
        assert rmse_at_mean <= metrics(a, const).rmse + 1e-9


def test_scale_equivariance():
    rng = np.random.default_rng(2)
    a = rng.normal(size=50)
    p = a + rng.normal(size=50)
    m1 = metrics(a, p)
    m2 = metrics(3.0 * a, 3.0 * p)
    assert m2.mae == pytest.approx(3.0 * m1.mae, rel=1e-10)
    assert m2.rmse == pytest.approx(3.0 * m1.rmse, rel=1e-10)
    # EV and variance ratio are scale-free
    assert m2.explained_variance == pytest.approx(m1.explained_variance,
                                                  rel=1e-10)
    assert m2.variance_ratio == pytest.approx(m1.variance_ratio, rel=1e-10)


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------

def test_baseline_modes():
    """Without a base the baselines are the actuals' mean and median."""
    rep = tiered_eval([10.0, 20.0, 60.0], [10.0, 20.0, 60.0])
    assert rep.baseline_source == BASELINE_TEST
    full = rep.tiers[0]
    assert full.baseline_mean.mae == metrics([10.0, 20.0, 60.0],
                                             [30.0] * 3).mae
    assert full.baseline_median.mae == metrics([10.0, 20.0, 60.0],
                                               [20.0] * 3).mae
    base = Baselines(mean_value=2.0, median_value=2.0, source=BASELINE_TRAIN)
    rep = tiered_eval([10.0, 20.0, 60.0], [10.0, 20.0, 60.0], base=base)
    assert rep.baseline_source == BASELINE_TRAIN
    assert rep.tiers[0].baseline_mean.mae == 28.0
    with pytest.raises(EmptyInput):
        tiered_eval([], [])


def test_skewed_baseline_mean_vs_median():
    a = [0.0, 0.0, 0.0, 100.0]
    full = tiered_eval(a, a).tiers[0]
    # test-derived constants 25 and 0: on skewed data the median baseline
    # has far lower MAE than the mean one
    assert full.baseline_mean.mae == 37.5
    assert full.baseline_median.mae == 25.0


# ---------------------------------------------------------------------------
# Tiered evaluation
# ---------------------------------------------------------------------------

def test_default_tier_thresholds():
    assert TIERS == (("full", None), ("cost-significant", 0.01),
                     ("long-tail", 20.0))
    rep = tiered_eval([0.001, 0.01, 20.0], [0.0, 0.0, 0.0])
    assert [(t.name, t.n) for t in rep.tiers] == [
        ("full", 3), ("cost-significant", 2), ("long-tail", 1)]


def test_tier_nesting():
    rng = np.random.default_rng(3)
    a = np.exp(rng.normal(size=500) * 3)
    p = a * rng.uniform(0.5, 2.0, size=500)
    rep = tiered_eval(a, p)
    ns = [t.n for t in rep.tiers]
    assert ns[0] == 500
    assert ns[0] >= ns[1] >= ns[2]
    # per-tier N equals a direct recount
    assert ns[1] == int((a >= 0.01).sum())
    assert ns[2] == int((a >= 20.0).sum())


def test_empty_tier_carries_none():
    rep = tiered_eval([0.001, 0.002], [0.001, 0.002])
    tail = rep.tiers[2]
    assert tail.name == "long-tail" and tail.n == 0
    assert tail.model is None and tail.baseline_mean is None
    assert tail.mae_reduction_vs_mean is None


def test_baselines_evaluated_per_tier():
    a = np.array([0.005, 0.005, 1.0, 30.0, 40.0])
    p = a.copy()
    base = Baselines(mean_value=10.0, median_value=1.0, source=BASELINE_TRAIN)
    rep = tiered_eval(a, p, base=base)
    tail = rep.tiers[2]
    # tail baseline MAE computed against tail actuals only, same global constant
    assert tail.baseline_mean.mae == pytest.approx((20.0 + 30.0) / 2)
    assert rep.tiers[0].mae_reduction_vs_mean == 1.0  # perfect model
    assert rep.baseline_source == BASELINE_TRAIN


def test_reduction_none_when_baseline_zero():
    a = [0.0, 0.0]
    rep = tiered_eval(a, [0.0, 0.0], base=Baselines(0.0, 0.0, BASELINE_TRAIN))
    assert rep.tiers[0].mae_reduction_vs_mean is None


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

@pytest.fixture()
def report():
    rng = np.random.default_rng(4)
    a = np.exp(rng.normal(size=100) * 3)
    p = a * rng.uniform(0.8, 1.2, size=100)
    return tiered_eval(a, p)


def test_emit_text(report):
    text = emit_report(report, format="text").decode()
    assert "Tiered evaluation" in text
    for name in ("full", "cost-significant", "long-tail"):
        assert name in text


def test_emit_structured_round_trips(report):
    doc = json.loads(emit_report(report, format="structured").decode())
    assert doc["baseline_source"] == BASELINE_TEST
    full = doc["tiers"][0]
    assert full["n"] == 100
    assert full["model"]["mae"] == report.tiers[0].model.mae
    # None markers serialize as JSON null, never NaN
    assert "NaN" not in emit_report(report, format="structured").decode()


def test_emit_structured_null_for_undefined():
    rep = tiered_eval([1.0, 1.0], [2.0, 2.0])
    doc = json.loads(emit_report(rep, format="structured").decode())
    assert doc["tiers"][0]["model"]["explained_variance"] is None


def test_emit_plotdata_round_trips(report):
    lines = emit_report(report, format="plotdata").decode().splitlines()
    assert lines[0] == "actual,predicted,residual"
    assert len(lines) == 101
    for line, a, p in zip(lines[1:], report.actual, report.predicted):
        fa, fp, fr = (float(v) for v in line.split(","))
        assert fa == a and fp == p and fr == a - p  # repr round-trip is exact


def test_emit_unknown_format(report):
    with pytest.raises(ValueError):
        emit_report(report, format="xml")
