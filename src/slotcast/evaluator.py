"""Metric suite and tiered evaluation against constant baselines.

``tiered_eval`` scores predictions on each tier of ``TIERS`` against
predict-mean and predict-median baselines: train-derived ones from
``ModelBundle.train_baselines``, or by default test-derived ones from the
actuals themselves. All metrics are computed in original slot-minute scale.
Degenerate quantities (zero actual variance, empty tiers) are carried as
explicit ``None`` markers, never NaN.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .errors import EmptyInput, LengthMismatch

BASELINE_TRAIN = "train-derived"
BASELINE_TEST = "test-derived"


@dataclass(frozen=True)
class MetricSet:
    mae: float
    rmse: float
    explained_variance: Optional[float]
    variance_ratio: Optional[float]


# The paper's tiers: (name, least actual slot-minutes in the tier); the
# full tier has no floor.
TIERS = (("full", None), ("cost-significant", 0.01), ("long-tail", 20.0))


@dataclass(frozen=True)
class Baselines:
    mean_value: float
    median_value: float
    source: str


@dataclass
class TierResult:
    name: str
    n: int
    model: Optional[MetricSet]
    baseline_mean: Optional[MetricSet]
    baseline_median: Optional[MetricSet]
    mae_reduction_vs_mean: Optional[float]
    mae_reduction_vs_median: Optional[float]


@dataclass
class EvalReport:
    tiers: List[TierResult]
    baseline_source: str
    actual: np.ndarray = field(repr=False)
    predicted: np.ndarray = field(repr=False)


def _check(actual: np.ndarray, predicted: np.ndarray) -> None:
    if actual.shape != predicted.shape:
        raise LengthMismatch(
            f"actual {actual.shape} vs predicted {predicted.shape}")
    if actual.size == 0:
        raise EmptyInput("metric vectors must be non-empty")
    if not (np.all(np.isfinite(actual)) and np.all(np.isfinite(predicted))):
        raise ValueError("metric inputs must be finite")


def metrics(actual: Sequence[float], predicted: Sequence[float]) -> MetricSet:
    """MAE, RMSE, explained variance and Var(pred)/Var(actual).

    Population variance throughout; zero actual variance yields None for the
    variance-based metrics.
    """
    a = np.asarray(actual, dtype=np.float64)
    p = np.asarray(predicted, dtype=np.float64)
    _check(a, p)
    err = a - p
    mae = float(np.mean(np.abs(err)))
    rmse = float(np.sqrt(np.mean(err ** 2)))
    var_a = float(np.var(a))
    if var_a == 0.0:
        return MetricSet(mae=mae, rmse=rmse, explained_variance=None,
                         variance_ratio=None)
    ev = 1.0 - float(np.var(err)) / var_a
    ratio = float(np.var(p)) / var_a
    return MetricSet(mae=mae, rmse=rmse, explained_variance=ev,
                     variance_ratio=ratio)


def _reduction(baseline_mae: float, model_mae: float) -> Optional[float]:
    if baseline_mae == 0.0:
        return None
    return (baseline_mae - model_mae) / baseline_mae


def tiered_eval(actual: Sequence[float], predicted: Sequence[float],
                base: Optional[Baselines] = None) -> EvalReport:
    """Model and constant-baseline metrics on each of TIERS. Without base,
    the baselines are the mean and median of actual (test-derived)."""
    a = np.asarray(actual, dtype=np.float64)
    p = np.asarray(predicted, dtype=np.float64)
    _check(a, p)
    if base is None:
        base = Baselines(mean_value=float(a.mean()),
                         median_value=float(np.median(a)), source=BASELINE_TEST)
    results: List[TierResult] = []
    for name, floor in TIERS:
        mask = np.ones(a.shape, dtype=bool) if floor is None else a >= floor
        n = int(mask.sum())
        if n == 0:
            results.append(TierResult(name, 0, None, None, None, None, None))
            continue
        ta, tp = a[mask], p[mask]
        model = metrics(ta, tp)
        bm = metrics(ta, np.full(n, base.mean_value))
        bmed = metrics(ta, np.full(n, base.median_value))
        results.append(TierResult(
            name=name, n=n, model=model, baseline_mean=bm,
            baseline_median=bmed,
            mae_reduction_vs_mean=_reduction(bm.mae, model.mae),
            mae_reduction_vs_median=_reduction(bmed.mae, model.mae)))
    return EvalReport(tiers=results, baseline_source=base.source,
                      actual=a, predicted=p)


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def _fmt(x: Optional[float], pct: bool = False) -> str:
    if x is None:
        return "undefined"
    return f"{100 * x:.1f}%" if pct else f"{x:.4f}"


def emit_report(report: EvalReport, format: str = "text") -> bytes:
    """Render an EvalReport as text, structured JSON, or per-query plot data."""
    if format == "text":
        lines = [
            f"Tiered evaluation (baseline source: {report.baseline_source})",
            f"{'Tier':<18}{'N':>6}{'Model MAE':>12}{'Mean MAE':>12}"
            f"{'Median MAE':>12}{'Red. vs mean':>14}{'EV':>12}",
        ]
        for t in report.tiers:
            lines.append(
                f"{t.name:<18}{t.n:>6}"
                f"{_fmt(t.model.mae if t.model else None):>12}"
                f"{_fmt(t.baseline_mean.mae if t.baseline_mean else None):>12}"
                f"{_fmt(t.baseline_median.mae if t.baseline_median else None):>12}"
                f"{_fmt(t.mae_reduction_vs_mean, pct=True):>14}"
                f"{_fmt(t.model.explained_variance if t.model else None):>12}")
        return ("\n".join(lines) + "\n").encode("utf-8")
    if format == "structured":
        doc = {
            "baseline_source": report.baseline_source,
            "tiers": [asdict(t) for t in report.tiers],
        }
        return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")
    if format == "plotdata":
        lines = ["actual,predicted,residual"]
        for a, p in zip(report.actual, report.predicted):
            lines.append(f"{float(a)!r},{float(p)!r},{float(a - p)!r}")
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise ValueError(f"unknown report format {format!r}")
