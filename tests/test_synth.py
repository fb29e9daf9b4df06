import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from slotcast.errors import ConfigError, OverlappingEnvironments
from slotcast.sql_analyzer import analyze_sql, weighted_score
from slotcast.synth import (
    OperatorPlan,
    OracleCostModel,
    WorkloadConfig,
    _plan_for,
    default_profiles,
    generate,
    render_query,
    split_by_environment,
)


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------

def test_oracle_closed_form():
    oracle = OracleCostModel()
    got = oracle.slot_minutes(2e9, 10, cache_hit=False, noise=0.0)
    assert got == pytest.approx(0.05 * 2 ** 0.8 * 1.2, rel=1e-12)


def test_oracle_cache_multiplier():
    oracle = OracleCostModel()
    miss = oracle.slot_minutes(1e9, 0, cache_hit=False)
    hit = oracle.slot_minutes(1e9, 0, cache_hit=True)
    assert hit == pytest.approx(miss * 1e-4, rel=1e-12)


def test_oracle_monotone_in_bytes_and_score():
    oracle = OracleCostModel()
    for b1, b2 in [(1e8, 1e9), (1e9, 1e12)]:
        assert oracle.slot_minutes(b1, 5, False) < oracle.slot_minutes(b2, 5, False)
    for s1, s2 in [(0, 5), (5, 50)]:
        assert oracle.slot_minutes(1e9, s1, False) < oracle.slot_minutes(1e9, s2, False)


def test_oracle_noise_factor():
    oracle = OracleCostModel()
    base = oracle.slot_minutes(1e9, 3, False, noise=0.0)
    assert oracle.slot_minutes(1e9, 3, False, noise=1.0) == pytest.approx(
        base * math.e, rel=1e-12)


# ---------------------------------------------------------------------------
# Templates round-trip through the analyzer
# ---------------------------------------------------------------------------

def test_render_round_trip_exact():
    rng = np.random.default_rng(5)
    for _ in range(200):
        plan = OperatorPlan(**{
            f: int(rng.integers(0, 3))
            for f in ("join", "cross_join", "group_by", "distinct", "order_by",
                      "window", "regex_function", "sql_udf", "js_udf",
                      "unnest", "cte", "extra_subselect", "array_struct",
                      "having", "update", "insert", "merge")})
        sql, intended = render_query(plan)
        rep = analyze_sql(sql)
        assert rep.counts == intended
        assert rep.score == weighted_score(intended)


def _pinned_plans():
    """Each plan field alone at 1-3, 2,000 seeded draws per workload kind,
    and the cases where one clause changes how another is rendered."""
    for f in dataclasses.fields(OperatorPlan):
        for n in (1, 2, 3):
            yield OperatorPlan(**{f.name: n})
    rng = np.random.default_rng(17)
    for kind in ("trivial", "light", "heavy"):
        for _ in range(2000):
            yield _plan_for(rng, kind)
    for g in (0, 1, 4):  # CTE bodies borrow GROUP BYs, leaving the main one
        yield OperatorPlan(cte=3, group_by=g)
    for n in range(4):
        yield OperatorPlan(distinct=n)
        yield OperatorPlan(array_struct=n)
    for g in (0, 1):  # HAVING only follows the main GROUP BY
        yield OperatorPlan(having=1, group_by=g)
    yield OperatorPlan(order_by=3)
    yield OperatorPlan(sql_udf=2, js_udf=1)


def test_render_bytes_pinned():
    """SHA-256 of render_query's SQL and counts over a fixed plan set."""
    digest = hashlib.sha256()
    for plan in _pinned_plans():
        sql, counts = render_query(plan)
        digest.update(f"{sql}\n{json.dumps(counts)}\n".encode())
    assert digest.hexdigest() == (
        "50c6705b5e5d595a12f35133186fcc4402db5bdc37b5769a6d285e76002bd523")


def test_workload_queries_score_consistently():
    records = generate(WorkloadConfig(n_queries=50, seed=3))
    for r in records:
        assert analyze_sql(r.query_text).score >= 0


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def test_determinism():
    a = generate(WorkloadConfig(n_queries=80, seed=9))
    b = generate(WorkloadConfig(n_queries=80, seed=9))
    assert a == b
    c = generate(WorkloadConfig(n_queries=80, seed=10))
    assert a != c


def test_all_trivial_workload_is_cheap():
    records = generate(WorkloadConfig(n_queries=200, seed=1,
                                      trivial_fraction=1.0,
                                      long_tail_fraction=0.0))
    slots = np.array([r.slot_min for r in records])
    assert np.all(slots < 0.01)  # cache hits keep trivial queries sub-threshold
    assert all(r.cache_hit for r in records)
    assert all(r.total_bytes_billed == 0 for r in records)


def test_distribution_shape():
    records = generate(WorkloadConfig(n_queries=3000, seed=42))
    slots = np.array([r.slot_min for r in records])
    median = float(np.median(slots))
    assert median < 0.01  # dominated by trivial cache-hit queries
    assert float(np.quantile(slots, 0.95)) >= 1000 * median  # heavy tail
    assert float(slots.max()) >= 20.0  # long-tail members exist


def test_trivial_fraction_respected():
    records = generate(WorkloadConfig(n_queries=3000, seed=7))
    frac = np.mean([r.cache_hit for r in records])
    assert frac == pytest.approx(0.62, abs=0.03)


def test_environment_fields_within_profile():
    profiles = {p.name: p for p in default_profiles()}
    for r in generate(WorkloadConfig(n_queries=300, seed=2)):
        p = profiles[r.environment]
        assert p.accounts[0] <= r.account_count <= p.accounts[1]
        assert p.resources[0] <= r.resource_count <= p.resources[1]
        assert (r.accounts_aws + r.accounts_gcp + r.accounts_azure
                <= r.account_count)


def test_invalid_configs():
    with pytest.raises(ConfigError):
        generate(WorkloadConfig(trivial_fraction=1.2))
    with pytest.raises(ConfigError):
        generate(WorkloadConfig(trivial_fraction=0.8, long_tail_fraction=0.3))
    with pytest.raises(ConfigError):
        generate(WorkloadConfig(n_queries=-1))
    with pytest.raises(ConfigError):
        generate(WorkloadConfig(noise_sigma=-0.1))
    with pytest.raises(ConfigError):
        generate(WorkloadConfig(profiles=[]))


# ---------------------------------------------------------------------------
# Environment split
# ---------------------------------------------------------------------------

def test_split_disjoint():
    records = generate(WorkloadConfig(n_queries=500, seed=4))
    train, test = split_by_environment(records, [], ["env_s_b", "env_m_b"])
    assert len(train) + len(test) == len(records)
    assert {r.environment for r in test} <= {"env_s_b", "env_m_b"}
    assert not ({r.environment for r in train}
                & {"env_s_b", "env_m_b"})


def test_split_explicit_train_envs():
    records = generate(WorkloadConfig(n_queries=500, seed=4))
    train, test = split_by_environment(records, ["env_xs_a"], ["env_xl_a"])
    assert {r.environment for r in train} == {"env_xs_a"}
    assert {r.environment for r in test} == {"env_xl_a"}


def test_split_overlap_rejected():
    records = generate(WorkloadConfig(n_queries=50, seed=4))
    with pytest.raises(OverlappingEnvironments):
        split_by_environment(records, ["env_s_a"], ["env_s_a", "env_m_a"])
