"""Seeded synthetic workload generator with a ground-truth cost oracle.

Queries are assembled from operator templates so the lexical analyzer
recovers exactly the intended operator counts; slot-time comes from a
multiplicative oracle over bytes, complexity and cache state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .config import Section, setting
from .errors import ConfigError, OverlappingEnvironments
from .records import INT64_MAX, QueryRecord
from .sql_analyzer import OPERATOR_KINDS, weighted_score


# ---------------------------------------------------------------------------
# Environments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnvironmentProfile:
    name: str
    accounts: Tuple[int, int]      # inclusive range
    resources: Tuple[int, int]
    bytes_scale: float = 1.0       # mild per-env multiplier on bytes drawn


def default_profiles() -> List[EnvironmentProfile]:
    """Nine profiles spanning three orders of magnitude in cardinality."""
    return [
        EnvironmentProfile("env_xs_a", (10, 40), (1_000, 8_000), 0.6),
        EnvironmentProfile("env_xs_b", (20, 60), (2_000, 12_000), 0.8),
        EnvironmentProfile("env_s_a", (50, 150), (8_000, 40_000), 0.9),
        EnvironmentProfile("env_s_b", (80, 240), (15_000, 70_000), 1.0),
        EnvironmentProfile("env_m_a", (300, 900), (50_000, 300_000), 1.1),
        EnvironmentProfile("env_m_b", (500, 1_500), (100_000, 600_000), 1.2),
        EnvironmentProfile("env_l_a", (2_000, 6_000), (400_000, 2_000_000), 1.4),
        EnvironmentProfile("env_l_b", (4_000, 12_000), (1_000_000, 6_000_000), 1.6),
        EnvironmentProfile("env_xl_a", (10_000, 30_000), (4_000_000, 20_000_000), 1.8),
    ]


# ---------------------------------------------------------------------------
# Cost oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleCostModel(Section):
    prefix = "oracle"
    base: float = setting(0.05, ge=0)
    volume_exponent: float = setting(0.8, ge=0)
    complexity_slope: float = setting(0.02, ge=0)
    cache_multiplier: float = setting(1e-4, ge=0)

    def slot_minutes(self, bytes_processed: float, score: int,
                     cache_hit: bool, noise: float = 0.0) -> float:
        core = (self.base
                * (bytes_processed / 1e9) ** self.volume_exponent
                * (1.0 + self.complexity_slope * score))
        if cache_hit:
            core *= self.cache_multiplier
        return max(core * math.exp(noise), 0.0)


# ---------------------------------------------------------------------------
# Query templates
# ---------------------------------------------------------------------------

@dataclass
class OperatorPlan:
    join: int = 0
    cross_join: int = 0
    group_by: int = 0
    distinct: int = 0
    order_by: int = 0
    window: int = 0
    regex_function: int = 0
    sql_udf: int = 0
    js_udf: int = 0
    unnest: int = 0
    cte: int = 0
    extra_subselect: int = 0
    array_struct: int = 0
    having: int = 0
    update: int = 0
    insert: int = 0
    merge: int = 0


# Clauses emitted once per unit of a plan field, one table per script part:
# (plan field, template, kinds each adds). A template reads {j}, the unit's
# 0-based index, and {j1}..{j3} for j+1..j+3.
_UDFS = (("sql_udf", "CREATE TEMP FUNCTION SQLFN{j}(X INT64) AS (X + {j1})",
          ("sql_udf",)),
         ("js_udf", "CREATE TEMP FUNCTION JSFN{j}(X FLOAT64) RETURNS FLOAT64 "
          'LANGUAGE js AS "return x + {j1};"', ("js_udf",)))
_SELECT = (("window", "SUM(T0.M{j}) OVER (PARTITION BY T0.KEY)", ("window",)),)
_FROM = (("unnest", ", UNNEST(T0.ITEMS{j}) IT{j}", ("unnest",)),
         ("join", " JOIN `proj.ds.t{j1}` T{j1} ON T0.KEY = T{j1}.KEY",
          ("join",)),
         ("cross_join", " CROSS JOIN `proj.ds.x{j}` X{j}", ("cross_join",)))
_WHERE = (("regex_function", " AND REGEXP_CONTAINS(T0.NAME{j}, 'pat{j}')",
           ("regex_function",)),
          ("extra_subselect", " AND T0.KEY IN (SELECT KEY FROM "
           "`proj.ds.f{j}`)", ("subselect",)))
_STATEMENTS = (("update", "UPDATE `proj.ds.u{j}` SET A = {j2} WHERE B = {j3}",
                ("update",)),
               ("insert", "INSERT INTO `proj.ds.i{j}` (A) SELECT A FROM "
                "`proj.ds.ia{j}`", ("insert",)),
               ("merge", "MERGE `proj.ds.m{j}` M USING `proj.ds.ms{j}` S "
                "ON M.ID = S.ID WHEN MATCHED THEN UPDATE SET M.A = S.A",
                ("merge", "update")))


def _emit(table, plan: OperatorPlan, counts: dict, out: list) -> None:
    """Append each row's template to out once per unit of its plan field,
    counting the kinds it adds."""
    for name, template, kinds in table:
        for j in range(getattr(plan, name)):
            out.append(template.format(j=j, j1=j + 1, j2=j + 2, j3=j + 3))
            for kind in kinds:
                counts[kind] += 1


def render_query(plan: OperatorPlan) -> Tuple[str, Dict[str, int]]:
    """Emit SQL realizing the plan; returns (sql, intended operator counts).

    Clauses repeated once per unit of a plan field come from one table per
    script part. The counts dict reflects exactly what the lexical analyzer
    should see, including incidental occurrences (each CTE body is a
    subselect, each MERGE carries an UPDATE clause).
    """
    counts = {k: 0 for k in OPERATOR_KINDS}
    parts: List[str] = []
    _emit(_UDFS, plan, counts, parts)

    main: List[str] = []
    groups_left = plan.group_by
    orders_left = plan.order_by

    if plan.cte:
        bodies = []
        for i in range(plan.cte):
            body = f"SELECT KEY, VAL FROM `proj.ds.src{i}`"
            if groups_left > 1:  # keep one GROUP BY for the main statement
                body += " GROUP BY KEY, VAL"
                counts["group_by"] += 1
                groups_left -= 1
            bodies.append(f"CTE{i} AS ({body})")
            counts["with_cte"] += 1
            counts["subselect"] += 1
        main.append("WITH " + ", ".join(bodies))

    # the first DISTINCT heads the SELECT, the rest count distinct columns
    head = "SELECT DISTINCT" if plan.distinct else "SELECT"
    select_items = ["T0.KEY"] + [f"COUNT(DISTINCT T0.COL{j})"
                                 for j in range(plan.distinct - 1)]
    counts["distinct"] += plan.distinct
    _emit(_SELECT, plan, counts, select_items)
    for j in range(plan.array_struct):
        if j % 2 == 0:
            select_items.append(f"STRUCT(T0.A{j}, T0.B{j}) AS S{j}")
        else:
            select_items.append(f"ARRAY[{j}, {j + 1}] AS R{j}")
        counts["array_struct"] += 1
    main.append(f"{head} {', '.join(select_items)}")

    from_parts = ["FROM `proj.ds.t0` T0"]
    _emit(_FROM, plan, counts, from_parts)
    main.append("".join(from_parts))

    where_parts = ["WHERE T0.FLAG = 1"]
    _emit(_WHERE, plan, counts, where_parts)
    if plan.sql_udf:
        where_parts.append(" AND SQLFN0(T0.N) > 2")
    main.append("".join(where_parts))

    if groups_left > 0:
        main.append("GROUP BY T0.KEY")
        counts["group_by"] += 1
        groups_left -= 1
        if plan.having:
            main.append("HAVING COUNT(T0.VAL) > 3")
            counts["having"] += 1
    if orders_left > 0:
        main.append("ORDER BY T0.KEY")
        counts["order_by"] += 1
        orders_left -= 1
    parts.append(" ".join(main))

    # leftover GROUP BY / ORDER BY occurrences become standalone statements
    for j in range(groups_left):
        parts.append(f"SELECT COL, COUNT(*) FROM `proj.ds.g{j}` GROUP BY COL")
        counts["group_by"] += 1
    for j in range(orders_left):
        parts.append(f"SELECT COL FROM `proj.ds.o{j}` ORDER BY COL")
        counts["order_by"] += 1

    _emit(_STATEMENTS, plan, counts, parts)
    return " ; ".join(parts), counts


# ---------------------------------------------------------------------------
# Workload generation
# ---------------------------------------------------------------------------

@dataclass
class WorkloadConfig(Section):
    prefix = "synth"
    n_queries: int = setting(1000, ge=0)
    profiles: List[EnvironmentProfile] = field(default_factory=default_profiles)
    trivial_fraction: float = setting(0.62, ge=0, le=1)
    long_tail_fraction: float = setting(0.03, ge=0, le=1)
    heavy_mid_fraction: float = setting(0.35, ge=0, le=1)
    noise_sigma: float = setting(0.5, ge=0)
    seed: int = setting(0, ge=0)
    oracle: OracleCostModel = field(default_factory=OracleCostModel)

    def validate(self) -> None:
        """Raise ConfigError on a setting out of range, trivial and
        long-tail fractions above 1 together, or no environment profile."""
        super().validate()
        if self.trivial_fraction + self.long_tail_fraction > 1:
            raise ConfigError(f"{self.prefix}.trivial_fraction + "
                              f"{self.prefix}.long_tail_fraction exceed 1")
        if not self.profiles:
            raise ConfigError(f"{self.prefix}: at least one environment "
                              "profile required")


_ASSET_TYPES = ("vm", "bucket", "db", "lb", "container", "function")
_REGIONS = ("us", "eu", "asia")


def _plan_for(rng: np.random.Generator, kind: str) -> OperatorPlan:
    ri = rng.integers
    if kind == "trivial":
        return OperatorPlan(group_by=int(ri(0, 2)), order_by=int(ri(0, 2)))
    if kind == "light":
        return OperatorPlan(
            join=int(ri(0, 3)), group_by=int(ri(0, 2)),
            distinct=int(ri(0, 2)), order_by=int(ri(0, 2)),
            window=int(ri(0, 2)), cte=int(ri(0, 2)),
            extra_subselect=int(ri(0, 2)), array_struct=int(ri(0, 2)),
            having=int(ri(0, 2)))
    # heavy: usually lands at or above the routing threshold
    return OperatorPlan(
        join=int(ri(2, 6)), cross_join=int(ri(0, 2)),
        group_by=int(ri(1, 3)), distinct=int(ri(1, 3)),
        order_by=int(ri(0, 2)), window=int(ri(1, 3)),
        regex_function=int(ri(0, 2)), sql_udf=int(ri(0, 2)),
        js_udf=int(ri(0, 2)), unnest=int(ri(0, 2)),
        cte=int(ri(1, 3)), extra_subselect=int(ri(0, 2)),
        array_struct=int(ri(0, 2)), having=int(ri(0, 2)),
        update=int(ri(0, 2)), merge=int(ri(0, 2)))


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def generate(config: WorkloadConfig) -> List[QueryRecord]:
    """Deterministically generate a workload with ground-truth slot-time."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    records: List[QueryRecord] = []
    for i in range(config.n_queries):
        u = rng.uniform()
        if u < config.trivial_fraction:
            klass = "trivial"
        elif u < config.trivial_fraction + config.long_tail_fraction:
            klass = "tail"
        else:
            klass = "mid"

        env = config.profiles[int(rng.integers(0, len(config.profiles)))]
        accounts = int(rng.integers(env.accounts[0], env.accounts[1] + 1))
        resources = int(rng.integers(env.resources[0], env.resources[1] + 1))
        aws = int(round(accounts * rng.uniform(0.2, 0.6)))
        gcp = int(round((accounts - aws) * rng.uniform(0.3, 0.9)))
        azure = max(accounts - aws - gcp, 0)

        if klass == "trivial":
            plan = _plan_for(rng, "trivial")
            bytes_processed = _log_uniform(rng, 1e5, 1e8)
            cache_hit = True
        elif klass == "tail":
            plan = _plan_for(rng, "heavy")
            bytes_processed = _log_uniform(rng, 4e11, 3e12)
            cache_hit = False
        else:
            heavy = rng.uniform() < config.heavy_mid_fraction
            plan = _plan_for(rng, "heavy" if heavy else "light")
            bytes_processed = _log_uniform(rng, 1e8, 3e11)
            cache_hit = False
        bytes_processed *= env.bytes_scale

        sql, counts = render_query(plan)
        score = weighted_score(counts)
        noise = float(rng.normal(0.0, config.noise_sigma))
        try:
            slot_min = config.oracle.slot_minutes(bytes_processed, score,
                                                  cache_hit, noise)
            elapsed = slot_min * 60000.0 * float(rng.uniform(0.5, 2.0)) + 10.0
        except OverflowError:
            slot_min = elapsed = math.inf
        # NaN fails both tests; ingest reads no milliseconds above INT64_MAX
        if not (slot_min * 60000.0 <= INT64_MAX and elapsed <= INT64_MAX):
            raise ConfigError(
                f"oracle.base, oracle.volume_exponent, oracle.complexity_slope,"
                f" oracle.cache_multiplier and synth.noise_sigma give query {i}"
                f" a slot or elapsed time that is not finite or exceeds "
                f"2**63-1 ms")
        asset_type = _ASSET_TYPES[int(rng.integers(0, len(_ASSET_TYPES)))]
        atc_keys = list(rng.choice(_ASSET_TYPES, size=3, replace=False))
        asset_type_counts = {
            k: int(max(1, round(resources * rng.uniform(0.01, 0.2))))
            for k in atc_keys
        }
        records.append(QueryRecord(
            query_text=sql,
            project_id=f"proj_{env.name}",
            dataset_id=f"ds_{int(rng.integers(0, 4))}",
            region=_REGIONS[int(rng.integers(0, len(_REGIONS)))],
            asset_type=asset_type,
            cache_hit=cache_hit,
            total_bytes_processed=int(bytes_processed),
            total_bytes_billed=0 if cache_hit else int(bytes_processed),
            account_count=accounts,
            resource_count=resources,
            accounts_aws=aws,
            accounts_gcp=gcp,
            accounts_azure=azure,
            asset_type_counts=asset_type_counts,
            creation_time=f"2026-01-01T00:{i % 60:02d}:00Z",
            environment=env.name,
            total_slot_ms=slot_min * 60000.0,
            elapsed_ms=elapsed,
            timed_out=False,
        ))
    return records


def split_by_environment(records: Sequence[QueryRecord],
                         train_envs: Sequence[str],
                         test_envs: Sequence[str]
                         ) -> Tuple[List[QueryRecord], List[QueryRecord]]:
    """Out-of-distribution split: no environment crosses the partition."""
    test_set, train_set = set(test_envs), set(train_envs)
    overlap = train_set & test_set
    if overlap:
        raise OverlappingEnvironments(f"environments in both lists: {sorted(overlap)}")
    test = [r for r in records if r.environment in test_set]
    train = [r for r in records
             if r.environment not in test_set
             and (not train_set or r.environment in train_set)]
    return train, test
