"""Acceptance gate: ten criteria, each printing an explicit PASS/FAIL line.

The scaled end-to-end experiment (criterion 7) trains on 1,500 queries from
seven synthetic environments and evaluates on 1,500 queries from two held-out
environments; its artifacts are reused by the bundle, routing and latency
criteria.
"""
import dataclasses
import json
import time
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.sparse as sp

from slotcast import evaluator, gbrt, predictor
from slotcast.errors import BundleVersionMismatch, CorruptBundle
from slotcast.featurizer import fit_svd, fit_text, transform_text_corpus
from slotcast.gbrt import GBRTConfig
from slotcast.predictor import (
    ROUTE_COMPLEX,
    ROUTE_SIMPLE,
    TrainConfig,
    deserialize_bundle,
    inverse_target,
    predict,
    predict_many,
    serialize_bundle,
    train,
    transform_target,
)
from slotcast.sql_analyzer import (
    analyze_sql,
    clean_query,
    complexity_score,
    count_operators,
    default_weights,
)
from slotcast.synth import (
    OperatorPlan,
    WorkloadConfig,
    _plan_for,
    generate,
    render_query,
    split_by_environment,
)

from naive_oracles import naive_metrics, naive_operator_counts, naive_tfidf
from test_sql_analyzer import GOLDEN

TEST_ENVS = ["env_s_b", "env_m_b"]


@contextmanager
def reported(capsys, num, name):
    try:
        yield
    except Exception:
        with capsys.disabled():
            print(f"[acceptance] criterion {num:2d} ({name}): FAIL")
        raise
    with capsys.disabled():
        print(f"[acceptance] criterion {num:2d} ({name}): PASS")


@pytest.fixture(scope="module")
def experiment():
    """Scaled reproduction: train/test from disjoint environments."""
    t0 = time.perf_counter()
    records = generate(WorkloadConfig(n_queries=6750, seed=42))
    train_pool, test_pool = split_by_environment(records, [], TEST_ENVS)
    train_records, test_records = train_pool[:1500], test_pool[:1500]
    assert len(train_records) == 1500 and len(test_records) == 1500
    bundle = train(train_records, TrainConfig())
    results = predict_many(bundle, test_records)
    actual = np.array([r.slot_min for r in test_records])
    predicted = np.array([r.slot_min for r in results])
    base = evaluator.Baselines(
        mean_value=bundle.metadata["train_target_mean"],
        median_value=bundle.metadata["train_target_median"],
        source=evaluator.BASELINE_TRAIN)
    report = evaluator.tiered_eval(actual, predicted, base=base)
    elapsed = time.perf_counter() - t0
    return {"bundle": bundle, "train": train_records, "test": test_records,
            "report": report, "elapsed": elapsed}


def test_criterion_1_complexity_golden_suite(capsys):
    with reported(capsys, 1, "complexity golden suite"):
        t0 = time.perf_counter()
        worked = ("SELECT a, COUNT(DISTINCT b) FROM t GROUP BY a ; "
                  "SELECT c, COUNT(DISTINCT d) FROM u GROUP BY c")
        assert analyze_sql(worked).score == 8
        assert len(GOLDEN) == 20
        for sql, counts, score in GOLDEN:
            rep = analyze_sql(sql)
            assert rep.counts == counts
            assert rep.score == score
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_weight_table_fidelity(capsys):
    with reported(capsys, 2, "operator weight-table fidelity"):
        t0 = time.perf_counter()
        expected = {
            "join": 3, "cross_join": 5, "group_by": 2, "distinct": 2,
            "order_by": 2, "window": 3, "regex_function": 4, "sql_udf": 1,
            "js_udf": 6, "unnest": 2, "merge": 4, "update": 3, "insert": 1,
            "with_cte": 1, "subselect": 2, "array_struct": 1, "having": 1,
        }
        weights = default_weights()
        assert weights == expected and len(weights) == 17
        rng = np.random.default_rng(202)
        for _ in range(300):
            kind = ("trivial", "light", "heavy")[int(rng.integers(0, 3))]
            sql, _ = render_query(_plan_for(rng, kind))
            cleaned = clean_query(sql)
            counts = count_operators(cleaned)
            assert counts == naive_operator_counts(" ".join(cleaned.tokens))
            assert complexity_score(cleaned).score == sum(
                counts[k] * weights[k] for k in counts)
        assert time.perf_counter() - t0 < 5.0


def test_criterion_3_tfidf_svd_oracle(capsys):
    with reported(capsys, 3, "TF-IDF/SVD oracle equivalence"):
        t0 = time.perf_counter()
        corpus = [clean_query(sql) for sql, _, _ in GOLDEN]
        state = fit_text(corpus, min_df=2, max_vocab=50_000)
        rows = transform_text_corpus(state, corpus)
        matrix = sp.csr_matrix((rows.data, rows.indices, rows.indptr),
                               shape=rows.shape)
        terms, naive_rows = naive_tfidf([list(q.tokens) for q in corpus],
                                        min_df=2, max_vocab=50_000)
        assert sorted(state.vocabulary) == terms
        for i, weights in enumerate(naive_rows):
            dense = np.zeros(len(terms))
            for term, w in weights.items():
                dense[state.vocabulary[term]] = w
            assert np.max(np.abs(matrix[i].toarray().ravel() - dense)) < 1e-10

        dense_m = matrix.toarray()
        prev_err = np.inf
        for k in (1, 2, 4, 8, 16):
            basis = fit_svd(matrix, k)
            gram = basis.components @ basis.components.T
            assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-8
            recon = (dense_m @ basis.components.T) @ basis.components
            err = float(np.linalg.norm(dense_m - recon))
            assert err <= prev_err + 1e-10
            prev_err = err
        assert time.perf_counter() - t0 < 10.0


def test_criterion_4_gbdt_properties(capsys):
    with reported(capsys, 4, "GBDT properties"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2000, 10))
        y = x[:, 0] * 2 - x[:, 3] + np.sin(x[:, 5]) + rng.normal(size=2000) * 0.3
        forest = gbrt.fit(x, y, GBRTConfig())
        assert len(forest.train_losses) == 100
        assert np.all(np.diff(forest.train_losses) <= 1e-12)

        xl = np.linspace(0, 1, 200).reshape(-1, 1)
        yl = 3.0 * xl.ravel()
        fl = gbrt.fit(xl, yl, GBRTConfig())
        pl = fl.predict(xl)
        r2 = 1 - np.sum((yl - pl) ** 2) / np.sum((yl - yl.mean()) ** 2)
        assert r2 >= 0.99

        f2 = gbrt.fit(x, y, GBRTConfig())
        m1, a1 = forest.get_state()
        m2, a2 = f2.get_state()
        assert json.dumps(m1, sort_keys=True) == json.dumps(m2, sort_keys=True)
        assert sorted(a1) == sorted(a2)
        for k in a1:
            assert a1[k].tobytes() == a2[k].tobytes()
        assert time.perf_counter() - t0 < 60.0


def test_criterion_5_target_transform_round_trip(capsys):
    with reported(capsys, 5, "target-transform round trip"):
        y = np.concatenate([[0.0], np.logspace(-9, 6, 400), [1e6]])
        back = inverse_target(transform_target(y))
        assert np.allclose(back, y, rtol=1e-12, atol=1e-12)


def test_criterion_6_bundle_round_trip(capsys, experiment):
    with reported(capsys, 6, "bundle round trip"):
        bundle = experiment["bundle"]
        fixture = experiment["test"][:100]
        data = serialize_bundle(bundle)
        restored = deserialize_bundle(data)
        for a, b in zip(predict_many(bundle, fixture),
                        predict_many(restored, fixture)):
            assert a.slot_min == b.slot_min  # bit-exact
            assert a.log_space_value == b.log_space_value

        corrupted = bytearray(data)
        corrupted[len(corrupted) // 2] ^= 0xFF
        with pytest.raises(CorruptBundle):
            deserialize_bundle(bytes(corrupted))
        bumped = bytearray(data)
        bumped[4:8] = (predictor.FORMAT_VERSION + 1).to_bytes(4, "little")
        with pytest.raises(BundleVersionMismatch):
            deserialize_bundle(bytes(bumped))


def test_criterion_7_end_to_end_reproduction(capsys, experiment):
    with reported(capsys, 7, "end-to-end qualitative reproduction"):
        report = experiment["report"]
        tiers = {t.name: t for t in report.tiers}
        full, cost = tiers["full"], tiers["cost-significant"]
        assert cost.mae_reduction_vs_mean >= 0.20
        assert full.mae_reduction_vs_mean >= 0.60
        assert full.model.explained_variance >= 0.5
        assert experiment["elapsed"] < 300.0
        with capsys.disabled():
            print(f"[acceptance]   full: MAE red. vs mean "
                  f"{100 * full.mae_reduction_vs_mean:.1f}%, "
                  f"EV {full.model.explained_variance:.4f}; "
                  f"cost-significant: MAE red. "
                  f"{100 * cost.mae_reduction_vs_mean:.1f}% "
                  f"(N={cost.n}); long-tail N={tiers['long-tail'].n}; "
                  f"{experiment['elapsed']:.1f}s")


def test_criterion_8_routing_boundary(capsys, experiment):
    with reported(capsys, 8, "routing boundary"):
        bundle = experiment["bundle"]
        sql25, _ = render_query(OperatorPlan(join=8, insert=1))
        sql26, _ = render_query(OperatorPlan(join=8, group_by=1))
        base = experiment["test"][0]
        r25 = predict(bundle, dataclasses.replace(base, query_text=sql25))
        r26 = predict(bundle, dataclasses.replace(base, query_text=sql26))
        assert (r25.complexity_score, r25.route) == (25, ROUTE_SIMPLE)
        assert (r26.complexity_score, r26.route) == (26, ROUTE_COMPLEX)
        for rec in (dataclasses.replace(base, query_text=sql26),):
            perturbed = dataclasses.replace(
                rec, total_bytes_processed=10**13, account_count=99999,
                cache_hit=not rec.cache_hit, region="asia", asset_type="lb")
            assert predict(bundle, perturbed).route == ROUTE_COMPLEX


def test_criterion_9_evaluator_equivalence(capsys):
    with reported(capsys, 9, "evaluator brute-force equivalence"):
        rng = np.random.default_rng(77)
        for _ in range(100):
            n = int(rng.integers(2, 60))
            a = np.abs(rng.normal(size=n)) * 30
            p = a * rng.uniform(0.3, 3.0, size=n)
            m = evaluator.metrics(a, p)
            mae, rmse, ev, ratio = naive_metrics(list(a), list(p))
            assert abs(m.mae - mae) < 1e-10
            assert abs(m.rmse - rmse) < 1e-10
            assert abs(m.explained_variance - ev) < 1e-10
            assert abs(m.variance_ratio - ratio) < 1e-10

        a = np.exp(rng.normal(size=300) * 2)
        med, mean = float(np.median(a)), float(a.mean())
        mae_med = evaluator.metrics(a, np.full(300, med)).mae
        mse_mean = evaluator.metrics(a, np.full(300, mean)).rmse ** 2
        for c in np.linspace(a.min(), a.max(), 201):
            const = np.full(300, c)
            assert mae_med <= evaluator.metrics(a, const).mae + 1e-9
            assert mse_mean <= evaluator.metrics(a, const).rmse ** 2 + 1e-9


def test_criterion_10_advisor_latency(capsys, experiment):
    with reported(capsys, 10, "advisor latency"):
        bundle = experiment["bundle"]
        stmt = ("SELECT A, B FROM `proj.ds.t` JOIN `proj.ds.u` U "
                "ON A = U.A WHERE C = 'value' GROUP BY A, B")
        n = 100_000 // (len(stmt) + 3) + 1
        big_sql = " ; ".join([stmt] * n)
        assert len(big_sql.encode()) >= 100_000
        record = dataclasses.replace(experiment["test"][0], query_text=big_sql)
        predict(bundle, record)  # warm-up
        timings = []
        for _ in range(100):
            t0 = time.perf_counter()
            predict(bundle, record)
            timings.append(time.perf_counter() - t0)
        median_ms = 1000 * float(np.median(timings))
        assert median_ms < 100.0
        with capsys.disabled():
            print(f"[acceptance]   median single-query latency on a 100 KB "
                  f"query: {median_ms:.1f} ms")
