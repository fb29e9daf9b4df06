import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slotcast import featurizer, gbrt, predictor
from slotcast.errors import (
    BundleVersionMismatch,
    CorruptBundle,
    NegativeTarget,
    NonFiniteFeatures,
    TooFewSamples,
)
from slotcast.gbrt import GBRTConfig
from slotcast.predictor import (
    ROUTE_COMPLEX,
    ROUTE_SIMPLE,
    ROUTE_UNIFIED,
    Router,
    TrainConfig,
    deserialize_bundle,
    inverse_target,
    load_bundle,
    predict,
    predict_many,
    save_bundle,
    serialize_bundle,
    train,
    transform_target,
)
from slotcast.featurizer import FeaturizerConfig, transform_text
from slotcast.records import QueryRecord
from slotcast.sql_analyzer import clean_query
from slotcast.synth import OperatorPlan, WorkloadConfig, generate, render_query

from naive_oracles import feature_edges, naive_transform_text


@pytest.fixture(scope="module")
def workload():
    return generate(WorkloadConfig(n_queries=400, seed=7))


@pytest.fixture(scope="module")
def small_train_config():
    return TrainConfig(
        featurizer=FeaturizerConfig(svd_components=32),
        gbrt=GBRTConfig(iterations=40, min_samples_leaf=5),
    )


@pytest.fixture(scope="module")
def bundle(workload, small_train_config):
    return train(workload, small_train_config)


# ---------------------------------------------------------------------------
# Target transform
# ---------------------------------------------------------------------------

def test_target_round_trip_log_grid():
    y = np.concatenate([[0.0], np.logspace(-6, 6, 200)])
    back = inverse_target(transform_target(y))
    assert np.allclose(back, y, rtol=1e-12, atol=1e-12)


def test_target_transform_scalars():
    assert transform_target(0.0) == 0.0
    assert transform_target(np.e - 1) == pytest.approx(1.0, abs=1e-12)
    assert inverse_target(-5.0) == 0.0  # clamped at zero slot-minutes


def test_negative_target_rejected():
    with pytest.raises(NegativeTarget):
        transform_target([-0.1, 1.0])


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------

def test_routing_boundary_scores():
    router = Router()
    assert router.route(25) == ROUTE_SIMPLE
    assert router.route(26) == ROUTE_COMPLEX
    assert router.route(0) == ROUTE_SIMPLE
    assert router.route(100) == ROUTE_COMPLEX
    split = router.split([0, 25, 26, 100])
    assert list(split) == [ROUTE_SIMPLE, ROUTE_COMPLEX]
    assert split[ROUTE_SIMPLE].tolist() == [0, 1]
    assert split[ROUTE_COMPLEX].tolist() == [2, 3]
    scores = [100, 26, 0, 25]
    split = router.split(scores)
    assert split[ROUTE_SIMPLE].tolist() == [2, 3]
    for route, idx in split.items():  # each score goes where route() says
        assert [router.route(scores[i]) for i in idx] == [route] * 2


def test_routing_boundary_through_predict(bundle, workload):
    # score 25: eight joins plus one insert; score 26: eight joins plus GROUP BY
    sql25, _ = render_query(OperatorPlan(join=8, insert=1))
    sql26, _ = render_query(OperatorPlan(join=8, group_by=1))
    base = workload[0]
    r25 = predict(bundle, dataclasses.replace(base, query_text=sql25))
    r26 = predict(bundle, dataclasses.replace(base, query_text=sql26))
    assert r25.complexity_score == 25
    assert r26.complexity_score == 26
    assert r25.route == ROUTE_SIMPLE
    assert r26.route == ROUTE_COMPLEX


def test_route_invariant_to_non_text_perturbation(bundle, workload):
    sql26, _ = render_query(OperatorPlan(join=8, group_by=1))
    base = dataclasses.replace(workload[0], query_text=sql26)
    perturbed = dataclasses.replace(
        base, total_bytes_processed=base.total_bytes_processed * 1000 + 17,
        account_count=base.account_count + 5000, cache_hit=not base.cache_hit,
        region="asia", asset_type="bucket")
    assert predict(bundle, base).route == predict(bundle, perturbed).route


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def test_dual_route_training(bundle):
    counts = bundle.metadata["route_counts"]
    assert counts[ROUTE_SIMPLE] >= 50 and counts[ROUTE_COMPLEX] >= 50
    assert set(bundle.forests) == {ROUTE_SIMPLE, ROUTE_COMPLEX}
    assert bundle.fallback_routes == []


def test_fallback_to_unified_when_subset_small(small_train_config):
    # almost all trivial → too few complex records for a dedicated forest
    records = generate(WorkloadConfig(n_queries=120, seed=11,
                                      trivial_fraction=0.95,
                                      long_tail_fraction=0.05,
                                      heavy_mid_fraction=0.0))
    b = train(records, small_train_config)
    assert b.fallback_routes == [ROUTE_COMPLEX]
    assert ROUTE_UNIFIED in b.forests
    complex_rec = next(r for r in records
                       if b.router.route(
                           predict(b, r).complexity_score) == ROUTE_COMPLEX)
    assert predict(b, complex_rec).route == ROUTE_COMPLEX  # route still reported


@pytest.mark.parametrize("threshold", [0, 10**6])
def test_one_route_with_every_record_fits_one_forest(
        workload, small_train_config, threshold):
    """Where one route holds every record (threshold 0: all complex; above
    every score: all simple) only the unified forest is fitted and stored,
    and it scores as the route's own forest fitted on every row would."""
    config = dataclasses.replace(small_train_config,
                                 router=Router(threshold=threshold))
    b = train(workload, config)
    assert set(b.forests) == {ROUTE_UNIFIED}
    assert b.fallback_routes == [ROUTE_SIMPLE, ROUTE_COMPLEX]
    assert sorted(b.metadata["route_counts"].values()) == [0, len(workload)]
    cleaned = [clean_query(r.query_text) for r in workload]
    reports = [predictor.complexity_score(q) for q in cleaned]
    rows = b.featurizer.transform(workload, reports, cleaned).rows
    y = transform_target(np.array([r.slot_min for r in workload]))
    idx = np.arange(len(workload))  # the route's rows, as train selects them
    route_forest = gbrt.fit(rows[idx], y[idx], config.gbrt)
    got = np.array([p.log_space_value for p in predict_many(b, workload)])
    assert got.tobytes() == route_forest.predict(rows).tobytes()


def test_too_few_records():
    records = generate(WorkloadConfig(n_queries=10, seed=1))
    with pytest.raises(TooFewSamples):
        train(records, TrainConfig())


def test_constant_target_prediction(workload, small_train_config):
    records = [dataclasses.replace(r, total_slot_ms=90000.0)
               for r in workload[:100]]
    b = train(records, small_train_config)
    for r in records[:10]:
        assert predict(b, r).slot_min == pytest.approx(1.5, abs=1e-9)


def test_predict_many_matches_predict(bundle, workload):
    singles = [predict(bundle, r) for r in workload[:30]]
    batch = predict_many(bundle, workload[:30])
    for s, b in zip(singles, batch):
        assert s == b
    assert predict_many(bundle, []) == []


# ---------------------------------------------------------------------------
# Batch scoring edge cases: each raises nothing and equals predict row by row
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def fallback_bundle(small_train_config):
    """A bundle whose complex route falls back to the unified forest."""
    records = generate(WorkloadConfig(n_queries=120, seed=11,
                                      trivial_fraction=0.95,
                                      long_tail_fraction=0.05,
                                      heavy_mid_fraction=0.0))
    b = train(records, small_train_config)
    assert set(b.forests) == {ROUTE_SIMPLE, ROUTE_UNIFIED}
    return b, records


def _assert_batch_is_rows(bundle, records):
    batch = predict_many(bundle, records)
    assert batch == [predict(bundle, r) for r in records]
    return batch


def test_predict_many_of_nothing(bundle, fallback_bundle):
    assert _assert_batch_is_rows(bundle, []) == []
    assert _assert_batch_is_rows(fallback_bundle[0], []) == []


@pytest.mark.parametrize("route", [ROUTE_SIMPLE, ROUTE_COMPLEX])
def test_predict_many_with_every_row_on_one_route(bundle, workload, route):
    rows = [r for r in workload if predict(bundle, r).route == route][:12]
    assert len(rows) == 12
    batch = _assert_batch_is_rows(bundle, rows)
    assert {res.route for res in batch} == {route}


def test_predict_many_on_a_unified_fallback_bundle(fallback_bundle):
    b, records = fallback_bundle
    batch = _assert_batch_is_rows(b, records)
    # complex rows are reported as complex and scored by the unified forest
    assert {res.route for res in batch} == {ROUTE_SIMPLE, ROUTE_COMPLEX}


def test_predict_many_without_known_terms_or_optional_fields(
        bundle, fallback_bundle, workload):
    bare = [QueryRecord(query_text=text)
            for text in ("", "ZZYZX qwerty", "~ @@ #", "ZZYZX " * 40)]
    for b in (bundle, fallback_bundle[0]):
        batch = _assert_batch_is_rows(b, bare + workload[:3])
        assert all(np.isfinite(res.slot_min) and res.slot_min >= 0
                   for res in batch)


# ---------------------------------------------------------------------------
# Repeated texts: the text stages run once per distinct text, the rest per
# record
# ---------------------------------------------------------------------------

_BYTES = [None, 0, 1_000, 10**9, 5 * 10**12]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_batch_with_repeated_texts_scores_row_by_row(bundle, workload,
                                                     held_out, data):
    """A batch drawn from a few texts, on both routes and with no known
    term, each record with its own tabular fields: result i is predict of
    record i bit for bit, permuting the batch permutes the results, and
    each feature row is the record's own row, so two records that share a
    text keep their own byte columns."""
    texts = [r.query_text for r in held_out[::3]] + ["ZZYZX qwerty"]
    picks = data.draw(st.lists(st.tuples(st.sampled_from(texts),
                                         st.integers(0, 7),
                                         st.sampled_from(_BYTES)),
                               max_size=20), label="picks")
    batch = [dataclasses.replace(workload[0], query_text=texts[0],
                                 total_bytes_processed=b)
             for b in (1_000, 10**9)]
    batch += [dataclasses.replace(workload[base], query_text=text,
                                  total_bytes_processed=b)
              for text, base, b in picks]

    results = predict_many(bundle, batch)
    assert results == [predict(bundle, r) for r in batch]
    order = data.draw(st.permutations(range(len(batch))), label="order")
    assert (predict_many(bundle, [batch[i] for i in order])
            == [results[i] for i in order])

    cleaned, reports = predictor._analyze(batch)
    assert cleaned[0] is cleaned[1] and reports[0] is reports[1]
    fz = bundle.featurizer
    rows = fz.transform(batch, reports, cleaned).rows
    for r, row in zip(batch, rows):
        (q,), (rep,) = predictor._analyze([r])
        assert row.tobytes() == fz.transform([r], [rep], [q]).rows[0].tobytes()
    col = fz.column_names.index("vol_log1p_bytes_processed")
    assert rows[0, col] != rows[1, col]


@pytest.mark.parametrize("n_texts", [3, 30])
def test_text_stages_run_once_per_distinct_text(bundle, workload,
                                                monkeypatch, n_texts):
    """A 30-record batch over n_texts texts cleans and scores n_texts
    queries and hands transform_text n_texts queries in all."""
    counts = dict.fromkeys(["clean_query", "complexity_score",
                            "transform_text"], 0)
    clean, score = predictor.clean_query, predictor.complexity_score
    text = featurizer.transform_text

    def counted_clean(query_text):
        counts["clean_query"] += 1
        return clean(query_text)

    def counted_score(q):
        counts["complexity_score"] += 1
        return score(q)

    def counted_text(state, corpus):
        counts["transform_text"] += len(corpus)
        return text(state, corpus)

    monkeypatch.setattr(predictor, "clean_query", counted_clean)
    monkeypatch.setattr(predictor, "complexity_score", counted_score)
    monkeypatch.setattr(featurizer, "transform_text", counted_text)
    texts = list(dict.fromkeys(r.query_text for r in workload))[:n_texts]
    batch = [dataclasses.replace(r, query_text=texts[i % n_texts])
             for i, r in enumerate(workload[:30])]
    predict_many(bundle, batch)
    assert counts == dict.fromkeys(counts, n_texts)


def test_predictions_fingerprint_pinned():
    """SHA-256 of predict_many's log value, slot minutes, route and score
    over the held-out rows of the pinned synth corpus (the corpus of
    test_feature_matrix_fingerprint_pinned: fit on the first 160 of 240
    records, seed 17), both routes trained by a small GBRT. The 80 held-out
    rows hold 35 distinct texts. A second SHA-256 covers the serialized
    bundle's array payload, every byte between the JSON header (which holds
    the creation time and the format version) and the trailer; it changed
    with bundle format 6's tested-edge tables and narrow node arrays, the
    predictions did not."""
    records = generate(WorkloadConfig(n_queries=240, seed=17))
    b = train(records[:160], TrainConfig(
        featurizer=FeaturizerConfig(svd_components=24),
        gbrt=GBRTConfig(iterations=30, min_samples_leaf=5,
                        learning_rate=0.07),
        router=Router(min_subset=20)))
    assert set(b.forests) == {ROUTE_SIMPLE, ROUTE_COMPLEX}
    results = predict_many(b, records[160:])
    blob = json.dumps([[r.log_space_value.hex(), r.slot_min.hex(), r.route,
                        r.complexity_score] for r in results])
    assert hashlib.sha256(blob.encode("utf-8")).hexdigest() == (
        "31d320fd8e645181e000c2ecabbb5fb2e68ee56b81e9b32f61308d291d463ffc")
    data = serialize_bundle(b)
    header_len = int.from_bytes(data[8:16], "little")
    assert hashlib.sha256(data[16 + header_len:-32]).hexdigest() == (
        "d0403d715ff0e2830db97272b1f4b6c3f75fef1bd97808538817506215b4df6c")


NO_SCIPY_SCRIPT = """
import json, sys
from pathlib import Path
import slotcast
from slotcast.cli import main
root = Path(sys.argv[1])
(root / "q.sql").write_text("SELECT a FROM t GROUP BY a", encoding="utf-8")
(root / "small.cfg").write_text(
    "featurizer.svd_components = 8\\ngbrt.iterations = 5\\n", encoding="utf-8")
data, bundle = str(root / "w.jsonl"), str(root / "m.sltb")
codes = [
    main(["analyze", "--query-file", str(root / "q.sql")]),
    main(["synth", "--output", data, "--n-queries", "300", "--seed", "3"]),
    main(["train", "--input", data, "--output-bundle", bundle,
          "--config", str(root / "small.cfg")]),
    main(["predict", "--bundle", bundle, "--input", data,
          "--output", str(root / "p.tsv")]),
    main(["advise", "--bundle", bundle, "--query-file", str(root / "q.sql"),
          "--warn-threshold", "1e9"]),
    main(["evaluate", "--bundle", bundle, "--input", data,
          "--report-dir", str(root / "report")]),
]
print(json.dumps({"codes": codes, "scipy": sorted(
    m for m in sys.modules if m.startswith("scipy"))}))
"""


def test_no_command_imports_scipy(tmp_path):
    """Importing slotcast and running every CLI command loads no scipy
    module: slotcast runs on numpy alone."""
    src = Path(predictor.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, str(tmp_path)], env=env,
        capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert result == {"codes": [0] * 6, "scipy": []}


def test_metadata_records_the_blas_pin(bundle, workload, small_train_config,
                                       monkeypatch):
    assert bundle.metadata["svd_single_thread"] is True
    # without OpenBLAS's thread symbols the SVD runs unpinned and says so
    monkeypatch.setattr(featurizer, "_openblas_threads", lambda: None)
    b = train(workload, small_train_config)
    assert b.metadata["svd_single_thread"] is False
    assert deserialize_bundle(serialize_bundle(b)).metadata[
        "svd_single_thread"] is False


BLAS_THREADS_SCRIPT = """
import hashlib, json
from slotcast.featurizer import FeaturizerConfig
from slotcast.gbrt import GBRTConfig
from slotcast.predictor import TrainConfig, serialize_bundle, train
from slotcast.synth import WorkloadConfig, generate
b = train(generate(WorkloadConfig(n_queries=400, seed=5)), TrainConfig(
    featurizer=FeaturizerConfig(svd_components=32),
    gbrt=GBRTConfig(iterations=5, min_samples_leaf=5)))
data = serialize_bundle(b)
header_len = int.from_bytes(data[8:16], "little")
print(json.dumps([hashlib.sha256(data[16 + header_len:-32]).hexdigest(),
                  b.metadata["svd_single_thread"]]))
"""


def _train_in_subprocess(**env):
    """[hash of the bundle arrays, svd_single_thread] of BLAS_THREADS_SCRIPT
    run in a fresh interpreter with env added to the environment."""
    src = Path(predictor.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", BLAS_THREADS_SCRIPT],
        env={**os.environ, "PYTHONPATH": str(src), **env},
        capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_bundle_arrays_do_not_depend_on_blas_threads():
    """The same records train the same bundle arrays with one OpenBLAS
    thread and with two. The corpus's 253 x 253 Gram matrix is one whose
    unpinned eigenvectors differ in their last bits between the two."""
    runs = [_train_in_subprocess(OPENBLAS_NUM_THREADS=threads)
            for threads in ("1", "2")]
    if not runs[0][1]:
        pytest.skip("numpy's BLAS exposes no OpenBLAS thread control")
    assert runs[0] == runs[1]


def test_bundle_arrays_do_not_depend_on_hash_seed():
    """fit_text, the category maps and the top-N rule iterate string-keyed
    sets and dicts, whose order follows the string hash seed; the bundle
    arrays must not."""
    runs = [_train_in_subprocess(PYTHONHASHSEED=seed) for seed in ("0", "1")]
    assert runs[0] == runs[1]


def test_metadata_train_constants(bundle, workload):
    actual = np.array([r.slot_min for r in workload])
    assert bundle.metadata["train_target_mean"] == pytest.approx(
        actual.mean(), rel=1e-12)
    assert bundle.metadata["train_target_median"] == pytest.approx(
        np.median(actual), rel=1e-12)


# ---------------------------------------------------------------------------
# Bundle serialization
# ---------------------------------------------------------------------------

def test_bundle_round_trip_bit_exact(bundle, workload):
    restored = deserialize_bundle(serialize_bundle(bundle))
    # the idf is derived on load, from the stored doc_freq and n_docs
    assert (restored.featurizer.text_state.idf.tobytes()
            == bundle.featurizer.text_state.idf.tobytes())
    fixture = workload[:100]
    before = predict_many(bundle, fixture)
    after = predict_many(restored, fixture)
    for a, b in zip(before, after):
        assert a.slot_min == b.slot_min  # bit-exact, no tolerance
        assert a.log_space_value == b.log_space_value
        assert a.route == b.route


def test_bundle_file_round_trip(tmp_path, bundle, workload):
    path = tmp_path / "model.sltb"
    save_bundle(bundle, path)
    restored = load_bundle(path)
    r = workload[0]
    assert predict(restored, r) == predict(bundle, r)


def test_truncated_bundle_rejected(bundle):
    data = serialize_bundle(bundle)
    with pytest.raises(CorruptBundle):
        deserialize_bundle(data[: len(data) // 2])


def test_flipped_byte_rejected(bundle):
    data = bytearray(serialize_bundle(bundle))
    data[len(data) // 2] ^= 0xFF
    with pytest.raises(CorruptBundle):
        deserialize_bundle(bytes(data))


def test_not_a_bundle_rejected():
    with pytest.raises(CorruptBundle):
        deserialize_bundle(b"PK\x03\x04 definitely not a model bundle")


def test_version_bump_rejected(bundle):
    data = bytearray(serialize_bundle(bundle))
    data[4:8] = (predictor.FORMAT_VERSION + 1).to_bytes(4, "little")
    with pytest.raises(BundleVersionMismatch):
        deserialize_bundle(bytes(data))


def test_version_zero_rejected(bundle):
    data = bytearray(serialize_bundle(bundle))
    data[4:8] = (0).to_bytes(4, "little")
    with pytest.raises(CorruptBundle):
        deserialize_bundle(bytes(data))


def resigned(data: bytes, name: str, edit) -> bytes:
    """The bundle with one named array edited in place and the SHA-256
    trailer recomputed, so only the content checks can catch the edit."""
    header_len = int.from_bytes(data[8:16], "little")
    header = json.loads(data[16:16 + header_len])
    body = bytearray(data[:-32])
    offset = 16 + header_len
    for spec in header["arrays"]:
        dtype = np.dtype(spec["dtype"])
        nbytes = dtype.itemsize * int(np.prod(spec["shape"]))
        if spec["name"] == name:
            arr = np.frombuffer(bytes(body[offset:offset + nbytes]),
                                dtype=dtype).copy()
            edit(arr)
            body[offset:offset + nbytes] = arr.tobytes()
        offset += nbytes
    return bytes(body) + hashlib.sha256(body).digest()


def resigned_header(data: bytes, edit) -> bytes:
    """The bundle with its JSON header edited and the SHA-256 trailer
    recomputed."""
    header_len = int.from_bytes(data[8:16], "little")
    header = json.loads(data[16:16 + header_len])
    edit(header)
    new = json.dumps(header, sort_keys=True,
                     separators=(",", ":")).encode("utf-8")
    body = (data[:8] + len(new).to_bytes(8, "little") + new
            + data[16 + header_len:-32])
    return body + hashlib.sha256(body).digest()


def test_vocabulary_terms_no_cleaned_query_forms_are_never_counted(
        bundle, workload):
    """A term with two spaces in a row, a leading space or three tokens
    loads, but no cleaned query's token or token pair ever counts it."""
    dead = ["A  B", " A", "A B C"]

    def plant(header):
        header["featurizer"]["vocabulary"][-3:] = dead

    loaded = deserialize_bundle(resigned_header(serialize_bundle(bundle),
                                                plant))
    state = loaded.featurizer.text_state
    cols = [state.vocabulary[t] for t in dead]
    corpus = [clean_query(t) for t in ("A  B", " A", "A B C", "a b c",
                                       "B A  B C", "A B")]
    corpus += [clean_query(r.query_text) for r in workload[:50]]
    data, indices, indptr, _ = transform_text(state, corpus)
    assert not np.isin(indices, cols).any()
    for i, q in enumerate(corpus):
        want = naive_transform_text(state, q)
        s, e = indptr[i], indptr[i + 1]
        assert np.array_equal(indices[s:e], want.indices)
        assert data[s:e].tobytes() == want.data.tobytes()


def test_resigned_bundle_with_flipped_child_id_rejected(bundle):
    route = sorted(bundle.forests)[0]
    assert bundle.forests[route].node_feature[0] >= 0  # the root splits
    def left_child_of_root_is_root(node_left):
        node_left[0] = 0

    data = serialize_bundle(bundle)
    assert deserialize_bundle(resigned(data, f"forest.{route}.node_left",
                                       lambda a: None)).forests
    flipped = resigned(data, f"forest.{route}.node_left",
                       left_child_of_root_is_root)
    with pytest.raises(CorruptBundle):
        deserialize_bundle(flipped)


def test_resigned_bundle_with_shared_child_rejected(bundle):
    """Of two nodes that split into two leaves, the first one's right child
    becomes the second one's left leaf: that leaf has two parents and the
    first one's right leaf is cut off. The node count still adds up, and
    every child still lies after its parent inside its tree."""
    route = sorted(bundle.forests)[0]
    forest = bundle.forests[route]
    size = int(forest.tree_offsets[1])  # tree 0: local ids are global
    f, lft, rgt = (a[:size] for a in (forest.node_feature, forest.node_left,
                                      forest.node_right))
    inner = np.flatnonzero(f >= 0)
    p, q = inner[(f[lft[inner]] < 0) & (f[rgt[inner]] < 0)][:2]

    def share_a_leaf(node_right):
        node_right[p] = lft[q]

    shared = resigned(serialize_bundle(bundle), f"forest.{route}.node_right",
                      share_a_leaf)
    with pytest.raises(CorruptBundle, match="not trees"):
        deserialize_bundle(shared)


def test_resigned_bundle_with_unreachable_node_rejected(bundle):
    """An internal node below the root is marked a leaf, so its children
    keep their one parent but no root reaches them."""
    route = sorted(bundle.forests)[0]
    forest = bundle.forests[route]
    a = int(forest.node_left[0])
    assert forest.node_feature[0] >= 0 and forest.node_feature[a] >= 0

    def cut_below(node_feature):
        node_feature[a] = -1

    cut = resigned(serialize_bundle(bundle), f"forest.{route}.node_feature",
                   cut_below)
    with pytest.raises(CorruptBundle, match="not trees"):
        deserialize_bundle(cut)


def test_forest_of_another_width_rejected(bundle):
    width = len(bundle.featurizer.column_names)
    rng = np.random.default_rng(0)
    narrow = gbrt.fit(rng.normal(size=(40, width - 1)), rng.normal(size=40),
                      GBRTConfig(iterations=2, min_samples_leaf=5))
    odd = dataclasses.replace(bundle,
                              forests={**bundle.forests, ROUTE_SIMPLE: narrow})
    with pytest.raises(CorruptBundle, match="feature width"):
        deserialize_bundle(serialize_bundle(odd))


def _widest_feature(forest):
    """The feature with the most bin edges, and where its edges start."""
    counts = np.diff(forest.get_state()[1]["edge_offsets"])
    f = int(np.argmax(counts))
    assert counts[f] >= 3
    return f, int(counts[:f].sum())


@pytest.mark.parametrize("edit", ["nan", "decreasing"])
def test_resigned_bundle_with_unsorted_edges_rejected(bundle, edit):
    route = sorted(bundle.forests)[0]
    _, at = _widest_feature(bundle.forests[route])

    def unsort(ev):
        if edit == "nan":
            ev[at + 1] = np.nan
        else:  # two neighbours of one feature in the wrong order
            ev[at], ev[at + 1] = ev[at + 1], ev[at]

    bad = resigned(serialize_bundle(bundle), f"forest.{route}.edge_values",
                   unsort)
    with pytest.raises(CorruptBundle, match="non-decreasing"):
        deserialize_bundle(bad)


def test_forest_with_float32_edges_rejected(bundle):
    meta, arrays = bundle.forests[sorted(bundle.forests)[0]].get_state()
    arrays["edge_values"] = arrays["edge_values"].astype(np.float32)
    with pytest.raises(CorruptBundle, match="float64"):
        gbrt.Forest.from_state(meta, arrays)


def test_forest_edges_may_repeat_and_fall_between_features(bundle):
    """Edges need only be non-decreasing within one feature: a repeated
    edge loads, and so does a feature whose first edge is below the last
    edge of the feature before it."""
    forest = bundle.forests[sorted(bundle.forests)[0]]
    meta, arrays = forest.get_state()
    ev = arrays["edge_values"].copy()
    assert np.any(np.diff(ev) < 0)  # in a fitted forest, only between features
    f, at = _widest_feature(forest)
    ev[at + 1] = ev[at]
    loaded = gbrt.Forest.from_state(meta, {**arrays, "edge_values": ev})
    end = arrays["edge_offsets"][f + 1]
    assert np.array_equal(feature_edges(loaded)[f], ev[at:end])


def test_retrain_byte_identical(workload, small_train_config):
    b1 = train(workload, small_train_config)
    b2 = train(workload, small_train_config)
    b2.metadata["created"] = b1.metadata["created"]
    assert serialize_bundle(b1) == serialize_bundle(b2)


def test_writer_stores_only_what_the_reader_reads(bundle, fallback_bundle):
    """Writing a loaded bundle again gives the same bytes, for a dual-route
    bundle and a unified-fallback one: the file holds nothing that loading
    drops or derives differently."""
    for b in (bundle, fallback_bundle[0]):
        data = serialize_bundle(b)
        assert serialize_bundle(deserialize_bundle(data)) == data


@pytest.fixture(scope="module")
def held_out(bundle):
    """Six rows the bundle was not trained on from each route."""
    rows = generate(WorkloadConfig(n_queries=200, seed=8))
    by_route = {ROUTE_SIMPLE: [], ROUTE_COMPLEX: []}
    for r, res in zip(rows, predict_many(bundle, rows)):
        by_route[res.route].append(r)
    assert all(len(picked) >= 6 for picked in by_route.values())
    return by_route[ROUTE_SIMPLE][:6] + by_route[ROUTE_COMPLEX][:6]


def _header_scalars(header):
    """Paths to the header numbers that loading reads: the train-target
    constants, the router, the featurizer's config, n_docs and imputed
    medians, and each forest's b0 and config."""
    fz = header["featurizer"]
    paths = [("metadata", "train_target_mean"),
             ("metadata", "train_target_median"), ("featurizer", "n_docs")]
    paths += [("router", k) for k in header["router"]]
    paths += [("featurizer", part, k) for part in ("config", "impute_medians")
              for k in fz[part]]
    for route, meta in header["forests"].items():
        paths += [("forests", route, "b0")]
        paths += [("forests", route, "config", k) for k in meta["config"]]
    return paths


@pytest.fixture(scope="module")
def tamper(bundle):
    """The serialized bundle's array specs with at least one entry, the
    paths to its header scalars, and a function of (array spec or header
    path, value) giving it re-signed with that entry set to the value (a
    closure, so a failing example does not print the bundle)."""
    data = serialize_bundle(bundle)
    header_len = int.from_bytes(data[8:16], "little")
    header = json.loads(data[16:16 + header_len])

    def tampered(target, value, index=0):
        if isinstance(target, dict):
            def edit(arr):
                arr[index] = value
            return resigned(data, target["name"], edit)

        def edit_header(h):
            for key in target[:-1]:
                h = h[key]
            h[target[-1]] = value
        return resigned_header(data, edit_header)

    return ([s for s in header["arrays"] if np.prod(s["shape"]) > 0],
            _header_scalars(header), tampered)


_EXTREME_FLOATS = [0.0, 5e-324, -5e-324, 1e308, -1e308, np.inf, -np.inf,
                   np.nan]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_a_bundle_that_loads_scores_every_row(tamper, held_out, data):
    """One entry of one stored array, or one header scalar, set to an
    extreme value, the bundle re-signed: loading raises CorruptBundle, or
    scoring raises NonFiniteFeatures, or every held-out row, on either
    route, scores to a finite, non-negative slot time, one row at a time as
    in a batch."""
    specs, scalars, tampered = tamper
    target = data.draw(st.sampled_from(specs + scalars), label="target")
    if isinstance(target, tuple):  # a header scalar
        index, values = 0, _EXTREME_FLOATS + [10 ** 400, True]
    else:
        index = data.draw(st.integers(0, int(np.prod(target["shape"])) - 1),
                          label="index")
        dtype = np.dtype(target["dtype"])
        if dtype.kind == "f":
            values = _EXTREME_FLOATS
        else:
            info = np.iinfo(dtype)
            values = [v for v in (0, -1, int(info.min), int(info.max))
                      if v >= info.min]  # no -1 in an unsigned array
    value = data.draw(st.sampled_from(values), label="value")

    try:
        loaded = deserialize_bundle(tampered(target, value, index))
    except CorruptBundle:
        return
    try:
        batch = predict_many(loaded, held_out)
    except NonFiniteFeatures:
        return
    assert all(np.isfinite(res.slot_min) and res.slot_min >= 0
               for res in batch)
    assert [predict(loaded, r) for r in held_out] == batch
