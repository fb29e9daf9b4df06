import dataclasses
import hashlib
import json

import numpy as np
import pytest

from slotcast import gbrt, predictor
from slotcast.errors import (
    BundleVersionMismatch,
    CorruptBundle,
    NegativeTarget,
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
from slotcast.featurizer import FeaturizerConfig
from slotcast.synth import OperatorPlan, WorkloadConfig, generate, render_query


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
    assert bundle.metadata["fallback_routes"] == []


def test_fallback_to_unified_when_subset_small(small_train_config):
    # almost all trivial → too few complex records for a dedicated forest
    records = generate(WorkloadConfig(n_queries=120, seed=11,
                                      trivial_fraction=0.95,
                                      long_tail_fraction=0.05,
                                      heavy_mid_fraction=0.0))
    b = train(records, small_train_config)
    assert ROUTE_COMPLEX in b.metadata["fallback_routes"]
    assert ROUTE_UNIFIED in b.forests
    complex_rec = next(r for r in records
                       if b.router.route(
                           predict(b, r).complexity_score) == ROUTE_COMPLEX)
    assert predict(b, complex_rec).route == ROUTE_COMPLEX  # route still reported


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


def test_retrain_byte_identical(workload, small_train_config):
    b1 = train(workload, small_train_config)
    b2 = train(workload, small_train_config)
    b2.metadata["created"] = b1.metadata["created"]
    assert serialize_bundle(b1) == serialize_bundle(b2)
