import dataclasses
import hashlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from naive_oracles import (_naive_best_split, _naive_histograms, feature_edges,
                           flat_edges, naive_bin_row, naive_fit,
                           naive_forest_predict, naive_tested_edges)
from slotcast import gbrt
from slotcast.config import from_dict, to_dict
from slotcast.errors import (ConfigError, CorruptBundle, DimensionMismatch,
                             NonFiniteTarget, TooFewSamples)
from slotcast.gbrt import (BinMapper, Forest, GBRTConfig, HistLayout, Slots,
                           histograms)


def small_config(**kwargs):
    base = dict(learning_rate=0.07, iterations=30, max_leaves=31,
                min_samples_leaf=5)
    base.update(kwargs)
    return GBRTConfig(**base)


def forest_bytes(forest):
    meta, arrays = forest.get_state()
    import json
    return (json.dumps(meta, sort_keys=True).encode()
            + b"".join(arrays[k].tobytes() for k in sorted(arrays)))


# ---------------------------------------------------------------------------
# Binning
# ---------------------------------------------------------------------------

def _after(v, k):
    """v and the k doubles after it."""
    out = [v]
    for _ in range(k):
        out.append(np.nextafter(out[-1], np.inf))
    return out


def test_bin_edges_strictly_increasing():
    """Each edge lies in (a, b] of the neighbouring distinct values a < b it
    separates, also where their midpoint rounds to a or overflows; above
    the bin budget, quantile edges stay finite and increasing."""
    columns = [
        np.random.default_rng(0).normal(size=500),
        _after(1.0, 2),                        # midpoint of 1 and 1+ulp is 1
        _after(np.nextafter(1.0, 2.0), 2),
        _after(0.0, 3) + _after(-5e-324, 0),   # subnormals and zero
        [1.7e308, 1e308, -1e308, -1.7e308],    # a + b overflows to +-inf
        [-1.7e308, 1.7e308],
        # more distinct values than bins: one quantile's sample index falls
        # exactly on the gap from -1.7e308 to 1.6e308, where interpolating
        # gives NaN
        np.concatenate([-1.7e308 + np.arange(101) * 1e300,
                        1.6e308 + np.arange(154) * 1e300]),
    ]
    for values in columns:
        x = np.array(values, dtype=np.float64)[:, None]
        mapper = BinMapper.fit(x)
        e = feature_edges(mapper)[0]
        assert np.all(np.isfinite(e)) and np.all(e[1:] > e[:-1])
        distinct = np.unique(x)
        if distinct.size <= 254:  # one bin per distinct value
            assert np.unique(mapper.transform(x)).size == distinct.size
            assert np.all((distinct[:-1] < e) & (e <= distinct[1:]))


def test_every_finite_value_maps_to_one_bin():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(200, 2))
    mapper = BinMapper.fit(x)
    xb = mapper.transform(x)
    for f in range(2):
        assert xb[:, f].max() < len(feature_edges(mapper)[f]) + 1


def test_missing_values_route_to_missing_bin():
    x = np.array([[1.0], [2.0], [np.nan], [3.0]])
    mapper = BinMapper.fit(x)
    xb = mapper.transform(x)
    assert xb[2, 0] == len(feature_edges(mapper)[0]) + 1
    assert np.array_equal(mapper.transform(x), xb)  # deterministic


def test_high_cardinality_respects_bin_budget():
    rng = np.random.default_rng(2)
    x = rng.uniform(size=(5000, 1))
    mapper = BinMapper.fit(x, max_bins=255)
    assert len(feature_edges(mapper)[0]) <= 254
    assert len(feature_edges(mapper)[0]) + 1 <= 255


@st.composite
def binning_cases(draw):
    """Non-decreasing edge lists of 0 to 254 edges, always including both
    extremes, some of them with repeated edges, and rows of values on an
    edge, one ulp either side of it, anywhere, NaN or +-inf, in C or
    Fortran order. Most batches are small; the rest hold one block of rows
    less one, one block, one block and a row, or about two blocks."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    counts = draw(st.permutations(
        [0, 254] + draw(st.lists(st.sampled_from([1, 2, 37]), max_size=3))))
    repeat = draw(st.sampled_from([0.0, 0.3, 0.9]))  # share of zero steps
    edges = [np.cumsum(rng.uniform(0.01, 1.0, size=k)
                       * (rng.random(k) >= repeat)) - k / 4
             for k in counts]
    block = gbrt._BIN_BLOCK
    n = draw(st.one_of(st.integers(1, 12),
                       st.sampled_from([block - 1, block, block + 1, 1100])))
    x = rng.normal(scale=60.0, size=(n, len(edges)))
    for f, e in enumerate(edges):
        kind = rng.integers(0, 7, size=n)
        if e.size:
            at = e[rng.integers(0, e.size, size=n)]
            x[kind == 1, f] = at[kind == 1]
            x[kind == 2, f] = np.nextafter(at, -np.inf)[kind == 2]
            x[kind == 3, f] = np.nextafter(at, np.inf)[kind == 3]
        x[kind == 4, f] = np.nan
        x[kind == 5, f] = np.inf
        x[kind == 6, f] = -np.inf
    if draw(st.booleans()):
        x = np.asfortranarray(x)
    return edges, x


@settings(max_examples=100, deadline=None)
@given(binning_cases())
def test_transform_matches_bisect_oracle(case):
    edges, x = case
    mapper = BinMapper(*flat_edges(edges))
    xb = mapper.transform(x)
    want = np.array([naive_bin_row([e.tolist() for e in edges], row)
                     for row in x.tolist()], dtype=np.uint8)
    assert xb.dtype == np.uint8 and xb.shape == x.shape
    assert xb.tobytes() == want.tobytes()
    for i in range(x.shape[0]):  # a one-row view bins as its batch row does
        assert mapper.transform(x[i:i + 1]).tobytes() == want[i].tobytes()


# ---------------------------------------------------------------------------
# Fitting basics
# ---------------------------------------------------------------------------

def test_constant_target_all_trees_are_zero_leaves():
    x = np.linspace(0, 1, 50).reshape(-1, 1)
    y = np.full(50, 7.5)
    forest = gbrt.fit(x, y, small_config(iterations=10))
    assert forest.b0 == 7.5
    assert forest.n_trees == 10
    for t in range(forest.n_trees):
        start, end = forest.tree_offsets[t:t + 2]
        assert end - start == 1
        assert forest.node_value[start] == 0.0
    assert np.allclose(forest.predict(x), 7.5)


def test_noiseless_linear_high_r2():
    x = np.linspace(0, 1, 200).reshape(-1, 1)
    y = 3.0 * x.ravel()
    forest = gbrt.fit(x, y, GBRTConfig())
    pred = forest.predict(x)
    r2 = 1 - np.sum((y - pred) ** 2) / np.sum((y - y.mean()) ** 2)
    assert r2 >= 0.99
    # min_samples_leaf=20 caps pointwise accuracy at half a leaf's y-span:
    # the leaf holding an endpoint covers >= 20 of the 200 grid points
    assert np.max(np.abs(pred - y)) <= 3.0 * 19 / (2 * 199) + 1e-3


def test_noiseless_linear_pointwise_close():
    # with enough rows per leaf the fit is pointwise tight
    x = np.linspace(0, 1, 2000).reshape(-1, 1)
    y = 3.0 * x.ravel()
    forest = gbrt.fit(x, y, GBRTConfig())
    pred = forest.predict(x)
    assert np.max(np.abs(pred - y)) <= 0.05


def test_fixed_seed_byte_identical():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(300, 5))
    y = x @ np.array([1.0, -2.0, 0.5, 0.0, 3.0]) + rng.normal(size=300) * 0.1
    f1 = gbrt.fit(x, y, small_config())
    f2 = gbrt.fit(x, y, small_config())
    assert forest_bytes(f1) == forest_bytes(f2)


def test_too_few_samples():
    with pytest.raises(TooFewSamples):
        gbrt.fit(np.zeros((5, 1)), np.zeros(5), GBRTConfig())


def test_non_finite_target():
    with pytest.raises(NonFiniteTarget):
        gbrt.fit(np.zeros((50, 1)), np.full(50, np.nan), small_config())


def test_predict_dimension_mismatch():
    x = np.linspace(0, 1, 50).reshape(-1, 1)
    forest = gbrt.fit(x, x.ravel(), small_config(iterations=2))
    with pytest.raises(DimensionMismatch):
        forest.predict(np.zeros((3, 2)))


def test_empty_forest_predicts_baseline():
    x = np.linspace(0, 1, 50).reshape(-1, 1)
    forest = gbrt.fit(x, 2.0 + x.ravel(), small_config(iterations=0))
    assert forest.n_trees == 0 and forest.node_feature.size == 0
    assert np.allclose(forest.predict(x), (2.0 + x.ravel()).mean())


def test_forest_of_no_features_scores_its_single_leaf_trees():
    """Fit on zero feature columns, every tree is one leaf: a row scores b0
    plus the learning rate times each tree's value, added in tree order,
    also after a state round trip."""
    forest = gbrt.fit(np.empty((50, 0)), np.arange(50.0))
    assert forest.n_trees == 100 and not np.any(forest.node_feature >= 0)
    want = forest.b0
    for value in forest.node_value:
        want += forest.config.learning_rate * value
    assert want == 24.5
    restored = Forest.from_state(*forest.get_state())
    for f in (forest, restored):
        assert_bit_identical(f.predict(np.empty((3, 0))), np.full(3, want))
        assert f.predict(np.empty((0, 0))).shape == (0,)


def test_single_row_prediction_shape():
    x = np.linspace(0, 1, 50).reshape(-1, 1)
    forest = gbrt.fit(x, x.ravel(), small_config(iterations=3))
    out = forest.predict(x[:1])
    assert out.shape == (1,)


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------

def test_training_loss_non_increasing():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(400, 6))
    y = np.sin(x[:, 0]) + x[:, 1] ** 2 + rng.normal(size=400) * 0.2
    forest = gbrt.fit(x, y, small_config(iterations=100))
    assert np.all(np.diff(forest.train_losses) <= 1e-12)


def test_predictions_bounded_by_target_range():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(500, 4))
    y = x[:, 0] * 2 + rng.normal(size=500)
    forest = gbrt.fit(x, y, small_config(iterations=80))
    pred = forest.predict(x)
    assert pred.min() >= y.min() - 1e-9
    assert pred.max() <= y.max() + 1e-9


def test_split_gains_positive_and_histogram_consistency():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(200, 3))
    y = x[:, 0] + 0.5 * x[:, 1]
    config = small_config(iterations=3)
    forest = gbrt.fit(x, y, config)
    xb = forest.bin_mapper.transform(x)
    slots = Slots(xb, HistLayout(forest.edge_offsets))

    # replay residuals to walk each tree's splits
    pred = np.full(y.shape, forest.b0)
    for start in forest.tree_offsets[:-1]:
        g = y - pred
        tree_out = np.empty(x.shape[0])
        stack = [(0, np.arange(x.shape[0]))]
        while stack:
            nid, idx = stack.pop()
            f = forest.node_feature[start + nid]
            if f < 0:
                tree_out[idx] = forest.node_value[start + nid]
                continue
            b = forest.node_threshold[start + nid]
            go_left = xb[idx, f] <= b
            li, ri = idx[go_left], idx[~go_left]
            assert li.size >= config.min_samples_leaf
            assert ri.size >= config.min_samples_leaf
            pg, pc = histograms(slots, idx, g)
            lg, lc = histograms(slots, li, g)
            rg, rc = histograms(slots, ri, g)
            assert np.allclose(pg, lg + rg, atol=1e-9)
            assert np.allclose(pc, lc + rc)
            # variance-reduction gain of the accepted split is positive
            sl, sr, sp_ = g[li].sum(), g[ri].sum(), g[idx].sum()
            gain = (sl ** 2 / li.size + sr ** 2 / ri.size
                    - sp_ ** 2 / idx.size)
            assert gain > 0
            stack.append((forest.node_left[start + nid], li))
            stack.append((forest.node_right[start + nid], ri))
        pred = pred + config.learning_rate * tree_out


def test_missing_feature_rows_predict_deterministically():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(300, 3))
    x[::7, 1] = np.nan
    y = np.where(np.isnan(x[:, 1]), 5.0, x[:, 0])
    forest = gbrt.fit(x, y, small_config(iterations=40))
    p1 = forest.predict(x)
    p2 = forest.predict(x)
    assert np.array_equal(p1, p2)
    assert np.all(np.isfinite(p1))


def test_leaf_count_within_budget():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(2000, 2))
    y = x[:, 0] ** 2 + x[:, 1]
    forest = gbrt.fit(x, y, GBRTConfig(iterations=5, max_leaves=31,
                                       min_samples_leaf=20))
    for t in range(forest.n_trees):
        start, end = forest.tree_offsets[t:t + 2]
        assert np.sum(forest.node_feature[start:end] < 0) <= 31


def test_state_roundtrip_identical_predictions():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(300, 4))
    y = x[:, 0] - x[:, 3]
    forest = gbrt.fit(x, y, small_config(iterations=20))
    meta, arrays = forest.get_state()
    restored = Forest.from_state(meta, arrays)
    assert np.array_equal(forest.predict(x), restored.predict(x))


# ---------------------------------------------------------------------------
# Split search against the unguarded, 256-bins-wide oracle
# ---------------------------------------------------------------------------

def column(rng, kind, n):
    if kind == "missing":
        return np.full(n, np.nan)
    col = {"constant": lambda: np.full(n, 2.5),
           "binary": lambda: rng.integers(0, 2, n).astype(float),
           "dense": lambda: rng.normal(size=n),  # n distinct values
           "rounded": lambda: rng.normal(size=n).round(1),
           "counts": lambda: rng.poisson(4.0, n).astype(float)}[kind]()
    col[rng.random(n) < 0.1] = np.nan
    return col


@st.composite
def fit_cases(draw):
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    # above 255 rows a dense column has more distinct values than bins
    n = draw(st.one_of(st.integers(40, 120), st.integers(256, 300)))
    kinds = draw(st.lists(st.sampled_from(
        ["missing", "binary", "dense", "rounded", "counts"]),
        min_size=1, max_size=6))
    x = np.column_stack([column(rng, k, n) for k in kinds])
    if draw(st.booleans()):  # constant target: root-only trees
        y = np.full(n, -0.5)
    else:
        z = np.nan_to_num(x)
        y = z[:, 0] + np.sin(z[:, -1]) + rng.normal(size=n) * 0.3
    config = GBRTConfig(
        learning_rate=draw(st.sampled_from([0.07, 0.5])),
        iterations=draw(st.integers(0, 8)),
        max_leaves=draw(st.integers(2, 31)),
        min_samples_leaf=draw(st.integers(1, min(25, n // 2))),
        max_bins=draw(st.sampled_from([255, 256, 16, 2])))
    return x, y, config


def split_values(edges, feature, threshold):
    """Per node, the edge its test compares with: go left when x < value,
    +inf at a split that sends every finite value left, NaN at a leaf."""
    return np.array([
        np.nan if f < 0 else (edges[f][t] if t < len(edges[f]) else np.inf)
        for f, t in zip(feature.tolist(), threshold.tolist())])


def full_edge_thresholds(forest, full):
    """The forest's thresholds as bins of the full BinMapper full, in the
    int32 of bundle formats 5 and older: each split value's position among
    its feature's full edges, or their count for +inf."""
    values = split_values(feature_edges(forest), forest.node_feature,
                          forest.node_threshold)
    out = np.zeros(values.size, dtype=np.int32)
    for i, (f, v) in enumerate(zip(forest.node_feature.tolist(), values)):
        if f >= 0:
            edges = feature_edges(full)[f]
            out[i] = np.searchsorted(edges, v)
            assert v == np.inf or edges[out[i]] == v
    return out


NODE_DTYPES = {"node_feature": np.int16, "node_threshold": np.uint8,
          "node_left": np.int8, "node_right": np.int8,
          "node_value": np.float64, "tree_offsets": np.int64}


@settings(max_examples=60, deadline=None)
@given(fit_cases())
def test_fit_matches_unguarded_full_width_oracle_bit_for_bit(case):
    """The oracle grows its trees on the full edges: each node tests the
    same split value, and every other node array holds the same numbers,
    byte for byte in the forest's narrow types."""
    x, y, config = case
    forest = gbrt.fit(x, y, config)
    b0, arrays, losses = naive_fit(x, y, config)
    assert forest.b0 == b0
    full = BinMapper.fit(x, max_bins=config.max_bins)
    assert split_values(feature_edges(forest), forest.node_feature,
                        forest.node_threshold).tobytes() == split_values(
        feature_edges(full), arrays["node_feature"],
        arrays["node_threshold"]).tobytes()
    for name, want in arrays.items():
        got = getattr(forest, name)
        assert got.dtype == NODE_DTYPES[name], name
        if name != "node_threshold":
            assert np.array_equal(got, want), name
            assert got.tobytes() == want.astype(got.dtype).tobytes(), name
    assert forest.train_losses.tobytes() == losses.tobytes()


def test_feature_ids_are_int16_up_to_2_15_features():
    """Feature ids run to n_features - 1, and leaves hold -1."""
    assert gbrt._feature_dtype(2 ** 15) is np.int16
    assert gbrt._feature_dtype(2 ** 15 + 1) is np.int32


@st.composite
def used_edge_cases(draw):
    """All-NaN, constant, binary and dense columns binned at max_bins 2, 16
    or 255, half of them NaN-heavy, and a target that jumps where values
    are missing, so trees split missing against finite; rows hold every
    full edge, one ulp either side of it, NaN and +-inf."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    n = draw(st.one_of(st.integers(40, 120), st.integers(256, 300)))
    kinds = draw(st.lists(st.sampled_from(
        ["missing", "constant", "binary", "dense"]), min_size=1, max_size=5))
    x = np.column_stack([column(rng, k, n) for k in kinds])
    x[rng.random(x.shape) < draw(st.sampled_from([0.0, 0.4]))] = np.nan
    y = (np.nan_to_num(x[:, 0]) + 2.0 * np.isnan(x).sum(axis=1)
         + rng.normal(size=n) * 0.3)
    config = GBRTConfig(
        learning_rate=draw(st.sampled_from([0.07, 0.5])),
        iterations=draw(st.integers(1, 8)),
        max_leaves=draw(st.integers(2, 31)),
        min_samples_leaf=draw(st.integers(1, 10)),
        max_bins=draw(st.sampled_from([2, 16, 255])))
    full = BinMapper.fit(x, max_bins=config.max_bins)
    probes = [np.concatenate([e, np.nextafter(e, -np.inf),
                              np.nextafter(e, np.inf), [np.nan, np.inf,
                                                        -np.inf]])
              for e in feature_edges(full)]
    rows = max(p.size for p in probes)
    probe_rows = np.column_stack(
        [rng.permutation(np.resize(p, rows)) for p in probes])
    return x, y, config, full, probe_rows


@settings(max_examples=60, deadline=None)
@given(used_edge_cases())
def test_used_edge_forest_decides_as_the_full_edge_one(case):
    """fit keeps only the edges its nodes test; the forest scores every
    probe row byte for byte as a naive walk of the oracle's trees over the
    full edges, every kept edge is tested by some node, and each feature's
    kept edges strictly increase."""
    x, y, config, full, rows = case
    forest = gbrt.fit(x, y, config)
    b0, arrays, _ = naive_fit(x, y, config)
    oracle = SimpleNamespace(b0=b0, config=config,
                             edge_values=full.edge_values,
                             edge_offsets=full.edge_offsets, **arrays)
    assert_bit_identical(forest.predict(rows),
                         naive_forest_predict(oracle, rows))
    inner = forest.node_feature >= 0
    tested = set(zip(forest.node_feature[inner].tolist(),
                     forest.node_threshold[inner].tolist()))
    for f, e in enumerate(feature_edges(forest)):
        assert np.all(e[1:] > e[:-1])
        assert all((f, t) in tested for t in range(e.size))


@st.composite
def renumbering_cases(draw):
    """Features of 0, 254 and a few other edge counts, and node arrays as
    fit makes them: int16 features, -1 and threshold 0 at leaves, and
    internal nodes that test some edges, some of them twice or at the last
    value bin (len(edges)), while one feature is tested by no node."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    counts = np.array(draw(st.permutations(
        [0, 254] + draw(st.lists(st.sampled_from([1, 2, 37, 254]),
                                 max_size=4)))))
    edges = [np.cumsum(rng.uniform(0.01, 1.0, size=k)) for k in counts]
    untested = draw(st.integers(0, counts.size - 1))
    n = draw(st.integers(0, 80))
    feature = rng.choice(np.delete(np.arange(counts.size), untested),
                         size=n).astype(np.int16)
    threshold = rng.integers(0, counts[feature] + 1)
    last = rng.random(n) < draw(st.sampled_from([0.0, 0.2, 1.0]))
    threshold[last] = counts[feature][last]
    leaf = rng.random(n) < 0.3
    feature[leaf], threshold[leaf] = -1, 0
    return edges, feature, threshold


@settings(max_examples=100, deadline=None)
@given(renumbering_cases())
def test_tested_edges_match_per_feature_definition(case):
    """The flat renumbering keeps the edges, offsets and uint8 thresholds
    of the per-feature (features x 256) mask it replaced, byte for byte."""
    edges, feature, threshold = case
    renumbered, values, offsets = gbrt._tested_edges(
        *flat_edges(edges), feature, threshold)
    want_edges, want_threshold = naive_tested_edges(edges, feature, threshold)
    want_values, want_offsets = flat_edges(want_edges)
    assert values.tobytes() == want_values.tobytes()
    assert offsets.dtype == np.int64
    assert offsets.tobytes() == want_offsets.tobytes()
    assert renumbered.dtype == np.uint8
    assert renumbered.tobytes() == want_threshold.tobytes()


@st.composite
def node_cases(draw):
    """Columns of every kind binned at max_bins 2, 16 or 255, residuals,
    the rows of a node below the root, and a feature and one of its value
    bins to split a node at; a child may hold one row, as
    min_samples_leaf = 1 allows."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    n = draw(st.one_of(st.integers(2, 120), st.integers(256, 300)))
    kinds = draw(st.lists(st.sampled_from(
        ["missing", "binary", "dense", "rounded", "counts"]),
        min_size=1, max_size=6))
    x = np.column_stack([column(rng, k, n) for k in kinds])
    mapper = BinMapper.fit(x, max_bins=draw(st.sampled_from([2, 16, 255])))
    xb = mapper.transform(x)
    share = draw(st.floats(0.05, 1.0))
    subset = np.flatnonzero(rng.random(n) < share)
    subset = subset if subset.size < n else subset[1:]
    f = draw(st.integers(0, x.shape[1] - 1))
    b = draw(st.integers(0, len(feature_edges(mapper)[f])))
    return mapper, xb, rng.normal(size=n), subset, f, b


def in_slots(hist, layout):
    """A (features x 256) oracle table in the layout's flat slot order."""
    return np.ascontiguousarray(hist.ravel()[layout.rank])


@settings(max_examples=60, deadline=None)
@given(node_cases())
def test_histograms_match_naive_oracle(case):
    """The root reads the slot matrix as it is and returns the fit's root
    counts; any other node gathers into scratch. Both give the oracle's
    sums bit for bit, for every row, one row and a random subset."""
    mapper, xb, g, subset, _, _ = case
    layout = HistLayout(mapper.edge_offsets)
    slots = Slots(xb, layout)
    one = np.array([len(xb) // 2])
    for idx in (np.arange(len(xb)), one, subset):
        got_g, got_c = histograms(slots, idx, g)
        want_g, want_c = _naive_histograms(xb, idx, g)
        assert got_g.tobytes() == in_slots(want_g, layout).tobytes()
        assert got_c.tobytes() == in_slots(want_c, layout).tobytes()


@settings(max_examples=60, deadline=None)
@given(node_cases(), st.booleans())
def test_carried_counts_equal_fresh_running_sums(case, at_root):
    """The fit's root counts and their running sums, and a sibling's running
    counts carried as the parent's less the smaller child's, equal fresh
    sums byte for byte. Its gradient histogram is parent - small and its
    search (min_samples_leaf = 1) finds the oracle's split over parent -
    small and its own counts, gain bits included: a carry of gradient
    running sums, cumsum(parent) - cumsum(small), rounds differently and
    fails this."""
    mapper, xb, g, subset, f, b = case
    layout = HistLayout(mapper.edge_offsets)
    slots = Slots(xb, layout)
    root = np.arange(len(xb))
    root_c = _naive_histograms(xb, root, g)[1]
    assert slots.root_counts.tobytes() == in_slots(root_c, layout).tobytes()
    assert slots.root_cumulative.tobytes() == in_slots(
        np.cumsum(root_c, axis=1), layout).tobytes()

    parent = root if at_root else subset
    go_left = xb[parent, f] <= b
    li, ri = parent[go_left], parent[~go_left]
    assume(li.size and ri.size)
    small, large = (li, ri) if li.size <= ri.size else (ri, li)
    parent_g, parent_c = _naive_histograms(xb, parent, g)
    hist = in_slots(parent_g, layout)
    left_c = in_slots(np.cumsum(parent_c, axis=1), layout)
    (small_hist, small_c), (large_hist, large_c) = gbrt._children(
        slots, g, small, hist, left_c)

    small_g, small_own = _naive_histograms(xb, small, g)
    large_own = _naive_histograms(xb, large, g)[1]
    assert small_c.tobytes() == in_slots(
        np.cumsum(small_own, axis=1), layout).tobytes()
    assert large_c.tobytes() == in_slots(
        np.cumsum(large_own, axis=1), layout).tobytes()
    assert small_hist.tobytes() == in_slots(small_g, layout).tobytes()
    assert large_hist.tobytes() == (hist - small_hist).tobytes()
    sum_g, cnt = float(g[large].sum()), float(large.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        got = gbrt._best_split(large_hist, large_c, sum_g, cnt, 1, slots)
    assert got == _naive_best_split(parent_g - small_g, large_own, sum_g,
                                    cnt, 1)


def mixed_matrix(n=1500, seed=2024):
    """1,500 x 70: binary, dense, count, skewed and one wholly missing
    column, 5% of all values missing; elementwise math only (no BLAS)."""
    rng = np.random.default_rng(seed)
    x = np.empty((n, 70))
    x[:, :20] = rng.integers(0, 2, size=(n, 20))
    x[:, 20:52] = rng.normal(size=(n, 32))
    x[:, 52:62] = rng.poisson(3.0, size=(n, 10))
    x[:, 62:69] = rng.lognormal(size=(n, 7)).round(1)
    x[:, 69] = np.nan
    x[rng.random((n, 70)) < 0.05] = np.nan
    z = np.nan_to_num(x)
    y = (1.5 * z[:, 20] + np.sin(z[:, 21]) + z[:, 0] - 0.5 * z[:, 1] * z[:, 52]
         + np.log1p(z[:, 62]) + 0.3 * rng.normal(size=n))
    return x, y


def test_fit_fingerprint_pinned():
    """SHA-256 over the forest arrays, as the unguarded 256-bins-wide
    split search grew them; any change to the trees changes it. The digest
    is over the arrays as bundle format 5 stored them: the full edges of
    BinMapper.fit(x), thresholds as bins of those edges, and int32 node
    ids."""
    x, y = mixed_matrix()
    forest = gbrt.fit(x, y, GBRTConfig(iterations=40, learning_rate=0.07))
    full = BinMapper.fit(x)
    _, arrays = dataclasses.replace(forest, edge_values=full.edge_values,
                                    edge_offsets=full.edge_offsets).get_state()
    arrays.update(node_threshold=full_edge_thresholds(forest, full),
                  **{k: arrays[k].astype(np.int32) for k in (
                      "node_feature", "node_left", "node_right")})
    digest = hashlib.sha256()
    for name in sorted(arrays):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(arrays[name]).tobytes())
    assert digest.hexdigest() == (
        "c24600d623e984f51695f07299fc447a9283148f5917afff993cb2b4551fa925")


def test_hist_layout_keeps_narrow_features_apart_from_wide_ones():
    edges = [np.empty(0), np.arange(1.0), np.arange(100.0), np.arange(254.0),
             np.arange(70.0), np.arange(1.0)]
    layout = HistLayout(flat_edges(edges)[1])
    # widths 2, 3, 102, 256, 72, 3: narrow 2, 3, 3 padded to 3, wide to 256
    assert layout.blocks == [(0, 3, 3), (9, 3, 256)]
    assert layout.offsets.tolist() == [0, 3, 9, 265, 521, 6]
    assert layout.size == 777 == layout.rank.size
    # every (feature, bin) has exactly one slot, the rest is padding
    ranks = set(layout.rank.tolist())
    assert all(f * 256 + b in ranks
               for f, e in enumerate(edges) for b in range(len(e) + 2))


@pytest.mark.parametrize("field,value", [
    ("max_bins", 400), ("max_bins", 1), ("iterations", -1),
    ("learning_rate", float("nan")), ("learning_rate", 0.0),
    ("learning_rate", float("inf")), ("max_leaves", 1), ("max_leaves", 65),
    ("min_samples_leaf", 0), ("iterations", 2.5), ("learning_rate", None),
    ("max_leaves", True),
    ("iterations", gbrt.MAX_ITERATIONS + 1), ("iterations", 10**23)])
def test_config_out_of_range_rejected(field, value):
    with pytest.raises(ConfigError, match=f"gbrt.{field}"):
        GBRTConfig(**{field: value})
    config = GBRTConfig()
    setattr(config, field, value)  # changed after construction
    with pytest.raises(ConfigError, match=f"gbrt.{field}"):
        gbrt.fit(np.zeros((50, 1)), np.zeros(50), config)


def test_defaults_are_scikit_learns():
    """GBRTConfig() is scikit-learn's HistGradientBoostingRegressor at its
    documented defaults (scikit-learn API reference,
    sklearn.ensemble.HistGradientBoostingRegressor: max_iter=100,
    learning_rate=0.1, max_leaf_nodes=31, min_samples_leaf=20,
    max_bins=255), the estimator the paper names. Literal values, as
    scikit-learn is not a dependency."""
    assert to_dict(GBRTConfig()) == {
        "iterations": 100, "learning_rate": 0.1, "max_leaves": 31,
        "min_samples_leaf": 20, "max_bins": 255}


def test_config_range_edges_accepted():
    x = np.linspace(0, 1, 40).reshape(-1, 1)
    forest = gbrt.fit(x, x.ravel(), GBRTConfig(
        max_bins=256, iterations=1, max_leaves=2, min_samples_leaf=1,
        learning_rate=1e-9))
    assert forest.n_trees == 1
    assert from_dict(GBRTConfig, to_dict(forest.config)) == forest.config
    assert GBRTConfig(iterations=gbrt.MAX_ITERATIONS).iterations == 10**6
    assert GBRTConfig(max_leaves=gbrt.MAX_LEAVES).max_leaves == 64


# ---------------------------------------------------------------------------
# Flat-forest inference against a naive per-row, per-tree walk
# ---------------------------------------------------------------------------

def assert_bit_identical(got, want):
    want = np.asarray(want, dtype=np.float64)
    assert got.dtype == np.float64 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def rows_with_gaps(rng, n, d):
    x = rng.normal(size=(n, d)).round(1)  # repeated values hit bin edges
    x[rng.random((n, d)) < 0.15] = np.nan
    x[rng.random((n, d)) < 0.03] = np.inf
    return x


@st.composite
def small_forests(draw):
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    n, d = draw(st.integers(20, 120)), draw(st.integers(1, 4))
    x = rng.normal(size=(n, d)).round(draw(st.sampled_from([0, 1, 3])))
    if draw(st.booleans()):  # a partly or wholly missing column
        x[rng.random(n) < draw(st.sampled_from([0.3, 1.0])),
          int(rng.integers(d))] = np.nan
    if draw(st.booleans()):  # constant target: root-only trees
        y = np.full(n, 1.25)
    else:
        y = np.nan_to_num(x[:, 0]) * 2.0 + rng.normal(size=n)
    config = GBRTConfig(
        learning_rate=draw(st.sampled_from([0.07, 0.3, 1.0])),
        iterations=draw(st.integers(0, 12)),
        max_leaves=draw(st.integers(2, 64)),
        min_samples_leaf=draw(st.integers(1, n // 2)))
    forest = gbrt.fit(x, y, config)
    m = draw(st.sampled_from([0, 1, 2, 17]))
    return forest, rows_with_gaps(rng, m, d)


@settings(max_examples=60, deadline=None)
@given(small_forests())
def test_predict_matches_naive_walk_bit_for_bit(case):
    forest, x = case
    assert_bit_identical(forest.predict(x), naive_forest_predict(forest, x))


@pytest.fixture(scope="module")
def big_forest():
    """A forest with enough tests and trees that a 500-row batch spans
    several row blocks."""
    rng = np.random.default_rng(11)
    x = rng.normal(size=(400, 3))
    x[rng.random(400) < 0.1, 2] = np.nan
    y = np.sin(x[:, 0]) + x[:, 1] ** 2 + rng.normal(size=400) * 0.1
    forest = gbrt.fit(x, y, small_config(iterations=180))
    return forest, rows_with_gaps(rng, 500, 3)


def test_block_crossing_batch_matches_naive_walk(big_forest):
    forest, x = big_forest
    assert 1 < forest._block < x.shape[0] // 2  # three or more blocks
    assert_bit_identical(forest.predict(x), naive_forest_predict(forest, x))
    assert_bit_identical(forest.predict(x[:1]),
                         naive_forest_predict(forest, x[:1]))
    assert forest.predict(x[:0]).shape == (0,)


def test_each_internal_node_reads_its_own_test(big_forest):
    """Past each tree's sentinel, the scoring columns hold the internal
    nodes' features and thresholds in id order; a sentinel's test always
    holds and its mask clears no leaf."""
    forest, _ = big_forest
    inner = np.flatnonzero(forest.node_feature >= 0)
    heads = forest._seg_start
    # tree t's sentinel comes just before its first internal node
    assert np.array_equal(heads - np.arange(forest.n_trees),
                          np.searchsorted(inner, forest.tree_offsets[:-1]))
    assert forest._col_feature.size == inner.size + heads.size
    assert np.array_equal(np.delete(forest._col_feature, heads),
                          forest.node_feature[inner])
    assert np.array_equal(np.delete(forest._col_threshold, heads),
                          forest.node_threshold[inner])
    assert np.all(forest._col_threshold[heads] == 255)
    assert np.all(forest._col_mask[heads] == np.uint64(2 ** 64 - 1))
    assert np.all(forest._col_feature[heads] < forest.n_features)


def inorder_leaves(forest, tree):
    """Per node of one tree, by recursive DFS: the left-to-right ranks of
    the leaves under it, and its depth in edges."""
    start = int(forest.tree_offsets[tree])
    under, depth, leaves = {}, {}, []

    def visit(node, d):
        depth[node] = d
        if forest.node_feature[start + node] < 0:
            leaves.append(node)
            under[node] = [len(leaves) - 1]
        else:
            visit(int(forest.node_left[start + node]), d + 1)
            visit(int(forest.node_right[start + node]), d + 1)
            under[node] = (under[int(forest.node_left[start + node])]
                           + under[int(forest.node_right[start + node])])

    visit(0, 0)
    return under, depth


def test_masks_clear_exactly_the_left_subtree_leaves(big_forest):
    forest, _ = big_forest
    masks = np.delete(forest._col_mask, forest._seg_start).tolist()
    inner = np.flatnonzero(forest.node_feature >= 0).tolist()
    mask_of = dict(zip(inner, masks))
    deepest = 0
    for tree in range(forest.n_trees):
        start = int(forest.tree_offsets[tree])
        under, depth = inorder_leaves(forest, tree)
        deepest = max(deepest, max(depth.values()))
        for node, ranks in under.items():
            if forest.node_feature[start + node] < 0:
                continue
            cleared = ~mask_of[start + node] & (2 ** 64 - 1)
            left = under[int(forest.node_left[start + node])]
            assert cleared == sum(1 << r for r in left)
            assert ranks == list(range(ranks[0], ranks[0] + len(ranks)))
    assert forest._depth == deepest > 0


def test_full_word_of_leaves_matches_naive_walk():
    """max_leaves=64 fills a whole uint64: an all-missing row goes right at
    every node, so it exits each full tree at leaf 63, bit 63."""
    rng = np.random.default_rng(5)
    x = rng.normal(size=(600, 2))
    y = np.sin(3 * x[:, 0]) + x[:, 1] + rng.normal(size=600) * 0.1
    forest = gbrt.fit(x, y, small_config(iterations=6, max_leaves=64,
                                         min_samples_leaf=1))
    offsets = forest.tree_offsets
    assert max(int(np.sum(forest.node_feature[a:b] < 0))
               for a, b in zip(offsets[:-1], offsets[1:])) == 64
    x = np.vstack([rows_with_gaps(rng, 40, 2), np.full((1, 2), np.nan)])
    assert_bit_identical(forest.predict(x), naive_forest_predict(forest, x))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 499), max_size=80))
def test_row_subset_equals_slice_of_full_batch(big_forest, rows):
    forest, x = big_forest
    rows = np.array(rows, dtype=np.intp)
    assert_bit_identical(forest.predict(x[rows]), forest.predict(x)[rows])


# ---------------------------------------------------------------------------
# Loading validates the node arrays the walk indexes directly
# ---------------------------------------------------------------------------

def corrupted_state(edit):
    x = np.linspace(0, 1, 200).reshape(-1, 2)
    forest = gbrt.fit(x, x[:, 0] * 3, small_config(iterations=4))
    meta, arrays = forest.get_state()
    # int32 holds every out-of-range value the edits write
    arrays = {k: v.astype(np.int32) if k in ("node_feature", "node_threshold",
                                             "node_left", "node_right")
              else v.copy() for k, v in arrays.items()}
    inner = int(np.flatnonzero(arrays["node_feature"] >= 0)[-1])
    edit(arrays, inner)
    return meta, arrays


def _set(name, value):
    def edit(arrays, inner):
        arrays[name][inner] = value
    return edit


def _threshold_last_value_bin_plus(k):
    """Set the node's threshold to its feature's edge count (the last value
    bin) plus k."""
    def edit(arrays, inner):
        edge_counts = np.diff(arrays["edge_offsets"])
        arrays["node_threshold"][inner] = (
            edge_counts[arrays["node_feature"][inner]] + k)
    return edit


def _leaf_loops_to_root(arrays, inner):
    """The last node, a leaf, becomes a split whose children are the root:
    every node is still reached, but the root twice and in a cycle."""
    last = arrays["node_feature"].size - 1
    assert arrays["node_feature"][last] < 0
    for name, value in (("node_feature", 0), ("node_left", 0),
                        ("node_right", 0)):
        arrays[name][last] = value


@pytest.mark.parametrize("edit", [
    _set("node_left", 0),            # points back at the root: a cycle
    _set("node_right", -1),          # before its parent
    _set("node_left", 10_000),       # beyond its tree
    _set("node_right", 10_000),
    _set("node_feature", 2),         # only features 0 and 1 exist
    _set("node_feature", -2),
    _set("node_threshold", 256),     # does not fit a uint8 bin
    _set("node_threshold", -1),
    _threshold_last_value_bin_plus(1),  # the missing bin: all rows go left
    lambda a, i: a.update(tree_offsets=a["tree_offsets"][::-1].copy()),
    lambda a, i: a.update(tree_offsets=a["tree_offsets"][:-1].copy()),
    lambda a, i: a.update(node_value=a["node_value"][:-1].copy()),
    lambda a, i: a.update(edge_offsets=a["edge_offsets"] + 1),
    _leaf_loops_to_root,
], ids=["cycle", "child-before-parent", "child-outside-tree",
        "right-child-outside-tree",
        "feature-too-large", "feature-below-leaf-marker", "threshold-256",
        "threshold-negative", "threshold-missing-bin", "offsets-decreasing",
        "offsets-short", "values-short", "edge-offsets",
        "leaf-loops-to-root"])
def test_from_state_rejects_unwalkable_arrays(edit):
    meta, arrays = corrupted_state(edit)
    with pytest.raises(CorruptBundle):
        Forest.from_state(meta, arrays)


@pytest.mark.parametrize("dtype", [np.int16, np.int64, np.uint16, np.uint64])
@pytest.mark.parametrize("name", ["node_threshold", "node_left", "node_right",
                                  "edge_offsets"])
def test_from_state_takes_node_arrays_of_any_integer_type(name, dtype):
    """A bundle's node arrays may be of any integer type that holds their
    values. In an unsigned one the leaves' -1 wraps to the type's maximum,
    which no walk reads."""
    meta, arrays = corrupted_state(lambda a, i: None)
    want = Forest.from_state(meta, arrays)
    arrays[name] = arrays[name].astype(dtype)
    forest = Forest.from_state(meta, arrays)
    x = np.array([[0.3, 0.7], [0.99, 0.01], [np.nan, np.inf]])
    assert_bit_identical(forest.predict(x), want.predict(x))
    assert_bit_identical(forest.predict(x), naive_forest_predict(forest, x))


def test_forest_holds_the_arrays_its_state_holds():
    """from_state keeps the arrays it reads, in their integer types, and
    get_state returns the forest's own arrays."""
    meta, arrays = corrupted_state(lambda a, i: None)  # int32 node arrays
    arrays["edge_offsets"] = arrays["edge_offsets"].astype(np.uint16)
    forest = Forest.from_state(meta, arrays)
    state = forest.get_state()[1]
    assert sorted(state) == sorted(arrays)
    assert all(state[k] is arrays[k] is getattr(forest, k) for k in arrays)


@pytest.mark.parametrize("n_leaves", [64, 65])
def test_from_state_takes_at_most_64_leaves_per_tree(n_leaves):
    """A right-leaning chain of n_leaves leaves: node 2i splits at bin i,
    its left child 2i + 1 is a leaf and its right child 2i + 2 splits next."""
    x = np.linspace(0, 1, 200).reshape(-1, 1)
    meta, arrays = gbrt.fit(x, x[:, 0], small_config(iterations=1)).get_state()
    size = 2 * n_leaves - 1
    ids = np.arange(size, dtype=np.int32)
    inner = (ids % 2 == 0) & (ids < size - 1)
    edges = feature_edges(BinMapper.fit(x))[0]  # bins 0..63 need 63 edges
    arrays.update(
        edge_values=edges.copy(), edge_offsets=np.array([0, edges.size]),
        node_feature=np.where(inner, 0, -1).astype(np.int32),
        node_threshold=np.where(inner, ids // 2, 0).astype(np.int32),
        node_left=np.where(inner, ids + 1, -1).astype(np.int32),
        node_right=np.where(inner, ids + 2, -1).astype(np.int32),
        node_value=np.arange(size, dtype=np.float64),
        tree_offsets=np.array([0, size], dtype=np.int64))
    if n_leaves > gbrt.MAX_LEAVES:
        with pytest.raises(CorruptBundle, match="64 leaves"):
            Forest.from_state(meta, arrays)
        return
    forest = Forest.from_state(meta, arrays)
    x = np.vstack([x, [[np.nan]]])  # the missing bin exits at leaf 63
    assert_bit_identical(forest.predict(x), naive_forest_predict(forest, x))


def test_from_state_accepts_threshold_at_last_value_bin():
    meta, arrays = corrupted_state(_threshold_last_value_bin_plus(0))
    forest = Forest.from_state(meta, arrays)
    x = np.array([[0.99, 0.99], [np.nan, np.nan]])
    assert_bit_identical(forest.predict(x), naive_forest_predict(forest, x))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_from_state_bounds_b0_plus_the_largest_leaves(sign):
    """|b0| plus the learning rate times each tree's largest |leaf value|
    must stay below log(float max), so that no prediction overflows expm1:
    a hair below loads, a hair above is refused."""
    x = np.linspace(0, 1, 200).reshape(-1, 2)
    config = small_config(iterations=4)
    meta, arrays = gbrt.fit(x, x[:, 0] * 3, config).get_state()
    leaf = np.where(arrays["node_feature"] < 0, np.abs(arrays["node_value"]),
                    0.0)
    reach = config.learning_rate * sum(
        leaf[s:e].max() for s, e in zip(arrays["tree_offsets"],
                                         arrays["tree_offsets"][1:]))
    log_max = np.log(np.finfo(np.float64).max)
    forest = Forest.from_state({**meta, "b0": sign * (log_max - reach - 1e-9)},
                               arrays)
    assert np.isfinite(np.expm1(forest.predict(x))).all()
    with pytest.raises(CorruptBundle, match="overflow"):
        Forest.from_state({**meta, "b0": sign * (log_max - reach + 1e-9)},
                          arrays)
