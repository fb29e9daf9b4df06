import dataclasses
import hashlib
import math
from functools import lru_cache

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from slotcast.errors import (
    ConfigError,
    DegenerateInput,
    DimensionMismatch,
    EmptyCorpus,
    LengthMismatch,
)
from slotcast.config import from_dict, to_dict
from slotcast.featurizer import (
    CorpusRows,
    Featurizer,
    FeaturizerConfig,
    OTHER_CATEGORY,
    _gram,
    _one_blas_thread,
    _openblas_threads,
    _transpose,
    _transpose_times,
    fit_svd,
    fit_text,
    project_text,
    transform_text,
    transform_text_corpus,
)
from slotcast.gbrt import GBRTConfig
from slotcast.predictor import (TrainConfig, deserialize_bundle,
                                serialize_bundle, train)
from slotcast.records import QueryRecord
from slotcast.sql_analyzer import CleanedQuery, clean_query, complexity_score
from slotcast.synth import WorkloadConfig, generate

from naive_oracles import (
    naive_feature_rows,
    naive_project_text,
    naive_tfidf,
    naive_transform_text,
    randomized_fit_svd,
    scipy_fit_svd,
)


def cq(text):
    return clean_query(text)


def as_matrix(m):
    """CorpusRows as the scipy CSR matrix they describe."""
    return sp.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)


def tfidf_matrix(state, corpus):
    """transform_text's rows as the (n, V) CSR matrix they describe."""
    return as_matrix(transform_text(state, corpus))


def as_rows(rows):
    """Dense or sparse rows as the CorpusRows that project_text takes."""
    m = sp.csr_matrix(rows if sp.issparse(rows) else np.atleast_2d(rows))
    return CorpusRows(m.data, m.indices, m.indptr, m.shape)


# ---------------------------------------------------------------------------
# TF-IDF
# ---------------------------------------------------------------------------

def test_fit_text_two_doc_fixture():
    state = fit_text([cq("A B"), cq("B C")], min_df=1)
    assert set(state.vocabulary) == {"A", "B", "C", "A B", "B C"}
    b_col = state.vocabulary["B"]
    assert state.doc_freq[b_col] == 2
    assert state.idf[b_col] == pytest.approx(math.log(3 / 3) + 1, abs=1e-15)
    a_col = state.vocabulary["A"]
    assert state.idf[a_col] == pytest.approx(math.log(3 / 2) + 1, abs=1e-15)


def test_single_doc_uniform_idf():
    state = fit_text([cq("A B C")], min_df=1)
    assert np.allclose(state.idf, 1.0)


def test_doc_freq_counts_documents_not_occurrences():
    state = fit_text([cq("A A"), cq("A")], min_df=1)
    assert state.doc_freq[state.vocabulary["A"]] == 2


def test_fit_text_empty_corpus():
    with pytest.raises(EmptyCorpus):
        fit_text([])


def test_min_df_filters():
    state = fit_text([cq("A B"), cq("B C")], min_df=2)
    assert set(state.vocabulary) == {"B"}


def test_transform_out_of_vocab_is_zero():
    state = fit_text([cq("A B"), cq("B C")], min_df=1)
    v = tfidf_matrix(state, [cq("Z Q")])
    assert v.nnz == 0


def test_transform_single_term_is_unit():
    state = fit_text([cq("A B"), cq("B C")], min_df=1)
    v = tfidf_matrix(state, [cq("B")])
    assert v.nnz == 1
    assert np.isclose(abs(v).sum(), 1.0)


def test_transform_hand_computed_weights():
    state = fit_text([cq("A B"), cq("B C")], min_df=1)
    v = np.asarray(tfidf_matrix(state, [cq("A B")]).todense()).ravel()
    idf_rare = math.log(3 / 2) + 1
    raw = np.zeros(len(state.vocabulary))
    raw[state.vocabulary["A"]] = idf_rare
    raw[state.vocabulary["B"]] = 1.0
    raw[state.vocabulary["A B"]] = idf_rare
    expected = raw / np.linalg.norm(raw)
    assert np.allclose(v, expected, atol=1e-12)


def test_tfidf_matches_naive_oracle():
    docs = [
        "SELECT A FROM T GROUP BY A",
        "SELECT DISTINCT B FROM T",
        "SELECT A , B FROM T JOIN U ON A = B",
        "UPDATE T SET A = NUM",
        "SELECT A FROM T",
    ]
    cleaned = [cq(d) for d in docs]
    state = fit_text(cleaned, min_df=2, max_vocab=1000)
    terms, naive_rows = naive_tfidf([list(c.tokens) for c in cleaned],
                                    min_df=2, max_vocab=1000)
    assert terms == sorted(state.vocabulary, key=state.vocabulary.get)
    for c, expected in zip(cleaned, naive_rows):
        got = np.asarray(tfidf_matrix(state, [c]).todense()).ravel()
        want = np.zeros_like(got)
        for t, w in expected.items():
            want[state.vocabulary[t]] = w
        assert np.allclose(got, want, atol=1e-10)


def test_tfidf_rows_unit_or_zero_norm():
    recs = generate(WorkloadConfig(n_queries=60, seed=5))
    cleaned = [cq(r.query_text) for r in recs]
    state = fit_text(cleaned)
    m = as_matrix(transform_text_corpus(state, cleaned))
    norms = np.sqrt(np.asarray(m.multiply(m).sum(axis=1))).ravel()
    assert np.all((norms == 0) | (np.abs(norms - 1) <= 1e-9))


@pytest.mark.parametrize("seed", [5, 6])
def test_text_fit_runs_once_per_distinct_query(seed):
    """Training hands fit_text and transform_text_corpus one CleanedQuery
    object per distinct text, shared by its records; each object is worked
    on once. The vocabulary, document frequencies, document count and the
    SVD input rows are byte-equal to those of one fresh object per
    record, the rows to transform_text's over every record."""
    rng = np.random.default_rng(seed)
    texts = [r.query_text for r in generate(
        WorkloadConfig(n_queries=40, seed=seed))] + ["", "SELECT 1"]
    picks = [texts[i] for i in rng.integers(0, len(texts), size=150)]
    objects = {t: cq(t) for t in texts}
    shared = [objects[t] for t in picks]
    fresh = [cq(t) for t in picks]
    got, want = fit_text(shared), fit_text(fresh)
    assert list(got.vocabulary.items()) == list(want.vocabulary.items())
    assert got.doc_freq.tobytes() == want.doc_freq.tobytes()
    assert got.n_docs == want.n_docs == len(picks)
    rows = transform_text_corpus(got, shared)
    want_rows = transform_text(got, fresh)
    assert rows.shape == want_rows.shape == (len(picks), got.size)
    for a, b in zip(rows[:3], want_rows[:3]):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# SVD
# ---------------------------------------------------------------------------

def _recon_error(a, basis):
    dense = np.asarray(a.todense()) if sp.issparse(a) else np.asarray(a)
    proj = dense @ basis.components.T @ basis.components
    return np.linalg.norm(dense - proj)


def test_svd_rank_one_recovery():
    row = np.array([1.0, 2.0, 3.0, 4.0])
    a = sp.csr_matrix(np.outer([1.0, 2.0, 0.5], row))
    basis = fit_svd(a, k=3)
    assert basis.k == 1
    assert _recon_error(a, basis) <= 1e-8
    direction = row / np.linalg.norm(row)
    assert np.allclose(np.abs(basis.components[0]), direction, atol=1e-8)


def test_svd_full_rank_recovery():
    a = sp.csr_matrix(np.eye(5))
    basis = fit_svd(a, k=5)
    assert basis.k == 5
    assert _recon_error(a, basis) <= 1e-8


def test_svd_orthonormal_and_sorted():
    rng = np.random.default_rng(0)
    a = sp.random(50, 200, density=0.05,
                  random_state=np.random.RandomState(1)).tocsr()
    basis = fit_svd(a, k=10)
    gram = basis.components @ basis.components.T
    assert np.max(np.abs(gram - np.eye(basis.k))) <= 1e-8
    assert np.all(np.diff(basis.singular_values) <= 1e-12)
    assert np.all(basis.singular_values > 0)


def test_svd_error_non_increasing_in_k():
    a = sp.random(50, 200, density=0.05,
                  random_state=np.random.RandomState(7)).tocsr()
    e10 = _recon_error(a, fit_svd(a, k=10))
    e20 = _recon_error(a, fit_svd(a, k=20))
    assert e20 <= e10 + 1e-9


def test_svd_degenerate_input():
    with pytest.raises(DegenerateInput):
        fit_svd(sp.csr_matrix((1, 4)), k=2)


def test_svd_deterministic():
    a = sp.random(30, 80, density=0.1,
                  random_state=np.random.RandomState(2)).tocsr()
    b1 = fit_svd(a, k=5)
    b2 = fit_svd(a, k=5)
    assert np.array_equal(b1.components, b2.components)
    assert np.array_equal(b1.singular_values, b2.singular_values)


def test_one_blas_thread_pins_and_restores_the_count():
    threads = _openblas_threads()
    if threads is None:
        pytest.skip("numpy's BLAS exposes no OpenBLAS thread control")
    get, _ = threads
    before = get()
    with _one_blas_thread() as held:
        assert held and get() == 1
    assert get() == before
    with pytest.raises(ZeroDivisionError):
        with _one_blas_thread():
            1 / 0
    assert get() == before
    a = sp.random(30, 80, density=0.1,
                  random_state=np.random.RandomState(2)).tocsr()
    assert fit_svd(a, k=5).single_thread


@st.composite
def svd_inputs(draw):
    """(a sparse matrix, k): tall, wide, square, or of a rank below both
    sides (random rows mixed from fewer base rows)."""
    kind = draw(st.sampled_from(["tall", "wide", "square", "deficient"]))
    small, big = sorted(draw(st.lists(st.integers(2, 40), min_size=2,
                                      max_size=2)))
    n, v = {"tall": (big, small), "wide": (small, big),
            "square": (big, big)}.get(kind, (big, small))
    if kind == "deficient" and draw(st.booleans()):
        n, v = v, n
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.floats(0.05, 1.0))
    if kind == "deficient":
        r = draw(st.integers(1, min(n, v) - 1))
        mix = sp.csr_matrix(rng.integers(0, 3, (n, r)).astype(np.float64))
        a = mix @ sp.random(r, v, density=density, rng=rng)
    else:
        a = sp.random(n, v, density=density, rng=rng)
    a = sp.csr_matrix(a)
    a.sort_indices()  # a product's rows are unsorted; fit_svd takes canonical
    return a, draw(st.integers(1, 45))


@settings(max_examples=150, deadline=None)
@given(svd_inputs())
def test_svd_matches_dense_svd(case):
    a, k = case
    n, v = a.shape
    dense = a.toarray()
    _, sig_d, vt_d = np.linalg.svd(dense, full_matrices=False)
    basis = fit_svd(a, k)
    vt, s = basis.components, basis.singular_values
    assert vt.shape == (basis.k, v) and s.shape == (basis.k,)
    lam0 = sig_d[0] ** 2
    # rank: the dense spectrum above the Gram cutoff, away from its edge
    cutoff = lam0 * max(n, v) * np.finfo(np.float64).eps
    sq = sig_d ** 2
    assume(not np.any((sq > cutoff / 1e3) & (sq < cutoff * 1e3)))
    assert basis.k == min(k, int(np.count_nonzero(sq > cutoff)))
    if basis.k == 0:
        return
    # singular values: positive, non-increasing, squares within a few
    # times the cutoff
    assert np.all(s > 0) and np.all(np.diff(s) <= 0)
    assert np.all(np.abs(s ** 2 - sq[:basis.k]) <= 10 * cutoff)
    # orthonormal rows; from AAᵀ only to about eps * sigma_0**2 / sigma**2
    slack = 1e-12 + 100 * np.finfo(np.float64).eps * lam0 / np.outer(s, s)
    assert np.all(np.abs(vt @ vt.T - np.eye(basis.k)) <= slack)
    # subspace: as much of A as the best rank-k subspace holds
    residual = np.linalg.norm(dense - dense @ vt.T @ vt) ** 2
    assert abs(residual - np.sum(sq[basis.k:])) <= 1e-9 * lam0
    # an isolated singular value has the dense SVD's vector, up to sign
    sq = np.append(sq, 0.0)
    for i in range(basis.k):
        gap = min(sq[i] - sq[i + 1], sq[i - 1] - sq[i] if i else np.inf)
        if gap >= 1e-4 * lam0 and s[i] >= 1e-3 * sig_d[0]:
            assert 1 - abs(vt[i] @ vt_d[i]) <= 1e-8
    # sign: the largest-magnitude entry of each component is positive
    assert np.all(vt[np.arange(basis.k), np.argmax(np.abs(vt), axis=1)] > 0)


@st.composite
def canonical_rows(draw):
    """(CorpusRows, the scipy CSR matrix of the same rows): tall, wide or
    square, n = 2 or V = 1, with empty and one-entry rows, values over six
    decades and int32 or int64 indices."""
    kind = draw(st.sampled_from(["tall", "wide", "square", "two-rows",
                                 "one-column"]))
    small, big = sorted(draw(st.lists(st.integers(2, 40), min_size=2,
                                      max_size=2)))
    n, v = {"tall": (big, small), "wide": (small, big), "square": (big, big),
            "two-rows": (2, big), "one-column": (big, 1)}[kind]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random((n, v)) < draw(st.floats(0.0, 1.0))
    if draw(st.booleans()):  # an empty row and a one-entry row
        mask[0] = False
        mask[-1] = np.arange(v) == rng.integers(v)
    values = (rng.choice([-1.0, 1.0], (n, v)) * rng.uniform(1, 10, (n, v))
              * 10.0 ** rng.integers(-3, 3, (n, v)))
    index = draw(st.sampled_from([np.int32, np.int64]))
    rows = CorpusRows(values[mask], np.nonzero(mask)[1].astype(index),
                      np.append(0, np.cumsum(mask.sum(axis=1))).astype(index),
                      (n, v))
    return rows, sp.csr_matrix(rows[:3], shape=(n, v))


@settings(max_examples=200, deadline=None)
@given(canonical_rows(), st.integers(1, 6))
def test_sparse_products_are_scipys_bytes(case, m):
    """AᵀA, AAᵀ, Aᵀ's rows and Aᵀu are the bytes of scipy's products,
    which fit_svd's basis bits have come from."""
    rows, a = case
    assert _gram(rows).tobytes() == (a.T @ a).toarray().tobytes()
    t = _transpose(rows)
    want = a.T.tocsr()
    assert t.shape == want.shape
    for got, ref in zip(t[:3], (want.data, want.indices, want.indptr)):
        assert np.array_equal(got, ref)
    assert _gram(t).tobytes() == (a @ a.T).toarray().tobytes()
    u = np.random.default_rng(m).standard_normal((a.shape[0], m))
    assert _transpose_times(rows, u).tobytes() == np.asarray(
        a.T @ u).tobytes()


@settings(max_examples=100, deadline=None)
@given(canonical_rows(), st.integers(1, 45))
def test_fit_svd_is_the_scipy_products_basis(case, k):
    rows, a = case
    got, want = fit_svd(rows, k), scipy_fit_svd(a, k)
    assert got.components.tobytes() == want.components.tobytes()
    assert got.singular_values.tobytes() == want.singular_values.tobytes()


@pytest.mark.parametrize("indices", [
    [1, 0, 2],    # row 0's columns out of order
    [0, 0, 2],    # row 0 holds column 0 twice: G[0,0] would be 4, not 9
    [0, 3, 2],    # column 3 of a 3-column matrix
    [0, -1, 2],
], ids=["unsorted", "repeated", "past-last", "negative"])
@pytest.mark.parametrize("n", [2, 4])  # the AAᵀ and the AᵀA path
def test_fit_svd_rejects_rows_that_are_not_canonical(indices, n):
    rows = CorpusRows(np.array([1.0, 2.0, 3.0]), np.array(indices),
                      np.array([0, 2] + [3] * (n - 1)), (n, 3))
    with pytest.raises(DimensionMismatch):
        fit_svd(rows, 2)


def test_project_zero_vector():
    a = sp.csr_matrix(np.eye(4))
    basis = fit_svd(a, k=2)
    out = project_text(basis, as_rows(sp.csr_matrix((1, 4))))
    assert np.allclose(out, 0)


def test_project_basis_row_gives_unit_coordinate():
    a = sp.random(20, 30, density=0.3,
                  random_state=np.random.RandomState(3)).tocsr()
    basis = fit_svd(a, k=4)
    for i in range(basis.k):
        out = project_text(basis, as_rows(basis.components[i]))
        expected = np.zeros(basis.k)
        expected[i] = 1.0
        assert np.allclose(out, expected, atol=1e-8)


def test_project_dimension_mismatch():
    a = sp.csr_matrix(np.eye(4))
    basis = fit_svd(a, k=2)
    with pytest.raises(DimensionMismatch):
        project_text(basis, as_rows(np.ones(7)))
    rows = as_rows(np.ones(2))
    with pytest.raises(DimensionMismatch):  # a negative column
        project_text(basis, rows._replace(indices=np.array([0, -1])))


def test_transform_text_rows_hold_increasing_in_range_columns():
    """project_text scatters each row's weights into a dense vector, which
    needs distinct columns inside the vocabulary: transform_text gives
    each row strictly increasing column indices in 0..V-1."""
    fz, _, recs = fitted_featurizers()
    cleaned = [cq(r.query_text) for r in recs] + [cq("ZZYZX"), cq("")]
    data, indices, indptr, shape = transform_text(fz.text_state, cleaned)
    assert shape == (len(cleaned), fz.text_state.size)
    assert indptr[0] == 0 and indptr[-1] == len(data) == len(indices)
    assert len(indptr) == len(cleaned) + 1 and np.all(np.diff(indptr) >= 0)
    assert len(indices) and indices.min() >= 0
    assert indices.max() <= fz.text_state.size - 1
    for s, e in zip(indptr[:-1], indptr[1:]):
        assert np.all(np.diff(indices[s:e]) > 0)


# ---------------------------------------------------------------------------
# Fused featurizer
# ---------------------------------------------------------------------------

def make_records(n=40, seed=0):
    recs = generate(WorkloadConfig(n_queries=n, seed=seed))
    cleaned = [cq(r.query_text) for r in recs]
    return recs, [complexity_score(q) for q in cleaned], cleaned


def test_empty_corpus_raises():
    with pytest.raises(EmptyCorpus):
        Featurizer.fit([], [], [])


def test_record_report_and_cleaned_lengths_must_agree():
    recs, reports, cleaned = make_records(6)
    with pytest.raises(LengthMismatch):
        Featurizer.fit(recs, reports, cleaned[:5])
    fz = Featurizer.fit(recs, reports, cleaned,
                        FeaturizerConfig(svd_components=4))
    with pytest.raises(LengthMismatch):  # one report for two records
        fz.transform(recs[:2], reports[:1], cleaned[:2])
    with pytest.raises(LengthMismatch):  # a short cleaned list
        fz.transform(recs[:2], reports[:2], cleaned[:1])
    with pytest.raises(LengthMismatch):
        fz.transform(recs[:2], reports[:3], cleaned[:2])


def test_column_count_stable_and_finite():
    recs, reports, cleaned = make_records(50, seed=2)
    fz = Featurizer.fit(recs[:40], reports[:40], cleaned[:40],
                        FeaturizerConfig(svd_components=8))
    m = fz.transform(recs[:40], reports[:40], cleaned[:40])
    t = fz.transform(recs[40:], reports[40:], cleaned[40:])
    assert m.rows.shape[1] == t.rows.shape[1] == len(m.column_names)
    assert np.all(np.isfinite(t.rows))


def test_identical_records_identical_rows():
    recs, reports, cleaned = make_records(30, seed=3)
    dup = [recs[0], recs[0]] + recs[1:]
    dup_reports = [reports[0], reports[0]] + reports[1:]
    dup_cleaned = [cleaned[0], cleaned[0]] + cleaned[1:]
    fz = Featurizer.fit(dup, dup_reports, dup_cleaned,
                        FeaturizerConfig(svd_components=8))
    m = fz.transform(dup, dup_reports, dup_cleaned)
    assert np.array_equal(m.rows[0], m.rows[1])


def test_zero_bytes_gives_zero_vol_column():
    recs, reports, cleaned = make_records(30, seed=4)
    recs[0].total_bytes_processed = 0
    recs[0].total_bytes_billed = 0
    fz = Featurizer.fit(recs, reports, cleaned,
                        FeaturizerConfig(svd_components=4))
    m = fz.transform(recs, reports, cleaned)
    cols = {n: i for i, n in enumerate(m.column_names)}
    assert m.rows[0, cols["vol_log1p_bytes_processed"]] == 0.0
    assert m.rows[0, cols["vol_log1p_bytes_billed"]] == 0.0


def test_zero_account_count_guarded_division():
    recs, reports, cleaned = make_records(30, seed=5)
    recs[0].account_count = 0
    recs[0].resource_count = 0
    fz = Featurizer.fit(recs, reports, cleaned,
                        FeaturizerConfig(svd_components=4))
    m = fz.transform(recs, reports, cleaned)
    cols = {n: i for i, n in enumerate(m.column_names)}
    assert m.rows[0, cols["vol_log1p_bytes_per_account"]] == 0.0
    assert m.rows[0, cols["vol_log1p_bytes_per_resource"]] == 0.0


def test_missing_bytes_billed_imputed_with_median_and_flagged():
    recs, reports, cleaned = make_records(31, seed=6)
    fz = Featurizer.fit(recs, reports, cleaned,
                        FeaturizerConfig(svd_components=4))
    median = float(np.median([r.total_bytes_billed for r in recs]))
    assert fz.impute_medians["total_bytes_billed"] == median

    probe = recs[0]
    probe.total_bytes_billed = None
    m = fz.transform([probe], [reports[0]], [cleaned[0]])
    cols = {n: i for i, n in enumerate(m.column_names)}
    assert m.rows[0, cols["miss_total_bytes_billed"]] == 1.0
    assert m.rows[0, cols["vol_log1p_bytes_billed"]] == pytest.approx(
        np.log1p(median))


def test_unseen_category_maps_to_other():
    recs, reports, cleaned = make_records(30, seed=7)
    fz = Featurizer.fit(recs, reports, cleaned,
                        FeaturizerConfig(svd_components=4))
    probe = recs[0]
    probe.asset_type = "never-seen-before"
    m = fz.transform([probe], [reports[0]], [cleaned[0]])
    cols = {n: i for i, n in enumerate(m.column_names)}
    assert m.rows[0, cols["cat_asset_type___OTHER__"]] == 1.0


@lru_cache(maxsize=1)
def small_featurizer():
    recs, reports, cleaned = make_records(30, seed=8)
    return Featurizer.fit(recs, reports, cleaned,
                          FeaturizerConfig(svd_components=4))


# strings that read as another category's or the other column's label
_TRICKY = st.sampled_from(["", "<empty>", OTHER_CATEGORY, "'", '"', "''",
                           repr(OTHER_CATEGORY), "'<empty>'", "us"])


@settings(max_examples=100, deadline=None)
@given(*[st.lists(st.one_of(_TRICKY, st.text(max_size=4)), unique=True,
                  max_size=8)] * 2)
@example(["", "<empty>", "us"], ["", OTHER_CATEGORY, "vm"])
def test_feature_names_are_unique(regions, asset_types):
    """No two columns share a name, whatever the category strings; every
    name that is not a category's keeps its form."""
    base = small_featurizer()
    fz = dataclasses.replace(base, category_maps={"region": regions,
                                                  "asset_type": asset_types})
    names = fz.column_names
    assert len(set(names)) == len(names)
    assert names[-4:] == base.column_names[-4:] == [
        "cat_provider_aws", "cat_provider_gcp", "cat_provider_azure",
        "cat_cache_hit"]
    for f, cats in (("asset_type", asset_types), ("region", regions)):
        assert f"cat_{f}_{OTHER_CATEGORY}" in names
        assert sum(n.startswith(f"cat_{f}_") for n in names) == len(cats) + 1
    fixed = [n for n in names if not n.startswith("cat_")]
    assert fixed == [n for n in base.column_names if not n.startswith("cat_")]


def test_one_hot_blocks_are_valid():
    recs, reports, cleaned = make_records(60, seed=8)
    fz = Featurizer.fit(recs, reports, cleaned,
                        FeaturizerConfig(svd_components=4))
    m = fz.transform(recs, reports, cleaned)
    for field in ("asset_type", "region"):
        idx = [i for i, n in enumerate(m.column_names)
               if n.startswith(f"cat_{field}_")]
        block = m.rows[:, idx]
        assert set(np.unique(block)) <= {0.0, 1.0}
        assert np.all(block.sum(axis=1) == 1.0)


def test_no_leakage_transform_does_not_mutate_state():
    recs, reports, cleaned = make_records(50, seed=9)
    fz = Featurizer.fit(recs[:40], reports[:40], cleaned[:40],
                        FeaturizerConfig(svd_components=8))
    before = (dict(fz.impute_medians), list(fz.column_names),
              fz.num_mean.copy(), fz.num_std.copy())
    fz.transform(recs[40:], reports[40:], cleaned[40:])
    assert fz.impute_medians == before[0]
    assert fz.column_names == before[1]
    assert np.array_equal(fz.num_mean, before[2])
    assert np.array_equal(fz.num_std, before[3])


def test_state_roundtrip_bit_exact_transform():
    recs, reports, cleaned = make_records(40, seed=10)
    fz = Featurizer.fit(recs, reports, cleaned,
                        FeaturizerConfig(svd_components=8))
    meta, arrays = fz.get_state()
    fz2 = Featurizer.from_state(meta, arrays)
    m1 = fz.transform(recs, reports, cleaned)
    m2 = fz2.transform(recs, reports, cleaned)
    assert np.array_equal(m1.rows, m2.rows)
    assert m2.column_names == m1.column_names  # laid out again on load


def naive_top(values, top_n):
    """The top_n most frequent values, ties in lexicographic order."""
    freq = {}
    for v in values:
        freq[v] = freq.get(v, 0) + 1
    return sorted(freq, key=lambda v: (-freq[v], v))[:top_n]


@st.composite
def tied_corpora(draw):
    """Few records over few tokens, categories and asset keys, so counts
    tie, with a config whose caps can cut every top-N list."""
    small = st.sampled_from(["", "a", "b", "c"])
    recs, cleaned = [], []
    for _ in range(draw(st.integers(1, 10))):
        keys = draw(st.lists(st.sampled_from(["", "k", "m", "n", "p"]),
                             max_size=4, unique=True))
        recs.append(QueryRecord(
            query_text="", region=draw(st.one_of(st.none(), small)),
            asset_type=draw(st.one_of(st.none(), small)),
            asset_type_counts={k: draw(st.integers(0, 3)) for k in keys}))
        cleaned.append(CleanedQuery(tuple(draw(st.lists(
            st.sampled_from(["A", "B", "C", "D"]), max_size=5)))))
    cfg = FeaturizerConfig(
        min_df=draw(st.integers(1, 2)), max_vocab=draw(st.integers(1, 6)),
        svd_components=2, top_n_categories=draw(st.integers(0, 3)),
        top_n_asset_type_counts=draw(st.integers(0, 3)))
    return cfg, recs, cleaned


@settings(max_examples=150, deadline=None)
@given(tied_corpora())
def test_fit_keeps_the_top_n_by_count_ties_lexicographic(case):
    """The vocabulary cap, the category maps and the asset-count keys each
    keep the most frequent values, ties in lexicographic order."""
    cfg, recs, cleaned = case
    reports = [complexity_score(q) for q in cleaned]
    fz = Featurizer.fit(recs, reports, cleaned, cfg)
    terms, _ = naive_tfidf([list(q.tokens) for q in cleaned],
                           cfg.min_df, cfg.max_vocab)
    vocab = fz.text_state.vocabulary
    assert sorted(vocab, key=vocab.get) == terms
    for f in ("asset_type", "region"):
        assert fz.category_maps[f] == naive_top(
            [getattr(r, f) or "" for r in recs], cfg.top_n_categories)
    assert fz.asset_count_keys == naive_top(
        [k for r in recs for k in r.asset_type_counts],
        cfg.top_n_asset_type_counts)


# ---------------------------------------------------------------------------
# Config ranges
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field,value", [
    ("min_df", 0), ("min_df", -3), ("max_vocab", 0), ("svd_components", 0),
    ("svd_components", -5), ("top_n_categories", -1),
    ("top_n_asset_type_counts", -1), ("svd_components", 2.0),
    ("min_df", True), ("max_vocab", None), ("svd_components", "512")])
def test_config_out_of_range_rejected(field, value):
    with pytest.raises(ConfigError, match=f"featurizer.{field}"):
        FeaturizerConfig(**{field: value})
    cfg = FeaturizerConfig()
    setattr(cfg, field, value)
    recs, reports, cleaned = make_records(5)
    with pytest.raises(ConfigError, match=f"featurizer.{field}"):
        Featurizer.fit(recs, reports, cleaned, cfg)


def test_config_range_edges_accepted():
    FeaturizerConfig(min_df=1, max_vocab=1, svd_components=1,
                     top_n_categories=0, top_n_asset_type_counts=0)
    FeaturizerConfig(max_vocab=2**70, svd_components=np.int64(3))


def test_config_from_dict_requires_every_field():
    full = to_dict(FeaturizerConfig())
    assert from_dict(FeaturizerConfig, full) == FeaturizerConfig()
    for name in full:
        partial = {k: v for k, v in full.items() if k != name}
        with pytest.raises(ConfigError, match=name):
            from_dict(FeaturizerConfig, partial)
    with pytest.raises(ConfigError, match="unknown cache"):
        from_dict(FeaturizerConfig, {**full, "cache": 1})


# ---------------------------------------------------------------------------
# Batch featurization against the row-by-row oracle
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def fitted_featurizers():
    """(a featurizer with a 16-wide text basis, one with k = 0, the pool of
    records both were fit on)."""
    recs, reports, cleaned = make_records(80, seed=11)
    fz = Featurizer.fit(
        recs[:60], reports[:60], cleaned[:60],
        FeaturizerConfig(svd_components=16, top_n_categories=3))
    # one record: no text subspace
    flat = Featurizer.fit(recs[:1], reports[:1], cleaned[:1],
                          FeaturizerConfig(svd_components=16))
    assert fz.svd_basis.k == 16 and flat.svd_basis.k == 0
    return fz, flat, recs


def _script(recs, size=100_000):
    parts, total = [], 0
    for r in recs * (size // 20 + 1):
        parts.append(r.query_text)
        total += len(r.query_text) + 3
        if total >= size:
            break
    return " ; ".join(parts)


def assert_batch_matches_rows(fz, records):
    cleaned = [cq(r.query_text) for r in records]
    reports = [complexity_score(q) for q in cleaned]
    batch = fz.transform(records, reports, cleaned).rows
    assert batch.shape == (len(records), len(fz.column_names))
    oracle = naive_feature_rows(fz, records, reports, cleaned)
    assert batch.tobytes() == oracle.tobytes()
    for i, rec in enumerate(records):
        one = fz.transform([rec], [reports[i]], [cleaned[i]]).rows
        assert one.tobytes() == batch[i].tobytes()


_OPTIONAL_FIELDS = ("total_bytes_processed", "total_bytes_billed",
                    "account_count", "resource_count", "accounts_aws",
                    "accounts_gcp", "accounts_azure")
# 0, small and the largest count the record schema accepts
_COUNTS = st.one_of(st.just(0), st.integers(1, 50), st.just(2**63 - 1))


@st.composite
def record_batches(draw):
    fz, flat, recs = fitted_featurizers()
    regions = sorted({r.region for r in recs})
    asset_keys = sorted({k for r in recs for k in r.asset_type_counts})
    batch = []
    for _ in range(draw(st.integers(0, 6))):
        rec = dataclasses.replace(recs[draw(st.integers(0, len(recs) - 1))])
        kind = draw(st.sampled_from(["pool", "unknown", "repeated", "mixed"]))
        if kind == "unknown":  # no in-vocabulary term
            rec.query_text = " ".join(draw(st.lists(
                st.sampled_from(["ZZYZX", "qwerty", "#", "~", "@@"]),
                max_size=8)))
        elif kind == "repeated":
            rec.query_text = " ".join([rec.query_text]
                                      * draw(st.integers(2, 6)))
        elif kind == "mixed":
            rec.query_text = draw(st.text(max_size=60)) + rec.query_text
        for f in _OPTIONAL_FIELDS:
            if draw(st.booleans()):
                setattr(rec, f, draw(st.one_of(st.none(), _COUNTS)))
        if draw(st.booleans()):  # seen keys, and one no featurizer knows
            keys = draw(st.lists(st.sampled_from(asset_keys + ["never-seen"]),
                                 max_size=4, unique=True))
            rec.asset_type_counts = {k: draw(_COUNTS) for k in keys}
        if draw(st.booleans()):
            rec.asset_type = draw(st.sampled_from(["", "never-seen", "view"]))
        if draw(st.booleans()):
            rec.region = draw(st.sampled_from(["", "never-seen", *regions]))
        if draw(st.booleans()):
            rec.cache_hit = draw(st.booleans())
        batch.append(rec)
    return draw(st.sampled_from([fz, flat])), batch


@settings(max_examples=150, deadline=None)
@given(record_batches())
def test_batch_transform_matches_row_by_row_oracle(case):
    fz, records = case
    assert_batch_matches_rows(fz, records)


@pytest.mark.parametrize("which", [0, 1])
def test_batch_with_large_script_matches_oracle(which):
    fz = fitted_featurizers()[which]
    recs = fitted_featurizers()[2]
    big = dataclasses.replace(recs[0], query_text=_script(recs))
    assert len(big.query_text) >= 100_000
    assert_batch_matches_rows(fz, [recs[1], big, recs[2]])


def test_empty_batch_keeps_the_column_layout():
    for fz in fitted_featurizers()[:2]:
        m = fz.transform([], [], [])
        assert m.rows.shape == (0, len(fz.column_names))


def test_transform_text_batch_matches_per_row_oracle():
    fz, _, recs = fitted_featurizers()
    cleaned = [cq(r.query_text) for r in recs] + [cq("ZZYZX"), cq("")]
    m = tfidf_matrix(fz.text_state, cleaned)
    assert m.shape == (len(cleaned), fz.text_state.size)
    proj = project_text(fz.svd_basis, transform_text(fz.text_state, cleaned))
    for i, q in enumerate(cleaned):
        row = naive_transform_text(fz.text_state, q)
        assert m[i].toarray().tobytes() == row.toarray().tobytes()
        assert proj[i].tobytes() == naive_project_text(
            fz.svd_basis, row).tobytes()


@lru_cache(maxsize=None)
def text_states():
    """A fitted text state and one read back from a signed bundle."""
    recs = generate(WorkloadConfig(n_queries=200, seed=13))
    bundle = train(recs, TrainConfig(
        featurizer=FeaturizerConfig(svd_components=8),
        gbrt=GBRTConfig(iterations=3, min_samples_leaf=5)))
    loaded = deserialize_bundle(serialize_bundle(bundle))
    return bundle.featurizer.text_state, loaded.featurizer.text_state


@st.composite
def token_streams(draw):
    """(a text state, cleaned queries over its tokens and unknown ones):
    empty and one-token queries, and repeated runs, so repeated bigrams."""
    state = text_states()[draw(st.integers(0, 1))]
    known = sorted(t for t in state.vocabulary if " " not in t)
    token = st.one_of(st.sampled_from(known),
                      st.sampled_from(["ZZYZX", "#", "NUM", "_Q1", "\u00c9"]))
    corpus = []
    for _ in range(draw(st.integers(0, 5))):
        toks = draw(st.lists(token, max_size=12))
        corpus.append(CleanedQuery(tuple(toks * draw(st.integers(1, 3)))))
    return state, corpus


@settings(max_examples=200, deadline=None)
@given(token_streams())
def test_term_lookups_match_joined_term_oracle(case):
    """Looking tokens and token pairs up in the derived tables counts each
    column as often as the space-joined terms' lookup in the vocabulary."""
    state, corpus = case
    got = tfidf_matrix(state, corpus)
    for i, q in enumerate(corpus):
        want = naive_transform_text(state, q)
        assert got[i].toarray().tobytes() == want.toarray().tobytes()


def test_text_states_read_back_with_the_same_tables():
    fitted, loaded = text_states()
    assert len(fitted.unigrams) + len(fitted.bigrams) == fitted.size
    assert loaded.unigrams == fitted.unigrams
    assert loaded.bigrams == fitted.bigrams


def pinned_corpus_matrices(fz=None):
    """(the featurizer, its fit and held-out feature matrices) on the pinned
    synth corpus; without fz, one with a 24-wide text basis is fit on the
    first 160 records."""
    recs, reports, cleaned = make_records(240, seed=17)
    fit = recs[:160], reports[:160], cleaned[:160]
    held = recs[160:], reports[160:], cleaned[160:]
    if fz is None:
        fz = Featurizer.fit(*fit, FeaturizerConfig(svd_components=24))
    return fz, [fz.transform(*part).rows for part in (fit, held)]


def test_feature_matrix_fingerprint_pinned():
    """SHA-256 of the fit and held-out feature matrices of a fixed synth
    corpus, with the exact text SVD."""
    digest = hashlib.sha256()
    for rows in pinned_corpus_matrices()[1]:
        digest.update(rows.tobytes())
    assert digest.hexdigest() == (
        "019cad6f6089b4827a36518a6e17fb1ac269f054a698cf20b9243970de12e170")


def test_exact_basis_matches_randomized_oracle_on_pinned_corpus():
    """On the pinned corpus the randomized sketch spans the whole TF-IDF
    matrix, so its basis is the exact one to rounding: the text columns
    agree within 1e-10 and every other column is the same bytes."""
    fz, exact = pinned_corpus_matrices()
    recs, _, _ = make_records(240, seed=17)
    tfidf = as_matrix(transform_text_corpus(
        fz.text_state, [cq(r.query_text) for r in recs[:160]]))
    fz = dataclasses.replace(fz, svd_basis=randomized_fit_svd(tfidf, 24))
    oracle = pinned_corpus_matrices(fz)[1]
    k = fz.svd_basis.k
    assert k == 24
    for rows, want in zip(exact, oracle):
        assert rows.shape == want.shape
        assert np.max(np.abs(rows[:, :k] - want[:, :k])) <= 1e-10
        assert rows[:, k:].tobytes() == want[:, k:].tobytes()
