"""Feature fusion: TF-IDF text block reduced via an exact truncated SVD,
standardized numerics, log-scaled volumetrics, and one-hot categoricals.

Featurizer.fit computes every statistic on the training records and only
then builds the featurizer; transform never mutates fitted state.
"""
from __future__ import annotations

import ctypes
import functools
import glob
import math
import os
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, islice
from operator import attrgetter
from typing import (Dict, Iterable, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple)

import numpy as np

from .config import Section, from_dict, setting, to_dict
from .errors import (
    CorruptBundle,
    DegenerateInput,
    DimensionMismatch,
    EmptyCorpus,
    LengthMismatch,
    NonFiniteFeatures,
)
from .records import QueryRecord
from .sql_analyzer import CleanedQuery, ComplexityReport


# ---------------------------------------------------------------------------
# TF-IDF
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TextVectorizerState:
    """A fitted TF-IDF vocabulary. ``vocabulary`` maps each term (a token,
    or two tokens joined by one space) to its column, as the bundle stores
    it. transform_text looks tokens up in two tables derived from it once,
    at construction: ``unigrams`` (token -> column) and ``bigrams``
    ((token, token) -> column). A term that is not one token or exactly two
    non-empty tokens, such as ``"A  B"`` or ``" A"``, is in neither table
    and is never counted: cleaned tokens hold no spaces. The smoothed
    ``idf`` is derived the same way, from ``doc_freq`` and ``n_docs``."""
    vocabulary: Dict[str, int]          # term -> column index
    doc_freq: np.ndarray                # int64, per column
    n_docs: int
    idf: np.ndarray = field(init=False, repr=False, compare=False)
    unigrams: Dict[str, int] = field(init=False, repr=False, compare=False)
    bigrams: Dict[Tuple[str, str], int] = field(init=False, repr=False,
                                                compare=False)

    def __post_init__(self) -> None:
        uni: Dict[str, int] = {}
        bi: Dict[Tuple[str, str], int] = {}
        for term, col in self.vocabulary.items():
            head, space, tail = term.partition(" ")
            if not space:
                uni[term] = col
            elif head and tail and " " not in tail:
                bi[head, tail] = col
        object.__setattr__(self, "unigrams", uni)
        object.__setattr__(self, "bigrams", bi)
        object.__setattr__(self, "idf", np.log(
            (1.0 + self.n_docs) / (1.0 + self.doc_freq)) + 1.0)

    @property
    def size(self) -> int:
        return len(self.vocabulary)


def _terms(q: CleanedQuery) -> List[str]:
    """Unigrams, then bigrams joined by a space (tokens hold no spaces)."""
    toks = q.tokens
    return [*toks, *map(" ".join, zip(toks, toks[1:]))]


def _distinct(corpus: Sequence[CleanedQuery]
              ) -> Tuple[List[CleanedQuery], np.ndarray]:
    """The distinct CleanedQuery objects of corpus, in first-seen order, and
    each record's index among them. Records with one text share one object
    (predictor._analyze), so the text stages run once per text."""
    objects = {id(q): q for q in corpus}
    at = dict(zip(objects, range(len(objects))))
    return (list(objects.values()),
            np.array([at[id(q)] for q in corpus], dtype=np.intp))


def _top(freq: Dict[str, int], n: int) -> List[str]:
    """The n keys of freq with the highest counts, ties lexicographic."""
    return sorted(freq, key=lambda k: (-freq[k], k))[:n]


def fit_text(corpus: Sequence[CleanedQuery], min_df: int = 2,
             max_vocab: int = 50_000) -> TextVectorizerState:
    """Build a unigram+bigram vocabulary with smoothed idf weights. The
    terms of each distinct CleanedQuery object are found once and counted
    once per record that holds it."""
    if len(corpus) == 0:
        raise EmptyCorpus("fit_text requires a non-empty corpus")
    distinct, which = _distinct(corpus)
    df: Dict[str, int] = {}
    for q, weight in zip(distinct, np.bincount(which).tolist()):
        for term in set(_terms(q)):
            df[term] = df.get(term, 0) + weight
    # the max_vocab most frequent terms, in lexicographic column order
    kept = sorted(_top({t: c for t, c in df.items() if c >= min_df},
                       max_vocab))
    vocabulary = {t: i for i, t in enumerate(kept)}
    n = len(corpus)
    doc_freq = np.array([df[t] for t in kept], dtype=np.int64)
    return TextVectorizerState(vocabulary=vocabulary, doc_freq=doc_freq,
                               n_docs=n)


class CorpusRows(NamedTuple):
    """Sparse rows under scipy's CSR attribute names, with no matrix object:
    row i of the (n, V) matrix holds columns indices[indptr[i]:indptr[i+1]]
    with those positions' data."""
    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: Tuple[int, int]


def transform_text(state: TextVectorizerState,
                   corpus: Sequence[CleanedQuery]) -> CorpusRows:
    """One row per query, its columns strictly increasing: raw-count tf x
    idf, divided by the L2 norm of that row alone. Out-of-vocabulary terms
    are ignored; a query without a known term gives an empty row.

    Each token is looked up in ``state.unigrams`` and each adjacent pair in
    ``state.bigrams``, keyed by the (token, token) tuple, so no bigram
    string is built: as tokens hold no spaces, a column gets the same
    count as a lookup of the space-joined terms in ``vocabulary``."""
    uni, bi = state.unigrams.get, state.bigrams.get
    indptr = [0]
    cols: List[int] = []
    tf: List[int] = []
    for q in corpus:
        t = q.tokens
        counts = Counter(chain(map(uni, t),
                               map(bi, zip(t, islice(t, 1, None)))))
        counts.pop(None, None)
        row = sorted(counts)
        cols += row
        tf += map(counts.__getitem__, row)
        indptr.append(len(cols))
    col_ids = np.array(cols, dtype=np.int64)
    data = np.array(tf, dtype=np.float64) * state.idf[col_ids]
    sq = data * data
    for s, e in zip(indptr[:-1], indptr[1:]):
        # a pairwise sum over each row's own slice, as for a one-row matrix
        norm = math.sqrt(sq[s:e].sum())
        if norm > 0:
            data[s:e] /= norm
    return CorpusRows(data, col_ids, np.array(indptr, dtype=np.int64),
                      (len(indptr) - 1, state.size))


def transform_text_corpus(state: TextVectorizerState,
                          corpus: Iterable[CleanedQuery]) -> CorpusRows:
    """transform_text's rows of a whole corpus, fit_svd's input, built by
    vectorizing each distinct CleanedQuery object once and gathering its
    row for every record that holds it: a row is normalised on its own, so
    a gathered row holds the bytes of one built for its record."""
    distinct, which = _distinct(list(corpus))
    rows = transform_text(state, distinct)
    lengths = np.diff(rows.indptr)[which]
    out_ptr = np.zeros(which.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=out_ptr[1:])
    # position in the distinct rows of each entry of each record's row
    pos = np.repeat(rows.indptr[which] - out_ptr[:-1], lengths)
    pos += np.arange(out_ptr[-1])
    return CorpusRows(rows.data[pos], rows.indices[pos], out_ptr,
                      (which.size, state.size))


# ---------------------------------------------------------------------------
# Exact truncated SVD
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SvdBasis:
    components: np.ndarray        # (k, V), orthonormal rows
    singular_values: np.ndarray   # (k,), non-increasing, positive
    # fit_svd's eigensolver ran on one BLAS thread, or did not run, so the
    # bits do not depend on the thread count. A loaded basis does not know;
    # the bundle metadata keeps the fitted value.
    single_thread: bool = True

    @property
    def k(self) -> int:
        return self.components.shape[0]


def _transpose(rows: CorpusRows) -> CorpusRows:
    """The rows of Aᵀ: column c of A as a row, its row ids ascending (a
    stable sort of the column ids keeps each column's entries in row
    order)."""
    n, v = rows.shape
    order = np.argsort(rows.indices, kind="stable")
    row_ids = np.repeat(np.arange(n, dtype=np.int64), np.diff(rows.indptr))
    indptr = np.zeros(v + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows.indices, minlength=v), out=indptr[1:])
    return CorpusRows(rows.data[order], row_ids[order], indptr, (v, n))


def _gram(rows: CorpusRows) -> np.ndarray:
    """AᵀA as scipy's CSR product accumulates it: row by row in ascending
    order, G[c_i, c_j] += x_i * x_j over each row's entries. A row's
    columns are distinct, so one fancy-index += adds each product once."""
    v = rows.shape[1]
    g = np.zeros(v * v)
    cols, data = rows.indices.astype(np.int64), rows.data
    bounds = rows.indptr.tolist()
    for s, e in zip(bounds, bounds[1:]):
        if s < e:
            c, x = cols[s:e], data[s:e]
            g[(c[:, None] * v + c).ravel()] += np.outer(x, x).ravel()
    return g.reshape(v, v)


def _transpose_times(rows: CorpusRows, u: np.ndarray) -> np.ndarray:
    """Aᵀu as scipy's sparse-dense product accumulates it: row r's outer
    product data_r ⊗ u[r] added into the row's columns, r ascending."""
    out = np.zeros((rows.shape[1], u.shape[1]))
    bounds = rows.indptr.tolist()
    for r, (s, e) in enumerate(zip(bounds, bounds[1:])):
        if s < e:
            out[rows.indices[s:e]] += np.outer(rows.data[s:e], u[r])
    return out


@functools.lru_cache(maxsize=None)
def _openblas_threads():
    """The thread-count getter and setter of the OpenBLAS that numpy's
    wheel bundles, or None where numpy ships no such library or it lacks
    the symbols (another BLAS, another platform)."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir,
                           "numpy.libs", "libscipy_openblas64_*.so")
    for path in sorted(glob.glob(pattern)):
        try:
            lib = ctypes.CDLL(path)  # numpy loaded it: the same handle
            get = lib.scipy_openblas_get_num_threads64_
            put = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


@contextmanager
def _one_blas_thread() -> Iterator[bool]:
    """Run the block on one OpenBLAS thread and yield whether the pin
    holds; the old thread count is restored after, also on error. Without
    the OpenBLAS symbols the block runs unpinned and False is yielded."""
    threads = _openblas_threads()
    if threads is None:
        yield False
        return
    get, put = threads
    old = get()
    try:
        put(1)
        yield get() == 1
    finally:
        put(old)


def fit_svd(tfidf_rows: CorpusRows, k: int) -> SvdBasis:
    """Exact truncated SVD of sparse rows: the top-k eigenpairs of their
    smaller Gram matrix (AᵀA when it has no more columns than rows, else
    AAᵀ), with sigma = sqrt(eigenvalue).

    ``tfidf_rows`` is anything with CSR ``data``, ``indices``, ``indptr``
    and ``shape`` (CorpusRows, a scipy CSR matrix). Rows must be canonical,
    their columns strictly increasing and inside 0..V-1, as transform_text
    makes them; other rows raise DimensionMismatch. The Gram matrix then
    holds the same bytes as scipy's sparse product: AᵀA adds row r's
    products in ascending r; AAᵀ adds column c's products in ascending c,
    each column's rows ascending; and the components' Aᵀu adds
    ``data_r * u[r]`` into the row's columns in ascending r.

    Directions whose eigenvalue is at most lambda_max * max(n, V) * eps
    (numpy ``matrix_rank``'s cutoff, applied to the Gram matrix) are
    dropped, so the returned rank never exceeds the input's effective
    rank. From AAᵀ the components are ``Aᵀu / sigma``, and a component
    whose sigma is near the cutoff is orthonormal to the others only to
    within about ``eps * sigma_max**2 / sigma**2``.

    The eigensolver runs on one BLAS thread where OpenBLAS lets it be
    pinned (``single_thread`` says whether it was): LAPACK's eigenvectors
    differ in their last bits between thread counts, so the same rows would
    give different bases on machines with different CPU counts.
    """
    n, v = tfidf_rows.shape
    a = CorpusRows(np.asarray(tfidf_rows.data, dtype=np.float64),
                   np.asarray(tfidf_rows.indices),
                   np.asarray(tfidf_rows.indptr), (n, v))
    if n < 2:
        raise DegenerateInput("SVD needs at least 2 rows")
    # row r's column c as the key r * V + c: the keys rise strictly over
    # the whole matrix exactly when each row's columns do, inside 0..V-1
    cols = a.indices
    keys = np.repeat(np.arange(n, dtype=np.int64) * v,
                     np.diff(a.indptr)) + cols
    if len(cols) and not (cols.min() >= 0 and cols.max() < v
                          and (np.diff(keys) > 0).all()):
        raise DimensionMismatch(
            "rows must hold strictly increasing columns inside "
            f"0..{v - 1}")
    tall = v <= n
    gram = _gram(a if tall else _transpose(a))
    with _one_blas_thread() as single_thread:
        lam, vecs = np.linalg.eigh(gram)
    lam, vecs = lam[::-1], vecs[:, ::-1]  # descending
    tol = max(lam[0], 0.0) * max(n, v) * np.finfo(np.float64).eps
    rank = min(k, int(np.count_nonzero(lam > tol)))
    s = np.sqrt(lam[:rank])
    if tall:
        vt = vecs[:, :rank].T
    else:
        vt = _transpose_times(a, vecs[:, :rank]).T / s[:, None]
    # deterministic sign: largest-magnitude entry of each component positive
    for i in range(vt.shape[0]):
        j = int(np.argmax(np.abs(vt[i])))
        if vt[i, j] < 0:
            vt[i] = -vt[i]
    return SvdBasis(components=np.ascontiguousarray(vt),
                    singular_values=np.ascontiguousarray(s),
                    single_thread=single_thread)


def project_text(basis: SvdBasis, text: CorpusRows) -> np.ndarray:
    """Project the rows onto the basis, one (n, k) array: row i is
    ``components @ dense_i``, one product per row, so it does not depend on
    the batch. A row's columns must be distinct; one outside 0..V-1 raises
    DimensionMismatch."""
    data, indices, indptr = text.data, text.indices, text.indptr
    comps = basis.components
    v = comps.shape[1]
    if len(indices) and not 0 <= indices.min() <= indices.max() < v:
        raise DimensionMismatch(
            f"column index outside 0..{v - 1} for a basis of {v} columns")
    bounds = np.asarray(indptr).tolist()
    out = np.empty((len(bounds) - 1, comps.shape[0]))
    dense = np.zeros(v)
    for i, (s, e) in enumerate(zip(bounds, bounds[1:])):
        cols = indices[s:e]
        dense[cols] = data[s:e]
        out[i] = comps @ dense
        dense[cols] = 0.0
    return out


# ---------------------------------------------------------------------------
# Fused featurizer
# ---------------------------------------------------------------------------

# optional numeric count fields, in layout order
_COUNT_FIELDS = ("account_count", "resource_count", "accounts_aws",
                 "accounts_gcp", "accounts_azure")
# optional byte fields (log1p volumetrics)
_BYTE_FIELDS = ("total_bytes_processed", "total_bytes_billed")
_OPTIONAL_FIELDS = _BYTE_FIELDS + _COUNT_FIELDS
_CATEGORICAL_FIELDS = ("asset_type", "region")

OTHER_CATEGORY = "__OTHER__"


@dataclass
class FeaturizerConfig(Section):
    prefix = "featurizer"
    min_df: int = setting(2, ge=1)
    max_vocab: int = setting(50_000, ge=1)
    svd_components: int = setting(512, ge=1)
    top_n_categories: int = setting(20, ge=0)
    top_n_asset_type_counts: int = setting(20, ge=0)


@dataclass
class FeatureMatrix:
    rows: np.ndarray
    column_names: List[str]


def _check_lengths(records: Sequence[QueryRecord],
                   reports: Sequence[ComplexityReport],
                   cleaned: Sequence[CleanedQuery]) -> None:
    if not len(records) == len(reports) == len(cleaned):
        raise LengthMismatch("one ComplexityReport and one CleanedQuery per "
                             "record required")


def _numeric_names(asset_count_keys: Sequence[str]) -> List[str]:
    return (["num_complexity_score"] + [f"num_{f}" for f in _COUNT_FIELDS]
            + [f"num_asset_count_{k}" for k in asset_count_keys])


def _raw(records: Sequence[QueryRecord], reports: Sequence[ComplexityReport],
         impute_medians: Dict[str, float],
         asset_count_keys: Sequence[str]) -> np.ndarray:
    """The (columns, n) tabular inputs before scaling, in layout order less
    the one-hot columns, with zero rows for the two byte ratios. A missing
    count or byte count takes its training median."""
    got = {f: list(map(attrgetter(f), records)) for f in _OPTIONAL_FIELDS}
    imputed = {f: [m if v is None else v for v in got[f]]
               for f, m in impute_medians.items()}
    cols = [[rep.score for rep in reports]]
    cols += [imputed[f] for f in _COUNT_FIELDS]
    cols += [[r.asset_type_counts.get(k, 0) for r in records]
             for k in asset_count_keys]
    cols += [imputed[f] for f in _BYTE_FIELDS]
    cols += [[0] * len(records)] * 2
    cols += [[v is None for v in got[f]] for f in _OPTIONAL_FIELDS]
    cols += [[v is not None and v > 0 for v in got[f]]
             for f in _COUNT_FIELDS[2:]]  # the provider flags
    cols.append([bool(r.cache_hit) for r in records])
    return np.array(cols, dtype=np.float64)


def _label(category: str) -> str:
    """A category as its column name ends: as it is, or as its repr where
    it is empty, starts with a quote or is OTHER_CATEGORY. A repr starts
    with a quote, so distinct categories get distinct labels, none of them
    the other column's."""
    plain = category[:1] not in ("", "'", '"') and category != OTHER_CATEGORY
    return category if plain else repr(category)


@dataclass(eq=False)
class Featurizer:
    """A fitted feature pipeline, built by ``fit`` or ``from_state``.

    Column layout: text_svd_* | num_* (standardized) | vol_* (log1p) |
    miss_* (missing indicators) | cat_* (one-hot).
    """
    config: FeaturizerConfig
    text_state: TextVectorizerState
    svd_basis: SvdBasis
    asset_count_keys: List[str]
    category_maps: Dict[str, List[str]]
    impute_medians: Dict[str, float]
    num_mean: np.ndarray
    num_std: np.ndarray
    column_names: List[str] = field(init=False)
    # per categorical field: its getter, each category's column and the
    # column of any other
    _one_hot: list = field(init=False, repr=False)

    def __post_init__(self) -> None:
        names = [f"text_svd_{i}" for i in range(self.svd_basis.k)]
        names += _numeric_names(self.asset_count_keys)
        names += ["vol_log1p_bytes_processed", "vol_log1p_bytes_billed",
                  "vol_log1p_bytes_per_account", "vol_log1p_bytes_per_resource"]
        names += [f"miss_{f}" for f in _OPTIONAL_FIELDS]
        self._one_hot = []
        for f in _CATEGORICAL_FIELDS:
            cats, at = self.category_maps[f], len(names)
            slot = {c: at + i for i, c in enumerate(cats)}
            self._one_hot.append((attrgetter(f), slot, at + len(cats)))
            names += [f"cat_{f}_{_label(c)}" for c in cats]
            names.append(f"cat_{f}_{OTHER_CATEGORY}")
        names += ["cat_provider_aws", "cat_provider_gcp", "cat_provider_azure",
                  "cat_cache_hit"]
        self.column_names = names

    # -- fit / transform ----------------------------------------------------

    @classmethod
    def fit(cls, records: Sequence[QueryRecord],
            reports: Sequence[ComplexityReport],
            cleaned: Sequence[CleanedQuery],
            config: Optional[FeaturizerConfig] = None) -> "Featurizer":
        """Compute every statistic on the training records, then build."""
        if len(records) == 0:
            raise EmptyCorpus("Featurizer.fit requires at least one record")
        _check_lengths(records, reports, cleaned)
        cfg = config or FeaturizerConfig()
        cfg.validate()  # also catches a field changed after construction
        text_state = fit_text(cleaned, min_df=cfg.min_df,
                              max_vocab=cfg.max_vocab)
        if len(records) >= 2 and text_state.size >= 1:
            svd_basis = fit_svd(transform_text_corpus(text_state, cleaned),
                                cfg.svd_components)
        else:
            # degenerate corpus: no usable text subspace
            svd_basis = SvdBasis(components=np.zeros((0, text_state.size)),
                                 singular_values=np.zeros(0))

        # impute medians from observed training values
        medians = {}
        for f in _OPTIONAL_FIELDS:
            obs = [float(v) for v in map(attrgetter(f), records)
                   if v is not None]
            medians[f] = float(np.median(obs)) if obs else 0.0
        keys = _top(Counter(chain.from_iterable(
            r.asset_type_counts for r in records)),
            cfg.top_n_asset_type_counts)
        categories = {f: _top(Counter(getattr(r, f) or "" for r in records),
                              cfg.top_n_categories)
                      for f in _CATEGORICAL_FIELDS}

        # scaling statistics over an (n, n_numeric) C-ordered block
        num = np.ascontiguousarray(_raw(records, reports, medians, keys)
                                   [:len(_numeric_names(keys))].T)
        std = num.std(axis=0)
        std[std <= 0] = 1.0
        return cls(cfg, text_state, svd_basis, keys, categories, medians,
                   num.mean(axis=0), std)

    def transform(self, records: Sequence[QueryRecord],
                  reports: Sequence[ComplexityReport],
                  cleaned: Sequence[CleanedQuery]) -> FeatureMatrix:
        """The feature matrix of one record or a batch: one block, each
        group of columns written into its own slice. The text columns are
        built once per distinct CleanedQuery object (records that share one
        share its text row) and gathered into place; every other column is
        built per record."""
        _check_lengths(records, reports, cleaned)
        n, k = len(records), self.svd_basis.k
        rows = np.zeros((n, len(self.column_names)))
        # each row is normalised and projected on its own, so a shared row
        # holds the same bytes as one built per record
        distinct, which = _distinct(cleaned)
        text = project_text(self.svd_basis,
                            transform_text(self.text_state, distinct))
        rows[:, :k] = text[which]
        raw = _raw(records, reports, self.impute_medians,
                   self.asset_count_keys)
        n_num = self.num_mean.shape[0]
        num, vol = raw[:n_num], raw[n_num:n_num + 4]
        per = raw[1:3]  # imputed account_count and resource_count
        # a non-finite result is reported below, as NonFiniteFeatures
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            np.divide(vol[:1], per, out=vol[2:], where=per > 0)
            np.log1p(vol, out=vol)
            num -= self.num_mean[:, None]
            num /= self.num_std[:, None]
        tab = n_num + 4 + len(_OPTIONAL_FIELDS)
        rows[:, k:k + tab] = raw[:tab].T
        rows[:, -4:] = raw[tab:].T
        width = rows.shape[1]
        np.put(rows, [i * width + slot.get(v or "", other)
                      for get, slot, other in self._one_hot
                      for i, v in enumerate(map(get, records))], 1.0)
        if not np.isfinite(rows).all():
            raise NonFiniteFeatures("non-finite entries in feature matrix")
        return FeatureMatrix(rows=rows, column_names=list(self.column_names))

    # -- serialization ------------------------------------------------------

    def get_state(self) -> Tuple[dict, Dict[str, np.ndarray]]:
        """(json-able meta, named arrays) for the bundle writer."""
        meta = {
            "config": to_dict(self.config),
            "vocabulary": sorted(self.text_state.vocabulary,
                                 key=self.text_state.vocabulary.get),
            "n_docs": self.text_state.n_docs,
            "asset_count_keys": self.asset_count_keys,
            "category_maps": self.category_maps,
            "impute_medians": self.impute_medians,
        }
        arrays = {
            "doc_freq": self.text_state.doc_freq,
            "svd_components": self.svd_basis.components,
            "svd_singular_values": self.svd_basis.singular_values,
            "num_mean": self.num_mean,
            "num_std": self.num_std,
        }
        return meta, arrays

    @classmethod
    def from_state(cls, meta: dict, arrays: Dict[str, np.ndarray]) -> "Featurizer":
        """Inverse of get_state; the idf and column names are derived.
        Raises CorruptBundle unless the state can transform a record:
        n_docs is a JSON integer and document frequencies are whole numbers
        in 1..n_docs, which bounds each idf by 1 + ln(1 + n_docs), the
        medians and category maps cover exactly their fields, the asset keys
        and each category map are lists of distinct strings, the text
        arrays agree on size, the scaling arrays fit the numeric block,
        every model number is finite (each median a JSON float) and each
        numeric spread is positive (fit sets a zero spread to 1)."""
        config = from_dict(FeaturizerConfig, meta["config"])
        doc_freq, n_docs = arrays["doc_freq"], meta["n_docs"]
        if not (type(n_docs) is int and doc_freq.dtype.kind in "iu"
                and np.all((doc_freq >= 1) & (doc_freq <= n_docs))):
            raise CorruptBundle("featurizer: n_docs is not an integer, or a "
                                "document frequency is not a whole number "
                                "in 1..n_docs")
        text = TextVectorizerState(
            vocabulary={t: i for i, t in enumerate(meta["vocabulary"])},
            doc_freq=doc_freq, n_docs=n_docs)
        basis = SvdBasis(components=arrays["svd_components"],
                         singular_values=arrays["svd_singular_values"])
        keys, categories = meta["asset_count_keys"], meta["category_maps"]
        medians = dict(meta["impute_medians"])
        mean, std = arrays["num_mean"], arrays["num_std"]
        if not (set(medians) == set(_OPTIONAL_FIELDS)
                and set(categories) == set(_CATEGORICAL_FIELDS)
                and all(isinstance(names, list)
                        and all(isinstance(s, str) for s in names)
                        and len(set(names)) == len(names)
                        for names in (keys, *categories.values()))
                and text.doc_freq.shape == (text.size,)
                and basis.components.ndim == 2
                and basis.components.shape[1] == text.size
                and basis.singular_values.shape == (basis.k,)
                and mean.shape == std.shape == (len(_numeric_names(keys)),)):
            raise CorruptBundle("featurizer: state arrays and names disagree")
        numbers = (basis.components, basis.singular_values, mean, std,
                   list(medians.values()))
        if not (all(isinstance(v, float) for v in medians.values())
                and all(np.isfinite(a).all() for a in numbers)
                and (std > 0).all()):
            raise CorruptBundle("featurizer: a model number is not a finite "
                                "float, or a numeric spread is not positive")
        return cls(config, text, basis, keys, categories, medians, mean, std)
