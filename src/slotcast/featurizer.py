"""Feature fusion: TF-IDF text block reduced via an exact truncated SVD,
standardized numerics, log-scaled volumetrics, and one-hot categoricals.

Fit statistics are computed only on training records; transform never mutates
fitted state.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from .config import check, from_dict, setting, to_dict
from .errors import (
    DegenerateInput,
    DimensionMismatch,
    EmptyCorpus,
    LengthMismatch,
    StateNotFitted,
)
from .records import QueryRecord
from .sql_analyzer import CleanedQuery, ComplexityReport


# ---------------------------------------------------------------------------
# TF-IDF
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TextVectorizerState:
    vocabulary: Dict[str, int]          # term -> column index
    doc_freq: np.ndarray                # int64, per column
    idf: np.ndarray                     # float64, per column
    n_docs: int

    @property
    def size(self) -> int:
        return len(self.vocabulary)


def _terms(q: CleanedQuery) -> List[str]:
    """Unigrams, then bigrams joined by a space (tokens hold no spaces)."""
    vals = q.values
    return [*vals, *map(" ".join, zip(vals, vals[1:]))]


def fit_text(corpus: Sequence[CleanedQuery], min_df: int = 2,
             max_vocab: int = 50_000) -> TextVectorizerState:
    """Build a unigram+bigram vocabulary with smoothed idf weights."""
    if len(corpus) == 0:
        raise EmptyCorpus("fit_text requires a non-empty corpus")
    df: Dict[str, int] = {}
    for q in corpus:
        for term in set(_terms(q)):
            df[term] = df.get(term, 0) + 1
    kept = [t for t, c in df.items() if c >= min_df]
    # cap by descending document frequency, ties lexicographic
    kept.sort(key=lambda t: (-df[t], t))
    kept = kept[:max_vocab]
    kept.sort()  # column order is lexicographic
    vocabulary = {t: i for i, t in enumerate(kept)}
    n = len(corpus)
    doc_freq = np.array([df[t] for t in kept], dtype=np.int64)
    idf = np.log((1.0 + n) / (1.0 + doc_freq)) + 1.0
    return TextVectorizerState(vocabulary=vocabulary, doc_freq=doc_freq,
                               idf=idf, n_docs=n)


def transform_text(state: TextVectorizerState,
                   corpus: Sequence[CleanedQuery]) -> sp.csr_matrix:
    """One row per query: raw-count tf x idf, L2-normalized.
    Out-of-vocabulary terms are ignored; a query without a known term gives
    an empty row."""
    lookup = state.vocabulary.get
    indptr = [0]
    cols: List[int] = []
    tf: List[int] = []
    for q in corpus:
        counts = Counter(map(lookup, _terms(q)))
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
        norm = float(np.sqrt(np.sum(sq[s:e])))
        if norm > 0:
            data[s:e] /= norm
    return sp.csr_matrix((data, col_ids, np.array(indptr, dtype=np.int64)),
                         shape=(len(indptr) - 1, state.size))


def transform_text_corpus(state: TextVectorizerState,
                          corpus: Iterable[CleanedQuery]) -> sp.csr_matrix:
    return transform_text(state, list(corpus))


# ---------------------------------------------------------------------------
# Exact truncated SVD
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SvdBasis:
    components: np.ndarray        # (k, V), orthonormal rows
    singular_values: np.ndarray   # (k,), non-increasing, positive

    @property
    def k(self) -> int:
        return self.components.shape[0]


def fit_svd(tfidf_rows: sp.spmatrix, k: int) -> SvdBasis:
    """Exact truncated SVD of a sparse matrix: the top-k eigenpairs of its
    smaller Gram matrix (AᵀA when it has no more columns than rows, else
    AAᵀ), with sigma = sqrt(eigenvalue).

    Directions whose eigenvalue is at most lambda_max * max(n, V) * eps
    (numpy ``matrix_rank``'s cutoff, applied to the Gram matrix) are
    dropped, so the returned rank never exceeds the input's effective
    rank. From AAᵀ the components are ``Aᵀu / sigma``, and a component
    whose sigma is near the cutoff is orthonormal to the others only to
    within about ``eps * sigma_max**2 / sigma**2``.
    """
    a = sp.csr_matrix(tfidf_rows, dtype=np.float64)
    n, v = a.shape
    if n < 2:
        raise DegenerateInput("SVD needs at least 2 rows")
    tall = v <= n
    lam, vecs = np.linalg.eigh((a.T @ a if tall else a @ a.T).toarray())
    lam, vecs = lam[::-1], vecs[:, ::-1]  # descending
    tol = max(lam[0], 0.0) * max(n, v) * np.finfo(np.float64).eps
    rank = min(k, int(np.count_nonzero(lam > tol)))
    s = np.sqrt(lam[:rank])
    if tall:
        vt = vecs[:, :rank].T
    else:
        vt = np.asarray(a.T @ vecs[:, :rank]).T / s[:, None]
    # deterministic sign: largest-magnitude entry of each component positive
    for i in range(vt.shape[0]):
        j = int(np.argmax(np.abs(vt[i])))
        if vt[i, j] < 0:
            vt[i] = -vt[i]
    return SvdBasis(components=np.ascontiguousarray(vt),
                    singular_values=np.ascontiguousarray(s))


def project_text(basis: SvdBasis, m: sp.spmatrix | np.ndarray) -> np.ndarray:
    """Project term-weight rows onto the SVD basis: row i of the (n, k)
    result is ``components @ m[i]``, one matrix-vector product per row, so
    a row's coordinates do not depend on the batch it came in."""
    comps = basis.components
    if not sp.issparse(m):
        m = np.atleast_2d(np.asarray(m, dtype=np.float64))
    if m.ndim != 2 or m.shape[1] != comps.shape[1]:
        raise DimensionMismatch(
            f"row length {m.shape[-1]} != basis columns {comps.shape[1]}")
    if not (sp.issparse(m) and m.format == "csr" and m.dtype == np.float64):
        m = sp.csr_matrix(m, dtype=np.float64)
    if not m.has_canonical_format:  # the scatter below needs unique columns
        m = m.copy()
        m.sum_duplicates()
    out = np.empty((m.shape[0], comps.shape[0]))
    dense = np.zeros(comps.shape[1])
    indptr, indices, data = m.indptr, m.indices, m.data
    for i in range(m.shape[0]):
        cols = indices[indptr[i]:indptr[i + 1]]
        dense[cols] = data[indptr[i]:indptr[i + 1]]
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
class FeaturizerConfig:
    min_df: int = setting(2, ge=1)
    max_vocab: int = setting(50_000, ge=1)
    svd_components: int = setting(512, ge=1)
    top_n_categories: int = setting(20, ge=0)
    top_n_asset_type_counts: int = setting(20, ge=0)

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise ConfigError naming the first field out of range."""
        check(self, "featurizer")


@dataclass
class FeatureMatrix:
    rows: np.ndarray
    column_names: List[str]


def _top_categories(values: Iterable[str], top_n: int) -> List[str]:
    freq: Dict[str, int] = {}
    for v in values:
        v = v or ""
        freq[v] = freq.get(v, 0) + 1
    ordered = sorted(freq, key=lambda c: (-freq[c], c))
    return ordered[:top_n]


def _stack_columns(cols: Sequence[Sequence[float]], n: int) -> np.ndarray:
    """An (n, len(cols)) float64 block whose column j is cols[j]."""
    block = np.empty((n, len(cols)))
    for j, col in enumerate(cols):
        block[:, j] = col
    return block


def _check_lengths(records: Sequence[QueryRecord],
                   reports: Sequence[ComplexityReport],
                   cleaned: Sequence[CleanedQuery]) -> None:
    if not len(records) == len(reports) == len(cleaned):
        raise LengthMismatch("one ComplexityReport and one CleanedQuery per "
                             "record required")


class Featurizer:
    """Fit/transform pipeline producing a single dense feature matrix.

    Column layout: text_svd_* | num_* (standardized) | vol_* (log1p) |
    miss_* (missing indicators) | cat_* (one-hot).
    """

    def __init__(self, config: Optional[FeaturizerConfig] = None):
        self.config = config or FeaturizerConfig()
        self._fitted = False
        self.text_state: Optional[TextVectorizerState] = None
        self.svd_basis: Optional[SvdBasis] = None
        self.asset_count_keys: List[str] = []
        self.category_maps: Dict[str, List[str]] = {}
        self.impute_medians: Dict[str, float] = {}
        self.num_mean: Optional[np.ndarray] = None
        self.num_std: Optional[np.ndarray] = None
        self.column_names: List[str] = []

    # -- raw (pre-scaling) blocks ------------------------------------------

    def _numeric_names(self) -> List[str]:
        names = ["num_complexity_score"]
        names += [f"num_{f}" for f in _COUNT_FIELDS]
        names += [f"num_asset_count_{k}" for k in self.asset_count_keys]
        return names

    def _imputed(self, records: Sequence[QueryRecord], f: str) -> List[float]:
        """Column f, a missing value replaced by its training median."""
        median = self.impute_medians[f]
        return [median if v is None else float(v)
                for v in map(attrgetter(f), records)]

    def _raw_numeric(self, records: Sequence[QueryRecord],
                     reports: Sequence[ComplexityReport]) -> np.ndarray:
        cols = [[float(rep.score) for rep in reports]]
        cols += [self._imputed(records, f) for f in _COUNT_FIELDS]
        cols += [[float(r.asset_type_counts.get(k, 0)) for r in records]
                 for k in self.asset_count_keys]
        return _stack_columns(cols, len(records))

    def _vol(self, records: Sequence[QueryRecord]) -> np.ndarray:
        bp, bb, acct, res = (np.array(self._imputed(records, f), dtype=np.float64)
                             for f in ("total_bytes_processed",
                                       "total_bytes_billed",
                                       "account_count", "resource_count"))
        per_acct = np.divide(bp, acct, out=np.zeros_like(bp), where=acct > 0)
        per_res = np.divide(bp, res, out=np.zeros_like(bp), where=res > 0)
        return _stack_columns([np.log1p(c) for c in (bp, bb, per_acct, per_res)],
                              len(records))

    def _miss(self, records: Sequence[QueryRecord]) -> np.ndarray:
        return _stack_columns([[v is None for v in map(attrgetter(f), records)]
                               for f in _OPTIONAL_FIELDS], len(records))

    def _cat(self, records: Sequence[QueryRecord]) -> np.ndarray:
        n = len(records)
        width = sum(len(self.category_maps[f]) + 1 for f in _CATEGORICAL_FIELDS)
        block = np.zeros((n, width + 4))  # then 3 provider flags, cache_hit
        offset = 0
        for f in _CATEGORICAL_FIELDS:
            cats = self.category_maps[f]
            slot = {c: i for i, c in enumerate(cats)}
            hot = [slot.get(v or "", len(cats)) for v in map(attrgetter(f), records)]
            block[np.arange(n), offset + np.array(hot, dtype=np.int64)] = 1.0
            offset += len(cats) + 1
        for j, f in enumerate(("accounts_aws", "accounts_gcp", "accounts_azure")):
            block[:, offset + j] = [v is not None and v > 0
                                    for v in map(attrgetter(f), records)]
        block[:, offset + 3] = [bool(r.cache_hit) for r in records]
        return block

    def _cat_names(self) -> List[str]:
        names: List[str] = []
        for f in _CATEGORICAL_FIELDS:
            for c in self.category_maps[f]:
                names.append(f"cat_{f}_{c or '<empty>'}")
            names.append(f"cat_{f}_{OTHER_CATEGORY}")
        names += ["cat_provider_aws", "cat_provider_gcp", "cat_provider_azure",
                  "cat_cache_hit"]
        return names

    # -- fit / transform ----------------------------------------------------

    def fit_transform(self, records: Sequence[QueryRecord],
                      reports: Sequence[ComplexityReport],
                      cleaned: Sequence[CleanedQuery]) -> FeatureMatrix:
        if len(records) == 0:
            raise EmptyCorpus("fit_transform requires at least one record")
        _check_lengths(records, reports, cleaned)
        cfg = self.config
        cfg.validate()  # also catches a field changed after construction

        # text pipeline
        self.text_state = fit_text(cleaned, min_df=cfg.min_df,
                                   max_vocab=cfg.max_vocab)
        tfidf = transform_text_corpus(self.text_state, cleaned)
        if len(records) >= 2 and self.text_state.size >= 1:
            self.svd_basis = fit_svd(tfidf, cfg.svd_components)
        else:
            # degenerate corpus: no usable text subspace
            self.svd_basis = SvdBasis(
                components=np.zeros((0, self.text_state.size)),
                singular_values=np.zeros(0))

        # impute medians from observed training values
        self.impute_medians = {}
        for f in _OPTIONAL_FIELDS:
            obs = [float(getattr(r, f)) for r in records if getattr(r, f) is not None]
            self.impute_medians[f] = float(np.median(obs)) if obs else 0.0

        # asset-type count keys: top-N by training frequency, ties lexicographic
        key_freq: Dict[str, int] = {}
        for r in records:
            for k in r.asset_type_counts:
                key_freq[k] = key_freq.get(k, 0) + 1
        self.asset_count_keys = sorted(
            key_freq, key=lambda k: (-key_freq[k], k))[:cfg.top_n_asset_type_counts]

        # category maps
        self.category_maps = {
            f: _top_categories((getattr(r, f) for r in records),
                               cfg.top_n_categories)
            for f in _CATEGORICAL_FIELDS
        }

        num = self._raw_numeric(records, reports)
        self.num_mean = num.mean(axis=0)
        std = num.std(axis=0)
        std[std <= 0] = 1.0
        self.num_std = std

        self.column_names = (
            [f"text_svd_{i}" for i in range(self.svd_basis.k)]
            + self._numeric_names()
            + ["vol_log1p_bytes_processed", "vol_log1p_bytes_billed",
               "vol_log1p_bytes_per_account", "vol_log1p_bytes_per_resource"]
            + [f"miss_{f}" for f in _OPTIONAL_FIELDS]
            + self._cat_names()
        )
        self._fitted = True
        return self.transform(records, reports, cleaned)

    def transform(self, records: Sequence[QueryRecord],
                  reports: Sequence[ComplexityReport],
                  cleaned: Sequence[CleanedQuery]) -> FeatureMatrix:
        if not self._fitted:
            raise StateNotFitted("featurizer must be fit before transform")
        _check_lengths(records, reports, cleaned)
        text = project_text(self.svd_basis,
                            transform_text(self.text_state, cleaned))
        num = (self._raw_numeric(records, reports) - self.num_mean) / self.num_std
        rows = np.hstack([text, num, self._vol(records), self._miss(records),
                          self._cat(records)])
        if not np.all(np.isfinite(rows)):
            raise ValueError("non-finite entries in feature matrix")
        return FeatureMatrix(rows=rows, column_names=list(self.column_names))

    # -- serialization ------------------------------------------------------

    def get_state(self) -> Tuple[dict, Dict[str, np.ndarray]]:
        """(json-able meta, named arrays) for the bundle writer."""
        if not self._fitted:
            raise StateNotFitted("cannot serialize an unfitted featurizer")
        meta = {
            "config": to_dict(self.config),
            "vocabulary": sorted(self.text_state.vocabulary,
                                 key=self.text_state.vocabulary.get),
            "n_docs": self.text_state.n_docs,
            "asset_count_keys": self.asset_count_keys,
            "category_maps": self.category_maps,
            "impute_medians": self.impute_medians,
            "column_names": self.column_names,
        }
        arrays = {
            "doc_freq": self.text_state.doc_freq,
            "idf": self.text_state.idf,
            "svd_components": self.svd_basis.components,
            "svd_singular_values": self.svd_basis.singular_values,
            "num_mean": self.num_mean,
            "num_std": self.num_std,
        }
        return meta, arrays

    @classmethod
    def from_state(cls, meta: dict, arrays: Dict[str, np.ndarray]) -> "Featurizer":
        fz = cls(from_dict(FeaturizerConfig, meta["config"]))
        vocab = {t: i for i, t in enumerate(meta["vocabulary"])}
        fz.text_state = TextVectorizerState(
            vocabulary=vocab,
            doc_freq=arrays["doc_freq"],
            idf=arrays["idf"],
            n_docs=int(meta["n_docs"]),
        )
        fz.svd_basis = SvdBasis(components=arrays["svd_components"],
                                singular_values=arrays["svd_singular_values"])
        fz.asset_count_keys = list(meta["asset_count_keys"])
        fz.category_maps = {k: list(v) for k, v in meta["category_maps"].items()}
        fz.impute_medians = {k: float(v) for k, v in meta["impute_medians"].items()}
        fz.num_mean = arrays["num_mean"]
        fz.num_std = arrays["num_std"]
        fz.column_names = list(meta["column_names"])
        fz._fitted = True
        return fz
