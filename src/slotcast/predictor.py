"""End-to-end orchestration: log1p target transform, complexity-routed
dual-model training, inference with back-transform, and versioned bundle
serialization.

Bundle file layout: magic, format version, length-prefixed JSON header
describing config and named arrays, raw little-endian array payloads, and a
trailing SHA-256 over everything preceding it.
"""
from __future__ import annotations

import hashlib
import json
import struct
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import gbrt
from .config import check, from_dict, setting, to_dict
from .errors import (
    BundleVersionMismatch,
    CorruptBundle,
    NegativeTarget,
    TooFewSamples,
)
from .featurizer import Featurizer, FeaturizerConfig
from .gbrt import Forest, GBRTConfig
from .records import QueryRecord
from .sql_analyzer import (
    CleanedQuery,
    ComplexityReport,
    clean_query,
    complexity_score,
)

# 2: the featurizer config no longer holds svd_seed, svd_oversample and
# svd_power_iters (the text SVD is exact)
# 3: each fact is stored once: loading derives the idf, column names, tree
# counts and fallback routes; the header drops its copies of the format
# version, train config, seed and record count
# 4: each forest's config no longer holds seed and binning_sample (binning
# reads every training row)
# 5: each forest's config no longer holds l2 (the split gain and leaf values
# take no L2 term)
# 6: each forest stores only the bin edges its nodes test, thresholds
# renumbered into them, and its node arrays in narrow integer types
FORMAT_VERSION = 6
_MAGIC = b"SLTB"
_HEADER_KEYS = {"router", "metadata", "featurizer", "forests", "arrays"}

ROUTE_SIMPLE = "simple"
ROUTE_COMPLEX = "complex"
ROUTE_UNIFIED = "unified"
_ROUTES = {ROUTE_SIMPLE, ROUTE_COMPLEX, ROUTE_UNIFIED}


# ---------------------------------------------------------------------------
# Target transform
# ---------------------------------------------------------------------------

def transform_target(slot_min):
    """ln(1 + slot_min); rejects negative slot-time."""
    arr = np.asarray(slot_min, dtype=np.float64)
    if np.any(arr < 0):
        raise NegativeTarget("slot-time targets must be >= 0")
    out = np.log1p(arr)
    return float(out) if np.isscalar(slot_min) else out


def inverse_target(z):
    """expm1(z), clamped below at 0 slot-minutes."""
    arr = np.asarray(z, dtype=np.float64)
    out = np.maximum(np.expm1(arr), 0.0)
    return float(out) if np.isscalar(z) else out


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Router:
    threshold: int = setting(26, ge=0)
    min_subset: int = setting(50, ge=0)

    def __post_init__(self) -> None:
        check(self, "router")

    def route(self, score: int) -> str:
        return ROUTE_SIMPLE if score < self.threshold else ROUTE_COMPLEX

    def split(self, scores: Sequence[int]) -> Dict[str, np.ndarray]:
        """The ascending row ids of each route, in routing order: the rows
        whose scores route() sends there."""
        simple = np.asarray(scores) < self.threshold
        return {ROUTE_SIMPLE: simple.nonzero()[0],
                ROUTE_COMPLEX: (~simple).nonzero()[0]}


@dataclass
class TrainConfig:
    featurizer: FeaturizerConfig = field(default_factory=FeaturizerConfig)
    gbrt: GBRTConfig = field(default_factory=GBRTConfig)
    router: Router = field(default_factory=Router)


@dataclass
class PredictionResult:
    slot_min: float
    route: str
    complexity_score: int
    log_space_value: float


@dataclass
class ModelBundle:
    featurizer: Featurizer
    router: Router
    forests: Dict[str, Forest]
    metadata: dict

    @property
    def fallback_routes(self) -> List[str]:
        """The routes, in routing order, that the unified forest scores."""
        return [r for r in (ROUTE_SIMPLE, ROUTE_COMPLEX)
                if r not in self.forests]


# ---------------------------------------------------------------------------
# Training / inference
# ---------------------------------------------------------------------------

def _analyze(records: Sequence[QueryRecord]
             ) -> Tuple[List[CleanedQuery], List[ComplexityReport]]:
    """Each record's cleaned query and complexity report, one of each per
    record. Both are pure functions of the text, so each distinct text is
    cleaned and scored once and its records share the same two objects."""
    by_text: Dict[str, Tuple[CleanedQuery, ComplexityReport]] = {}
    for r in records:
        if r.query_text not in by_text:
            q = clean_query(r.query_text)
            by_text[r.query_text] = q, complexity_score(q)
    pairs = [by_text[r.query_text] for r in records]
    return [q for q, _ in pairs], [rep for _, rep in pairs]


def train(records: Sequence[QueryRecord],
          config: Optional[TrainConfig] = None) -> ModelBundle:
    """Fit the shared featurizer and the complexity-routed forests.

    Routes with fewer than ``router.min_subset`` records fall back to a
    unified forest trained on all records (``ModelBundle.fallback_routes``).
    A route that holds every record is served by that unified forest too:
    its own forest would be the same one, fitted twice.
    """
    config = config or TrainConfig()
    n = len(records)
    if n < 2 * config.gbrt.min_samples_leaf:
        raise TooFewSamples(
            f"need >= {2 * config.gbrt.min_samples_leaf} training records")
    cleaned, reports = _analyze(records)
    y = transform_target(np.array([r.slot_min for r in records]))

    featurizer = Featurizer.fit(records, reports, cleaned, config.featurizer)
    matrix = featurizer.transform(records, reports, cleaned)

    routes = config.router.split([rep.score for rep in reports])
    forests: Dict[str, Forest] = {}
    for route, idx in routes.items():
        if n > idx.size >= max(config.router.min_subset,
                               2 * config.gbrt.min_samples_leaf):
            forests[route] = gbrt.fit(matrix.rows[idx], y[idx], config.gbrt)
    if len(forests) < len(routes):
        forests[ROUTE_UNIFIED] = gbrt.fit(matrix.rows, y, config.gbrt)

    actual_slot = np.expm1(y)
    metadata = {
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "route_counts": {r: int(i.size) for r, i in routes.items()},
        "train_target_mean": float(actual_slot.mean()),
        "train_target_median": float(np.median(actual_slot)),
        "svd_single_thread": featurizer.svd_basis.single_thread,
    }
    return ModelBundle(featurizer=featurizer, router=config.router,
                       forests=forests, metadata=metadata)


def _forest_for_route(bundle: ModelBundle, route: str) -> Forest:
    forest = bundle.forests.get(route)
    if forest is None:
        forest = bundle.forests[ROUTE_UNIFIED]
    return forest


def _score(bundle: ModelBundle,
           records: Sequence[QueryRecord]) -> List[PredictionResult]:
    """Clean, score, route, featurize and predict a batch of records.
    The text stages run once per distinct query text; the tabular columns,
    routing and forests stay per record."""
    cleaned, reports = _analyze(records)
    matrix = bundle.featurizer.transform(records, reports, cleaned)
    results: list = [None] * len(records)
    for route, idx in bundle.router.split([r.score for r in reports]).items():
        if not idx.size:
            continue
        zs = _forest_for_route(bundle, route).predict(matrix.rows[idx])
        for i, slot, z in zip(idx.tolist(), inverse_target(zs).tolist(),
                              zs.tolist()):
            results[i] = PredictionResult(
                slot_min=slot, route=route,
                complexity_score=reports[i].score, log_space_value=z)
    return results


def predict(bundle: ModelBundle, record: QueryRecord) -> PredictionResult:
    """Score, route, featurize and predict one record."""
    return _score(bundle, [record])[0]


def predict_many(bundle: ModelBundle,
                 records: Sequence[QueryRecord]) -> List[PredictionResult]:
    """Predict a batch; result i is the same as ``predict`` of record i."""
    return _score(bundle, records)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def serialize_bundle(bundle: ModelBundle) -> bytes:
    fz_meta, fz_arrays = bundle.featurizer.get_state()
    arrays: Dict[str, np.ndarray] = {f"fz.{k}": v for k, v in fz_arrays.items()}
    forest_meta = {}
    for route, forest in sorted(bundle.forests.items()):
        meta, f_arrays = forest.get_state()
        forest_meta[route] = meta
        arrays.update({f"forest.{route}.{k}": v for k, v in f_arrays.items()})

    ordered = sorted(arrays)
    header = {
        "router": to_dict(bundle.router),
        "metadata": bundle.metadata,
        "featurizer": fz_meta,
        "forests": forest_meta,
        "arrays": [{"name": k,
                    "dtype": arrays[k].dtype.str,
                    "shape": list(arrays[k].shape)} for k in ordered],
    }
    header_bytes = json.dumps(header, sort_keys=True,
                              separators=(",", ":")).encode("utf-8")
    parts = [_MAGIC, struct.pack("<I", FORMAT_VERSION),
             struct.pack("<Q", len(header_bytes)), header_bytes]
    for k in ordered:
        a = np.ascontiguousarray(arrays[k])
        if a.dtype.byteorder == ">":
            a = a.astype(a.dtype.newbyteorder("<"))
        parts.append(a.tobytes())
    body = b"".join(parts)
    return body + hashlib.sha256(body).digest()


def deserialize_bundle(data: bytes) -> ModelBundle:
    if len(data) < 4 + 4 + 8 + 32 or data[:4] != _MAGIC:
        raise CorruptBundle("not a slotcast bundle")
    version = struct.unpack("<I", data[4:8])[0]
    if version < 1:
        raise CorruptBundle(f"bundle format {version} is not a valid version")
    if version > FORMAT_VERSION:
        raise BundleVersionMismatch(
            f"bundle format {version} is newer than supported {FORMAT_VERSION}")
    if version < FORMAT_VERSION:
        raise BundleVersionMismatch(
            f"bundle format {version} is older than supported "
            f"{FORMAT_VERSION}; retrain the model to write a new bundle")
    body, digest = data[:-32], data[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise CorruptBundle("checksum mismatch")
    header_len = struct.unpack("<Q", data[8:16])[0]
    try:
        header = json.loads(data[16:16 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptBundle("unreadable header") from exc
    if not isinstance(header, dict):
        raise CorruptBundle("header is not a JSON object")
    missing = _HEADER_KEYS - set(header)
    if missing:
        raise CorruptBundle(f"header lacks {', '.join(sorted(missing))}")
    if not isinstance(header["metadata"], dict):
        raise CorruptBundle("header metadata is not a JSON object")
    try:
        return _bundle_from_header(header, memoryview(body)[16 + header_len:])
    except (KeyError, TypeError, ValueError, AttributeError,
            OverflowError) as exc:
        # a header the checksum vouches for but not in the shape written
        raise CorruptBundle(f"malformed header: {exc!r}") from exc


def _bundle_from_header(header: dict, payload: memoryview) -> ModelBundle:
    offset = 0
    arrays: Dict[str, np.ndarray] = {}
    for spec in header["arrays"]:
        dtype = np.dtype(spec["dtype"])
        count = int(np.prod(spec["shape"])) if spec["shape"] else 1
        nbytes = dtype.itemsize * count
        chunk = payload[offset:offset + nbytes]
        if len(chunk) != nbytes:
            raise CorruptBundle("truncated array payload")
        arrays[spec["name"]] = np.frombuffer(
            chunk, dtype=dtype).reshape(spec["shape"]).copy()
        offset += nbytes

    metadata = header["metadata"]
    for key in ("train_target_mean", "train_target_median"):
        value = metadata.get(key)
        # slot minutes are >= 0; the bounds also reject NaN and an int too
        # large to become a float
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not 0 <= value <= sys.float_info.max):
            raise CorruptBundle(f"metadata: {key} is not a finite number "
                                ">= 0")
    routes = set(header["forests"])
    if not (routes <= _ROUTES and (ROUTE_UNIFIED in routes
                                   or {ROUTE_SIMPLE, ROUTE_COMPLEX} <= routes)):
        raise CorruptBundle(f"forests {sorted(routes)} cannot serve every "
                            "route")
    featurizer = Featurizer.from_state(
        header["featurizer"],
        {k[len("fz."):]: v for k, v in arrays.items() if k.startswith("fz.")})
    forests = {}
    for route, meta in header["forests"].items():
        prefix = f"forest.{route}."
        forests[route] = Forest.from_state(
            meta, {k[len(prefix):]: v for k, v in arrays.items()
                   if k.startswith(prefix)})
        if forests[route].n_features != len(featurizer.column_names):
            raise CorruptBundle(f"forest {route} and featurizer disagree on "
                                "the feature width")
    return ModelBundle(featurizer=featurizer,
                       router=from_dict(Router, header["router"]),
                       forests=forests, metadata=metadata)


def save_bundle(bundle: ModelBundle, path) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize_bundle(bundle))


def load_bundle(path) -> ModelBundle:
    with open(path, "rb") as fh:
        return deserialize_bundle(fh.read())
