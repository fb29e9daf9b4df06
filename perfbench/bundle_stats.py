"""Figures read from a serialized bundle: fingerprints, forest sizes and
split-search usefulness.

Only the documented bundle file layout (magic, version, header length, JSON
header, raw arrays, SHA-256) and public slotcast functions are used, so an
in-memory refactor of the forest or featurizer leaves these figures
comparable.
"""
from __future__ import annotations

import hashlib
import json
import struct
from typing import Dict, Sequence, Tuple

import numpy as np

from slotcast.predictor import (
    ROUTE_COMPLEX,
    ROUTE_SIMPLE,
    ROUTE_UNIFIED,
    ModelBundle,
    PredictionResult,
)
from slotcast.records import QueryRecord
from slotcast.sql_analyzer import clean_query, complexity_score


def _header_end(data: bytes) -> int:
    return 16 + struct.unpack("<Q", data[8:16])[0]


def read_bundle(data: bytes) -> Tuple[dict, Dict[str, np.ndarray]]:
    """(header, named arrays) of a serialized bundle."""
    end = _header_end(data)
    header = json.loads(data[16:end].decode("utf-8"))
    arrays: Dict[str, np.ndarray] = {}
    offset = end
    for spec in header["arrays"]:
        dtype = np.dtype(spec["dtype"])
        count = int(np.prod(spec["shape"])) if spec["shape"] else 1
        arrays[spec["name"]] = np.frombuffer(
            data, dtype=dtype, count=count, offset=offset).reshape(spec["shape"])
        offset += dtype.itemsize * count
    return header, arrays


def arrays_fingerprint(data: bytes) -> str:
    """SHA-256 of the array payload, which excludes the header's timestamp."""
    return hashlib.sha256(data[_header_end(data):-32]).hexdigest()


def predictions_fingerprint(results: Sequence[PredictionResult]) -> str:
    h = hashlib.sha256()
    h.update(np.array([(r.log_space_value, r.slot_min) for r in results],
                      dtype=np.float64).tobytes())
    h.update(",".join(f"{r.route}:{r.complexity_score}"
                      for r in results).encode("utf-8"))
    return h.hexdigest()


def forest_size(data: bytes) -> Tuple[int, int]:
    """(trees, leaves) over every forest in the bundle."""
    header, arrays = read_bundle(data)
    trees = leaves = 0
    for route in header["forests"]:
        trees += arrays[f"forest.{route}.tree_offsets"].size - 1
        leaves += int(np.sum(arrays[f"forest.{route}.node_feature"] < 0))
    return trees, leaves


def _bin(arrays: Dict[str, np.ndarray], prefix: str,
         x: np.ndarray) -> np.ndarray:
    values, offsets = arrays[prefix + "edge_values"], arrays[prefix + "edge_offsets"]
    out = np.empty(x.shape, dtype=np.int64)
    for f in range(x.shape[1]):
        edges = values[offsets[f]:offsets[f + 1]]
        col = x[:, f]
        binned = np.searchsorted(edges, col, side="right")
        binned[~np.isfinite(col)] = edges.size + 1
        out[:, f] = binned
    return out


def _rows_per_node(feature, threshold, left, right, xb) -> np.ndarray:
    """Training rows that reach each node of one tree (local node ids)."""
    node = np.zeros(xb.shape[0], dtype=np.int64)
    rows = np.arange(xb.shape[0])
    counts = np.zeros(feature.size, dtype=np.int64)
    while rows.size:
        counts += np.bincount(node[rows], minlength=feature.size)
        rows = rows[feature[node[rows]] >= 0]
        nid = node[rows]
        go_left = xb[rows, feature[nid]] <= threshold[nid]
        node[rows] = np.where(go_left, left[nid], right[nid])
    return counts


def split_search_stats(bundle: ModelBundle, data: bytes,
                       records: Sequence[QueryRecord]) -> Tuple[int, float]:
    """(nodes created, share of them that could split).

    ``gbrt`` runs one split search per node it creates; a node can split
    only when it holds at least ``2*min_samples_leaf`` training rows. The
    training rows are rebuilt from ``records`` with the bundle's own
    featurizer and router, then routed through every tree.
    """
    cleaned = [clean_query(r.query_text) for r in records]
    reports = [complexity_score(q) for q in cleaned]
    rows = bundle.featurizer.transform(records, reports, cleaned).rows
    simple = np.array([rep.score for rep in reports]) < bundle.router.threshold
    by_route = {ROUTE_SIMPLE: rows[simple], ROUTE_COMPLEX: rows[~simple],
                ROUTE_UNIFIED: rows}
    header, arrays = read_bundle(data)
    nodes = useful = 0
    for route, meta in header["forests"].items():
        prefix = f"forest.{route}."
        xb = _bin(arrays, prefix, by_route[route])
        floor = 2 * meta["config"]["min_samples_leaf"]
        offsets = arrays[prefix + "tree_offsets"]
        for s, e in zip(offsets[:-1], offsets[1:]):
            counts = _rows_per_node(arrays[prefix + "node_feature"][s:e],
                                    arrays[prefix + "node_threshold"][s:e],
                                    arrays[prefix + "node_left"][s:e],
                                    arrays[prefix + "node_right"][s:e], xb)
            nodes += int(e - s)
            useful += int(np.sum(counts >= floor))
    return nodes, (useful / nodes if nodes else 0.0)
