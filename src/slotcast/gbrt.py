"""Histogram-based gradient-boosted regression trees (squared-error loss).

Trees are grown best-first over quantile-binned features with a
variance-reduction split criterion. Everything is deterministic under a
fixed seed; a fitted Forest is immutable.
"""
from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import (CorruptBundle, DimensionMismatch, NonFiniteTarget,
                     TooFewSamples)

_BINS = 256  # histogram width per feature (value bins + reserved missing bin)


@dataclass
class GBRTConfig:
    learning_rate: float = 0.07
    iterations: int = 300
    max_leaves: int = 31
    min_samples_leaf: int = 20
    l2: float = 0.0
    max_bins: int = 255
    seed: int = 0
    binning_sample: int = 100_000

    def to_dict(self) -> dict:
        return dict(self.__dict__)

    @classmethod
    def from_dict(cls, d: dict) -> "GBRTConfig":
        return cls(**d)


class BinMapper:
    """Quantile binning with a reserved per-feature missing-value bin."""

    def __init__(self, bin_edges: List[np.ndarray]):
        self.bin_edges = bin_edges

    @property
    def n_features(self) -> int:
        return len(self.bin_edges)

    def missing_bin(self, feature: int) -> int:
        return len(self.bin_edges[feature]) + 1

    @classmethod
    def fit(cls, x: np.ndarray, max_bins: int = 255,
            sample: int = 100_000, seed: int = 0) -> "BinMapper":
        n = x.shape[0]
        if n > sample:
            rng = np.random.default_rng(seed)
            rows = np.sort(rng.choice(n, size=sample, replace=False))
            x = x[rows]
        max_value_bins = max_bins - 1  # keep uint8 room for the missing bin
        edges: List[np.ndarray] = []
        for f in range(x.shape[1]):
            col = x[:, f]
            col = col[np.isfinite(col)]
            if col.size == 0:
                edges.append(np.empty(0))
                continue
            distinct = np.unique(col)
            if distinct.size <= max_value_bins:
                e = (distinct[:-1] + distinct[1:]) / 2.0
            else:
                qs = np.percentile(
                    col, np.linspace(0, 100, max_value_bins + 1)[1:-1])
                e = np.unique(qs)
            edges.append(np.ascontiguousarray(e, dtype=np.float64))
        return cls(edges)

    def transform(self, x: np.ndarray) -> np.ndarray:
        if x.shape[1] != self.n_features:
            raise DimensionMismatch(
                f"expected {self.n_features} features, got {x.shape[1]}")
        out = np.empty(x.shape, dtype=np.uint8)
        for f, e in enumerate(self.bin_edges):
            col = x[:, f]
            binned = np.searchsorted(e, col, side="right")
            binned[~np.isfinite(col)] = self.missing_bin(f)
            out[:, f] = binned.astype(np.uint8)
        return out


def histograms(xb: np.ndarray, idx: np.ndarray,
               g: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-feature (gradient-sum, count) histograms for the given rows."""
    n_feat = xb.shape[1]
    flat = xb[idx].astype(np.int64) + np.arange(n_feat, dtype=np.int64) * _BINS
    flat = flat.ravel()
    w = np.broadcast_to(g[idx][:, None], (idx.size, n_feat)).ravel()
    g_hist = np.bincount(flat, weights=w, minlength=n_feat * _BINS)
    c_hist = np.bincount(flat, minlength=n_feat * _BINS)
    return (g_hist.reshape(n_feat, _BINS),
            c_hist.reshape(n_feat, _BINS).astype(np.float64))


def _best_split(g_hist: np.ndarray, c_hist: np.ndarray, sum_g: float,
                cnt: float, min_leaf: int, l2: float
                ) -> Optional[Tuple[float, int, int]]:
    """Maximize variance-reduction gain; ties break on lowest feature then
    lowest bin (row-major argmax)."""
    left_g = np.cumsum(g_hist, axis=1)[:, :-1]
    left_c = np.cumsum(c_hist, axis=1)[:, :-1]
    right_g = sum_g - left_g
    right_c = cnt - left_c
    valid = (left_c >= min_leaf) & (right_c >= min_leaf)
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = (left_g ** 2 / (left_c + l2)
                + right_g ** 2 / (right_c + l2)
                - sum_g ** 2 / (cnt + l2))
    gain = np.where(valid, gain, -np.inf)
    best = int(np.argmax(gain))
    f, b = divmod(best, gain.shape[1])
    if not np.isfinite(gain[f, b]) or gain[f, b] <= 1e-12:
        return None
    return float(gain[f, b]), f, b


def _grow_tree(xb: np.ndarray, g: np.ndarray, config: GBRTConfig
               ) -> Tuple[List[list], np.ndarray]:
    """Grow one tree on residuals g; returns its nodes as [feature,
    threshold, left, right, value] rows, children after their parent, and
    its per-row output."""
    n = xb.shape[0]
    nodes: List[list] = [[-1, 0, -1, -1, 0.0]]
    out = np.empty(n)

    root_idx = np.arange(n)
    g_hist, c_hist = histograms(xb, root_idx, g)
    sum_g, cnt = float(g[root_idx].sum()), float(n)

    def leaf_value(s: float, c: float) -> float:
        return s / (c + config.l2) if c + config.l2 > 0 else 0.0

    tick = itertools.count()  # heap tiebreak: first pushed pops first
    heap: List[tuple] = []
    split = _best_split(g_hist, c_hist, sum_g, cnt,
                        config.min_samples_leaf, config.l2)
    # heap entries: (-gain, tiebreak counter, node_id, split)
    state: Dict[int, tuple] = {0: (root_idx, g_hist, c_hist, sum_g, cnt)}
    if split is not None:
        heapq.heappush(heap, (-split[0], next(tick), 0, split))
    n_leaves = 1
    while heap and n_leaves < config.max_leaves:
        _, _, nid, (gain, f, b) = heapq.heappop(heap)
        idx, gh, ch, sg, c = state.pop(nid)
        go_left = xb[idx, f] <= b
        li, ri = idx[go_left], idx[~go_left]
        # compute the smaller child's histogram; sibling by subtraction
        if li.size <= ri.size:
            lgh, lch = histograms(xb, li, g)
            rgh, rch = gh - lgh, ch - lch
        else:
            rgh, rch = histograms(xb, ri, g)
            lgh, lch = gh - rgh, ch - rch
        lsg, rsg = float(g[li].sum()), float(sg - g[li].sum())
        nodes[nid][:4] = [f, b, len(nodes), len(nodes) + 1]
        for child_idx, cgh, cch, csg in ((li, lgh, lch, lsg),
                                         (ri, rgh, rch, rsg)):
            cid = len(nodes)
            nodes.append([-1, 0, -1, -1, leaf_value(csg, float(child_idx.size))])
            state[cid] = (child_idx, cgh, cch, csg, float(child_idx.size))
            csplit = _best_split(cgh, cch, csg, float(child_idx.size),
                                 config.min_samples_leaf, config.l2)
            if csplit is not None:
                heapq.heappush(heap, (-csplit[0], next(tick), cid, csplit))
        n_leaves += 1

    if len(nodes) == 1:  # root stayed a leaf
        nodes[0][4] = leaf_value(sum_g, cnt)

    # every leaf (including an unsplit root) remains in `state`
    for nid, (idx, _, _, _, _) in state.items():
        out[idx] = nodes[nid][4]
    return nodes, out


_NODE_ARRAYS = ("node_feature", "node_threshold", "node_left", "node_right",
                "node_value", "tree_offsets")


@dataclass
class Forest:
    """Fitted ensemble held in flat node arrays, as the bundle stores them:
    tree t owns nodes tree_offsets[t]:tree_offsets[t + 1], root first, and
    child ids are local to the tree and larger than their parent's."""
    config: GBRTConfig
    b0: float
    bin_mapper: BinMapper
    node_feature: np.ndarray    # int32, -1 at leaves
    node_threshold: np.ndarray  # int32 bin index, go left when bin <= threshold
    node_left: np.ndarray       # int32 local child ids
    node_right: np.ndarray
    node_value: np.ndarray      # float64 leaf contributions (log-space)
    tree_offsets: np.ndarray    # int64, n_trees + 1 entries
    train_losses: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self) -> None:
        # one traversal table for all trees: child[2 * node + go_left] in
        # global ids, leaves looping back to themselves (and testing feature 0)
        leaf = self.node_feature < 0
        base = np.repeat(self.tree_offsets[:-1], np.diff(self.tree_offsets))
        child = np.column_stack([self.node_right, self.node_left]) + base[:, None]
        child[leaf] = np.flatnonzero(leaf)[:, None]
        self._child = child.astype(np.intp).ravel()
        self._feature = np.where(leaf, 0, self.node_feature).astype(np.intp)
        self._threshold = self.node_threshold.astype(np.uint8)
        self._roots = self.tree_offsets[:-1].astype(np.intp)
        self._depth = 0  # deepest leaf, found level by level over all trees
        level = self._roots[~leaf[self._roots]]
        while level.size:
            self._depth += 1
            level = child[level].ravel()
            level = level[~leaf[level]]

    @property
    def n_features(self) -> int:
        return self.bin_mapper.n_features

    @property
    def n_trees(self) -> int:
        return self._roots.size

    def predict(self, x: np.ndarray) -> np.ndarray:
        """b0 plus the learning rate times each tree's leaf value. All trees
        are walked at once, one block of rows at a time: a block decides
        every node's split in one (rows x nodes) matrix of about 0.5 MB, so
        it stays in cache, then moves all (row, tree) pairs depth times."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.n_features:
            raise DimensionMismatch(
                f"expected (n, {self.n_features}) features")
        xb = self.bin_mapper.transform(x)
        pred = np.full(x.shape[0], self.b0)
        n_nodes = max(self._feature.size, 1)
        block = max(1, 2 ** 19 // n_nodes)
        for start in range(0, x.shape[0] if self.n_trees else 0, block):
            rows = slice(start, start + block)
            go = (xb[rows][:, self._feature] <= self._threshold).ravel()
            row_base = np.arange(go.size // n_nodes)[:, None] * n_nodes
            nd = np.broadcast_to(self._roots, (row_base.size, self.n_trees))
            for _ in range(self._depth):
                nd = self._child[2 * nd + go[row_base + nd]]
            # b0 + lr * value summed in tree order, as boosting added them
            terms = self.config.learning_rate * self.node_value[nd]
            terms[:, 0] += self.b0
            pred[rows] = np.add.accumulate(terms, axis=1)[:, -1]
        return pred

    # -- serialization ------------------------------------------------------

    def get_state(self) -> Tuple[dict, Dict[str, np.ndarray]]:
        edges = self.bin_mapper.bin_edges
        edge_offsets = np.cumsum([0] + [e.size for e in edges]).astype(np.int64)
        meta = {"config": self.config.to_dict(), "b0": self.b0,
                "n_trees": self.n_trees}
        arrays = {k: getattr(self, k) for k in _NODE_ARRAYS + ("train_losses",)}
        arrays["edge_values"] = np.concatenate(edges) if edges else np.empty(0)
        arrays["edge_offsets"] = edge_offsets
        return meta, arrays

    @classmethod
    def from_state(cls, meta: dict, arrays: Dict[str, np.ndarray]) -> "Forest":
        """Inverse of get_state. Raises CorruptBundle unless the arrays
        describe walkable trees: each internal node's children lie in its
        own tree after it, features are known and thresholds fit a uint8."""
        f, t, lft, rgt, val, off = (arrays[k] for k in _NODE_ARRAYS)
        eo, ev = arrays["edge_offsets"], arrays["edge_values"]
        if not (all(a.ndim == 1 for a in (f, t, lft, rgt, val, off, eo, ev))
                and all(a.dtype.kind in "iu" for a in (f, t, lft, rgt, off, eo))
                and t.size == lft.size == rgt.size == val.size == f.size
                and off.size == int(meta["n_trees"]) + 1 > 0 and off[0] == 0
                and off[-1] == f.size and np.all(np.diff(off) > 0)
                and eo.size > 0 and eo[0] == 0 and eo[-1] == ev.size
                and np.all((np.diff(eo) >= 0) & (np.diff(eo) < _BINS - 1))):
            raise CorruptBundle("forest: array shapes or offsets disagree")
        inner = f >= 0
        local = (np.arange(f.size) - np.repeat(off[:-1], np.diff(off)))[inner]
        size = np.repeat(np.diff(off), np.diff(off))[inner]
        if (np.any((f < -1) | (f >= eo.size - 1) | (t < 0) | (t > 255))
                or np.any((lft[inner] <= local) | (lft[inner] >= size))
                or np.any((rgt[inner] <= local) | (rgt[inner] >= size))):
            raise CorruptBundle("forest: node feature, threshold or child "
                                "out of range")
        edges = [np.ascontiguousarray(ev[eo[i]:eo[i + 1]])
                 for i in range(eo.size - 1)]
        return cls(config=GBRTConfig.from_dict(meta["config"]),
                   b0=float(meta["b0"]), bin_mapper=BinMapper(edges),
                   train_losses=arrays["train_losses"],
                   **{k: arrays[k] for k in _NODE_ARRAYS})


def fit(features: np.ndarray, targets: np.ndarray,
        config: Optional[GBRTConfig] = None) -> Forest:
    """Train a forest on log-space targets with squared-error loss."""
    config = config or GBRTConfig()
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
        raise DimensionMismatch("features must be (n, d) with matching targets")
    if not np.all(np.isfinite(y)):
        raise NonFiniteTarget("targets contain NaN or Inf")
    if x.shape[0] < 2 * config.min_samples_leaf:
        raise TooFewSamples(
            f"need >= {2 * config.min_samples_leaf} rows, got {x.shape[0]}")

    mapper = BinMapper.fit(x, max_bins=config.max_bins,
                           sample=config.binning_sample, seed=config.seed)
    xb = mapper.transform(x)
    b0 = float(y.mean())
    pred = np.full(y.shape, b0)
    nodes: List[list] = []
    sizes = [0]
    losses = np.empty(config.iterations)
    for m in range(config.iterations):
        residual = y - pred
        tree, out = _grow_tree(xb, residual, config)
        pred = pred + config.learning_rate * out
        nodes.extend(tree)
        sizes.append(len(tree))
        losses[m] = float(np.mean((y - pred) ** 2))
    columns = [np.array(c, dtype=d) for c, d in zip(
        list(zip(*nodes)) or [()] * 5, (np.int32,) * 4 + (np.float64,))]
    return Forest(config, b0, mapper, *columns,
                  np.cumsum(sizes).astype(np.int64), losses)

