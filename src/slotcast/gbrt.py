"""Histogram-based gradient-boosted regression trees (squared-error loss).

Trees are grown best-first over quantile-binned features with a
variance-reduction split criterion. Nothing is random: the same rows and
config give the same forest, bit for bit; a fitted Forest is immutable.
"""
from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .config import Section, from_dict, setting, to_dict
from .errors import (CorruptBundle, DimensionMismatch, Diverged,
                     NonFiniteTarget, TooFewSamples)

_BINS = 256  # widest histogram a feature can have (value bins + missing bin)
_STEPS = (128, 64, 32, 16, 8, 4, 2, 1)  # binary search steps over _BINS slots
_BIN_BLOCK = 512  # rows BinMapper.transform bins at once
_NARROW = 16  # widest feature that HistLayout keeps in its narrow block
MAX_ITERATIONS = 10**6  # boosting rounds; fit allocates one loss slot each
MAX_LEAVES = 64  # leaves per tree: Forest numbers them as bits of a uint64
_ALL = np.uint64(2**64 - 1)  # a word with every leaf bit set
_LOG_MAX = float(np.log(np.finfo(np.float64).max))  # about 709.78


@dataclass
class GBRTConfig(Section):
    """Bins must fit the uint8 bin matrix and its histograms (max_bins <=
    256), a leaf needs a row and a tree room for one split but at most
    MAX_LEAVES leaves (Forest numbers them as the bits of one word), and
    iterations stay below MAX_ITERATIONS (fit allocates its loss curve up
    front).

    The defaults are scikit-learn's HistGradientBoostingRegressor defaults
    (max_iter=100, learning_rate=0.1, max_leaf_nodes=31,
    min_samples_leaf=20, max_bins=255), the estimator the paper names."""
    prefix = "gbrt"
    learning_rate: float = setting(0.1, gt=0)
    iterations: int = setting(100, ge=0, le=MAX_ITERATIONS)
    max_leaves: int = setting(31, ge=2, le=MAX_LEAVES)
    min_samples_leaf: int = setting(20, ge=1)
    max_bins: int = setting(255, ge=2, le=_BINS)


class BinMapper:
    """Quantile binning with a reserved per-feature missing-value bin.

    The edges are held flat, as the bundle stores them: feature f's
    non-decreasing edges, at most _BINS - 2, are edge_values[edge_offsets[f]:
    edge_offsets[f + 1]], the offsets of any integer type. One scatter puts
    them in a (features x _BINS) float64 search table, row f holding
    feature f's edges, then +inf padding: F x 256 x 8 bytes, 143 KB at 70
    features. A value's bin is the count of its feature's edges <= it,
    found by a branchless binary search of fixed steps over the padded row
    (Khuong & Morin, "Array Layouts for Comparison-Based Searching", ACM
    JEA 2017)."""

    def __init__(self, edge_values: np.ndarray, edge_offsets: np.ndarray):
        self.edge_values, self.edge_offsets = edge_values, edge_offsets
        start = edge_offsets.astype(np.intp)  # uint64 + intp is a float64
        counts = np.diff(start)
        self.n_features = counts.size
        self._missing = (counts + 1).astype(np.uint8)
        self._base = np.arange(counts.size, dtype=np.intp) * _BINS
        table = np.full(counts.size * _BINS, np.inf)  # edge i of feature f
        table[np.arange(edge_values.size)  # at slot f * _BINS + i - start[f]
              + np.repeat(self._base - start[:-1], counts)] = edge_values
        # step s probes table[pos + s - 1]; a view shifted by s - 1 makes
        # that view[pos]. The steps sum to _BINS - 1, so a search never
        # leaves its feature's row.
        self._steps = [(table[s - 1:], s) for s in _STEPS]

    @classmethod
    def fit(cls, x: np.ndarray, max_bins: int = 255) -> "BinMapper":
        """Edges from every finite value of each column of x: one bin per
        distinct value where a column has fewer than max_bins of them, else
        at most max_bins - 1 bins split at quantiles. The bin after a
        feature's value bins is its missing bin."""
        max_value_bins = max_bins - 1  # keep uint8 room for the missing bin
        edges: List[np.ndarray] = []
        for f in range(x.shape[1]):
            col = x[:, f]
            col = col[np.isfinite(col)]
            if col.size == 0:
                edges.append(np.empty(0))
                continue
            distinct = np.unique(col)
            with np.errstate(over="ignore", invalid="ignore"):
                if distinct.size <= max_value_bins:
                    # one edge e with a < e <= b between neighbours a < b,
                    # so distinct values never share a bin: the midpoint,
                    # or b where the midpoint rounds to a or overflows
                    a, b = distinct[:-1], distinct[1:]
                    mid = (a + b) / 2.0
                    e = np.where((a < mid) & (mid <= b), mid, b)
                else:
                    ps = np.linspace(0, 100, max_value_bins + 1)[1:-1]
                    qs = np.percentile(col, ps)
                    # interpolating across a gap wider than the largest
                    # double gives +-inf or NaN: take the nearest sample at
                    # or above the quantile instead
                    odd = ~np.isfinite(qs)
                    qs[odd] = np.percentile(col, ps[odd], method="higher")
                    e = np.unique(qs)
            edges.append(e)
        return cls(np.concatenate([np.empty(0)] + edges),
                   np.cumsum([0] + [e.size for e in edges], dtype=np.int64))

    def transform(self, x: np.ndarray) -> np.ndarray:
        """Bins of x as uint8, one block of rows at a time, in one code path
        for one row and a batch. Every value of a block walks the same
        _STEPS: pos starts at its feature's row and moves up by s where the
        table entry s - 1 past it is <= the value, which ends on the count
        of edges <= the value (searchsorted's side="right"). Non-finite
        values then take their feature's missing bin."""
        if x.shape[1] != self.n_features:
            raise DimensionMismatch(
                f"expected {self.n_features} features, got {x.shape[1]}")
        out = np.empty(x.shape, dtype=np.uint8)
        for start in range(0, x.shape[0], _BIN_BLOCK):
            rows = slice(start, start + _BIN_BLOCK)
            block = x[rows]
            pos = self._base  # takes the block's shape at the first step
            for view, s in self._steps:
                pos = pos + (view[pos] <= block) * s
            np.subtract(pos, self._base, out=out[rows], casting="unsafe")
        return np.where(np.isfinite(x), out, self._missing)


class HistLayout:
    """Where each feature's bins sit in one flat histogram, laid out once per
    fit from the edge offsets. Feature f has len(edges) + 2 bins: its value
    bins, then its missing bin. Features of at most _NARROW bins (binary and
    small categorical columns) form a narrow block and all others a wide
    block, each (members x width) bins, width being the block's widest
    member; the padding bins stay empty, so no split lands in them.

    Within a block the members go in pairs, and a pair shares each bin
    position as the real and imaginary lanes of one complex128: feature f's
    bin b is slot offsets[f] + 2 * b. One complex running sum then adds two
    features' bins per step, each lane in its own bin order, so the sums are
    those of a per-feature cumsum, bit for bit. A block of an odd member
    count gets one phantom member, its slots empty and ranked above every
    feature's.

    Two blocks keep a split search's cost a function of the feature count.
    A text-SVD column gets about 233 bins where it holds at most 254
    distinct values (one bin per value) but about 72 where it holds more
    (quantile bins merge on repeated values); with blocks sized to each
    feature's own bins, training took a quarter longer on the first kind
    of data set than on the second, at the same shape."""

    def __init__(self, edge_offsets: np.ndarray):
        widths = np.diff(edge_offsets).astype(np.int64) + 2
        self.offsets = np.empty(widths.size, dtype=np.int64)  # of each bin 0
        # (start, stop, (pairs, width)) of each block, in complex slots
        self.blocks: List[Tuple[int, int, Tuple[int, int]]] = []
        ranks = [np.empty(0, dtype=np.int64)]
        start = 0
        for members in (np.flatnonzero(widths <= _NARROW),
                        np.flatnonzero(widths > _NARROW)):
            if not members.size:
                continue
            width, pairs = int(widths[members].max()), (members.size + 1) // 2
            lane = np.arange(members.size)
            self.offsets[members] = start + lane // 2 * 2 * width + lane % 2
            # the phantom, if any, is feature n_features + block number
            paired = np.append(members, widths.size + len(self.blocks))
            ranks.append((paired[:2 * pairs].reshape(pairs, 1, 2) * _BINS
                          + np.arange(width)[:, None]).ravel())
            stop = start + 2 * pairs * width
            self.blocks.append((start // 2, stop // 2, (pairs, width)))
            start = stop
        # feature * _BINS + bin of every slot: orders slots feature-major
        self.rank = np.concatenate(ranks)
        self.size = start

    def cumsum(self, hist: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Running sums of hist along each feature's bins, into out: one
        accumulate per block over its (pairs x width) complex view."""
        h, o = hist.view(np.complex128), out.view(np.complex128)
        for start, stop, shape in self.blocks:
            np.add.accumulate(h[start:stop].reshape(shape), axis=1,
                              out=o[start:stop].reshape(shape))
        return out


class Slots:
    """Split search's arrays, made once per fit: index, each row's histogram
    slot per feature (2 * bin + layout offset); scratch to gather a node's
    slots and gradients into and to compute gains in; and the root's counts
    and their running sums, the same for every tree."""

    def __init__(self, xb: np.ndarray, layout: HistLayout):
        self.layout = layout
        self.index = np.multiply(xb, 2, dtype=np.intp)
        self.index += layout.offsets
        self.gathered = np.empty_like(self.index)
        self.weights = np.empty(self.index.shape)
        self.gain = np.empty((3, layout.size))
        self.root_counts = np.bincount(
            self.index.ravel(), minlength=layout.size).astype(np.float64)
        self.root_cumulative = layout.cumsum(self.root_counts,
                                             np.empty(layout.size))


def histograms(slots: Slots, idx: np.ndarray,
               g: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Gradient sums and row counts of the rows idx (distinct, ascending)
    per feature bin, as two 1-D arrays in the layout's flat order. The
    root, every row, reads the slot matrix as it is and returns the fit's
    root counts, which callers must not write; other nodes gather into the
    fit's scratch."""
    size, k = slots.layout.size, idx.size
    w = slots.weights[:k]
    np.copyto(w, g[idx, None])
    if k == len(slots.index):
        return (np.bincount(slots.index.ravel(), weights=w.ravel(),
                            minlength=size), slots.root_counts)
    # clip skips the buffered copy that take's default mode makes for out=
    flat = np.take(slots.index, idx, axis=0, out=slots.gathered[:k],
                   mode="clip").ravel()
    return (np.bincount(flat, weights=w.ravel(), minlength=size),
            np.bincount(flat, minlength=size).astype(np.float64))


def _children(slots: Slots, g: np.ndarray, small_idx: np.ndarray,
              hist: np.ndarray, left_c: np.ndarray) -> Tuple[tuple, tuple]:
    """(gradient histogram, running counts) of the smaller child (rows
    small_idx) and of its sibling, from the parent's. Counts are whole
    numbers, so the sibling's running counts are exactly the parent's less
    the smaller child's; gradient sums round, so only their histograms
    subtract, and the sibling's search sums parent - small."""
    small_hist, counts = histograms(slots, small_idx, g)
    small_c = slots.layout.cumsum(counts, counts)
    return (small_hist, small_c), (hist - small_hist, left_c - small_c)


def _best_split(hist: np.ndarray, left_c: np.ndarray, sum_g: float,
                cnt: float, min_leaf: int,
                slots: Slots) -> Optional[Tuple[float, int, int]]:
    """Maximize variance-reduction gain over every (feature, bin) split, the
    bin going left; ties break on lowest feature then lowest bin, from the
    node's gradient histogram and running counts, both in the layout's
    paired slots. The gain is computed in scratch at every slot, padding
    and phantom lanes too, so the cost does not depend on how many splits
    are valid; empty bins divide by zero under the caller's np.errstate."""
    gain, right_g, right_c = slots.gain
    slots.layout.cumsum(hist, gain)  # the left gradient sums
    np.subtract(sum_g, gain, out=right_g)
    np.subtract(cnt, left_c, out=right_c)
    np.divide(np.square(gain, out=gain), left_c, out=gain)
    gain += np.divide(np.square(right_g, out=right_g), right_c, out=right_g)
    gain -= sum_g ** 2 / cnt
    # a feature's last bin and its padding put every row left, a phantom
    # lane none: never valid
    np.copyto(gain, -np.inf,
              where=np.minimum(left_c, right_c, out=right_c) < min_leaf)
    best = gain.max(initial=-np.inf)  # NaN if any valid gain is NaN
    if not np.isfinite(best) or best <= 1e-12:
        return None
    f, b = divmod(int(slots.layout.rank[gain == best].min()), _BINS)
    return float(best), f, b


def _grow_tree(xb: np.ndarray, g: np.ndarray, config: GBRTConfig,
               slots: Slots) -> Tuple[List[list], np.ndarray]:
    """Grow one tree on residuals g; returns its nodes as [feature,
    threshold, left, right, value] rows, children after their parent, and
    its per-row output. Only a node that may still be split gets a
    histogram and a split search: it needs 2 * min_samples_leaf rows and
    a leaf budget that outlasts its parent's split; the root's search takes
    the fit's root counts, and a split bins only its smaller child. A
    leaf's value is its rows' mean residual: fit's root holds at least
    2 * min_samples_leaf rows and each child at least min_samples_leaf >= 1.
    The caller sets np.errstate for the searches' divisions."""
    n = xb.shape[0]
    min_leaf = config.min_samples_leaf
    nodes: List[list] = [[-1, 0, -1, -1, 0.0]]
    out = np.empty(n)
    tick = itertools.count()  # heap tiebreak: first pushed pops first
    # heap entries: (-gain, tiebreak, node id, split, (gradient histogram,
    # running counts), gradient sum)
    heap: List[tuple] = []

    def push(nid: int, state: tuple, s: float, c: float) -> None:
        split = _best_split(*state, s, c, min_leaf, slots)
        if split is not None:
            heapq.heappush(heap, (-split[0], next(tick), nid, split, state, s))

    root_idx = np.arange(n)
    sum_g, cnt = float(g[root_idx].sum()), float(n)
    leaves: Dict[int, np.ndarray] = {0: root_idx}  # unsplit node -> its rows
    if n >= 2 * min_leaf:
        push(0, (histograms(slots, root_idx, g)[0], slots.root_cumulative),
             sum_g, cnt)
    n_leaves = 1
    while heap and n_leaves < config.max_leaves:
        _, _, nid, (_, f, b), state, sg = heapq.heappop(heap)
        idx = leaves.pop(nid)
        go_left = xb[idx, f] <= b
        li, ri = idx[go_left], idx[~go_left]
        states = [None, None]
        if (n_leaves + 1 < config.max_leaves
                and max(li.size, ri.size) >= 2 * min_leaf):
            small = int(li.size > ri.size)
            states[small], states[1 - small] = _children(
                slots, g, (li, ri)[small], *state)
        left_sum = g[li].sum()
        nodes[nid][:4] = [f, b, len(nodes), len(nodes) + 1]
        for child_idx, cstate, csg in ((li, states[0], float(left_sum)),
                                       (ri, states[1], float(sg - left_sum))):
            cid, c = len(nodes), float(child_idx.size)
            nodes.append([-1, 0, -1, -1, csg / c])
            leaves[cid] = child_idx
            if cstate is not None and c >= 2 * min_leaf:
                push(cid, cstate, csg, c)
        n_leaves += 1

    if len(nodes) == 1:  # root stayed a leaf
        nodes[0][4] = sum_g / cnt
    for nid, idx in leaves.items():
        out[idx] = nodes[nid][4]
    return nodes, out


def _feature_dtype(n_features: int) -> type:
    """The narrowest signed integer type of feature ids 0..n_features - 1
    and the leaf marker -1."""
    return np.int16 if n_features <= 2 ** 15 else np.int32


def _tested_edges(edge_values: np.ndarray, edge_offsets: np.ndarray,
                  feature: np.ndarray, threshold: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The edges some internal node tests, flat as BinMapper holds them, and
    each node's threshold renumbered into them as uint8. A bin is the count
    of edges <= x, so bin <= t holds exactly when x < edges[t]: node (f, t)
    tests flat edge edge_offsets[f] + t, unless t = len(edges), the last
    value bin, which sends every finite value left and tests none. One
    running count of the tested edges renumbers the thresholds and offsets;
    t = len(edges) becomes the new edge count."""
    inner = feature >= 0
    f = feature[inner].astype(np.intp)  # an int16 f + 1 overflows at 2**15
    start = edge_offsets[f]
    at = start + threshold[inner]
    tested = np.zeros(edge_values.size, dtype=bool)
    tested[at[at < edge_offsets[f + 1]]] = True
    below = np.concatenate(([0], np.cumsum(tested, dtype=np.int64)))
    renumbered = np.zeros(threshold.size, dtype=np.uint8)
    renumbered[inner] = below[at] - below[start]
    return renumbered, edge_values[tested], below[edge_offsets]


_ARRAYS = ("node_feature", "node_threshold", "node_left", "node_right",
           "node_value", "tree_offsets", "train_losses", "edge_values",
           "edge_offsets")


def _number_leaves(offsets: np.ndarray, inner: np.ndarray,
                   node_left: np.ndarray, node_right: np.ndarray
                   ) -> Tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Number each tree's leaves left to right, in three passes over the
    levels of all trees at once. Returns the depth of the deepest leaf, the
    leaves of each tree, each node's leftmost leaf number, and the leaves
    under each internal node's left child (internal nodes in id order).
    Raises CorruptBundle unless the children make each tree a tree of at
    most MAX_LEAVES leaves."""
    sizes = np.diff(offsets)
    roots = offsets[:-1].astype(np.intp)
    base = np.repeat(roots, sizes)
    n = base.size
    if np.any(inner & ((np.minimum(node_left, node_right) < 0)
                       | (np.maximum(node_left, node_right)
                          >= np.repeat(sizes, sizes)))):
        raise CorruptBundle("forest: child outside its tree")
    # intp first: a uint64 id plus an intp base would be a float64
    left = node_left.astype(np.intp) + base
    right = node_right.astype(np.intp) + base
    # top down: every node must be reached exactly once from its tree's
    # root, which rules out cycles, shared children and unreachable nodes;
    # visits past n stop a runaway frontier
    levels: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    seen = np.zeros(n, dtype=bool)
    level, visits = roots, 0
    while level.size and visits <= n:
        visits += level.size
        seen[level] = True
        level = level[inner[level]]
        if level.size:  # (internal nodes, left children, right children)
            levels.append((level, left[level], right[level]))
            level = np.concatenate(levels[-1][1:])
    if visits != n or not seen.all():
        raise CorruptBundle("forest: node arrays are not trees")
    # bottom up: leaves per subtree
    count = (~inner).astype(np.intp)
    for nodes, lc, rc in reversed(levels):
        count[nodes] = count[lc] + count[rc]
    leaves = count[roots]
    if np.any(leaves > MAX_LEAVES):
        raise CorruptBundle(
            f"forest: a tree has more than {MAX_LEAVES} leaves")
    # top down again: each subtree's leftmost leaf number
    first = np.zeros(n, dtype=np.intp)
    for nodes, lc, rc in levels:
        first[lc] = first[nodes]
        first[rc] = first[nodes] + count[lc]
    return len(levels), leaves, first, count[left[inner]]


@dataclass
class Forest:
    """Fitted ensemble held in exactly the arrays the bundle stores: tree t
    owns nodes tree_offsets[t]:tree_offsets[t + 1], root first, child ids
    local to the tree (fit makes them larger than their parent's); feature
    f's edges, only those some node tests, are edge_values[edge_offsets[f]:
    edge_offsets[f + 1]]. fit stores integers in the narrowest types that
    hold them; loading keeps the types it reads. __post_init__ derives the
    bin mapper of the edges and one scoring column per internal node (its
    feature, threshold and leaf mask) behind one sentinel column per tree."""
    config: GBRTConfig
    b0: float
    node_feature: np.ndarray    # int16 (int32 past 2**15 features), -1 at leaves
    node_threshold: np.ndarray  # uint8 bin index, go left when bin <= threshold
    node_left: np.ndarray       # int8 local child ids, -1 at leaves
    node_right: np.ndarray
    node_value: np.ndarray      # float64 leaf contributions (log-space)
    tree_offsets: np.ndarray    # int64, n_trees + 1 entries
    train_losses: np.ndarray    # float64, the training loss after each round
    edge_values: np.ndarray     # float64, the tested edges feature by feature
    edge_offsets: np.ndarray    # int64, n_features + 1 entries

    def __post_init__(self) -> None:
        self.bin_mapper = BinMapper(self.edge_values, self.edge_offsets)
        self.n_features = self.bin_mapper.n_features
        # QuickScorer leaf masks (Lucchese et al., SIGIR 2015). Each tree
        # numbers its leaves left to right, bit i of a uint64 standing for
        # leaf i. An internal node's mask has its left subtree's leaves
        # cleared: a row that fails the node's test cannot exit there. The
        # AND of a tree's masks over its failed tests keeps the exit leaf's
        # bit and clears every leaf left of it, so the exit leaf is the
        # lowest set bit.
        inner = self.node_feature >= 0
        self._depth, leaves, first, left_leaves = _number_leaves(
            self.tree_offsets, inner, self.node_left, self.node_right)
        ids = np.flatnonzero(inner)
        ones = (np.uint64(1) << left_leaves.astype(np.uint64)) - 1
        mask = ~(ones << first[ids].astype(np.uint64))
        # one column per internal node, tree by tree, holding its feature,
        # threshold and mask; each tree is headed by a sentinel column, so a
        # root-only tree still has a segment for reduceat. A sentinel reads
        # feature 0 (predict gives a forest of no features one zero bin) and
        # threshold 255, which every bin is <=, and its mask is all ones.
        heads = np.searchsorted(ids, self.tree_offsets[:-1])
        self._seg_start = heads + np.arange(heads.size)
        self._col_feature = np.insert(
            self.node_feature[ids].astype(np.intp), heads, 0)
        self._col_threshold = np.insert(
            self.node_threshold[ids].astype(np.uint8), heads, _BINS - 1)
        self._col_mask = np.insert(mask, heads, _ALL)
        # lr * value of each tree's leaves in leaf-number order; frexp of a
        # lowest set bit 2**i gives i + 1, hence the - 1 in _leaf_base
        self._leaf_base = np.cumsum(leaves) - leaves - 1
        leaf_ids = np.flatnonzero(~inner)
        self._leaf_value = np.empty(leaf_ids.size)
        self._leaf_value[np.repeat(self._leaf_base + 1, leaves)
                         + first[leaf_ids]] = (
            self.config.learning_rate * self.node_value[leaf_ids])
        # rows per block: a block's (columns x rows) uint64 words stay
        # within about 2**17 elements
        self._block = max(1, 2 ** 17 // max(1, self._col_feature.size))

    @property
    def n_trees(self) -> int:
        return self._seg_start.size

    def predict(self, x: np.ndarray) -> np.ndarray:
        """b0 plus the learning rate times each tree's leaf value. The rows
        are binned first, by the bin mapper's 8-step search over its padded
        edge table. Then all trees are scored at once, one block of rows at
        a time: a block gathers each column's feature bins and compares them
        with the column's threshold in one (columns x rows) matrix, ANDs
        each tree's masks of the failed tests and takes the lowest set bit
        as the exit leaf."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.n_features:
            raise DimensionMismatch(
                f"expected (n, {self.n_features}) features")
        xb = self.bin_mapper.transform(x)
        if not self.n_features:  # single-leaf trees: sentinels read a 0 bin
            xb = np.zeros((x.shape[0], 1), dtype=np.uint8)
        pred = np.full(x.shape[0], self.b0)
        for start in range(0, x.shape[0] if self.n_trees else 0, self._block):
            rows = slice(start, start + self._block)
            go = (np.take(xb[rows].T, self._col_feature, axis=0)
                  <= self._col_threshold[:, None])
            # a column's word: all ones where its test holds, else its mask
            vals = np.negative(go, dtype=np.uint64)
            np.bitwise_or(vals, self._col_mask[:, None], out=vals)
            acc = np.bitwise_and.reduceat(vals, self._seg_start, axis=0)
            # acc & -acc is the lowest set bit, exact as a float
            bit = np.frexp((acc & -acc).astype(np.float64))[1]
            terms = self._leaf_value[self._leaf_base[:, None] + bit]
            # b0 + lr * value summed in tree order, as boosting added them
            terms[0] += self.b0
            pred[rows] = np.add.accumulate(terms, axis=0)[-1]
        return pred

    # -- serialization ------------------------------------------------------

    def get_state(self) -> Tuple[dict, Dict[str, np.ndarray]]:
        meta = {"config": to_dict(self.config), "b0": self.b0}
        return meta, {k: getattr(self, k) for k in _ARRAYS}

    @classmethod
    def from_state(cls, meta: dict, arrays: Dict[str, np.ndarray]) -> "Forest":
        """Inverse of get_state; the forest keeps the arrays as read, in
        their integer types. Raises CorruptBundle unless:
        - every array is 1-D, ids, thresholds and offsets are integers, and
          the node arrays agree in length;
        - tree_offsets start at 0, rise strictly and end at the node count;
          edge_offsets start at 0, end at the edge count and give each
          feature 0 to 254 edges;
        - node features are known (-1 at leaves), and an internal node's
          threshold is one of its feature's value bins: fit never splits at
          the missing bin, which sends every row left;
        - edge_values are float64, with no NaN, and non-decreasing within
          each feature, as binning's search needs;
        - b0 is a float, b0 and the node values are finite, and no
          prediction overflows expm1 (_expm1_safe);
        - each tree has at most MAX_LEAVES leaves (building checks this)."""
        arrays = {k: arrays[k] for k in _ARRAYS}
        f, t, lft, rgt, val, off, _, ev, eo = arrays.values()
        if not (all(a.ndim == 1 for a in (f, t, lft, rgt, val, off, eo, ev))
                and all(a.dtype.kind in "iu" for a in (f, t, lft, rgt, off, eo))
                and t.size == lft.size == rgt.size == val.size == f.size
                and off.size > 0 and off[0] == 0
                and off[-1] == f.size and np.all(np.diff(off) > 0)
                and eo.size > 0 and eo[0] == 0 and eo[-1] == ev.size
                and np.all((np.diff(eo) >= 0) & (np.diff(eo) < _BINS - 1))):
            raise CorruptBundle("forest: array shapes or offsets disagree")
        # a node's highest threshold: its feature's last value bin, or 255
        # at a leaf (feature -1 reads the last entry)
        top = np.append(np.diff(eo), _BINS - 1)
        if (np.any((f < -1) | (f >= eo.size - 1))
                or np.any((t < 0) | (t > top[f]))):
            raise CorruptBundle("forest: node feature or threshold out of "
                                "range")
        # binning searches each feature's edges: a NaN or a decrease within
        # a feature would bin values wrongly without an error
        first = np.zeros(ev.size + 1, dtype=bool)
        first[eo] = True  # ev[i] is its feature's first edge
        if ev.dtype != np.float64 or np.isnan(ev).any() or np.any(
                (np.diff(ev) < 0) & ~first[1:-1]):
            raise CorruptBundle("forest: bin edges are not float64 and "
                                "non-decreasing within each feature")
        config, b0 = from_dict(GBRTConfig, meta["config"]), meta["b0"]
        peaks = np.maximum.reduceat(np.where(f < 0, np.abs(val), 0.0),
                                    off[:-1])
        if not (isinstance(b0, float) and np.isfinite(val).all()
                and _expm1_safe(b0, config.learning_rate, peaks)):
            raise CorruptBundle("forest: b0 is not a float, b0 or a node "
                                "value is not finite, or a prediction could "
                                "overflow expm1")
        return cls(config, b0, **arrays)


def _expm1_safe(b0: float, learning_rate: float, peaks: np.ndarray) -> bool:
    """|b0| plus the learning rate times the sum of each tree's largest
    |leaf value| (peaks) is below log(float max): no prediction overflows
    expm1."""
    with np.errstate(over="ignore"):  # an infinite reach fails
        return bool(abs(b0) + learning_rate * peaks.sum() < _LOG_MAX)


def fit(features: np.ndarray, targets: np.ndarray,
        config: Optional[GBRTConfig] = None) -> Forest:
    """Train a forest on log-space targets with squared-error loss."""
    config = config or GBRTConfig()
    config.validate()
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
        raise DimensionMismatch("features must be (n, d) with matching targets")
    if not np.all(np.isfinite(y)):
        raise NonFiniteTarget("targets contain NaN or Inf")
    if x.shape[0] < 2 * config.min_samples_leaf:
        raise TooFewSamples(
            f"need >= {2 * config.min_samples_leaf} rows, got {x.shape[0]}")

    lr = config.learning_rate
    with np.errstate(over="ignore"):  # an infinite mean or loss fails
        b0 = float(y.mean())
        loss = float(np.mean((y - b0) ** 2))
    # the bound before round 1, where only the targets can break it
    if not (np.isfinite(loss) and _expm1_safe(b0, lr, np.empty(0))):
        raise Diverged(f"targets out of range: a prediction of their mean "
                       f"{b0!r} could overflow expm1, or the training loss "
                       "before round 1 is not finite")

    mapper = BinMapper.fit(x, max_bins=config.max_bins)
    xb = mapper.transform(x)
    slots = Slots(xb, HistLayout(mapper.edge_offsets))
    pred = np.full(y.shape, b0)
    nodes: List[list] = []
    sizes = [0]
    losses = np.empty(config.iterations)
    peaks = np.empty(config.iterations)  # each tree's largest |leaf value|
    for m in range(config.iterations):
        residual = y - pred
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            tree, out = _grow_tree(xb, residual, config, slots)
            pred = pred + lr * out
            losses[m] = float(np.mean((y - pred) ** 2))
        nodes.extend(tree)
        sizes.append(len(tree))
        # out holds exactly the leaf values, as every leaf holds a row; the
        # last round's check is the one Forest.from_state makes
        peaks[m] = np.abs(out).max()
        if not (np.isfinite(losses[m]) and _expm1_safe(b0, lr, peaks[:m + 1])):
            raise Diverged(f"{config.prefix}.learning_rate = {lr!r} diverges: "
                           f"after round {m + 1} the training loss is not "
                           "finite or a prediction could overflow expm1")
    feature, threshold, left, right, value = (
        np.array(c, dtype=d) for c, d in zip(
            list(zip(*nodes)) or [()] * 5,
            (_feature_dtype(x.shape[1]), np.intp, np.int8, np.int8,
             np.float64)))
    threshold, *edges = _tested_edges(mapper.edge_values, mapper.edge_offsets,
                                      feature, threshold)
    return Forest(config, b0, feature, threshold, left, right, value,
                  np.cumsum(sizes).astype(np.int64), losses, *edges)

