"""Independent reference implementations used only by tests.

These deliberately take a different code path from the library (regex and
character scanning instead of token-stream rules; nested loops instead of
vectorized math) so they can serve as oracles.
"""
import bisect
import heapq
import itertools
import math
import re

import numpy as np


def naive_operator_counts(cleaned_text: str) -> dict:
    """Recount operators from the normalized text with regexes."""
    t = cleaned_text
    c = {}
    c["cross_join"] = len(re.findall(r"\bCROSS JOIN\b", t))
    c["join"] = len(re.findall(r"\bJOIN\b", t)) - c["cross_join"]
    c["group_by"] = len(re.findall(r"\bGROUP BY\b", t))
    c["order_by"] = len(re.findall(r"\bORDER BY\b", t))
    c["distinct"] = len(re.findall(r"\bDISTINCT\b", t))
    c["having"] = len(re.findall(r"\bHAVING\b", t))
    c["merge"] = len(re.findall(r"\bMERGE\b", t))
    c["update"] = len(re.findall(r"\bUPDATE\b", t))
    c["insert"] = len(re.findall(r"\bINSERT\b", t))
    c["unnest"] = len(re.findall(r"\bUNNEST\b", t))
    c["array_struct"] = len(re.findall(r"\bARRAY\b|\bSTRUCT\b", t))
    c["window"] = len(re.findall(r"\bOVER \(", t))
    c["regex_function"] = len(re.findall(r"\bREGEXP_\w+", t))
    c["subselect"] = len(re.findall(r"\( SELECT\b", t))
    udf_spans = [m for m in re.finditer(
        r"\bCREATE (?:TEMP |TEMPORARY )?FUNCTION\b", t)]
    js = 0
    for m in udf_spans:
        tail = t[m.end():]
        stop = len(tail)
        for boundary in (" ; ", " CREATE "):
            idx = tail.find(boundary)
            if idx >= 0:
                stop = min(stop, idx)
        if re.search(r"\bLANGUAGE JS\b", tail[:stop]):
            js += 1
    c["js_udf"] = js
    c["sql_udf"] = len(udf_spans) - js
    c["with_cte"] = _naive_cte_bindings(t)
    return c


def _naive_cte_bindings(t: str) -> int:
    """Character-level scan for comma-separated CTE bindings."""
    words = t.split(" ")
    total = 0
    i = 0
    while i < len(words):
        if words[i] != "WITH":
            i += 1
            continue
        j = i + 1
        if j < len(words) and words[j] == "RECURSIVE":
            j += 1
        while True:
            if (j + 2 < len(words) and re.fullmatch(r"[A-Z_][A-Z0-9_]*", words[j])
                    and words[j + 1] == "AS" and words[j + 2] == "("):
                total += 1
                depth = 0
                k = j + 2
                while k < len(words):
                    if words[k] == "(":
                        depth += 1
                    elif words[k] == ")":
                        depth -= 1
                        if depth == 0:
                            break
                    k += 1
                k += 1
                if k < len(words) and words[k] == ",":
                    j = k + 1
                    continue
            break
        i += 1
    return total


def naive_tfidf(docs, min_df, max_vocab):
    """Nested-loop TF-IDF. Each doc is a list of token strings.

    Returns (ordered term list, list of {term: weight} per doc).
    """
    def terms_of(doc):
        out = list(doc)
        for a, b in zip(doc, doc[1:]):
            out.append(a + " " + b)
        return out

    df = {}
    for doc in docs:
        for term in set(terms_of(doc)):
            df[term] = df.get(term, 0) + 1
    kept = [t for t in df if df[t] >= min_df]
    kept.sort(key=lambda t: (-df[t], t))
    kept = sorted(kept[:max_vocab])
    n = len(docs)
    idf = {t: math.log((1 + n) / (1 + df[t])) + 1.0 for t in kept}
    rows = []
    for doc in docs:
        counts = {}
        for term in terms_of(doc):
            if term in idf:
                counts[term] = counts.get(term, 0) + 1
        weights = {t: counts[t] * idf[t] for t in counts}
        norm = math.sqrt(sum(w * w for w in weights.values()))
        if norm > 0:
            weights = {t: w / norm for t, w in weights.items()}
        rows.append(weights)
    return kept, rows


def naive_metrics(actual, predicted):
    """Loop-based MAE/RMSE/EV/variance-ratio (population variance)."""
    n = len(actual)
    mae = sum(abs(a - p) for a, p in zip(actual, predicted)) / n
    rmse = math.sqrt(sum((a - p) ** 2 for a, p in zip(actual, predicted)) / n)
    mean_a = sum(actual) / n
    var_a = sum((a - mean_a) ** 2 for a in actual) / n
    if var_a == 0:
        return mae, rmse, None, None
    res = [a - p for a, p in zip(actual, predicted)]
    mean_r = sum(res) / n
    var_r = sum((r - mean_r) ** 2 for r in res) / n
    mean_p = sum(predicted) / n
    var_p = sum((p - mean_p) ** 2 for p in predicted) / n
    return mae, rmse, 1 - var_r / var_a, var_p / var_a


def flat_edges(edges):
    """Per-feature edge lists as gbrt holds them: (edge_values, int64
    edge_offsets)."""
    return (np.concatenate([np.empty(0)] + [np.asarray(e) for e in edges]),
            np.cumsum([0] + [len(e) for e in edges], dtype=np.int64))


def feature_edges(holder):
    """Each feature's edges as views of the flat edge_values of a gbrt
    BinMapper or Forest (or anything holding edge_values and
    edge_offsets)."""
    offsets = holder.edge_offsets.tolist()
    return [holder.edge_values[a:b] for a, b in zip(offsets, offsets[1:])]


def naive_tested_edges(edges, feature, threshold):
    """gbrt._tested_edges as first defined, per feature: a (features x 256)
    mask of the tested (feature, threshold) pairs, each feature's edges
    where its mask is set, and each node's threshold renumbered as uint8 to
    the count of set entries of its feature's mask row below it."""
    inner = feature >= 0
    key = feature[inner].astype(np.intp) * 256 + threshold[inner]
    tested = np.zeros((len(edges), 256), dtype=bool)
    tested.flat[key] = True
    below = np.cumsum(tested, axis=1, dtype=np.uint8) - tested
    renumbered = np.zeros(threshold.size, dtype=np.uint8)
    renumbered[inner] = below.flat[key]
    return [e[tested[f, :len(e)]] for f, e in enumerate(edges)], renumbered


def naive_bin_row(edges, row):
    """Bin one row with bisect over per-feature edge lists; a non-finite
    value takes its feature's missing bin, len(e) + 1 for edge list e."""
    return [bisect.bisect_right(e, v) if math.isfinite(v) else len(e) + 1
            for e, v in zip(edges, row)]


def naive_forest_predict(forest, x):
    """Per-row, per-tree walk over a Forest's node arrays.

    Bins each value with bisect (non-finite values take the feature's
    missing bin), follows one root-to-leaf path per tree, and adds
    b0 + learning_rate * leaf value in tree order with Python floats.
    """
    edges = [e.tolist() for e in feature_edges(forest)]
    feature = forest.node_feature.tolist()
    threshold = forest.node_threshold.tolist()
    left = forest.node_left.tolist()
    right = forest.node_right.tolist()
    value = forest.node_value.tolist()
    starts = forest.tree_offsets[:-1].tolist()
    lr = forest.config.learning_rate
    out = []
    for row in x.tolist():
        bins = naive_bin_row(edges, row)
        pred = forest.b0
        for start in starts:
            node = start
            while feature[node] >= 0:
                if bins[feature[node]] <= threshold[node]:
                    node = start + left[node]
                else:
                    node = start + right[node]
            pred = pred + lr * value[node]
        out.append(pred)
    return out


# ---------------------------------------------------------------------------
# Tree growing as it was before the split-search guard and the per-feature
# histogram widths: every histogram 256 bins wide, every child searched
# ---------------------------------------------------------------------------

_BINS = 256


def _naive_histograms(xb, idx, g):
    n_feat = xb.shape[1]
    flat = xb[idx].astype(np.int64) + np.arange(n_feat, dtype=np.int64) * _BINS
    flat = flat.ravel()
    w = np.broadcast_to(g[idx][:, None], (idx.size, n_feat)).ravel()
    g_hist = np.bincount(flat, weights=w, minlength=n_feat * _BINS)
    c_hist = np.bincount(flat, minlength=n_feat * _BINS)
    return (g_hist.reshape(n_feat, _BINS),
            c_hist.reshape(n_feat, _BINS).astype(np.float64))


def _naive_best_split(g_hist, c_hist, sum_g, cnt, min_leaf):
    left_g = np.cumsum(g_hist, axis=1)[:, :-1]
    left_c = np.cumsum(c_hist, axis=1)[:, :-1]
    right_g = sum_g - left_g
    right_c = cnt - left_c
    valid = (left_c >= min_leaf) & (right_c >= min_leaf)
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = left_g ** 2 / left_c + right_g ** 2 / right_c - sum_g ** 2 / cnt
    gain = np.where(valid, gain, -np.inf)
    best = int(np.argmax(gain))
    f, b = divmod(best, gain.shape[1])
    if not np.isfinite(gain[f, b]) or gain[f, b] <= 1e-12:
        return None
    return float(gain[f, b]), f, b


def _naive_grow_tree(xb, g, config):
    n = xb.shape[0]
    nodes = [[-1, 0, -1, -1, 0.0]]
    out = np.empty(n)

    root_idx = np.arange(n)
    g_hist, c_hist = _naive_histograms(xb, root_idx, g)
    sum_g, cnt = float(g[root_idx].sum()), float(n)

    tick = itertools.count()
    heap = []
    split = _naive_best_split(g_hist, c_hist, sum_g, cnt,
                              config.min_samples_leaf)
    state = {0: (root_idx, g_hist, c_hist, sum_g, cnt)}
    if split is not None:
        heapq.heappush(heap, (-split[0], next(tick), 0, split))
    n_leaves = 1
    while heap and n_leaves < config.max_leaves:
        _, _, nid, (gain, f, b) = heapq.heappop(heap)
        idx, gh, ch, sg, c = state.pop(nid)
        go_left = xb[idx, f] <= b
        li, ri = idx[go_left], idx[~go_left]
        if li.size <= ri.size:
            lgh, lch = _naive_histograms(xb, li, g)
            rgh, rch = gh - lgh, ch - lch
        else:
            rgh, rch = _naive_histograms(xb, ri, g)
            lgh, lch = gh - rgh, ch - rch
        lsg, rsg = float(g[li].sum()), float(sg - g[li].sum())
        nodes[nid][:4] = [f, b, len(nodes), len(nodes) + 1]
        for child_idx, cgh, cch, csg in ((li, lgh, lch, lsg),
                                         (ri, rgh, rch, rsg)):
            cid = len(nodes)
            nodes.append([-1, 0, -1, -1, csg / float(child_idx.size)])
            state[cid] = (child_idx, cgh, cch, csg, float(child_idx.size))
            csplit = _naive_best_split(cgh, cch, csg, float(child_idx.size),
                                       config.min_samples_leaf)
            if csplit is not None:
                heapq.heappush(heap, (-csplit[0], next(tick), cid, csplit))
        n_leaves += 1

    if len(nodes) == 1:
        nodes[0][4] = sum_g / cnt
    for nid, (idx, _, _, _, _) in state.items():
        out[idx] = nodes[nid][4]
    return nodes, out


def naive_fit(features, targets, config):
    """gbrt.fit's result grown the unguarded, 256-bins-wide way.

    Returns (b0, node arrays as gbrt.Forest names them, train_losses); the
    binning is gbrt.BinMapper's, which this oracle does not test.
    """
    from slotcast.gbrt import BinMapper

    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    mapper = BinMapper.fit(x, max_bins=config.max_bins)
    xb = mapper.transform(x)
    b0 = float(y.mean())
    pred = np.full(y.shape, b0)
    nodes, sizes = [], [0]
    losses = np.empty(config.iterations)
    for m in range(config.iterations):
        tree, out = _naive_grow_tree(xb, y - pred, config)
        pred = pred + config.learning_rate * out
        nodes.extend(tree)
        sizes.append(len(tree))
        losses[m] = float(np.mean((y - pred) ** 2))
    columns = [np.array(c, dtype=d) for c, d in zip(
        list(zip(*nodes)) or [()] * 5, (np.int32,) * 4 + (np.float64,))]
    names = ("node_feature", "node_threshold", "node_left", "node_right",
             "node_value")
    arrays = dict(zip(names, columns))
    arrays["tree_offsets"] = np.cumsum(sizes).astype(np.int64)
    return b0, arrays, losses


# ---------------------------------------------------------------------------
# Randomized truncated SVD (Halko, Martinsson & Tropp, SIAM Review 2011), as
# slotcast fit the text basis before it took the exact Gram
# eigendecomposition. Where the sketch spans the whole matrix it gives the
# same basis to rounding.
# ---------------------------------------------------------------------------

def randomized_fit_svd(tfidf_rows, k: int, seed: int = 0,
                       oversample: int = 10, power_iters: int = 4):
    """Seeded randomized truncated SVD of a sparse matrix.

    Components with numerically zero singular values are dropped, so the
    returned rank never exceeds the input's effective rank.
    """
    import scipy.sparse as sp
    from slotcast.errors import DegenerateInput
    from slotcast.featurizer import SvdBasis
    a = sp.csr_matrix(tfidf_rows, dtype=np.float64)
    n, v = a.shape
    if n < 2:
        raise DegenerateInput("SVD needs at least 2 rows")
    k_eff = max(1, min(k, n, v))
    p = min(k_eff + oversample, min(n, v))
    rng = np.random.default_rng(seed)
    omega = rng.standard_normal((v, p))
    y = a @ omega
    for _ in range(power_iters):
        y, _ = np.linalg.qr(a @ (a.T @ y))
    q, _ = np.linalg.qr(y)
    b = np.asarray(q.T @ a)
    _, s, vt = np.linalg.svd(b, full_matrices=False)
    k_eff = min(k_eff, s.shape[0])
    s = s[:k_eff]
    vt = vt[:k_eff]
    # drop numerically-zero directions (keeps singular values positive)
    tol = (s[0] if s.size else 0.0) * 1e-10
    keep = s > tol
    s, vt = s[keep], vt[keep]
    # deterministic sign: largest-magnitude entry of each component positive
    for i in range(vt.shape[0]):
        j = int(np.argmax(np.abs(vt[i])))
        if vt[i, j] < 0:
            vt[i] = -vt[i]
    return SvdBasis(components=np.ascontiguousarray(vt),
                    singular_values=np.ascontiguousarray(s))


# ---------------------------------------------------------------------------
# The exact text SVD with scipy's sparse products, as slotcast computed it
# before it formed the Gram matrix with numpy alone. On canonical rows the
# library's basis must be the same bytes.
# ---------------------------------------------------------------------------

def scipy_fit_svd(tfidf_rows, k: int):
    """Exact truncated SVD from scipy's AᵀA or AAᵀ and its Aᵀu."""
    import scipy.sparse as sp
    from slotcast.errors import DegenerateInput
    from slotcast.featurizer import SvdBasis
    a = sp.csr_matrix(tfidf_rows, dtype=np.float64)
    n, v = a.shape
    if n < 2:
        raise DegenerateInput("SVD needs at least 2 rows")
    tall = v <= n
    lam, vecs = np.linalg.eigh((a.T @ a if tall else a @ a.T).toarray())
    lam, vecs = lam[::-1], vecs[:, ::-1]
    tol = max(lam[0], 0.0) * max(n, v) * np.finfo(np.float64).eps
    rank = min(k, int(np.count_nonzero(lam > tol)))
    s = np.sqrt(lam[:rank])
    if tall:
        vt = vecs[:, :rank].T
    else:
        vt = np.asarray(a.T @ vecs[:, :rank]).T / s[:, None]
    for i in range(vt.shape[0]):
        j = int(np.argmax(np.abs(vt[i])))
        if vt[i, j] < 0:
            vt[i] = -vt[i]
    return SvdBasis(components=np.ascontiguousarray(vt),
                    singular_values=np.ascontiguousarray(s))


# ---------------------------------------------------------------------------
# Row-by-row featurizer: one query at a time through TF-IDF, the SVD
# projection and the tabular blocks, as slotcast did before it featurized a
# batch as one matrix. Library batch results must match it bit for bit.
# ---------------------------------------------------------------------------

def _naive_terms(q):
    vals = list(q.tokens)
    terms = list(vals)
    terms.extend(f"{a} {b}" for a, b in zip(vals, vals[1:]))
    return terms


def naive_transform_text(state, q):
    """Raw-count tf x idf, L2-normalized. Out-of-vocabulary terms ignored."""
    import scipy.sparse as sp
    counts = {}
    for term in _naive_terms(q):
        col = state.vocabulary.get(term)
        if col is not None:
            counts[col] = counts.get(col, 0.0) + 1.0
    if not counts:
        return sp.csr_matrix((1, state.size))
    cols = np.array(sorted(counts), dtype=np.int64)
    data = np.array([counts[c] for c in cols]) * state.idf[cols]
    norm = float(np.sqrt(np.sum(data * data)))
    if norm > 0:
        data = data / norm
    return sp.csr_matrix((data, (np.zeros_like(cols), cols)),
                         shape=(1, state.size))


def naive_project_text(basis, v):
    """Project a term-weight vector onto the SVD basis (components @ v)."""
    import scipy.sparse as sp
    if sp.issparse(v):
        vec = np.asarray(v.todense()).ravel()
    else:
        vec = np.asarray(v, dtype=np.float64).ravel()
    assert vec.shape[0] == basis.components.shape[1]
    return basis.components @ vec


def naive_feature_rows(fz, records, reports, cleaned):
    """A fitted Featurizer's matrix, built one record and one list per row."""
    medians = fz.impute_medians
    counts = ("account_count", "resource_count", "accounts_aws",
              "accounts_gcp", "accounts_azure")
    optional = ("total_bytes_processed", "total_bytes_billed") + counts

    def numeric(rec, rep):
        row = [float(rep.score)]
        for f in counts:
            v = getattr(rec, f)
            row.append(medians[f] if v is None else float(v))
        for k in fz.asset_count_keys:
            row.append(float(rec.asset_type_counts.get(k, 0)))
        return row

    def vol(rec):
        bp = rec.total_bytes_processed
        bb = rec.total_bytes_billed
        bp = medians["total_bytes_processed"] if bp is None else float(bp)
        bb = medians["total_bytes_billed"] if bb is None else float(bb)
        acct = rec.account_count
        res = rec.resource_count
        acct = medians["account_count"] if acct is None else float(acct)
        res = medians["resource_count"] if res is None else float(res)
        per_acct = bp / acct if acct > 0 else 0.0
        per_res = bp / res if res > 0 else 0.0
        return [np.log1p(bp), np.log1p(bb), np.log1p(per_acct),
                np.log1p(per_res)]

    def cat(rec):
        row = []
        for f in ("asset_type", "region"):
            cats = fz.category_maps[f]
            value = getattr(rec, f) or ""
            hot = [0.0] * (len(cats) + 1)
            if value in cats:
                hot[cats.index(value)] = 1.0
            else:
                hot[-1] = 1.0
            row.extend(hot)
        for f in ("accounts_aws", "accounts_gcp", "accounts_azure"):
            v = getattr(rec, f)
            row.append(1.0 if (v is not None and v > 0) else 0.0)
        row.append(1.0 if rec.cache_hit else 0.0)
        return row

    n = len(records)
    k = fz.svd_basis.k
    text_block = np.zeros((n, k))
    for i, q in enumerate(cleaned):
        if k:
            text_block[i] = naive_project_text(
                fz.svd_basis, naive_transform_text(fz.text_state, q))
    n_num = 1 + len(counts) + len(fz.asset_count_keys)
    num = np.array([numeric(r, rep) for r, rep in zip(records, reports)],
                   dtype=np.float64).reshape(n, n_num)
    num = (num - fz.num_mean) / fz.num_std
    n_cat = sum(len(c) + 1 for c in fz.category_maps.values()) + 4
    vol_block = np.array([vol(r) for r in records], dtype=np.float64)
    miss = np.array([[1.0 if getattr(r, f) is None else 0.0 for f in optional]
                     for r in records], dtype=np.float64)
    cat_block = np.array([cat(r) for r in records], dtype=np.float64)
    return np.hstack([text_block, num, vol_block.reshape(n, 4),
                      miss.reshape(n, len(optional)),
                      cat_block.reshape(n, n_cat)])


# ---------------------------------------------------------------------------
# Query cleaning written out with re module calls
# ---------------------------------------------------------------------------

# a number as a word-bounded run of digits, the pattern clean_query's
# digit-anchored _NUMBER must match span for span
NUMBER_PATTERN = r"\b\d+(?:\.\d+)?(?:[eE][+-]?\d+)?\b"


def regex_clean_query(raw_sql):
    """(text, tokens) for raw SQL: every substitution and the tokenizer
    written out with re module calls, each comment or quote opener searching
    for its own closer."""
    text = re.sub(r"/\*.*?\*/", " ", raw_sql, flags=re.S)
    text = re.sub(r"--[^\n]*", " ", text)
    text = re.sub(r"`[^`]*`", " TABLE ", text)
    text = re.sub(r"'(?:[^'\\]|\\.)*'", " STR ", text)
    text = re.sub(r'"(?:[^"\\]|\\.)*"', " STR ", text)
    text = re.sub(NUMBER_PATTERN, " NUM ", text)
    text = text.upper()
    tokens = tuple(re.findall(r"[A-Za-z_][A-Za-z0-9_]*|[^\sA-Za-z0-9_]", text))
    return " ".join(tokens), tokens


# ---------------------------------------------------------------------------
# Operator counting with every token sent down the full branch chain
# ---------------------------------------------------------------------------

def rescanning_cte_bindings(toks, start):
    """CTE bindings after a WITH at position `start`, each binding body
    scanned anew to its closing ')' (quadratic when bindings nest
    unclosed)."""
    n = len(toks)
    j = start + 1
    if j < n and toks[j] == "RECURSIVE":
        j += 1
    bindings = 0
    while j < n:
        # expect: identifier AS (
        if j + 2 < n and toks[j + 1] == "AS" and toks[j + 2] == "(":
            bindings += 1
            depth = 0
            j += 2
            while j < n:
                if toks[j] == "(":
                    depth += 1
                elif toks[j] == ")":
                    depth -= 1
                    if depth == 0:
                        break
                j += 1
            j += 1
            if j < n and toks[j] == ",":
                j += 1
                continue
        break
    return bindings


def chain_count_operators(q):
    """count_operators written as one elif chain that every token walks,
    each WITH rescanning its bindings."""
    from slotcast.sql_analyzer import OPERATOR_KINDS, _classify_udf
    toks = q.tokens
    counts = {k: 0 for k in OPERATOR_KINDS}
    n = len(toks)
    for i, t in enumerate(toks):
        if t == "JOIN":
            if i > 0 and toks[i - 1] == "CROSS":
                counts["cross_join"] += 1
            else:
                counts["join"] += 1
        elif t == "GROUP" and i + 1 < n and toks[i + 1] == "BY":
            counts["group_by"] += 1
        elif t == "ORDER" and i + 1 < n and toks[i + 1] == "BY":
            counts["order_by"] += 1
        elif t == "DISTINCT":
            counts["distinct"] += 1
        elif t == "HAVING":
            counts["having"] += 1
        elif t == "MERGE":
            counts["merge"] += 1
        elif t == "UPDATE":
            counts["update"] += 1
        elif t == "INSERT":
            counts["insert"] += 1
        elif t == "UNNEST":
            counts["unnest"] += 1
        elif t in ("ARRAY", "STRUCT"):
            counts["array_struct"] += 1
        elif t == "OVER" and i + 1 < n and toks[i + 1] == "(":
            counts["window"] += 1
        elif t.startswith("REGEXP_"):
            counts["regex_function"] += 1
        elif t == "(" and i + 1 < n and toks[i + 1] == "SELECT":
            counts["subselect"] += 1
        elif t == "FUNCTION":
            prev = toks[i - 1] if i > 0 else ""
            prev2 = toks[i - 2] if i > 1 else ""
            if prev == "CREATE" or (prev in ("TEMP", "TEMPORARY") and prev2 == "CREATE"):
                counts[_classify_udf(toks, i)] += 1
        elif t == "WITH":
            counts["with_cte"] += rescanning_cte_bindings(toks, i)
    return counts
