"""SQL text normalization and weighted operator complexity scoring.

Everything here is lexical: queries are cleaned (comments stripped, literals
and table paths replaced by placeholders, uppercased, whitespace collapsed)
and operators are counted over the resulting token stream. Malformed SQL is
never rejected; counting degrades gracefully.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

# Operator kinds, in a fixed reporting order.
OPERATOR_KINDS: Tuple[str, ...] = (
    "join",
    "cross_join",
    "group_by",
    "distinct",
    "order_by",
    "window",
    "regex_function",
    "sql_udf",
    "js_udf",
    "unnest",
    "merge",
    "update",
    "insert",
    "with_cte",
    "subselect",
    "array_struct",
    "having",
)

DISPLAY_NAMES: Dict[str, str] = {
    "join": "Join",
    "cross_join": "Cross Join",
    "group_by": "Group By",
    "distinct": "Distinct",
    "order_by": "Order By",
    "window": "Window (OVER)",
    "regex_function": "Regex Function",
    "sql_udf": "SQL UDF",
    "js_udf": "JS UDF",
    "unnest": "Unnest",
    "merge": "Merge",
    "update": "Update",
    "insert": "Insert",
    "with_cte": "WITH CTE",
    "subselect": "Subselect",
    "array_struct": "Array/Struct",
    "having": "Having",
}

# Published per-occurrence weights.
DEFAULT_WEIGHTS: Dict[str, int] = {
    "join": 3,
    "cross_join": 5,
    "group_by": 2,
    "distinct": 2,
    "order_by": 2,
    "window": 3,
    "regex_function": 4,
    "sql_udf": 1,
    "js_udf": 6,
    "unnest": 2,
    "merge": 4,
    "update": 3,
    "insert": 1,
    "with_cte": 1,
    "subselect": 2,
    "array_struct": 1,
    "having": 1,
}


@dataclass(frozen=True, slots=True)
class CleanedQuery:
    """A cleaned query as its token strings, in order."""

    tokens: Tuple[str, ...]


@dataclass(frozen=True)
class ComplexityReport:
    counts: Dict[str, int]
    score: int


_BLOCK_COMMENT = re.compile(r"/\*.*?\*/", re.S)
_LINE_COMMENT = re.compile(r"--[^\n]*")
_BACKTICK_PATH = re.compile(r"`[^`]*`")
_SINGLE_QUOTED = re.compile(r"'(?:[^'\\]|\\.)*'")
_DOUBLE_QUOTED = re.compile(r'"(?:[^"\\]|\\.)*"')
# A number is \b\d+(?:\.\d+)?(?:[eE][+-]?\d+)?\b, written to start on a
# digit so that sre scans ahead to the next digit rather than trying a word
# boundary at every position. The spans are the same: every \d is a \w in
# Unicode re, so \b before a digit holds exactly when the character before it
# is not a word character, which the lookbehind checks once that first digit
# has matched.
_NUMBER = re.compile(r"\d(?<!\w\d)\d*(?:\.\d+)?(?:[eE][+-]?\d+)?\b")
_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[^\sA-Za-z0-9_]")


def clean_query(raw_sql: str) -> CleanedQuery:
    """Normalize raw SQL into a placeholder-substituted token stream.

    Idempotent and deterministic; never raises on malformed input.
    """
    text = _BLOCK_COMMENT.sub(" ", raw_sql)
    text = _LINE_COMMENT.sub(" ", text)
    text = _BACKTICK_PATH.sub(" TABLE ", text)
    text = _SINGLE_QUOTED.sub(" STR ", text)
    text = _DOUBLE_QUOTED.sub(" STR ", text)
    text = _NUMBER.sub(" NUM ", text)
    text = text.upper()
    return CleanedQuery(tuple(_TOKEN.findall(text)))


def _count_with_bindings(toks: Tuple[str, ...], start: int) -> int:
    """Count comma-separated CTE bindings after a WITH at position `start`."""
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


def _classify_udf(toks: Tuple[str, ...], start: int) -> str:
    """Classify a CREATE [TEMP] FUNCTION at token index `start` (FUNCTION)."""
    n = len(toks)
    j = start + 1
    while j < n and toks[j] not in (";", "CREATE"):
        if toks[j] == "LANGUAGE" and j + 1 < n and toks[j + 1] == "JS":
            return "js_udf"
        j += 1
    return "sql_udf"


# every token that opens a branch of count_operators' chain, bar REGEXP_*;
# a branch added there must add its token here
_OPERATOR_TRIGGERS = frozenset({
    "JOIN", "GROUP", "ORDER", "DISTINCT", "HAVING", "MERGE", "UPDATE",
    "INSERT", "UNNEST", "ARRAY", "STRUCT", "OVER", "(", "FUNCTION", "WITH",
})


def count_operators(q: CleanedQuery) -> Dict[str, int]:
    """Lexically count Table-weight operator occurrences in a cleaned query."""
    toks = q.tokens
    counts = {k: 0 for k in OPERATOR_KINDS}
    n = len(toks)
    # most tokens are identifiers or punctuation that match no branch: find
    # the query's distinct values that can, and skip the rest
    live = {t for t in set(toks)
            if t in _OPERATOR_TRIGGERS or t.startswith("REGEXP_")}
    for i, t in enumerate(toks):
        if t not in live:
            continue
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
            counts["with_cte"] += _count_with_bindings(toks, i)
    return counts


def default_weights() -> Dict[str, int]:
    return dict(DEFAULT_WEIGHTS)


def validate_weights(weights: Mapping[str, int]) -> None:
    if set(weights) != set(OPERATOR_KINDS):
        raise ValueError("weights must cover exactly the known operator kinds")
    for kind, w in weights.items():
        if w < 0:
            raise ValueError(f"weight for {kind} must be >= 0")


def complexity_score(q: CleanedQuery, weights: Mapping[str, int] | None = None) -> ComplexityReport:
    """Compute the weighted operator tally for a cleaned query."""
    if weights is None:
        weights = DEFAULT_WEIGHTS
    else:
        validate_weights(weights)
    counts = count_operators(q)
    score = sum(counts[k] * weights[k] for k in OPERATOR_KINDS)
    return ComplexityReport(counts=counts, score=score)


def analyze_sql(raw_sql: str, weights: Mapping[str, int] | None = None) -> ComplexityReport:
    """Convenience: clean then score in one call."""
    return complexity_score(clean_query(raw_sql), weights)
