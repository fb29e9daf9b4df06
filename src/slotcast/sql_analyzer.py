"""SQL text normalization and weighted operator complexity scoring.

Everything here is lexical: queries are cleaned (comments stripped, literals
and table paths replaced by placeholders, uppercased, whitespace collapsed)
and operators are counted over the resulting token stream. The score weighs
those counts by the published table, DEFAULT_WEIGHTS, and by no other: the
router's threshold is in its units. Malformed SQL is never rejected;
counting degrades gracefully.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Tuple

# The published table: (kind, display name, weight per occurrence), in order
OPERATOR_TABLE: Tuple[Tuple[str, str, int], ...] = (
    ("join", "Join", 3),
    ("cross_join", "Cross Join", 5),
    ("group_by", "Group By", 2),
    ("distinct", "Distinct", 2),
    ("order_by", "Order By", 2),
    ("window", "Window (OVER)", 3),
    ("regex_function", "Regex Function", 4),
    ("sql_udf", "SQL UDF", 1),
    ("js_udf", "JS UDF", 6),
    ("unnest", "Unnest", 2),
    ("merge", "Merge", 4),
    ("update", "Update", 3),
    ("insert", "Insert", 1),
    ("with_cte", "WITH CTE", 1),
    ("subselect", "Subselect", 2),
    ("array_struct", "Array/Struct", 1),
    ("having", "Having", 1),
)
OPERATOR_KINDS: Tuple[str, ...] = tuple(k for k, _, _ in OPERATOR_TABLE)
DISPLAY_NAMES: Dict[str, str] = {k: name for k, name, _ in OPERATOR_TABLE}
DEFAULT_WEIGHTS: Dict[str, int] = {k: w for k, _, w in OPERATOR_TABLE}

# tokens that count their kind wherever they stand
_ANYWHERE: Dict[str, str] = {
    "DISTINCT": "distinct", "HAVING": "having", "MERGE": "merge",
    "UPDATE": "update", "INSERT": "insert", "UNNEST": "unnest",
    "ARRAY": "array_struct", "STRUCT": "array_struct"}
# tokens that count their kind only when the given token follows
_FOLLOWED_BY: Dict[str, Tuple[str, str]] = {
    "GROUP": ("BY", "group_by"), "ORDER": ("BY", "order_by"),
    "OVER": ("(", "window"), "(": ("SELECT", "subselect")}
# every token count_operators acts on, bar REGEXP_*
_TRIGGERS = frozenset({*_ANYWHERE, *_FOLLOWED_BY, "JOIN", "FUNCTION", "WITH"})


@dataclass(frozen=True, slots=True)
class CleanedQuery:
    """A cleaned query as its token strings, in order."""

    tokens: Tuple[str, ...]


@dataclass(frozen=True)
class ComplexityReport:
    counts: Dict[str, int]
    score: int


# A block comment or quoted literal matches once per opener, to its closer or
# as far as a scan for one reaches; only a closed one (group 1) is replaced.
# Openers inside an unclosed span are unclosed too, so one scan covers them.
_BLOCK_COMMENT = re.compile(r"/\*.*?(\*/|\Z)", re.S)
_LINE_COMMENT = re.compile(r"--[^\n]*")
_BACKTICK_PATH = re.compile(r"`[^`]*`")
_SINGLE_QUOTED = re.compile(r"'(?:[^'\\]|\\.)*('?)")
_DOUBLE_QUOTED = re.compile(r'"(?:[^"\\]|\\.)*("?)')
# A number is \b\d+(?:\.\d+)?(?:[eE][+-]?\d+)?\b, written to start on a
# digit so that sre scans ahead to the next digit rather than trying a word
# boundary at every position. The spans are the same: every \d is a \w in
# Unicode re, so \b before a digit holds exactly when the character before it
# is not a word character, which the lookbehind checks once that first digit
# has matched.
_NUMBER = re.compile(r"\d(?<!\w\d)\d*(?:\.\d+)?(?:[eE][+-]?\d+)?\b")
_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[^\sA-Za-z0-9_]")


def _replace_if_closed(m: re.Match) -> str:
    if not m.group(1):
        return m.group(0)
    return " " if m.group(0).startswith("/*") else " STR "


def clean_query(raw_sql: str) -> CleanedQuery:
    """Normalize raw SQL into a placeholder-substituted token stream.

    Idempotent and deterministic; never raises on malformed input.
    """
    text = _BLOCK_COMMENT.sub(_replace_if_closed, raw_sql)
    text = _LINE_COMMENT.sub(" ", text)
    text = _BACKTICK_PATH.sub(" TABLE ", text)
    text = _SINGLE_QUOTED.sub(_replace_if_closed, text)
    text = _DOUBLE_QUOTED.sub(_replace_if_closed, text)
    text = _NUMBER.sub(" NUM ", text)
    text = text.upper()
    return CleanedQuery(tuple(_TOKEN.findall(text)))


def _count_with_bindings(toks: Tuple[str, ...], start: int,
                         closers: Dict[int, int]) -> int:
    """Count comma-separated CTE bindings after a WITH at position `start`.
    `closers` maps each '(' a binding's scan has passed to its ')', or to
    len(toks) if none closes it: WITHs are counted in token order and a
    binding's scan passes every binding nested in it, so none is rescanned."""
    n = len(toks)
    j = start + 1
    if j < n and toks[j] == "RECURSIVE":
        j += 1
    bindings = 0
    while j + 2 < n and toks[j + 1] == "AS" and toks[j + 2] == "(":
        bindings += 1
        j += 2
        if j not in closers:
            open_at = [j]
            for k in range(j + 1, n):
                if toks[k] == "(":
                    open_at.append(k)
                elif toks[k] == ")":
                    closers[open_at.pop()] = k
                    if not open_at:
                        break
            closers.update(dict.fromkeys(open_at, n))
        j = closers[j] + 1
        if j >= n or toks[j] != ",":
            break
        j += 1
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


def count_operators(q: CleanedQuery) -> Dict[str, int]:
    """Lexically count Table-weight operator occurrences in a cleaned query."""
    toks = q.tokens
    counts = {k: 0 for k in OPERATOR_KINDS}
    closers: Dict[int, int] = {}
    n = len(toks)
    # skip the many tokens that count nothing, testing each distinct one once
    live = {t for t in set(toks) if t in _TRIGGERS or t.startswith("REGEXP_")}
    for i, t in enumerate(toks):
        if t not in live:
            continue
        if t in _ANYWHERE:
            counts[_ANYWHERE[t]] += 1
        elif t in _FOLLOWED_BY:
            follower, kind = _FOLLOWED_BY[t]
            if i + 1 < n and toks[i + 1] == follower:
                counts[kind] += 1
        elif t == "JOIN":
            counts["cross_join" if i and toks[i - 1] == "CROSS" else "join"] += 1
        elif t == "FUNCTION":
            j = i - 2 if i > 1 and toks[i - 1] in ("TEMP", "TEMPORARY") else i - 1
            if j >= 0 and toks[j] == "CREATE":
                counts[_classify_udf(toks, i)] += 1
        elif t == "WITH":
            counts["with_cte"] += _count_with_bindings(toks, i, closers)
        elif t.startswith("REGEXP_"):
            counts["regex_function"] += 1
    return counts


def default_weights() -> Dict[str, int]:
    return dict(DEFAULT_WEIGHTS)


def weighted_score(counts: Dict[str, int]) -> int:
    """Weigh per-kind operator counts by DEFAULT_WEIGHTS."""
    return sum(counts[k] * w for k, _, w in OPERATOR_TABLE)


def complexity_score(q: CleanedQuery) -> ComplexityReport:
    """Count a cleaned query's operators and weigh them."""
    counts = count_operators(q)
    return ComplexityReport(counts=counts, score=weighted_score(counts))


def analyze_sql(raw_sql: str) -> ComplexityReport:
    """Convenience: clean then score in one call."""
    return complexity_score(clean_query(raw_sql))
