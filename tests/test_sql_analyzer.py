import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slotcast.sql_analyzer import (
    _NUMBER,
    DEFAULT_WEIGHTS,
    OPERATOR_KINDS,
    CleanedQuery,
    analyze_sql,
    clean_query,
    complexity_score,
    count_operators,
    default_weights,
)
from slotcast.synth import OperatorPlan, render_query, _plan_for

from naive_oracles import (NUMBER_PATTERN, chain_count_operators,
                           naive_operator_counts, regex_clean_query)


def counts_of(**kwargs):
    c = {k: 0 for k in OPERATOR_KINDS}
    c.update(kwargs)
    return c


# ---------------------------------------------------------------------------
# Cleaning
# ---------------------------------------------------------------------------

def test_clean_golden_placeholders():
    q = clean_query("select a from `proj.ds.t` where x = 'foo'")
    assert q.tokens == ("SELECT", "A", "FROM", "TABLE", "WHERE", "X", "=",
                        "STR")


def test_clean_empty():
    assert clean_query("").tokens == ()


def test_clean_whitespace_and_numbers():
    assert clean_query("SELECT   1").tokens == ("SELECT", "NUM")


def test_clean_idempotent():
    samples = [
        "select a from `p.d.t` where x = 'foo' and y = 1.5e3",
        "WITH c AS (SELECT 1) SELECT * FROM c -- trailing JOIN",
        "/* block JOIN */ select \"str\" from t",
        "",
        "not really sql at all (((",
    ]
    for s in samples:
        once = clean_query(s)
        assert clean_query(" ".join(once.tokens)) == once


def test_clean_strips_comments():
    q = clean_query("SELECT a FROM t -- JOIN GROUP BY\n/* CROSS JOIN */")
    assert count_operators(q) == counts_of()


# SQL words the counter and the synthesizer use, plus the placeholders
SQL_WORDS = (
    "SELECT", "FROM", "WHERE", "JOIN", "CROSS", "LEFT", "ON", "GROUP",
    "ORDER", "BY", "HAVING", "DISTINCT", "OVER", "PARTITION", "AND", "AS",
    "WITH", "RECURSIVE", "UNNEST", "ARRAY", "STRUCT", "MERGE", "UPDATE",
    "INSERT", "INTO", "SET", "CREATE", "ALTER", "DROP", "TEMP", "TEMPORARY",
    "FUNCTION", "RETURNS", "LANGUAGE", "JS", "TABLE", "STR", "NUM",
)

sql_like_text = st.one_of(
    st.text(max_size=80),
    st.lists(st.sampled_from(
        SQL_WORDS + (
            "a", "_x1", "t.col", "9e3", "1.5", "'s'", '"q"', "`p.d.t`",
            "(", ")", ",", ";", "*", "--c\n", "/* c */", "\u00e9", "\u00df",
            "\t", "regexp_contains", "\u0131d",
            # lone openers, closers and escapes, a backslash before a newline
            "/*", "*/", "'", '"', "\\", "\\'", '\\"', "\\\n")),
        max_size=30).map(" ".join))


@settings(max_examples=300, deadline=None)
@given(sql_like_text)
def test_clean_query_matches_regex_classifier(raw):
    q = clean_query(raw)
    text, tokens = regex_clean_query(raw)
    assert q.tokens == tokens
    assert " ".join(q.tokens) == text
    assert q == CleanedQuery(tokens)
    assert hash(q) == hash(CleanedQuery(tokens))


# digits of several scripts (\d in Unicode re), word characters that are not
# digits, characters that are neither, and the parts of a number's syntax
DIGITS = ("0", "1", "9", "\u0663", "\uff17")  # ASCII, Arabic-Indic, full-width
NON_DIGIT_WORD = ("a", "e", "E", "_", "\u00e9", "\u0131", "\u0345",
                  "\u00b2", "\u2460")  # ², ① are \w but not \d
NUMBER_SYNTAX = (".", "+", "-", " ", ",", "(", "'")
digit_heavy_text = st.lists(
    st.one_of(
        st.sampled_from(DIGITS + NON_DIGIT_WORD + NUMBER_SYNTAX),
        st.sampled_from(("_1", "1_", "1.5e+3x", "1.5.3", "9e", "x1", "12e-4",
                         "3.", ".5", "1e5", "\u00e91", "1\u00e9",
                         "\u0131\u0663", "SELECT ", "NUM"))),
    max_size=24).map("".join)


@settings(max_examples=400, deadline=None)
@given(digit_heavy_text)
def test_number_masking_matches_word_bounded_pattern(raw):
    """_NUMBER starts on a digit and looks back for a word character, but
    masks exactly the spans of the word-bounded pattern, whatever digits
    and word characters stand around a number."""
    want = [m.span() for m in re.finditer(NUMBER_PATTERN, raw)]
    assert [m.span() for m in _NUMBER.finditer(raw)] == want
    assert clean_query(raw).tokens == regex_clean_query(raw)[1]


# a digit run with a word character on either side is no number; the
# tokenizer then drops its digits
@pytest.mark.parametrize("raw,tokens", [
    ("_1 1_ x1", ("_1", "_", "X1")),
    ("1.5e+3x", ("NUM", ".", "E", "+", "X")),
    ("1.5.3", ("NUM", ".", "NUM")),
    ("9e", ("E",)),
    ("7 = \u0663\u0664", ("NUM", "=", "NUM")),
    ("\u00e91 + 2", ("\u00c9", "+", "NUM")),
])
def test_number_masking_examples(raw, tokens):
    assert clean_query(raw).tokens == tokens


# ---------------------------------------------------------------------------
# Counting and scoring: worked examples
# ---------------------------------------------------------------------------

def test_single_group_by():
    got = count_operators(clean_query("SELECT X FROM T GROUP BY X"))
    assert got == counts_of(group_by=1)


def test_two_group_by_two_distinct_scores_eight():
    sql = ("SELECT a, COUNT(DISTINCT b) FROM t GROUP BY a ; "
           "SELECT c, COUNT(DISTINCT d) FROM u GROUP BY c")
    rep = analyze_sql(sql)
    assert rep.counts["group_by"] == 2
    assert rep.counts["distinct"] == 2
    assert rep.score == 8


def test_cross_join_not_double_counted():
    got = count_operators(
        clean_query("SELECT * FROM A CROSS JOIN B JOIN C ON A.X=C.X"))
    assert got == counts_of(cross_join=1, join=1)


def test_js_udf_plus_cross_join_scores_eleven():
    sql = ('CREATE TEMP FUNCTION g(x FLOAT64) RETURNS FLOAT64 LANGUAGE js '
           'AS "return x;"; SELECT g(a) FROM t CROSS JOIN u')
    assert analyze_sql(sql).score == 11


def test_empty_query_scores_zero():
    assert analyze_sql("").score == 0


# ---------------------------------------------------------------------------
# Golden suite: 20 hand-scored queries (scored by applying the weight table
# and the lexical counting rules by hand)
# ---------------------------------------------------------------------------

GOLDEN = [
    ("SELECT a FROM `p.d.t` -- JOIN in comment", counts_of(), 0),
    ("SELECT a, b FROM `p.d.t` GROUP BY a, b", counts_of(group_by=1), 2),
    ("SELECT DISTINCT a FROM t", counts_of(distinct=1), 2),
    ("SELECT a FROM t1 JOIN t2 ON t1.id = t2.id", counts_of(join=1), 3),
    ("SELECT * FROM a CROSS JOIN b", counts_of(cross_join=1), 5),
    ("SELECT a FROM t1 LEFT JOIN t2 ON t1.x = t2.x ORDER BY a",
     counts_of(join=1, order_by=1), 5),
    ("SELECT x, COUNT(DISTINCT y) FROM t GROUP BY x "
     "HAVING COUNT(DISTINCT y) > 2",
     counts_of(distinct=2, group_by=1, having=1), 7),
    ("SELECT ROW_NUMBER() OVER (PARTITION BY a) FROM t",
     counts_of(window=1), 3),
    ("SELECT a FROM t WHERE REGEXP_CONTAINS(a, 'x')",
     counts_of(regex_function=1), 4),
    ("WITH c AS (SELECT a FROM t) SELECT a FROM c",
     counts_of(with_cte=1, subselect=1), 3),
    ("WITH c1 AS (SELECT a FROM t1), c2 AS (SELECT b FROM t2) "
     "SELECT a FROM c1 JOIN c2 ON c1.a = c2.b",
     counts_of(with_cte=2, subselect=2, join=1), 9),
    ("SELECT a FROM t WHERE a IN (SELECT b FROM u)",
     counts_of(subselect=1), 2),
    ("SELECT ARRAY[1, 2] AS r FROM t", counts_of(array_struct=1), 1),
    ("SELECT STRUCT(a, b) AS s FROM t, UNNEST(arr) AS x",
     counts_of(array_struct=1, unnest=1), 3),
    ("UPDATE t SET a = 1 WHERE b = 'z'", counts_of(update=1), 3),
    ("INSERT INTO t (a) SELECT a FROM u", counts_of(insert=1), 1),
    ("MERGE t USING u ON t.id = u.id WHEN MATCHED THEN UPDATE SET a = 1",
     counts_of(merge=1, update=1), 7),
    ("CREATE TEMP FUNCTION f(x INT64) AS (x * 2); SELECT f(a) FROM t",
     counts_of(sql_udf=1), 1),
    ('CREATE TEMP FUNCTION g(x FLOAT64) RETURNS FLOAT64 LANGUAGE js '
     'AS "return x * 2.0;"; SELECT g(a) FROM t',
     counts_of(js_udf=1), 6),
    ("SELECT a, COUNT(DISTINCT b) FROM t GROUP BY a ; "
     "SELECT c, COUNT(DISTINCT d) FROM u GROUP BY c",
     counts_of(group_by=2, distinct=2), 8),
]


@pytest.mark.parametrize("sql,expected_counts,expected_score", GOLDEN)
def test_golden_suite(sql, expected_counts, expected_score):
    rep = analyze_sql(sql)
    assert rep.counts == expected_counts
    assert rep.score == expected_score


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------

def test_default_weight_table():
    expected = {
        "join": 3, "cross_join": 5, "group_by": 2, "distinct": 2,
        "order_by": 2, "window": 3, "regex_function": 4, "sql_udf": 1,
        "js_udf": 6, "unnest": 2, "merge": 4, "update": 3, "insert": 1,
        "with_cte": 1, "subselect": 2, "array_struct": 1, "having": 1,
    }
    assert default_weights() == expected
    assert len(expected) == 17


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

def test_determinism():
    sql = GOLDEN[10][0]
    a = analyze_sql(sql)
    b = analyze_sql(sql)
    assert a == b


def test_additivity_over_statements():
    stmts = [g[0] for g in GOLDEN[:10]]
    for a_sql in stmts:
        for b_sql in stmts:
            # newline terminates any trailing line comment before the separator
            combined = analyze_sql(a_sql + "\n ; " + b_sql)
            assert combined.score == (analyze_sql(a_sql).score
                                      + analyze_sql(b_sql).score)


def test_monotonicity_appending_operator():
    base = "SELECT a FROM t"
    rep = analyze_sql(base)
    for suffix in (" GROUP BY a", " ORDER BY a", " ; SELECT DISTINCT b FROM u"):
        assert analyze_sql(base + suffix).score >= rep.score


def test_randomized_plans_match_naive_recount():
    rng = np.random.default_rng(123)
    weights = default_weights()
    for _ in range(300):
        kind = ("trivial", "light", "heavy")[int(rng.integers(0, 3))]
        plan = _plan_for(rng, kind)
        sql, intended = render_query(plan)
        cleaned = clean_query(sql)
        got = count_operators(cleaned)
        assert got == intended
        assert got == naive_operator_counts(" ".join(cleaned.tokens))
        rep = complexity_score(cleaned)
        assert rep.score == sum(got[k] * weights[k] for k in got)


# single tokens, plus the phrases that multi-token branches look for (CTE
# bindings, UDF headers, subselects), which random single tokens would
# rarely form
operator_token_streams = st.lists(st.one_of(
    st.sampled_from([
        "JOIN", "GROUP", "ORDER", "DISTINCT", "HAVING", "MERGE", "UPDATE",
        "INSERT", "UNNEST", "ARRAY", "STRUCT", "OVER", "(", "FUNCTION",
        "WITH", "CROSS", "BY", "SELECT", "CREATE", "TEMP", "TEMPORARY",
        "LANGUAGE", "JS", "RECURSIVE", "AS", ")", ",", ";", "REGEXP_",
        "REGEXP_CONTAINS", "regexp_replace", "WITH a AS (",
        "WITH RECURSIVE a AS (", ") , b AS (", "CREATE TEMP FUNCTION",
        "CREATE FUNCTION", "LANGUAGE JS", "( SELECT", "OVER (", "CROSS JOIN",
        "GROUP BY", "ORDER BY",
        # near misses of each pair, JOIN, UDF header and nested binding
        "GROUP x", "ORDER x", "OVER x", "( x", "CROSS x JOIN",
        "TEMP FUNCTION", "x FUNCTION", "WITH a AS ( WITH b AS ("]),
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,7}", fullmatch=True)),
    max_size=60).map(" ".join)


@settings(max_examples=300, deadline=None)
@given(operator_token_streams)
def test_count_operators_matches_full_branch_chain(sql):
    q = clean_query(sql)
    assert count_operators(q) == chain_count_operators(q)


# Openers without closers: an unclosed comment, escaped quotes and nested
# unclosed CTE bindings. Rescanning to the end of the text from every opener
# takes 6-20 s on each (2-vCPU VM); one pass takes milliseconds.
@pytest.mark.parametrize("raw,tokens,with_cte", [
    ("/* " * 33_000, ("/", "*") * 33_000, 0),
    ("\\'" * 33_000, ("\\", "'") * 33_000, 0),
    ('\\"' * 33_000, ("\\", '"') * 33_000, 0),
    ("WITH a AS ( " * 8_000, ("WITH", "A", "AS", "(") * 8_000, 8_000),
    ("WITH RECURSIVE a AS ( SELECT 1 ) , b AS ( " * 8_000,
     ("WITH", "RECURSIVE", "A", "AS", "(", "SELECT", "NUM", ")", ",", "B",
      "AS", "(") * 8_000, 16_000),
], ids=["comment", "single-quote", "double-quote", "with", "with-recursive"])
def test_unclosed_openers_clean_and_count_in_linear_time(raw, tokens,
                                                         with_cte):
    t0 = time.perf_counter()
    q = clean_query(raw)
    counts = count_operators(q)
    elapsed = time.perf_counter() - t0
    assert q.tokens == tokens
    assert counts["with_cte"] == with_cte
    assert elapsed < 1.0
    small = raw[:len(raw) // 100]
    assert clean_query(small).tokens == regex_clean_query(small)[1]
    assert count_operators(clean_query(small)) == chain_count_operators(
        clean_query(small))
