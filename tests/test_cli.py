import codecs
import contextlib
import dataclasses
import hashlib
import io
import json
import tempfile
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slotcast import cli
from slotcast.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERSION,
    EXIT_WARN,
    ingest,
    load_config_file,
    main,
    train_config_from_values,
    workload_config_from_values,
)
from slotcast.config import settings as declared_settings
from slotcast.featurizer import FeaturizerConfig
from slotcast.gbrt import GBRTConfig
from slotcast.predictor import (FORMAT_VERSION, Router, load_bundle,
                                 save_bundle)
from slotcast.records import _CHECKS, QueryRecord
from slotcast.sql_analyzer import clean_query
from slotcast.synth import OracleCostModel, WorkloadConfig, generate


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_json_dict(), sort_keys=True) + "\n")


SMALL_CONFIG = """\
# desk-scale settings
featurizer.svd_components = 32
gbrt.iterations = 40
gbrt.min_samples_leaf = 5
"""


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """synth -> train once; reused by predict/advise/evaluate tests."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "small.cfg"
    config.write_text(SMALL_CONFIG, encoding="utf-8")
    data = root / "workload.jsonl"
    bundle = root / "model.sltb"
    assert main(["synth", "--output", str(data), "--n-queries", "400",
                 "--seed", "7"]) == EXIT_OK
    assert main(["train", "--input", str(data), "--output-bundle",
                 str(bundle), "--config", str(config)]) == EXIT_OK
    return root, data, bundle


# ---------------------------------------------------------------------------
# Ingestion filters
# ---------------------------------------------------------------------------

def test_ingest_filters(tmp_path):
    good = generate(WorkloadConfig(n_queries=5, seed=1))
    path = tmp_path / "mixed.jsonl"
    rows = [json.dumps(r.to_json_dict(), sort_keys=True) for r in good]
    rows += [
        json.dumps({"query_text": "CREATE TABLE `p.d.t` (A INT64)",
                    "total_slot_ms": 5.0, "elapsed_ms": 9.0}),       # ddl
        json.dumps({"query_text": "DROP TABLE `p.d.t`",
                    "total_slot_ms": 5.0, "elapsed_ms": 9.0}),       # ddl
        json.dumps({"query_text": "SELECT 1", "total_slot_ms": 5.0,
                    "elapsed_ms": 9.0, "timed_out": True}),          # timeout
        json.dumps({"query_text": "   ", "total_slot_ms": 5.0}),     # empty
        json.dumps({"query_text": "SELECT 1", "total_slot_ms": -4.0,
                    "elapsed_ms": 9.0}),                             # anomalous
        json.dumps({"query_text": "SELECT 1", "elapsed_ms": 9.0}),   # no slot
        json.dumps({"region": "us"}),                                # malformed
        "{not json",                                                 # malformed
    ]
    path.write_text("\n".join(rows) + "\n\n", encoding="utf-8")

    records, stats = ingest(path, training=True)
    assert len(records) == 5
    assert stats.read == 13
    assert stats.dropped == {"ddl": 2, "timeout": 1, "anomalous": 2,
                             "empty": 1, "malformed": 2}
    assert stats.balanced()


def test_ingest_ctas_kept(tmp_path):
    path = tmp_path / "ctas.jsonl"
    path.write_text(json.dumps({
        "query_text": "CREATE TABLE `p.d.t` AS SELECT A FROM `p.d.s`",
        "total_slot_ms": 5.0, "elapsed_ms": 9.0}) + "\n", encoding="utf-8")
    records, stats = ingest(path, training=True)
    assert len(records) == 1 and stats.dropped["ddl"] == 0


def test_ingest_checks_each_distinct_text_for_ddl_once(tmp_path,
                                                      monkeypatch):
    """A repeated DDL line and a repeated SELECT line are cleaned once
    each, and every repeat is still dropped or kept at its position."""
    ddl = json.dumps({"query_text": "DROP TABLE `p.d.t`",
                      "total_slot_ms": 5.0, "elapsed_ms": 9.0})
    select = json.dumps({"query_text": "SELECT A FROM `p.d.t`",
                         "total_slot_ms": 5.0, "elapsed_ms": 9.0})
    path = tmp_path / "repeats.jsonl"
    path.write_text("\n".join([select, ddl, ddl, select, "", ddl, select])
                    + "\n", encoding="utf-8")
    cleaned = []

    def counted(text):
        cleaned.append(text)
        return clean_query(text)

    monkeypatch.setattr(cli, "clean_query", counted)
    records, stats = ingest(path, training=True)
    assert sorted(cleaned) == ["DROP TABLE `p.d.t`", "SELECT A FROM `p.d.t`"]
    assert stats.read == 6 and stats.balanced()
    assert stats.dropped == {"ddl": 3, "timeout": 0, "anomalous": 0,
                             "empty": 0, "malformed": 0}
    assert stats.positions == [0, 3, 5]
    assert [r.query_text for r in records] == ["SELECT A FROM `p.d.t`"] * 3


def test_ingest_inference_mode_keeps_unlabelled(tmp_path):
    path = tmp_path / "unlabelled.jsonl"
    path.write_text(json.dumps({"query_text": "SELECT 1"}) + "\n",
                    encoding="utf-8")
    records, _ = ingest(path, training=False)
    assert len(records) == 1


PROBE_LINES = [
    {"query_text": "SELECT 1", "total_bytes_processed": "lots"},
    {"query_text": "SELECT 1", "total_bytes_processed": -5},
    [1, 2],
]


def test_bad_records_counted_as_malformed(tmp_path):
    path = tmp_path / "bad.jsonl"
    lines = [json.dumps(v) for v in PROBE_LINES] + [
        json.dumps({"query_text": "SELECT 1", "account_count": 1.5}),
        json.dumps({"query_text": "SELECT 1", "cache_hit": "yes"}),
        '{"query_text": "SELECT 1", "elapsed_ms": NaN}',
        json.dumps({"query_text": "SELECT 1", "asset_type_counts": [1]}),
        json.dumps({"query_text": "SELECT 1", "total_bytes_billed": 2 ** 63}),
        json.dumps({"query_text": "SELECT 1", "total_bytes_billed": 5.0,
                    "region": None}),                                 # kept
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with open(path, "ab") as fh:
        fh.write(b'{"query_text": "SELECT \xff"}\n')  # not UTF-8
    records, stats = ingest(path, training=False)
    assert stats.read == 10 and stats.dropped["malformed"] == 9
    assert stats.balanced() and stats.positions == [8]
    assert records[0].total_bytes_billed == 5.0 and records[0].region == ""


def test_record_checks_cover_every_field():
    assert set(_CHECKS) == set(QueryRecord.__dataclass_fields__)


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------

def test_config_file_parsing(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# comment\n\ngbrt.iterations = 12\n"
                    "router.threshold=30\nsynth.n_queries = 77\n",
                    encoding="utf-8")
    values = load_config_file(path)
    cfg = train_config_from_values(values)
    assert cfg.gbrt.iterations == 12
    assert cfg.router.threshold == 30
    wl = workload_config_from_values(values)
    assert wl.n_queries == 77


def test_config_file_bad_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("iterations 12\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_config_file(path)


def test_leading_byte_order_mark_is_not_content(tmp_path, capsys):
    """A UTF-8 byte order mark before the first record, config key or query
    is dropped, and a decoding error still names the byte's offset in the
    file."""
    plain, marked = tmp_path / "w.jsonl", tmp_path / "bom.jsonl"
    write_jsonl(plain, generate(WorkloadConfig(n_queries=60, seed=0)))
    marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
    records, stats = ingest(marked)
    assert stats.dropped["malformed"] == 0
    assert (records, stats) == ingest(plain)
    cfg = tmp_path / "bom.cfg"
    cfg.write_bytes(codecs.BOM_UTF8 + b"gbrt.iterations = 12\n")
    assert train_config_from_values(
        load_config_file(cfg)).gbrt.iterations == 12
    query = tmp_path / "q.sql"
    query.write_bytes(codecs.BOM_UTF8 + b"SELECT a FROM t GROUP BY a")
    assert main(["analyze", "--query-file", str(query)]) == EXIT_OK
    assert "total complexity score: 2\n" in capsys.readouterr().out
    query.write_bytes(codecs.BOM_UTF8 + b"SELECT \xff")
    assert main(["analyze", "--query-file", str(query)]) == EXIT_IO
    assert "at byte 10)" in capsys.readouterr().err


def test_config_typo_is_usage_error(tmp_path, capsys):
    data = tmp_path / "w.jsonl"
    write_jsonl(data, generate(WorkloadConfig(n_queries=60, seed=0)))
    # synth rejects unknown keys and bad lines, but does not read gbrt values
    for text, named, synth_code in (
            ("gbrt.iteratons = 5\n", "gbrt.iteratons", EXIT_USAGE),
            ("gbrt.iterations = five\n", "gbrt.iterations", EXIT_OK),
            ("gbrt.iterations 5\n", "key=value", EXIT_USAGE),
            ("gbrt.iterations = 5\ngbrt.iterations = 300\n",
             "gbrt.iterations", EXIT_USAGE)):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text(text, encoding="utf-8")
        assert main(["train", "--input", str(data), "--output-bundle",
                     str(tmp_path / "m.sltb"), "--config", str(cfg)]) == EXIT_USAGE
        assert named in capsys.readouterr().err
        assert main(["synth", "--output", str(tmp_path / "s.jsonl"),
                     "--n-queries", "5", "--config", str(cfg)]) == synth_code
    assert not (tmp_path / "m.sltb").exists()


@pytest.mark.parametrize("line", [
    "gbrt.max_bins = 400", "gbrt.iterations = -1", "gbrt.learning_rate = nan",
    "gbrt.learning_rate = 0", "gbrt.max_leaves = 1", "gbrt.max_leaves = 65",
    "gbrt.min_samples_leaf = 0",
    "gbrt.iterations = 99999999999999999999999"])
def test_out_of_range_gbrt_value_is_usage_error(tmp_path, capsys, line):
    assert_config_rejected(tmp_path, capsys, line, "train")


@pytest.mark.parametrize("line", [
    "featurizer.svd_components = -5", "featurizer.top_n_categories = -1",
    "featurizer.min_df = -3", "featurizer.max_vocab = 0",
    "featurizer.top_n_asset_type_counts = -2"])
def test_out_of_range_featurizer_value_is_usage_error(tmp_path, capsys, line):
    assert_config_rejected(tmp_path, capsys, line, "train")


@pytest.mark.parametrize("key", [
    "featurizer.svd_seed", "featurizer.svd_oversample",
    "featurizer.svd_power_iters"])
def test_retired_svd_keys_are_unknown(tmp_path, capsys, key):
    data = tmp_path / "w.jsonl"
    write_jsonl(data, generate(WorkloadConfig(n_queries=60, seed=0)))
    cfg = tmp_path / "old.cfg"
    cfg.write_text(f"{key} = 0\n", encoding="utf-8")
    assert main(["train", "--input", str(data), "--output-bundle",
                 str(tmp_path / "m.sltb"), "--config", str(cfg)]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"config error: unknown config key(s): {key}\n")
    assert not (tmp_path / "m.sltb").exists()


@pytest.mark.parametrize("key", ["gbrt.seed", "gbrt.binning_sample",
                                 "gbrt.l2"])
def test_retired_gbrt_keys_are_unknown(tmp_path, capsys, key):
    """Binning reads every training row since bundle format 4, so the
    row sample's size and seed are unknown keys too, and since format 5
    the split gain and leaf values take no L2 term."""
    test_retired_svd_keys_are_unknown(tmp_path, capsys, key)


def assert_config_rejected(tmp_path, capsys, line, command):
    """command exits 64 with a config error that starts with the line's
    key, and writes no output file."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    out = tmp_path / "out"
    if command == "train":
        data = tmp_path / "w.jsonl"
        write_jsonl(data, generate(WorkloadConfig(n_queries=60, seed=0)))
        args = ["train", "--input", str(data), "--output-bundle", str(out)]
    else:
        args = ["synth", "--output", str(out), "--n-queries", "50"]
    assert main(args + ["--config", str(cfg)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("config error: " + line.split(" ")[0])
    assert not out.exists()


# section prefix -> (the command that reads it, its config class)
CONFIG_SECTIONS = {"featurizer": ("train", FeaturizerConfig),
                   "gbrt": ("train", GBRTConfig),
                   "router": ("train", Router),
                   "synth": ("synth", WorkloadConfig),
                   "oracle": ("synth", OracleCostModel)}


def _past_each_bound():
    """A line past each bound of every declared setting, and one setting
    each float to nan, with the command that reads it."""
    for prefix, (command, cls) in CONFIG_SECTIONS.items():
        for name, f in declared_settings(cls).items():
            ge, gt, le = f.metadata["bounds"]
            past = [ge - 1] if ge is not None else []
            past += [gt] if gt is not None else []
            past += [le + 1] if le is not None else []
            if f.metadata["kind"] is float:
                past.append("nan")
            for v in past:
                yield pytest.param(command, f"{prefix}.{name} = {v}",
                                   id=f"{prefix}.{name}={v}")


@pytest.mark.parametrize("command,line", list(_past_each_bound()))
def test_setting_past_its_bound_is_usage_error(tmp_path, capsys, command,
                                               line):
    assert_config_rejected(tmp_path, capsys, line, command)


@pytest.mark.parametrize("cls", [c for _, c in CONFIG_SECTIONS.values()])
def test_every_scalar_config_field_is_a_declared_setting(cls):
    """Only declared settings are checked and known to the config file
    parser, so a scalar field must not skip the declaration."""
    default = cls()
    scalars = {f.name for f in dataclasses.fields(cls)
               if isinstance(getattr(default, f.name), (bool, int, float))}
    assert scalars == set(declared_settings(cls))
    assert all(f.metadata["kind"] is type(getattr(default, name))
               for name, f in declared_settings(cls).items())


@pytest.mark.parametrize("line", [
    "oracle.volume_exponent = 1000", "synth.noise_sigma = 1e6",
    "oracle.base = 1e308", "oracle.base = 1e300"])
def test_synth_overflowing_oracle_is_usage_error(tmp_path, capsys, line):
    """Finite settings whose slot or elapsed times overflow, or exceed
    what ingest reads back, are rejected before the output is opened."""
    out = tmp_path / "s.jsonl"
    cfg = tmp_path / "big.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    assert main(["synth", "--output", str(out), "--n-queries", "50",
                 "--config", str(cfg)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and line.split(" ")[0] in err
    assert not out.exists()


@pytest.mark.parametrize("flag,key", [("--n-queries", "synth.n_queries"),
                                      ("--seed", "synth.seed")])
def test_negative_synth_flag_is_usage_error(tmp_path, capsys, flag, key):
    out = tmp_path / "s.jsonl"
    assert main(["synth", "--output", str(out), flag, "-1"]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"config error: {key}: -1")
    assert not out.exists()


def test_config_keys_of_either_command_accepted(tmp_path):
    values = {"synth.noise_sigma": "0.1", "oracle.base": "0.2",
              "featurizer.cache": "x"}
    with pytest.raises(ValueError, match="featurizer.cache"):
        train_config_from_values(values)
    del values["featurizer.cache"]
    assert train_config_from_values(values) == train_config_from_values({})
    wl = workload_config_from_values({**values, "gbrt.max_bins": "16"})
    assert wl.noise_sigma == 0.1 and wl.oracle.base == 0.2


# ---------------------------------------------------------------------------
# Commands end to end
# ---------------------------------------------------------------------------

def test_analyze_worked_example(tmp_path, capsys):
    qf = tmp_path / "q.sql"
    qf.write_text("SELECT a, COUNT(DISTINCT b) FROM t GROUP BY a ; "
                  "SELECT c, COUNT(DISTINCT d) FROM u GROUP BY c",
                  encoding="utf-8")
    assert main(["analyze", "--query-file", str(qf)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "total complexity score: 8" in out


def test_train_writes_summary(trained):
    root, _, bundle = trained
    assert bundle.exists()
    summary = (root / "model.sltb.summary.txt").read_text(encoding="utf-8")
    assert "route counts" in summary


def test_predict_output_format(trained, tmp_path):
    _, data, bundle = trained
    out = tmp_path / "preds.tsv"
    assert main(["predict", "--bundle", str(bundle), "--input", str(data),
                 "--output", str(out)]) == EXIT_OK
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 400
    idx, slot, route, score = lines[0].split("\t")
    assert idx == "0" and float(slot) >= 0
    assert route in ("simple", "complex", "unified")
    assert int(score) >= 0


def test_predict_ids_follow_input_lines(trained, tmp_path):
    _, _, bundle = trained
    data = tmp_path / "mixed.jsonl"
    data.write_text("\n".join([
        json.dumps({"query_text": "SELECT A FROM `p.d.t`"}),
        json.dumps({"query_text": "CREATE TABLE `p.d.t` (A INT64)"}),  # ddl
        "",                                                # blank: no id
        json.dumps({"query_text": "SELECT B FROM `p.d.u`"}),
        "[1, 2]",                                          # malformed
        json.dumps({"query_text": "SELECT C FROM `p.d.v`"}),
    ]) + "\n", encoding="utf-8")
    out = tmp_path / "preds.tsv"
    assert main(["predict", "--bundle", str(bundle), "--input", str(data),
                 "--output", str(out)]) == EXIT_OK
    ids = [ln.split("\t")[0] for ln in out.read_text().splitlines()]
    assert ids == ["0", "2", "4"]


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=12),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6)
record_like = st.fixed_dictionaries(
    {"query_text": st.sampled_from(
        ["SELECT A FROM `p.d.t`", "DROP TABLE `p.d.t`", " ", "WITH ("])
     | json_values},
    optional={name: st.just(value) | st.none() | json_values
              | st.integers(-3, 2 ** 64)
              for name, value in generate(WorkloadConfig(
                  n_queries=1, seed=3))[0].to_json_dict().items()
              if name != "query_text"})
raw_text = st.text(alphabet=st.characters(
    blacklist_categories=("Cs",), blacklist_characters="\r\n"), max_size=30)
jsonl_lines = st.lists(st.one_of(record_like.map(json.dumps),
                                 json_values.map(json.dumps), raw_text),
                       max_size=6)


@settings(max_examples=60, deadline=None)
@given(jsonl_lines)
def test_arbitrary_jsonl_counts_every_line_and_exits_cleanly(trained, lines):
    _, _, bundle = trained
    with tempfile.TemporaryDirectory() as tmp:
        data, out = Path(tmp) / "in.jsonl", Path(tmp) / "out.tsv"
        data.write_text("".join(ln + "\n" for ln in lines), encoding="utf-8")
        non_blank = sum(1 for ln in lines if ln.strip())
        for training in (True, False):
            records, stats = ingest(data, training=training)
            assert stats.balanced() and stats.read == non_blank
            assert stats.positions == sorted(set(stats.positions))
            assert len(records) == stats.kept == len(stats.positions)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["predict", "--bundle", str(bundle), "--input",
                         str(data), "--output", str(out)])
        # a documented exit code, and the clean one: every record is either
        # priced or counted as dropped
        assert code == EXIT_OK
        ids = [int(ln.split("\t")[0]) for ln in out.read_text().splitlines()]
        assert ids == stats.positions


def test_advise_below_threshold(trained, tmp_path, capsys):
    _, _, bundle = trained
    qf = tmp_path / "cheap.sql"
    qf.write_text("SELECT A FROM `p.d.t`", encoding="utf-8")
    assert main(["advise", "--bundle", str(bundle), "--query-file", str(qf),
                 "--warn-threshold", "1e9"]) == EXIT_OK
    assert "predicted slot-minutes" in capsys.readouterr().out


def test_advise_exceeds_threshold(trained, tmp_path, capsys):
    _, _, bundle = trained
    qf = tmp_path / "q.sql"
    qf.write_text("SELECT A FROM `p.d.t` JOIN `p.d.u` U ON A = U.A",
                  encoding="utf-8")
    assert main(["advise", "--bundle", str(bundle), "--query-file", str(qf),
                 "--warn-threshold", "0"]) == EXIT_WARN
    assert "WARNING" in capsys.readouterr().out


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
def test_advise_rejects_non_finite_threshold(trained, tmp_path, capsys,
                                             threshold):
    _, _, bundle = trained
    qf = tmp_path / "q.sql"
    qf.write_text("SELECT A FROM `p.d.t`", encoding="utf-8")
    assert main(["advise", "--bundle", str(bundle), "--query-file", str(qf),
                 f"--warn-threshold={threshold}"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--warn-threshold" in captured.err


def test_evaluate_writes_reports(trained, tmp_path):
    _, data, bundle = trained
    outdir = tmp_path / "reports"
    assert main(["evaluate", "--bundle", str(bundle), "--input", str(data),
                 "--report-dir", str(outdir)]) == EXIT_OK
    assert (outdir / "report.txt").exists()
    doc = json.loads((outdir / "report.json").read_text(encoding="utf-8"))
    assert doc["baseline_source"] == "train-derived"
    assert [t["name"] for t in doc["tiers"]] == ["full", "cost-significant",
                                                 "long-tail"]
    csv_lines = (outdir / "plotdata.csv").read_text(encoding="utf-8").splitlines()
    assert csv_lines[0] == "actual,predicted,residual"
    assert len(csv_lines) == 401


def test_evaluate_test_derived_baseline(trained, tmp_path):
    _, data, bundle = trained
    outdir = tmp_path / "reports2"
    assert main(["evaluate", "--bundle", str(bundle), "--input", str(data),
                 "--report-dir", str(outdir),
                 "--baseline-mode", "test-derived"]) == EXIT_OK
    doc = json.loads((outdir / "report.json").read_text(encoding="utf-8"))
    assert doc["baseline_source"] == "test-derived"


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------

def test_usage_error_unknown_command(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


def test_usage_error_missing_argument(capsys):
    assert main(["analyze"]) == EXIT_USAGE


def test_missing_file_is_io_error(capsys):
    assert main(["analyze", "--query-file", "/nonexistent/q.sql"]) == EXIT_IO
    assert "file error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "advise", "config"])
def test_non_utf8_text_file_is_io_error(trained, tmp_path, capsys, command):
    _, data, bundle = trained
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"SELECT \xff FROM t\n")
    argv = {"analyze": ["analyze", "--query-file", str(bad)],
            "advise": ["advise", "--bundle", str(bundle), "--query-file",
                       str(bad), "--warn-threshold", "1"],
            "config": ["train", "--input", str(data), "--output-bundle",
                       str(tmp_path / "m.sltb"), "--config", str(bad)]}
    assert main(argv[command]) == EXIT_IO
    captured = capsys.readouterr()
    assert captured.err.startswith("file error: ")
    assert "not UTF-8" in captured.err and captured.out == ""


def resigned_header(data: bytes, edit) -> bytes:
    """The bundle with its JSON header edited and the SHA-256 trailer
    recomputed, so only the header checks can catch the edit."""
    header_len = int.from_bytes(data[8:16], "little")
    header = json.loads(data[16:16 + header_len])
    edit(header)
    text = json.dumps(header).encode("utf-8")
    body = (data[:8] + len(text).to_bytes(8, "little") + text
            + data[16 + header_len:-32])
    return body + hashlib.sha256(body).digest()


def _drop(key):
    return lambda header: header.pop(key)


def _rename_route(old, new):
    def edit(header):
        header["forests"][new] = header["forests"].pop(old)
        for spec in header["arrays"]:
            spec["name"] = spec["name"].replace(f"forest.{old}.",
                                                f"forest.{new}.")
    return edit


def _asset_key(index, key):
    """Set one featurizer asset-count key; ``key`` maps the list to it."""
    def edit(header):
        keys = header["featurizer"]["asset_count_keys"]
        keys[index] = key(keys)
    return edit


def _forest_config(field, value):
    def edit(header):
        for meta in header["forests"].values():
            meta["config"][field] = value
    return edit


@pytest.mark.parametrize("edit", [
    _drop("router"), _drop("metadata"),
    _drop("featurizer"), _drop("forests"), _drop("arrays"),
    lambda h: h["router"].update(extra=1),
    lambda h: h["router"].pop("threshold"),
    lambda h: h["router"].update(threshold="26"),
    lambda h: h.update(metadata=[]),
    lambda h: h["featurizer"].pop("vocabulary"),
    lambda h: h["arrays"][0].pop("dtype"),
    lambda h: h["arrays"][0].update(shape="x"),
    lambda h: next(iter(h["forests"].values())).pop("b0"),
    _forest_config("max_bins", 400), _forest_config("learning_rate", -1),
    _forest_config("unknown", 1), _forest_config("learning_rate", 10**400),
    lambda h: [m["config"].pop("learning_rate") for m in h["forests"].values()],
    lambda h: h["featurizer"].update(config={}),
    lambda h: h["featurizer"]["config"].update(svd_components=-5),
    lambda h: h["featurizer"]["config"].update(top_n_categories=-1),
    lambda h: h["featurizer"]["config"].update(cache=1),
    lambda h: h["featurizer"].update(impute_medians={}),
    lambda h: h["featurizer"]["category_maps"].pop("region"),
    lambda h: h["featurizer"]["asset_count_keys"].append("extra"),
    lambda h: h["featurizer"]["category_maps"].update(region="abc"),
    lambda h: h["featurizer"]["category_maps"].update(region=[1, 2, 3]),
    lambda h: h["featurizer"]["category_maps"].update(
        region=["us", "us", "eu"]),
    _asset_key(0, lambda keys: 7),
    _asset_key(1, lambda keys: keys[0]),
    lambda h: h["featurizer"].update(
        vocabulary=h["featurizer"]["vocabulary"][5:]),
    lambda h: h["forests"].pop("complex"),
    _rename_route("complex", "spare"),
    lambda h: h["metadata"].pop("train_target_mean"),
    lambda h: h["metadata"].pop("train_target_median"),
    lambda h: h["metadata"].update(train_target_mean=float("nan")),
    lambda h: h["metadata"].update(train_target_median="3.5"),
    lambda h: h["metadata"].update(train_target_mean=10**400),
    lambda h: h["metadata"].update(train_target_mean=-1e308),
    lambda h: h["metadata"].update(train_target_median=-0.5),
    lambda h: next(iter(h["forests"].values())).update(b0=10**400),
    lambda h: next(iter(h["forests"].values())).update(b0=True),
    lambda h: next(iter(h["forests"].values())).update(b0="0.5"),
    lambda h: h["featurizer"]["impute_medians"].update(account_count=True),
    lambda h: h["featurizer"]["impute_medians"].update(account_count="2.0"),
], ids=["no-router", "no-metadata", "no-featurizer",
        "no-forests", "no-arrays", "router-extra-key", "router-missing-key",
        "router-threshold-string",
        "metadata-list", "featurizer-missing-key", "array-spec-no-dtype",
        "array-shape-string", "forest-no-b0", "config-max_bins-400",
        "config-negative-learning_rate", "config-unknown-key",
        "config-learning_rate-beyond-float",
        "config-missing-key", "featurizer-config-empty",
        "featurizer-config-negative-svd_components",
        "featurizer-config-negative-top_n_categories",
        "featurizer-config-unknown-key",
        "featurizer-impute_medians-empty", "featurizer-category_maps-no-region",
        "featurizer-extra-asset-count-key",
        "featurizer-category_maps-string", "featurizer-category_maps-ints",
        "featurizer-category_maps-repeated", "featurizer-asset-count-key-int",
        "featurizer-asset-count-key-repeated", "featurizer-vocabulary-short",
        "forests-no-complex",
        "forests-unknown-route", "metadata-no-train_target_mean",
        "metadata-no-train_target_median", "metadata-train_target_mean-nan",
        "metadata-train_target_median-string",
        "metadata-train_target_mean-beyond-float",
        "metadata-train_target_mean-negative",
        "metadata-train_target_median-negative", "forest-b0-beyond-float",
        "forest-b0-bool", "forest-b0-string", "impute_medians-bool",
        "impute_medians-string"])
def test_resigned_malformed_header_is_io_error(trained, tmp_path, capsys, edit):
    _, data, bundle = trained
    bad = tmp_path / "bad.sltb"
    bad.write_bytes(resigned_header(bundle.read_bytes(), edit))
    assert main(["predict", "--bundle", str(bad), "--input", str(data),
                 "--output", str(tmp_path / "p.tsv")]) == EXIT_IO
    assert capsys.readouterr().err.startswith("file error: ")


def test_resigned_unedited_header_still_loads(trained, tmp_path):
    _, data, bundle = trained
    raw = bundle.read_bytes()
    same = tmp_path / "same.sltb"
    same.write_bytes(resigned_header(raw, lambda header: None))
    assert same.read_bytes() != raw  # the header was re-encoded
    assert main(["predict", "--bundle", str(same), "--input", str(data),
                 "--output", str(tmp_path / "p.tsv")]) == EXIT_OK


def _model_array(path, value, index=0):
    """Set one entry of the array at a dotted attribute path of the model."""
    def edit(model):
        attrgetter(path)(model).flat[index] = value
    return edit


def _leaf_value(value, leaf=True):
    def edit(model):
        forest = next(iter(model.forests.values()))
        node = np.flatnonzero((forest.node_feature < 0) == leaf)[0]
        forest.node_value[node] = value
    return edit


def _b0(value):
    def edit(model):
        next(iter(model.forests.values())).b0 = value
    return edit


def _impute_median(value):
    def edit(model):
        medians = model.featurizer.impute_medians
        medians.update({f: value for f in medians})
    return edit


def _text_state(name, value):
    """Replace a field of the model's frozen TF-IDF state; ``value`` maps
    the state to the new field value."""
    def edit(model):
        state = model.featurizer.text_state
        object.__setattr__(state, name, value(state))
    return edit


@pytest.mark.parametrize("edit", [
    _model_array("featurizer.num_std", np.nan),
    _model_array("featurizer.num_std", 0.0, index=1),
    _model_array("featurizer.num_mean", np.inf),
    _model_array("featurizer.svd_basis.components", np.nan),
    _model_array("featurizer.svd_basis.singular_values", np.nan),
    _impute_median(np.nan),
    _leaf_value(np.nan),
    _leaf_value(np.nan, leaf=False),
    _leaf_value(1e300),
    _b0(np.inf), _b0(-np.inf), _b0(np.nan), _b0(709.0),
    _model_array("featurizer.text_state.doc_freq", 0),
    _text_state("doc_freq", lambda s: s.doc_freq + s.n_docs),
    _text_state("doc_freq", lambda s: s.doc_freq.astype(np.float64)),
    _text_state("n_docs", lambda s: 0),
    _text_state("n_docs", lambda s: "1500"),
    _text_state("n_docs", lambda s: 1500.9),
    _text_state("n_docs", lambda s: 10**400),
], ids=["num_std-nan", "num_std-zero", "num_mean-inf",
        "svd_components-nan", "svd_singular_values-nan",
        "impute_medians-nan", "leaf-value-nan", "inner-node-value-nan",
        "leaf-value-1e300", "b0-inf", "b0-minus-inf", "b0-nan",
        "b0-709-with-leaves", "doc_freq-zero", "doc_freq-above-n_docs",
        "doc_freq-float", "n_docs-zero", "n_docs-string", "n_docs-float",
        "n_docs-beyond-float"])
def test_resigned_non_finite_model_number_is_io_error(trained, tmp_path,
                                                      capsys, edit):
    """A model number edited in memory and saved with a valid checksum:
    loading refuses a non-finite number, a non-positive spread, a forest
    whose prediction could overflow expm1, an n_docs that is not a JSON
    integer and a document frequency that is not a whole number in
    1..n_docs (the idf derived from it could then be negative, infinite or
    too large to score)."""
    _, data, bundle = trained
    model = load_bundle(bundle)
    edit(model)
    bad = tmp_path / "bad.sltb"
    save_bundle(model, bad)
    assert main(["predict", "--bundle", str(bad), "--input", str(data),
                 "--output", str(tmp_path / "p.tsv")]) == EXIT_IO
    assert capsys.readouterr().err.startswith("file error: ")


@pytest.mark.parametrize("command", ["advise", "predict"])
def test_non_finite_feature_row_is_domain_error(trained, tmp_path, capsys,
                                                command):
    """A numeric spread of 5e-324 is finite and positive, so the bundle
    loads; but scaling then overflows a feature to inf. Scoring stops with
    exit 1 and a one-line error, not a traceback."""
    _, data, bundle = trained
    model = load_bundle(bundle)
    model.featurizer.num_std[:] = 5e-324
    tiny = tmp_path / "tiny-std.sltb"
    save_bundle(model, tiny)
    qf = tmp_path / "q.sql"
    qf.write_text("SELECT a, b FROM t WHERE c = 1", encoding="utf-8")
    argv = {"advise": ["advise", "--bundle", str(tiny), "--query-file",
                       str(qf), "--warn-threshold", "1"],
            "predict": ["predict", "--bundle", str(tiny), "--input",
                        str(data), "--output", str(tmp_path / "p.tsv")]}
    assert main(argv[command]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: non-finite entries in feature matrix\n"
    assert captured.out == ""


def test_corrupt_bundle_is_io_error(trained, tmp_path, capsys):
    _, data, bundle = trained
    bad = tmp_path / "bad.sltb"
    raw = bytearray(bundle.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    bad.write_bytes(bytes(raw))
    out = tmp_path / "p.tsv"
    assert main(["predict", "--bundle", str(bad), "--input", str(data),
                 "--output", str(out)]) == EXIT_IO


def test_bundle_with_unsorted_bin_edges_is_io_error(trained, tmp_path,
                                                    capsys):
    """Two edges of one feature swapped in memory and saved with a valid
    checksum: loading refuses them, as binning's search needs sorted edges."""
    _, data, bundle = trained
    model = load_bundle(bundle)
    edges = next(e for e in model.forests["simple"].bin_mapper.bin_edges
                 if e.size >= 2)
    edges[:2] = edges[1::-1].copy()
    bad = tmp_path / "unsorted.sltb"
    save_bundle(model, bad)
    assert main(["predict", "--bundle", str(bad), "--input", str(data),
                 "--output", str(tmp_path / "p.tsv")]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("file error: ") and "non-decreasing" in err


def test_version_mismatch_exit_code(trained, tmp_path, capsys):
    _, data, bundle = trained
    bumped = tmp_path / "future.sltb"
    raw = bytearray(bundle.read_bytes())
    raw[4:8] = (FORMAT_VERSION + 1).to_bytes(4, "little")
    bumped.write_bytes(bytes(raw))
    out = tmp_path / "p.tsv"
    assert main(["predict", "--bundle", str(bumped), "--input", str(data),
                 "--output", str(out)]) == EXIT_VERSION
    assert "bundle version error" in capsys.readouterr().err


@pytest.mark.parametrize("version", [1, 2, 3, 4, 5])
def test_old_format_bundle_is_version_error(trained, tmp_path, capsys,
                                            version):
    """A format-1 bundle holds the retired SVD config keys, a format-2 one
    stores facts that format 3 derives, such as its format version in the
    header, up to format 3 each forest's config holds the retired binning
    sample and its seed, up to format 4 it holds the retired l2, and up to
    format 5 its thresholds are bins of every edge, which format 6 no
    longer stores: each asks for a retrain rather than failing on its
    header or arrays."""
    def as_old_format(header):
        for meta in header["forests"].values():
            if version <= 4:
                meta["config"]["l2"] = 0.0
            if version <= 3:
                meta["config"].update(seed=0, binning_sample=100_000)
        if version <= 2:
            header["format_version"] = version
        if version == 1:
            header["featurizer"]["config"].update(
                svd_seed=0, svd_oversample=10, svd_power_iters=4)

    _, data, bundle = trained
    raw = resigned_header(bundle.read_bytes(), as_old_format)
    body = raw[:4] + version.to_bytes(4, "little") + raw[8:-32]
    old = tmp_path / f"v{version}.sltb"
    old.write_bytes(body + hashlib.sha256(body).digest())
    assert main(["predict", "--bundle", str(old), "--input", str(data),
                 "--output", str(tmp_path / "p.tsv")]) == EXIT_VERSION
    assert "retrain" in capsys.readouterr().err


def test_version_zero_bundle_is_io_error(trained, tmp_path, capsys):
    _, data, bundle = trained
    bad = tmp_path / "v0.sltb"
    raw = bytearray(bundle.read_bytes())
    raw[4:8] = (0).to_bytes(4, "little")
    bad.write_bytes(bytes(raw))
    assert main(["predict", "--bundle", str(bad), "--input", str(data),
                 "--output", str(tmp_path / "p.tsv")]) == EXIT_IO
    assert "file error" in capsys.readouterr().err


def test_domain_error_exit_code(tmp_path, capsys):
    # too few records to train is a domain error, not a crash
    data = tmp_path / "tiny.jsonl"
    write_jsonl(data, generate(WorkloadConfig(n_queries=3, seed=0)))
    assert main(["train", "--input", str(data),
                 "--output-bundle", str(tmp_path / "m.sltb")]) == 1
    assert "error" in capsys.readouterr().err
