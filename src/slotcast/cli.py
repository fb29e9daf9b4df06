"""Command-line surface: ingest JSONL query logs and drive the
analyze/synth/train/predict/advise/evaluate workflows.

Exit codes: 0 ok, 1 domain error, 2 advisory threshold exceeded, 64 usage
or config-file error, 65 bundle version mismatch, 74 file error.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import evaluator, predictor, synth
from .config import settings, with_values
from .errors import (
    BundleVersionMismatch,
    ConfigError,
    CorruptBundle,
    MalformedRecord,
    SlotcastError,
)
from .records import QueryRecord
from .sql_analyzer import (
    DEFAULT_WEIGHTS,
    DISPLAY_NAMES,
    OPERATOR_KINDS,
    analyze_sql,
    clean_query,
)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_WARN = 2
EXIT_USAGE = 64
EXIT_VERSION = 65
EXIT_IO = 74

_DDL_KEYWORDS = {"CREATE", "ALTER", "DROP"}


@dataclass
class IngestStats:
    read: int = 0
    dropped: Dict[str, int] = field(default_factory=lambda: {
        "ddl": 0, "timeout": 0, "anomalous": 0, "empty": 0, "malformed": 0})
    # 0-based position of each kept record among the non-blank input lines
    positions: List[int] = field(default_factory=list)

    @property
    def kept(self) -> int:
        return len(self.positions)

    def balanced(self) -> bool:
        return self.read == self.kept + sum(self.dropped.values())


def _is_trivial_ddl(query_text: str) -> bool:
    """DDL-only statements: first keyword in CREATE/ALTER/DROP and no
    embedded SELECT (CTAS-style statements are kept)."""
    tokens = clean_query(query_text).tokens
    if not tokens or tokens[0] not in _DDL_KEYWORDS:
        return False
    return "SELECT" not in tokens


def ingest(path, training: bool = True) -> Tuple[List[QueryRecord], IngestStats]:
    """Parse a JSONL export and apply the pre-training filters. The DDL
    check runs once per distinct query text."""
    stats = IngestStats()
    records: List[QueryRecord] = []
    ddl: Dict[str, bool] = {}
    # undecodable bytes survive as lone surrogates, which encode() rejects
    # a leading byte order mark is not part of the first record
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            stats.read += 1
            try:
                line.encode("utf-8")
                rec = QueryRecord.from_json_dict(json.loads(line))
            except (ValueError, RecursionError, MalformedRecord) as exc:
                logger.warning("line %d: malformed record (%s)", lineno, exc)
                stats.dropped["malformed"] += 1
                continue
            if not rec.query_text or not rec.query_text.strip():
                stats.dropped["empty"] += 1
                continue
            if rec.timed_out:
                stats.dropped["timeout"] += 1
                continue
            if rec.query_text not in ddl:
                ddl[rec.query_text] = _is_trivial_ddl(rec.query_text)
            if ddl[rec.query_text]:
                stats.dropped["ddl"] += 1
                continue
            if training:
                slot = rec.total_slot_ms
                anomalous = (slot is None or slot < 0
                             or (rec.elapsed_ms == 0 and slot > 0))
                if anomalous:
                    stats.dropped["anomalous"] += 1
                    continue
            records.append(rec)
            stats.positions.append(stats.read - 1)
    return records, stats


# ---------------------------------------------------------------------------
# Config files (flat key=value)
# ---------------------------------------------------------------------------

def _read_text(path) -> str:
    """A UTF-8 text file's contents without a leading byte order mark; other
    bytes are a file error (exit 74). The mark is removed after decoding, so
    an error names the byte's offset in the file."""
    try:
        return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                      f"{exc.start})") from None


def load_config_file(path) -> Dict[str, str]:
    """The file's ``key = value`` lines; a key given twice is an error."""
    values: Dict[str, str] = {}
    for line in _read_text(path).split("\n"):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"expected key=value, got {line!r}")
        key = key.strip()
        if key in values:
            raise ConfigError(f"config key {key} is given twice")
        values[key] = value.strip()
    return values


def _reject_unknown_keys(values: Dict[str, str]) -> None:
    """A key is known when train or synth reads it, so one file serves both."""
    train, workload = predictor.TrainConfig(), synth.WorkloadConfig()
    known = {f"{section.prefix}.{name}" for section in (
        train.featurizer, train.gbrt, train.router, workload, workload.oracle)
        for name in settings(section)}
    unknown = sorted(set(values) - known)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")


def train_config_from_values(values: Dict[str, str]) -> predictor.TrainConfig:
    _reject_unknown_keys(values)
    cfg = predictor.TrainConfig()
    return predictor.TrainConfig(
        featurizer=with_values(cfg.featurizer, values),
        gbrt=with_values(cfg.gbrt, values),
        router=with_values(cfg.router, values))


def workload_config_from_values(values: Dict[str, str]) -> synth.WorkloadConfig:
    _reject_unknown_keys(values)
    cfg = with_values(synth.WorkloadConfig(), values)
    return dataclasses.replace(cfg, oracle=with_values(cfg.oracle, values))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_analyze(args) -> int:
    sql = _read_text(args.query_file)
    report = analyze_sql(sql)
    for kind in OPERATOR_KINDS:
        count = report.counts[kind]
        weight = DEFAULT_WEIGHTS[kind]
        print(f"{DISPLAY_NAMES[kind]:<18} count={count:<4} weight={weight:<3} "
              f"contribution={count * weight}")
    print(f"total complexity score: {report.score}")
    return EXIT_OK


def _cmd_synth(args) -> int:
    values = load_config_file(args.config) if args.config else {}
    flags = {"n_queries": args.n_queries, "seed": args.seed}
    cfg = dataclasses.replace(
        workload_config_from_values(values),
        **{k: v for k, v in flags.items() if v is not None})
    records = synth.generate(cfg)
    with open(args.output, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_json_dict(), sort_keys=True) + "\n")
    print(f"wrote {len(records)} records to {args.output}")
    return EXIT_OK


def _cmd_train(args) -> int:
    values = load_config_file(args.config) if args.config else {}
    cfg = train_config_from_values(values)
    records, stats = ingest(args.input, training=True)
    bundle = predictor.train(records, cfg)
    predictor.save_bundle(bundle, args.output_bundle)
    summary = [
        f"records read: {stats.read}",
        f"records kept: {stats.kept}",
        f"dropped: {stats.dropped}",
        f"route counts: {bundle.metadata['route_counts']}",
        f"fallback routes: {bundle.fallback_routes}",
        f"bundle: {args.output_bundle}",
    ]
    text = "\n".join(summary)
    print(text)
    Path(str(args.output_bundle) + ".summary.txt").write_text(
        text + "\n", encoding="utf-8")
    return EXIT_OK


def _cmd_predict(args) -> int:
    bundle = predictor.load_bundle(args.bundle)
    records, stats = ingest(args.input, training=False)
    results = predictor.predict_many(bundle, records)
    with open(args.output, "w", encoding="utf-8") as fh:
        for i, res in zip(stats.positions, results):
            fh.write(f"{i}\t{res.slot_min:.6f}\t{res.route}\t"
                     f"{res.complexity_score}\n")
    print(f"wrote {len(results)} predictions to {args.output}")
    return EXIT_OK


def _cmd_advise(args) -> int:
    bundle = predictor.load_bundle(args.bundle)
    sql = _read_text(args.query_file)
    record = QueryRecord(query_text=sql)
    res = predictor.predict(bundle, record)
    print(f"predicted slot-minutes: {res.slot_min:.6f} "
          f"(route={res.route}, complexity={res.complexity_score})")
    if res.slot_min >= args.warn_threshold:
        print(f"WARNING: predicted cost {res.slot_min:.6f} slot-min is at or "
              f"above threshold {args.warn_threshold}")
        return EXIT_WARN
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    bundle = predictor.load_bundle(args.bundle)
    records, _ = ingest(args.input, training=True)
    actual = np.array([r.slot_min for r in records])
    results = predictor.predict_many(bundle, records)
    predicted = np.array([r.slot_min for r in results])
    # without a base, tiered_eval derives the baselines from actual
    base = (bundle.train_baselines
            if args.baseline_mode == evaluator.BASELINE_TRAIN else None)
    report = evaluator.tiered_eval(actual, predicted, base=base)
    outdir = Path(args.report_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    for fmt, name in (("text", "report.txt"), ("structured", "report.json"),
                      ("plotdata", "plotdata.csv")):
        (outdir / name).write_bytes(evaluator.emit_report(report, fmt))
    sys.stdout.write(evaluator.emit_report(report, "text").decode("utf-8"))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing / dispatch
# ---------------------------------------------------------------------------

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="slotcast",
                     description="Pre-execution query slot-time prediction")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="score a query's SQL complexity")
    p.add_argument("--query-file", required=True)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("synth", help="generate a synthetic workload")
    p.add_argument("--config", default=None)
    p.add_argument("--output", required=True)
    p.add_argument("--n-queries", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train a model bundle")
    p.add_argument("--input", required=True)
    p.add_argument("--output-bundle", required=True)
    p.add_argument("--config", default=None)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="predict slot-time for a JSONL file")
    p.add_argument("--bundle", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("advise", help="pre-submission cost advisory")
    p.add_argument("--bundle", required=True)
    p.add_argument("--query-file", required=True)
    p.add_argument("--warn-threshold", type=_finite_float, required=True)
    p.set_defaults(func=_cmd_advise)

    p = sub.add_parser("evaluate", help="tiered evaluation against baselines")
    p.add_argument("--bundle", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--report-dir", required=True)
    p.add_argument("--baseline-mode", default=evaluator.BASELINE_TRAIN,
                   choices=[evaluator.BASELINE_TRAIN, evaluator.BASELINE_TEST])
    p.set_defaults(func=_cmd_evaluate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BundleVersionMismatch as exc:
        print(f"bundle version error: {exc}", file=sys.stderr)
        return EXIT_VERSION
    except (OSError, CorruptBundle) as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SlotcastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
