"""Ingested query records (the JSONL wire schema) shared across modules."""
from __future__ import annotations

from dataclasses import dataclass, field, asdict
from typing import Dict, Optional

from .errors import MalformedRecord

INT64_MAX = 2 ** 63 - 1


def _text(name: str, v):
    if not isinstance(v, str):
        raise MalformedRecord(f"{name} must be a string")
    return v


def _flag(name: str, v):
    if not isinstance(v, bool):
        raise MalformedRecord(f"{name} must be true or false")
    return v


def _number(name: str, v, low, integral: bool):
    if type(v) is int and low <= v <= INT64_MAX:  # the common case, first
        return v
    if (isinstance(v, bool) or not isinstance(v, (int, float))
            or not low <= v <= INT64_MAX
            or (integral and isinstance(v, float) and not v.is_integer())):
        kind = "a whole number" if integral else "a number"
        bounds = "0..2**63-1" if low == 0 else "-(2**63-1)..2**63-1"
        raise MalformedRecord(f"{name} must be {kind} in {bounds}")
    return v


def _count(name: str, v):
    return _number(name, v, 0, integral=True)


def _millis(name: str, v):
    return _number(name, v, -INT64_MAX, integral=False)


def _counts(name: str, v):
    if not isinstance(v, dict):
        raise MalformedRecord(f"{name} must be an object")
    return {k: _count(f"{name}[{k!r}]", c) for k, c in v.items()}


@dataclass
class QueryRecord:
    query_text: str
    project_id: str = ""
    dataset_id: str = ""
    region: str = ""
    asset_type: str = ""
    cache_hit: bool = False
    total_bytes_processed: Optional[int] = None
    total_bytes_billed: Optional[int] = None
    account_count: Optional[int] = None
    resource_count: Optional[int] = None
    accounts_aws: Optional[int] = None
    accounts_gcp: Optional[int] = None
    accounts_azure: Optional[int] = None
    asset_type_counts: Dict[str, int] = field(default_factory=dict)
    creation_time: str = ""
    environment: str = ""
    total_slot_ms: Optional[float] = None
    elapsed_ms: Optional[float] = None
    timed_out: bool = False

    @property
    def slot_min(self) -> float:
        if self.total_slot_ms is None:
            raise ValueError("record has no observed slot time")
        return self.total_slot_ms / 60000.0

    def to_json_dict(self) -> dict:
        d = asdict(self)
        return {k: v for k, v in d.items() if v is not None}

    @classmethod
    def from_json_dict(cls, d) -> "QueryRecord":
        """Build a record from one parsed JSONL value.

        Raises MalformedRecord unless ``d`` is an object with a
        ``query_text`` key whose known fields have the schema's types:
        strings, booleans, counts that are whole numbers in 0..2**63-1 and
        millisecond figures in -(2**63-1)..2**63-1 (negative ones are
        anomalous, not malformed). ``null`` means absent; unknown keys are
        ignored.
        """
        if not isinstance(d, dict):
            raise MalformedRecord(
                f"expected a JSON object, got {type(d).__name__}")
        if "query_text" not in d:
            raise MalformedRecord("missing query_text")
        kwargs = {k: check(k, d[k]) for k, check in _CHECKS.items()
                  if d.get(k) is not None}
        kwargs.setdefault("query_text", "")
        return cls(**kwargs)


_CHECKS = {
    "query_text": _text, "project_id": _text, "dataset_id": _text,
    "region": _text, "asset_type": _text, "creation_time": _text,
    "environment": _text, "cache_hit": _flag, "timed_out": _flag,
    "total_bytes_processed": _count, "total_bytes_billed": _count,
    "account_count": _count, "resource_count": _count,
    "accounts_aws": _count, "accounts_gcp": _count, "accounts_azure": _count,
    "asset_type_counts": _counts, "total_slot_ms": _millis,
    "elapsed_ms": _millis,
}
