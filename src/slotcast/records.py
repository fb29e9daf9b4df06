"""Ingested query records (the JSONL wire schema) shared across modules."""
from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
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


def _wire(check, **default):
    """A record field whose JSONL value passes check(name, value)."""
    return field(metadata={"check": check}, **default)


@dataclass
class QueryRecord:
    """One query's JSONL record. Each field names the check its value must
    pass, and ``from_json_dict`` runs them in field order."""
    query_text: str = _wire(_text)
    project_id: str = _wire(_text, default="")
    dataset_id: str = _wire(_text, default="")
    region: str = _wire(_text, default="")
    asset_type: str = _wire(_text, default="")
    cache_hit: bool = _wire(_flag, default=False)
    total_bytes_processed: Optional[int] = _wire(_count, default=None)
    total_bytes_billed: Optional[int] = _wire(_count, default=None)
    account_count: Optional[int] = _wire(_count, default=None)
    resource_count: Optional[int] = _wire(_count, default=None)
    accounts_aws: Optional[int] = _wire(_count, default=None)
    accounts_gcp: Optional[int] = _wire(_count, default=None)
    accounts_azure: Optional[int] = _wire(_count, default=None)
    asset_type_counts: Dict[str, int] = _wire(_counts, default_factory=dict)
    creation_time: str = _wire(_text, default="")
    environment: str = _wire(_text, default="")
    total_slot_ms: Optional[float] = _wire(_millis, default=None)
    elapsed_ms: Optional[float] = _wire(_millis, default=None)
    timed_out: bool = _wire(_flag, default=False)

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
        kwargs = {k: check(k, d[k]) for k, check in _CHECKS
                  if d.get(k) is not None}
        kwargs.setdefault("query_text", "")
        return cls(**kwargs)


_CHECKS = tuple((f.name, f.metadata["check"]) for f in fields(QueryRecord))
