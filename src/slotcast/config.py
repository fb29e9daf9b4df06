"""Config sections declared once.

Each config dataclass (featurizer, gbrt, router, synth, oracle) is a
``Section`` declaring its key prefix, and declares each scalar field with
``setting``, which records its kind (that of its default) and its bounds.
The functions here do the jobs all sections share: ``check`` the values,
carry a section through a bundle header (``to_dict``/``from_dict``) and
apply ``key = value`` text to it (``with_values``).
"""
from __future__ import annotations

import dataclasses
import numbers
import sys
from typing import ClassVar, Dict

from .errors import ConfigError

_KINDS = {int: (numbers.Integral, "an integer"),
          float: (numbers.Real, "a finite number")}


def setting(default, *, ge=None, gt=None, le=None):
    """A dataclass field holding an int or float of the default's kind,
    with ``ge <= value``, ``gt < value`` and ``value <= le`` where given."""
    return dataclasses.field(default=default, metadata={
        "kind": type(default), "bounds": (ge, gt, le)})


def settings(section) -> Dict[str, dataclasses.Field]:
    """The declared settings of a section class or instance, by name."""
    return {f.name: f for f in dataclasses.fields(section)
            if "kind" in f.metadata}


class Section:
    """A config dataclass whose keys are ``prefix.<field>``. It is checked
    when built; ``validate`` checks it again after a field has changed."""
    prefix: ClassVar[str]

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        check(self)


def check(section: Section) -> None:
    """Raise ConfigError naming ``prefix.<field>`` for the first setting
    whose value is not of its kind, not finite or out of its bounds."""
    for name, f in settings(section).items():
        v = getattr(section, name)
        kind, what = _KINDS[f.metadata["kind"]]
        ge, gt, le = f.metadata["bounds"]
        # also rejects NaN and an int too large to become a float
        if (isinstance(v, bool) or not isinstance(v, kind)
                or not -sys.float_info.max <= v <= sys.float_info.max
                or (ge is not None and v < ge) or (gt is not None and v <= gt)
                or (le is not None and v > le)):
            want = " and ".join(f"{op} {b}" for op, b in (
                (">=", ge), (">", gt), ("<=", le)) if b is not None)
            raise ConfigError(
                f"{section.prefix}.{name}: {v!r} is not {what} {want}")


def to_dict(section) -> dict:
    """The settings of a section by name, as a bundle header stores them."""
    return {name: getattr(section, name) for name in settings(section)}


def from_dict(cls, values: dict):
    """Inverse of to_dict: a section of class cls built (so checked) from
    values, which must name every setting and nothing else."""
    names = set(settings(cls))
    for problem, keys in (("lacks", names - set(values)),
                          ("has unknown", set(values) - names)):
        if keys:
            raise ConfigError(
                f"{cls.__name__} {problem} {', '.join(sorted(keys))}")
    return cls(**values)


def with_values(section: Section, values: Dict[str, str]):
    """A copy of section with each setting that values names as
    ``prefix.<field>`` parsed from its text; the copy is checked when
    built."""
    changes = {}
    for name, f in settings(section).items():
        key, kind = f"{section.prefix}.{name}", f.metadata["kind"]
        if key in values:
            try:
                changes[name] = kind(values[key])
            except ValueError:
                raise ConfigError(f"{key}: {values[key]!r} is not a valid "
                                  f"{kind.__name__}") from None
    return dataclasses.replace(section, **changes)
