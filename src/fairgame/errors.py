"""Exception types shared across the library, and the field check that the
config dataclasses run at construction."""

import math
from dataclasses import fields
from enum import Enum


class FairgameError(Exception):
    """Base class for library errors."""


class DomainError(FairgameError, ValueError):
    """An input lies outside the domain an operation is defined on. Raised
    by a config dataclass, it also carries ``problems``: one message per
    invalid field, each led by the field's name."""


class ConsistencyError(DomainError):
    """T*S > R^2: the closed-form altruism level would exceed 1."""


class SchemaError(FairgameError, ValueError):
    """A file or config does not match its expected schema."""


class StaleBufferError(FairgameError, RuntimeError):
    """An update was fed data collected under a different policy version."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_number(value) -> bool:
    """A number, not a boolean, that converts to a finite float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond float range
        return False


def check_fields(config, rules) -> None:
    """Check every field of a config dataclass; raise one DomainError naming
    each invalid field, with one problem per field.

    First each field must match its annotation: ``int`` an integer, ``bool``
    a boolean, ``float`` a finite number (an integer is kept as given),
    ``float | None`` that or None, and an Enum one of its values, which
    replaces the given value. Then each rule ``(name, holds, message,
    *reads)`` runs while neither ``name`` nor a field it ``reads`` has a
    problem: ``holds(config)`` false records "<name>: <message>, got <value>".
    """
    problems = {}
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(f.type, type) and issubclass(f.type, Enum):
            try:
                object.__setattr__(config, f.name, f.type(value))
            except ValueError:
                problems[f.name] = f"{f.name}: unknown value {value!r}"
            continue
        if f.type is bool:
            valid, kind = isinstance(value, bool), "a boolean"
        elif f.type is int:
            valid, kind = _is_int(value), "an integer"
        elif f.type is float:
            valid, kind = _is_finite_number(value), "a finite number"
        else:  # float | None
            valid, kind = value is None or _is_finite_number(value), "a finite number or None"
        if not valid:
            problems[f.name] = f"{f.name}: must be {kind}, got {value!r}"
    for name, holds, message, *reads in rules:
        if problems.keys().isdisjoint((name, *reads)) and not holds(config):
            problems[name] = f"{name}: {message}, got {getattr(config, name)!r}"
    if problems:
        error = DomainError(f"invalid {type(config).__name__}: " + "; ".join(problems.values()))
        error.problems = list(problems.values())
        raise error
