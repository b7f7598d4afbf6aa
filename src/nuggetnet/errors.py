"""Exception types shared across the package, the one way its loaders open a file, and the one typed JSON reader.

Every error message names the offending field, line or dimension so CLI
diagnostics stay actionable.  The run config, a checkpoint's model config
and the trainer state are each read by `from_json`, which takes the field
list and the value types from the dataclass, so each declares them once.
"""

import contextlib
import enum
import math
import sys
import typing
from dataclasses import MISSING, fields, is_dataclass


class NuggetError(Exception):
    """Base class for all errors raised by this package."""


class CorpusFormatError(NuggetError):
    """A corpus or prediction file could not be parsed (carries a line number)."""


class CorpusValidationError(NuggetError):
    """A structurally valid record violates a data invariant."""


class ConfigError(NuggetError):
    """A configuration value is missing, unknown or out of range."""


class ShapeError(NuggetError):
    """Tensor shapes passed to a numeric primitive do not line up."""


class NumericError(NuggetError):
    """A non-finite value appeared where finite numbers are required."""


class CheckpointError(NuggetError):
    """A parameter checkpoint is malformed or incompatible with the model."""


class EvalInputError(NuggetError):
    """Gold/prediction inputs to the scorer are inconsistent."""


@contextlib.contextmanager
def reading(path, error: type[NuggetError], binary: bool = False):
    """The file at path, open for reading as UTF-8 text, or as bytes if binary.

    An OSError or UnicodeDecodeError while it is opened or read becomes
    `error`, naming the path, so that a missing file, a directory or a file
    that is not UTF-8 fails like any other bad input.  Errors the caller
    raises pass through.
    """
    try:
        with open(path, "rb" if binary else "r", encoding=None if binary else "utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason})") from exc
    except OSError as exc:
        raise error(f"{path}: {exc.strerror or exc}") from exc


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A JSON number that a float holds: NaN and infinity are numbers here, an integer past the float range is not."""
    return isinstance(value, float) or (_is_int(value) and abs(value) <= sys.float_info.max)


# declared field type -> (what a value must be, the check); a JSON list stands for a tuple
VALUE_CHECKS = {
    "int": ("an integer", _is_int),
    "bool": ("a boolean", lambda v: isinstance(v, bool)),
    "float": ("a number", _is_number),
    "float | None": ("a number or null", lambda v: v is None or _is_number(v)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "str | None": ("a string or null", lambda v: v is None or isinstance(v, str)),
    "tuple[str, ...]": ("a list of strings", lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v)),
    "tuple[float, float, float]": ("a list of numbers", lambda v: isinstance(v, list) and all(map(_is_number, v))),
    "tuple[tuple[int, int], ...]": (
        "a list of [start, end] integer pairs",
        lambda v: isinstance(v, list) and all(isinstance(p, list) and len(p) == 2 and all(map(_is_int, p)) for p in v),
    ),
}


def is_a(value, type_name: str) -> bool:
    """Whether value, as parsed from JSON or YAML, has the declared type type_name (a VALUE_CHECKS key)."""
    return VALUE_CHECKS[type_name][1](value)


def check_value(value, type_name: str, where: str, error: type[NuggetError]):
    """value, if it has the declared type type_name; otherwise `error` naming where."""
    if not is_a(value, type_name):
        raise error(f"{where} must be {VALUE_CHECKS[type_name][0]}, got {value!r}")
    return value


def check_keys(data, keys, where: str, error: type[NuggetError], required=()) -> None:
    """Raise `error` naming where unless data is a mapping with no key outside keys and every key in required."""
    if not isinstance(data, dict):
        raise error(f"{where or 'the top level'} must be a mapping, got {type(data).__name__}")
    unknown = set(data) - set(keys)
    if unknown:
        raise error(f"unknown {where or 'top-level'} keys: {', '.join(sorted(unknown))}")
    missing = [key for key in required if key not in data]
    if missing:
        raise error(f"{where} needs {', '.join(missing)}")


def from_json(cls, data, error: type[NuggetError], where: str = ""):
    """The dataclass cls built from the JSON object data, every value checked against its field's type.

    Only the fields the constructor takes are read.  A field whose annotation
    (source text: the package postpones annotations) VALUE_CHECKS lists is
    checked there, a list becoming a tuple; a dataclass field is read the
    same way, null meaning all defaults unless the field may be None; an enum
    is left to cls's own checks; any other type is a TypeError (add it to
    VALUE_CHECKS).  Each field's own bounds (check_bounds) are checked here,
    so that their errors too name `where.field`; cls's ConfigError, which is
    left with the rules across fields, becomes `error`.
    """
    known = {f.name: f for f in fields(cls) if f.init}
    required = [name for name, f in known.items() if f.default is MISSING and f.default_factory is MISSING]
    check_keys(data, known, where, error, required)
    hints = typing.get_type_hints(cls)
    values, paths = {}, {}
    for name, value in data.items():
        at = paths[name] = f"{where}.{name}" if where else name
        type_name = known[name].type
        if type_name in VALUE_CHECKS:
            check_value(value, type_name, at, error)
            values[name] = tuple(value) if isinstance(value, list) else value
            continue
        hint = hints[name]
        nested = [t for t in typing.get_args(hint) or (hint,) if is_dataclass(t)]
        if nested and not (value is None and type(None) in typing.get_args(hint)):
            values[name] = from_json(nested[0], {} if value is None else value, error, at)
        elif nested or (isinstance(hint, type) and issubclass(hint, enum.Enum)):
            values[name] = value
        else:
            raise TypeError(f"{cls.__name__}.{name}: no value check for type {type_name!r}")
    try:
        for name, value in values.items():
            _check_field(known[name], value, paths[name])
        return cls(**values)
    except ConfigError as exc:
        raise error(str(exc)) from exc


def _check_number(bounds, x, where: str, optional: bool = False) -> None:
    """Raise ConfigError naming where unless the number x keeps bounds; NaN keeps none."""
    lo, gt, hi, finite = (bounds.get(k) for k in ("minimum", "exclusiveMinimum", "exclusiveMaximum", "finite"))
    if (not finite or math.isfinite(x)) and (lo is None or x >= lo) and (gt is None or x > gt) and (hi is None or x < hi):
        return
    rule = f">= {lo}" if lo is not None else f"> {gt}" if gt is not None else ""
    rule = f"in [{lo}, {hi})" if hi is not None else rule
    rule = f"a finite number {rule}".rstrip() if finite else rule
    raise ConfigError(f"{where} must be {rule}{' or null' if optional else ''}, got {x}")


def _check_field(f, value, where: str) -> None:
    """Raise ConfigError naming where unless value keeps the bounds on dataclass field f; None keeps any."""
    bounds = f.metadata
    if value is None or not bounds:
        return
    if not isinstance(value, (tuple, list)):
        return _check_number(bounds, value, where, "None" in str(f.type))
    n, lo = len(value), bounds.get("minItems", 0)
    if not lo <= n <= bounds.get("maxItems", n):
        exact = f"must have exactly {lo} entries, got {n}"
        raise ConfigError(f"{where} {exact if 'maxItems' in bounds else 'must be non-empty'}")
    if bounds.get("uniqueItems") and len(set(value)) != n:
        raise ConfigError(f"{where} contains duplicates")
    for i, x in enumerate(value if "items" in bounds else ()):
        _check_number(bounds["items"], x, f"{where}[{i}]")


def check_bounds(obj) -> None:
    """Raise ConfigError naming the first field of dataclass obj whose value breaks its bounds.

    The bounds are the field's metadata, in JSON Schema's words for the config schema to copy: minimum,
    exclusiveMinimum, exclusiveMaximum (with a minimum) and finite (no NaN or infinity, which JSON cannot
    write) for a number; minItems (1, or equal to maxItems), uniqueItems and items (each entry's) for a tuple.
    """
    for f in fields(obj):
        _check_field(f, getattr(obj, f.name), f.name)


def check_bound(cls, name: str, value, where: str):
    """value, if it keeps the bounds declared on dataclass cls's field name; otherwise ConfigError naming where."""
    _check_field(next(f for f in fields(cls) if f.name == name), value, where)
    return value


def changed_fields(old, new, where: str = "") -> list[str]:
    """`field old -> new` for each field whose value differs between dataclasses old and new, nested ones field by field."""
    changed = []
    for f in fields(old):
        a, b, at = getattr(old, f.name), getattr(new, f.name), f"{where}{f.name}"
        if is_dataclass(a) and is_dataclass(b):
            changed += changed_fields(a, b, f"{at}.")
        elif a != b:
            changed.append(f"{at} {a!r} -> {b!r}")
    return changed
