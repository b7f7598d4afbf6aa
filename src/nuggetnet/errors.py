"""Exception types shared across the package, and the one way its loaders open a file.

Every error message names the offending field, line or dimension so CLI
diagnostics stay actionable.
"""

import contextlib


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
