"""Exception types shared across the package, and the one reader of JSON
input files, which reports every way such a file can fail as one of them."""

import json
from pathlib import Path


class DialogRlError(Exception):
    """Base class for all package errors."""


class SpecError(DialogRlError, ValueError):
    """Invalid network or layer specification."""


class ShapeError(DialogRlError, ValueError):
    """Input shape does not match a model's expected dimensions."""


class ParseError(DialogRlError, ValueError):
    """Malformed data file (goals, KB)."""


class FormatError(DialogRlError, ValueError):
    """Malformed or incompatible model checkpoint."""


class GenerationError(DialogRlError, RuntimeError):
    """Data generation could not satisfy the requested counts."""


class SamplingError(DialogRlError, RuntimeError):
    """Sampling from an empty collection."""


class NumericError(DialogRlError, RuntimeError):
    """Non-finite values produced during training."""


class ConfigError(DialogRlError, ValueError):
    """Inconsistent or incomplete run configuration."""


class ContractViolation(DialogRlError, RuntimeError):
    """An operation was called outside its allowed protocol."""


class EnvSetupError(DialogRlError, RuntimeError):
    """Episode setup failed (e.g. unsatisfiable goal)."""


class AnalysisError(DialogRlError, ValueError):
    """Undefined analytic quantity (empty distribution, zero variance)."""


def read_json(path, error: type[DialogRlError], what: str):
    """The JSON value in the file at ``path``.

    A file that is missing, cannot be read (a directory, say), is not UTF-8
    or is not JSON raises ``error`` with a one-line message that names the
    file's role ``what``, its path and the problem.
    """
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        problem = "file not found"
    except OSError as exc:
        problem = f"cannot read: {exc.strerror or exc}"
    except UnicodeDecodeError as exc:
        problem = f"not UTF-8 text ({exc.reason} at byte {exc.start})"
    except json.JSONDecodeError as exc:
        problem = f"invalid JSON at line {exc.lineno}: {exc.msg}"
    raise error(f"{what} {path}: {problem}")
