"""Exception types shared across the package."""


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
