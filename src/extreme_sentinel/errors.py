"""Exception types raised across the package.

Everything inherits from ExtremeSentinelError so callers (and the CLI) can
catch package failures with one handler.
"""


class ExtremeSentinelError(Exception):
    """Base class for all package-specific failures."""


class ParameterError(ExtremeSentinelError):
    """Invalid distribution or configuration parameters."""


class DomainError(ExtremeSentinelError):
    """Argument outside the mathematical domain of an operation."""


class ShapeError(ExtremeSentinelError):
    """Mismatched or empty paired sequences."""


class AbsoluteContinuityError(ExtremeSentinelError):
    """Alternative model puts mass where the null model has none."""


class ContractError(ExtremeSentinelError):
    """A user-supplied callable violated its documented contract."""


class DataError(ExtremeSentinelError):
    """Invalid surveillance panel contents."""


class SizeError(ExtremeSentinelError):
    """Problem instance too large (or unsupported) for exact enumeration."""


class PanelFormatError(ExtremeSentinelError):
    """Malformed panel CSV input."""
