"""Exception types raised across the package, and its parameter checks.

Everything inherits from ExtremeSentinelError so callers (and the CLI) can
catch package failures with one handler.  Every public entry point checks
its scalar parameters with one rule per kind, so a bad argument raises
the site's package error, never a raw TypeError or ValueError:

* an integer is an ``int`` or numpy integer, not a bool, in [lo, hi);
* a real is a finite Python or numpy int or float, not a bool, inside a
  given interval;
* a seed is a non-negative integer, which is what numpy's SeedSequence
  accepts.

An array argument is whatever numpy reads as a float array, except
bools and strings, which the scalar rules refuse too; a list or tuple
meets that rule element by element, before numpy casts ``True`` to 1.
Any other value raises the site's package error.  A message shows an
int past 64 bits by its size, as Python will not print one past 4300
digits.

``__all__`` lists the nine exception classes; the checks stay private.
"""

import math
import reprlib

import numpy as np

__all__ = [
    "ExtremeSentinelError",
    "ParameterError",
    "DomainError",
    "ShapeError",
    "SizeError",
    "DataError",
    "PanelFormatError",
    "AbsoluteContinuityError",
    "ContractError",
]

_INTEGERS = (int, np.integer)
_REALS = (int, float, np.integer, np.floating)


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
    """A user-supplied callable, or the installed scipy, broke a contract the package relies on."""


class DataError(ExtremeSentinelError):
    """Invalid surveillance panel contents."""


class SizeError(ExtremeSentinelError):
    """A size too large to serve.

    A draw size, a ``convexity_check`` grid, a harness trial count or CDF
    ladders that numpy refuses to allocate; a CDF ladder window reaching
    2**53; exact enumeration past 4 cells or 200,000 support points.
    """


class PanelFormatError(ExtremeSentinelError):
    """Malformed panel CSV input."""


def _shown(value) -> str:
    """``repr(value)``, but an int past 64 bits by its size alone."""
    if isinstance(value, int) and value.bit_length() > 64:
        return f"{'a negative' if value < 0 else 'a'} {value.bit_length()}-bit integer"
    return repr(value)


class _Short(reprlib.Repr):
    """``reprlib.repr``, with ints shown by ``_shown``."""

    def repr_int(self, x, level):
        return _shown(x)


def _integer(value, what: str, lo: int, hi: float = math.inf, error=ParameterError) -> int:
    """``int(value)`` for a non-bool integer in [lo, hi); raises ``error`` otherwise."""
    if isinstance(value, _INTEGERS) and not isinstance(value, bool) and lo <= value < hi:
        return int(value)
    span = f">= {lo}" if hi == math.inf else f"in [{lo}, {hi})"
    raise error(f"{what} must be an integer {span}, got {_shown(value)}")


def _real(
    value,
    what: str,
    lo: float = -math.inf,
    hi: float = math.inf,
    closed: bool = False,
    error=ParameterError,
) -> float:
    """``float(value)`` for a finite non-bool real inside (lo, hi), or [lo, hi] when closed."""
    if isinstance(value, _REALS) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an int past the float range
            x = math.inf
        if math.isfinite(x) and ((lo <= value <= hi) if closed else (lo < value < hi)):
            return x
    span = f"[{lo}, {hi}]" if closed else f"({lo}, {hi})"
    raise error(f"{what} must be a finite real number in {span}, got {_shown(value)}")


def _array(value, what: str, error=ParameterError) -> np.ndarray:
    """``np.asarray(value, dtype=float)`` for real numbers; raises ``error`` otherwise.

    Bools and strings, loose or inside a list, tuple or object array, are
    refused as the scalar rules refuse them; a float array comes back as
    it is, not copied.
    """
    try:
        arr = np.asarray(value, dtype=object if isinstance(value, (list, tuple)) else None)
        if arr.dtype.kind not in "bUSO" or arr.dtype.kind == "O" and all(
            isinstance(x, _REALS) and not isinstance(x, bool) for x in arr.flat
        ):
            return np.asarray(arr, dtype=float)
    except (TypeError, ValueError, OverflowError):
        pass
    raise error(f"{what} must be real numbers, got {_Short().repr(value)}")


def _seed(value) -> int:
    """``int(value)`` for a seed: a non-negative integer."""
    return _integer(value, "seed", 0)
