"""Randomized most-powerful detection of a dominating component in count panels.

The library turns each observation of an independent, non-identically
distributed panel into a uniform extremeness index via a randomized
probability integral transform, then tests whether the largest index is
too large for the null at exact size alpha.  Applied to region-by-period
Poisson count panels this is an epidemic detector; the bundled fixture
is the Lombardy listeriosis panel.
"""

from . import distributions, errors, monotone, pit, surveillance, umptest, verify
from .distributions import *
from .errors import *
from .monotone import *
from .pit import *
from .surveillance import *
from .umptest import *
from .verify import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += distributions.__all__
__all__ += errors.__all__
__all__ += monotone.__all__
__all__ += pit.__all__
__all__ += surveillance.__all__
__all__ += umptest.__all__
__all__ += verify.__all__
