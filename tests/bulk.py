"""The size and the models of the bulk differential tests, test-only settings.

``EXTREME_SENTINEL_TEST_SIZE`` sets ``SIZE``.  Tier-1 runs the sized tests
at the default; CI runs each once more at the size its step names.  The
README's "Install and test" lists every sized test with its default and
CI size.
"""

import os

import numpy as np

from extreme_sentinel.distributions import Binomial, Poisson, TabulatedDiscrete

# At least _GUIDE_MIN_NEEDLES (1024), so a call of SIZE draws runs on a guide.
SIZE = int(os.environ.get("EXTREME_SENTINEL_TEST_SIZE", "2000"))


def clumped_model():
    """5000 support points in 8 clumps 1e-6 wide, masses over many decades."""
    rng = np.random.default_rng(2026)
    clumps = np.repeat(rng.uniform(-100.0, 100.0, 8), 625)
    support = np.sort(clumps + rng.uniform(0.0, 1e-6, clumps.size))
    masses = rng.exponential(1.0, support.size) ** 6
    return TabulatedDiscrete(tuple(support), tuple(masses / masses.sum()))


# The models of the bulk draw tests, built fresh by each test so that every
# ladder and guide it checks is one it built itself.
BULK_MODELS = {
    "poisson": lambda: Poisson(1e6),
    "binomial": lambda: Binomial(10**5, 0.3),
    "clumped": clumped_model,
}
