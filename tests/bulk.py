"""The size of the bulk differential tests, a test-only setting.

``EXTREME_SENTINEL_TEST_SIZE`` sets it: the cells of the bulk bracket
test and the offsets of the random-access draw test.  Tier-1 runs them
at the default; CI runs each once more at the size its step names.
"""

import os

SIZE = int(os.environ.get("EXTREME_SENTINEL_TEST_SIZE", "1000"))
