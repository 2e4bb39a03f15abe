"""A fresh interpreter that imports the copy of the package this test session imported."""

import os
import subprocess
import sys
from pathlib import Path

import extreme_sentinel
from extreme_sentinel.cli import ENV_SEED

# The directory the session's package sits in: src/ in a checkout, site-packages in an install.
PACKAGE_ROOT = str(Path(extreme_sentinel.__file__).resolve().parents[1])


def run_python(code, *args):
    """``python -c code *args`` on the session's package, without an ambient seed."""
    env = {k: v for k, v in os.environ.items() if k != ENV_SEED}
    env["PYTHONPATH"] = PACKAGE_ROOT
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120
    )
