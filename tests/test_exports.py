"""The package namespace re-exports exactly the library's public names,
and importing it loads no more of scipy than the CLI needs."""

import importlib
import inspect
import pkgutil

from fresh_process import PACKAGE_ROOT, run_python

import extreme_sentinel
from extreme_sentinel import errors


def test_every_export_resolves():
    missing = [name for name in extreme_sentinel.__all__ if not hasattr(extreme_sentinel, name)]
    assert missing == []


def test_exports_are_the_library_modules_public_names():
    expected = {"__version__"}
    for info in pkgutil.iter_modules(extreme_sentinel.__path__):
        if info.name != "cli":
            module = importlib.import_module(f"extreme_sentinel.{info.name}")
            expected.update(getattr(module, "__all__", ()))
    expected.update(
        name
        for name, obj in vars(errors).items()
        if inspect.isclass(obj) and issubclass(obj, Exception) and obj.__module__ == errors.__name__
    )
    assert len(extreme_sentinel.__all__) == len(set(extreme_sentinel.__all__))
    assert set(extreme_sentinel.__all__) == expected


COLD_START = """
import sys

import extreme_sentinel

assert extreme_sentinel.__file__.startswith(sys.argv[1]), extreme_sentinel.__file__

import numpy as np

from extreme_sentinel import (
    Alternative,
    Binomial,
    ModelPair,
    Poisson,
    RandomStream,
    SimulationConfig,
    cli,
    enumerate_pvalue_bounds,
    listeriosis_fixture_path,
    pvalue_bounds,
    simulate_size_and_power,
)

fixture = str(listeriosis_fixture_path())
for args, status in (
    (["--mode", "test"], 2),
    (["--mode", "peel", "--seed", "7"], 2),
    (["--mode", "simulate-null", "--seed", "1", "--trials", "1000"], 0),
):
    assert cli.main(["--input", fixture, *args]) == status, args
dist = Binomial(10, 0.3)
points = np.arange(-2.0, 13.0) / 2.0
for method in ("cdf", "sf", "cdf_left", "sf_left", "mass", "_log_mass"):
    getattr(dist, method)(points)
    getattr(dist, method)(3.0)
dist.skorokhod_quantile([0.1, 0.5, 0.9])
dist.sample(RandomStream(1), 100)
ModelPair(dist, Binomial(10, 0.6))
cells = [dist, Binomial(25, 0.3), Poisson(2.0)]
pvalue_bounds(cells, [3, 12, 1])
enumerate_pvalue_bounds(cells, [3, 12, 1])
alternative = Alternative(1, Binomial(25, 0.7))
simulate_size_and_power(SimulationConfig(cells, 0.05, 1000, 3, alternative))
assert "scipy.stats" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy.stats"))
value = dist.cdf(3.0)
from scipy.stats import binom

assert value == binom.cdf(3, 10, 0.3), value
"""


def test_binomial_paths_leave_scipy_stats_unloaded():
    # A fresh interpreter: this test session has long since imported scipy.stats.
    done = run_python(COLD_START, PACKAGE_ROOT)
    assert done.returncode == 0, done.stderr


def test_importing_the_package_starts_no_thread():
    # The harness's worker pool starts with its first parallel call, not at import.
    code = (
        "import threading\n"
        "before = threading.active_count()\n"
        "import extreme_sentinel\n"
        "assert threading.active_count() == before, (before, threading.active_count())\n"
    )
    done = run_python(code)
    assert done.returncode == 0, done.stderr
