"""Randomized most-powerful detection of a dominating component in count panels.

The library turns each observation of an independent, non-identically
distributed panel into a uniform extremeness index via a randomized
probability integral transform, then tests whether the largest index is
too large for the null at exact size alpha.  Applied to region-by-period
Poisson count panels this is an epidemic detector; the bundled fixture
is the Lombardy listeriosis panel.
"""

from .distributions import (
    Binomial,
    ContinuousByCdf,
    NullDistribution,
    Poisson,
    RandomStream,
    TabulatedDiscrete,
    Uniform01,
)
from .errors import (
    AbsoluteContinuityError,
    ContractError,
    DataError,
    DomainError,
    ExtremeSentinelError,
    PanelFormatError,
    ParameterError,
    ShapeError,
    SizeError,
)
from .monotone import (
    CheckResult,
    ModelPair,
    alt_extremeness_cdf,
    convexity_check,
    discrete_probe_points,
    mlr_check,
)
from .pit import ExtremenessVector, extremeness_panel, randomized_pit
from .surveillance import (
    CountPanel,
    EpidemicReport,
    PanelCell,
    epidemic_test,
    estimate_lambda,
    listeriosis_fixture_path,
    null_distributions,
    peel_test,
)
from .umptest import (
    PValueBounds,
    TestDecision,
    phi_expected,
    phi_randomized,
    power_single_alternative,
    pvalue_bounds,
    threshold,
)
from .verify import (
    Alternative,
    KsResult,
    SimulationConfig,
    SimulationResult,
    enumerate_pvalue_bounds,
    ks_uniformity,
    simulate_size_and_power,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # distributions
    "RandomStream",
    "NullDistribution",
    "Poisson",
    "Binomial",
    "Uniform01",
    "TabulatedDiscrete",
    "ContinuousByCdf",
    # transform
    "randomized_pit",
    "extremeness_panel",
    "ExtremenessVector",
    # test
    "threshold",
    "phi_expected",
    "phi_randomized",
    "pvalue_bounds",
    "power_single_alternative",
    "TestDecision",
    "PValueBounds",
    # monotone models
    "ModelPair",
    "CheckResult",
    "alt_extremeness_cdf",
    "mlr_check",
    "convexity_check",
    "discrete_probe_points",
    # surveillance
    "PanelCell",
    "CountPanel",
    "EpidemicReport",
    "estimate_lambda",
    "null_distributions",
    "epidemic_test",
    "peel_test",
    "listeriosis_fixture_path",
    # oracles
    "Alternative",
    "SimulationConfig",
    "SimulationResult",
    "KsResult",
    "simulate_size_and_power",
    "enumerate_pvalue_bounds",
    "ks_uniformity",
    # errors
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
