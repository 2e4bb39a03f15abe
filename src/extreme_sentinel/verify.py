"""Independent oracles for the analytic modules.

Three cross-checks that share no code path with the functions they
validate: a vectorized Monte Carlo harness for size and power of the
randomized test, an exact enumeration of the p-value bounds over small
product supports, and a one-sample Kolmogorov-Smirnov uniformity check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import NullDistribution, RandomStream
from .errors import (
    ContractError,
    DomainError,
    ParameterError,
    ShapeError,
    SizeError,
)
from .monotone import discrete_probe_points
from .umptest import PValueBounds, threshold

__all__ = [
    "Alternative",
    "SimulationConfig",
    "SimulationResult",
    "KsResult",
    "simulate_size_and_power",
    "enumerate_pvalue_bounds",
    "ks_uniformity",
]

# Multiplier of 1/sqrt(N) giving the asymptotic 1% critical value of the
# one-sample KS statistic.
KS_CRITICAL_SCALE = 1.628

_CHUNK = 20_000

_MAX_SUPPORT = 200_000


@dataclass(frozen=True)
class Alternative:
    """Swap of one template cell's sampling law."""

    cell_index: int
    alt_dist: NullDistribution


@dataclass(frozen=True)
class SimulationConfig:
    """Reproducible Monte Carlo run description; the seed is mandatory."""

    panel_template: tuple[NullDistribution, ...]
    alpha: float
    n_trials: int
    seed: int
    alternative: Alternative | None = None

    def __post_init__(self):
        object.__setattr__(self, "panel_template", tuple(self.panel_template))
        if len(self.panel_template) == 0:
            raise ShapeError("panel template must not be empty")
        if not all(isinstance(d, NullDistribution) for d in self.panel_template):
            raise ParameterError("panel template must hold NullDistribution instances")
        if not (0.0 < self.alpha < 1.0):
            raise DomainError(f"alpha must lie in (0, 1), got {self.alpha!r}")
        if (
            isinstance(self.n_trials, bool)
            or not isinstance(self.n_trials, (int, np.integer))
            or self.n_trials < 1000
        ):
            raise ParameterError(
                f"n_trials must be an integer >= 1000, got {self.n_trials!r}"
            )
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)):
            raise ParameterError(f"seed is mandatory and must be an integer, got {self.seed!r}")
        if self.alternative is not None:
            idx = self.alternative.cell_index
            if not (isinstance(idx, (int, np.integer)) and 0 <= idx < len(self.panel_template)):
                raise ParameterError(f"alternative cell index {idx!r} outside the panel")
            if not isinstance(self.alternative.alt_dist, NullDistribution):
                raise ParameterError("alternative model must be a NullDistribution")


@dataclass(frozen=True)
class SimulationResult:
    rejection_rate: float
    std_error: float
    n_trials: int


def _bracket_scores(left, right, v):
    # Same guarded form as the scalar transform: stays inside the bracket.
    return np.clip(left + v * (right - left), left, right)


def simulate_size_and_power(config: SimulationConfig) -> SimulationResult:
    """Monte Carlo rejection rate of the hard-decision test.

    Each trial draws one panel (from the template, or with one cell's
    sampling law swapped to the alternative), computes every cell's
    extremeness index with fresh randomizers, and rejects when the
    maximum exceeds the threshold.  Null cells search the CDF ladder
    that their own ``skorokhod_quantile`` searches, so the chain
    exercised here is the real one.
    """
    dists = config.panel_template
    n = len(dists)
    t = threshold(config.alpha, n)
    ladders = [None if d.continuous else d._ladder[1] for d in dists]
    swap = config.alternative

    stream = RandomStream(config.seed)
    hits = 0
    done = 0
    while done < config.n_trials:
        m = min(_CHUNK, config.n_trials - done)
        u = stream.uniform_open((m, n))
        v = stream.uniform_open((m, n))
        max_score = np.zeros(m)
        for j, d in enumerate(dists):
            if swap is not None and j == swap.cell_index:
                # Sample the cell from the alternative, transform by the
                # cell's null CDF bracket.
                x = np.asarray(swap.alt_dist.skorokhod_quantile(u[:, j]))
                left = np.asarray(d.cdf_left(x), dtype=float)
                right = np.asarray(d.cdf(x), dtype=float)
                scores = _bracket_scores(left, right, v[:, j])
            elif ladders[j] is None:
                scores = np.asarray(d.cdf(d.skorokhod_quantile(u[:, j])), dtype=float)
            else:
                table = ladders[j]
                k = np.minimum(np.searchsorted(table, u[:, j], side="left"), table.size - 1)
                padded = np.concatenate([[0.0], table])
                scores = _bracket_scores(padded[k], padded[k + 1], v[:, j])
            np.maximum(max_score, scores, out=max_score)
        hits += int(np.count_nonzero(max_score > t))
        done += m
    rate = hits / config.n_trials
    se = math.sqrt(rate * (1.0 - rate) / config.n_trials)
    return SimulationResult(rejection_rate=rate, std_error=se, n_trials=config.n_trials)


def _cell_exceedance(dist: NullDistribution, y: float) -> float:
    """P(extremeness index > y) for one null cell, by bracket integration.

    Conditional on the count, the index is uniform on its CDF bracket, so
    the brackets tile the unit interval with weight equal to their width;
    the part of each bracket above y is summed exactly.
    """
    if dist.continuous:
        return 1.0 - min(max(y, 0.0), 1.0)
    pts = discrete_probe_points(dist)
    if pts.size > _MAX_SUPPORT:
        raise SizeError(f"support of {pts.size} points is too large to enumerate")
    right = np.asarray(dist.cdf(pts), dtype=float)
    left = np.asarray(dist.cdf_left(pts), dtype=float)
    below = math.fsum(np.minimum(y, right) - np.minimum(y, left))
    above = math.fsum(np.maximum(y, right) - np.maximum(y, left))
    tail = float(dist.sf(pts[-1]))
    total = below + above + tail
    if abs(total - 1.0) > 1e-12:
        raise ContractError(f"bracket integration lost probability mass: total {total!r}")
    return above + tail


def enumerate_pvalue_bounds(dists, observations) -> PValueBounds:
    """Exact p-value bounds for small panels, independent of the analytic form.

    Evaluates P(max index > m) by summation over each cell's support with
    the randomizers integrated out analytically; no Monte Carlo error.
    """
    if len(dists) == 0 or len(dists) != len(observations):
        raise ShapeError("need matching non-empty models and observations")
    if len(dists) > 4:
        raise SizeError("exact enumeration is limited to panels of at most 4 cells")
    sf_right = tuple(float(d.sf(x)) for d, x in zip(dists, observations))
    sf_left = tuple(float(d.sf_left(x)) for d, x in zip(dists, observations))
    i_high = int(np.argmin(sf_right))
    i_low = int(np.argmin(sf_left))
    y_high = max(float(d.cdf(x)) for d, x in zip(dists, observations))
    y_low = max(float(d.cdf_left(x)) for d, x in zip(dists, observations))

    def one_minus_product(exceedances):
        # P(max > y) = 1 - prod(1 - e_i); a certain cell makes it exactly 1.
        if any(e >= 1.0 for e in exceedances):
            return 1.0
        return -math.expm1(math.fsum(math.log1p(-e) for e in exceedances))

    lower = one_minus_product([_cell_exceedance(d, y_high) for d in dists])
    upper = one_minus_product([_cell_exceedance(d, y_low) for d in dists])
    return PValueBounds(
        lower=min(max(lower, 0.0), 1.0),
        upper=min(max(upper, 0.0), 1.0),
        n=len(dists),
        argmax_upper_cell=i_high,
        argmax_lower_cell=i_low,
        sf_left=sf_left,
        sf_right=sf_right,
    )


@dataclass(frozen=True)
class KsResult:
    statistic: float
    critical_value: float
    pass_at_1pct: bool


def ks_uniformity(samples) -> KsResult:
    """One-sample KS statistic against the uniform law on (0, 1).

    Passes when the statistic stays below the asymptotic 1% critical
    value 1.628/sqrt(N); the sample size floor keeps that approximation
    honest.
    """
    arr = np.sort(np.asarray(samples, dtype=float).ravel())
    if arr.size == 0:
        raise ShapeError("no samples given")
    if arr.size < 1000:
        raise ShapeError(f"need at least 1000 samples, got {arr.size}")
    if not np.all(np.isfinite(arr)) or arr[0] < 0.0 or arr[-1] > 1.0:
        raise DomainError("samples must lie in [0, 1]")
    n = arr.size
    i = np.arange(1, n + 1)
    stat = float(max(np.max(i / n - arr), np.max(arr - (i - 1) / n)))
    crit = KS_CRITICAL_SCALE / math.sqrt(n)
    return KsResult(statistic=stat, critical_value=crit, pass_at_1pct=bool(stat < crit))
