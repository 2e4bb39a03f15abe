"""Independent oracles for the analytic modules.

Three cross-checks that reach their answers by other routes than the
functions they validate: a vectorized Monte Carlo harness for size and
power of the randomized test, an exact enumeration of the p-value bounds
over small product supports, and a one-sample Kolmogorov-Smirnov
uniformity check.  They share with the test only its definitions: the
observed cells' survival brackets, the cut s = 1 - t and the clamped
survival score.

The harness and the enumeration work in survival space, on the brackets [1 - F(x), 1 - F(x-)], so
they reach levels far below the double resolution near 1.  The harness
keeps one table per discrete cell, built once per call: its sampling
law's CDF ladder and the null's survival brackets at the ladder's
points; each trial compares its smallest survival score with
s = 1 - t.  The enumeration integrates each cell's brackets below the
levels min 1 - F(x) and min 1 - F(x-).
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
from .pit import _survival_brackets, _survival_scores
from .umptest import PValueBounds, _survival_cut

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


def _cell_table(d: NullDistribution, law: NullDistribution):
    """A discrete law's CDF ladder and the null's survival brackets at its points.

    None when either model is continuous: such a cell has no ladder.
    """
    if d.continuous or law.continuous:
        return None
    pts, cdf = law._ladder
    return cdf, np.asarray(d.sf_left(pts), dtype=float), np.asarray(d.sf(pts), dtype=float)


def simulate_size_and_power(config: SimulationConfig) -> SimulationResult:
    """Monte Carlo rejection rate of the hard-decision test.

    Each trial draws one panel (from the template, or with one cell's
    sampling law swapped to the alternative), scores every cell in
    survival space with fresh randomizers, and rejects when the smallest
    score 1 - Y falls below s = 1 - t.  A discrete cell searches its
    sampling law's CDF ladder, the one that law's ``skorokhod_quantile``
    searches, and reads the null's survival brackets tabulated at the
    ladder's points once per call; any other cell draws through
    ``skorokhod_quantile`` and evaluates the null's survival brackets at
    the draws.
    """
    dists = config.panel_template
    n = len(dists)
    s = _survival_cut(config.alpha, n)
    laws = list(dists)
    if config.alternative is not None:
        laws[config.alternative.cell_index] = config.alternative.alt_dist
    tables = [_cell_table(d, law) for d, law in zip(dists, laws)]

    stream = RandomStream(config.seed)
    hits = 0
    done = 0
    while done < config.n_trials:
        m = min(_CHUNK, config.n_trials - done)
        u = stream.uniform_open((m, n))
        v = stream.uniform_open((m, n))
        min_score = np.ones(m)
        for j, (d, law, table) in enumerate(zip(dists, laws, tables)):
            if table is None:
                x = law.skorokhod_quantile(u[:, j])
                left = np.asarray(d.sf_left(x), dtype=float)
                right = np.asarray(d.sf(x), dtype=float)
            else:
                cdf, lefts, rights = table
                k = np.minimum(np.searchsorted(cdf, u[:, j], side="left"), cdf.size - 1)
                left, right = lefts[k], rights[k]
            np.minimum(min_score, _survival_scores(left, right, v[:, j]), out=min_score)
        hits += int(np.count_nonzero(min_score < s))
        done += m
    rate = hits / config.n_trials
    se = math.sqrt(rate * (1.0 - rate) / config.n_trials)
    return SimulationResult(rejection_rate=rate, std_error=se, n_trials=config.n_trials)


def _cell_exceedances(dist: NullDistribution, levels) -> list[float]:
    """P(1 - index < s) for one null cell at each level s, by bracket integration.

    Conditional on the count x, 1 - index is uniform on the survival
    bracket [sf(x), sf_left(x)], so the brackets tile the unit interval
    with weight equal to their width; the part of each bracket below s is
    summed exactly.  The mass past the ladder's last point covers
    [0, sf(last)], and an integer ladder is extended until that falls
    below every positive level, so each level is enumerated.
    """
    if dist.continuous:
        return [min(max(s, 0.0), 1.0) for s in levels]
    pts = discrete_probe_points(dist)
    floor = min((s for s in levels if s > 0.0), default=0.0)
    # A tabulated ladder ends at sf == 0; an integer one extends by unit steps.
    while dist.sf(pts[-1]) >= floor > 0.0:
        pts = np.concatenate([pts, pts[-1] + np.arange(1.0, pts.size + 1.0)])
    if pts.size > _MAX_SUPPORT:
        raise SizeError(f"support of {pts.size} points is too large to enumerate")
    sf_right = np.asarray(dist.sf(pts), dtype=float)
    sf_left = np.asarray(dist.sf_left(pts), dtype=float)
    tail = float(sf_right[-1])
    total = math.fsum(sf_left - sf_right) + tail
    if abs(total - 1.0) > 1e-12:
        raise ContractError(f"bracket integration lost probability mass: total {total!r}")
    return [
        math.fsum(np.minimum(s, sf_left) - np.minimum(s, sf_right)) + min(s, tail)
        for s in levels
    ]


def enumerate_pvalue_bounds(dists, observations) -> PValueBounds:
    """Exact p-value bounds for small panels, independent of the analytic form.

    Evaluates P(max index > m) by summation over each cell's support with
    the randomizers integrated out analytically; no Monte Carlo error.
    It compares in survival space, at the levels min sf and min sf_left,
    so bounds far below the double resolution near 1 are enumerated too.
    """
    if len(dists) == 0 or len(dists) != len(observations):
        raise ShapeError("need matching non-empty models and observations")
    if len(dists) > 4:
        raise SizeError("exact enumeration is limited to panels of at most 4 cells")
    sf_left, sf_right = _survival_brackets(dists, observations)
    i_high = int(np.argmin(sf_right))
    i_low = int(np.argmin(sf_left))
    levels = (sf_right[i_high], sf_left[i_low])

    def one_minus_product(exceedances):
        # P(max > y) = 1 - prod(1 - e_i); a certain cell makes it exactly 1.
        if any(e >= 1.0 for e in exceedances):
            return 1.0
        return -math.expm1(math.fsum(math.log1p(-e) for e in exceedances))

    lower, upper = map(one_minus_product, zip(*(_cell_exceedances(d, levels) for d in dists)))
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
