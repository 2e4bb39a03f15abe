"""Independent oracles for the analytic modules.

Three cross-checks that reach their answers by other routes than the
functions they validate: a vectorized Monte Carlo harness for size and
power of the randomized test, an exact enumeration of the p-value bounds
over small product supports, and a one-sample Kolmogorov-Smirnov
uniformity check.  They share with the test only its definitions: the
observed cells' survival brackets, the cut s = 1 - t, the clamped
survival score and, through ``umptest._bounds``, the cells attaining
the smallest brackets, ties to the lowest cell.

The harness and the enumeration work in survival space, on the brackets [1 - F(x), 1 - F(x-)], so
they reach levels far below the double resolution near 1.  The harness
keeps one table per discrete cell, built once per call: its sampling
law's CDF ladder, the null's survival brackets at the ladder's points,
and a cut cdf[k* - 1], where k* is the first ladder point whose lower
bracket falls below s = 1 - t.  A draw at or below the cut lands on a
point whose score cannot fall below s, so only the draws past it are
searched and scored; a trial rejects when any cell's score falls below
s.  The enumeration integrates each cell's brackets below the levels
min 1 - F(x) and min 1 - F(x-).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .distributions import NullDistribution, RandomStream
from .errors import (
    ContractError,
    DomainError,
    ParameterError,
    ShapeError,
    SizeError,
    _array,
    _integer,
    _real,
    _seed,
)
from .monotone import discrete_probe_points
from .pit import _survival_brackets, _survival_scores
from .umptest import PValueBounds, _bounds, _survival_cut

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
        _real(self.alpha, "alpha", 0.0, 1.0, error=DomainError)
        _integer(self.n_trials, "n_trials", 1000)
        _seed(self.seed)
        if self.alternative is not None:
            n_cells = len(self.panel_template)
            _integer(self.alternative.cell_index, "alternative cell index", 0, n_cells)
            if not isinstance(self.alternative.alt_dist, NullDistribution):
                raise ParameterError("alternative model must be a NullDistribution")


@dataclass(frozen=True)
class SimulationResult:
    rejection_rate: float
    std_error: float
    n_trials: int


def _cell_table(d: NullDistribution, law: NullDistribution, s: float):
    """A discrete law's CDF ladder, the null's survival brackets at its points, and its cut.

    The cut is cdf[k* - 1] for the first ladder index k* whose bracket
    reaches below s: the search of a uniform u lands at or past k*
    exactly when u > cdf[k* - 1], and a score is clipped into its
    bracket, so no draw u <= cut can score below s.  It is -inf when
    k* == 0 and +inf when no bracket reaches below s.  k* is the first
    such index, not the start of a monotone tail, so the draws past the
    cut are a superset of those that can reject.

    None when either model is continuous: such a cell has no ladder.
    """
    if d.continuous or law.continuous:
        return None
    pts, cdf = law._ladder
    lefts = np.asarray(d.sf_left(pts), dtype=float)
    rights = np.asarray(d.sf(pts), dtype=float)
    # np.clip bounds a score by the smaller of the two brackets from below.
    below = np.flatnonzero(np.minimum(lefts, rights) < s)
    if below.size == 0:
        cut = math.inf
    elif below[0] == 0:
        cut = -math.inf
    else:
        cut = float(cdf[below[0] - 1])
    return cdf, lefts, rights, cut


def simulate_size_and_power(config: SimulationConfig) -> SimulationResult:
    """Monte Carlo rejection rate of the hard-decision test.

    Each trial draws one panel (from the template, or with one cell's
    sampling law swapped to the alternative), scores every cell in
    survival space with fresh randomizers, and rejects when some score
    1 - Y falls below s = 1 - t.  A discrete cell carries a cut
    cdf[k* - 1] on its sampling law's CDF ladder, the one that law's
    ``skorokhod_quantile`` searches: only the draws past the cut can
    score below s, so only those are searched on the ladder and scored
    against the null's survival brackets, tabulated at the ladder's
    points once per call.  Any other cell draws through
    ``skorokhod_quantile`` and evaluates the null's survival brackets at
    every draw.
    """
    dists = config.panel_template
    n = len(dists)
    s = _survival_cut(config.alpha, n)
    laws = list(dists)
    if config.alternative is not None:
        laws[config.alternative.cell_index] = config.alternative.alt_dist
    tables = [_cell_table(d, law, s) for d, law in zip(dists, laws)]
    # A continuous cell is scored at every draw on its own path, never past a cut.
    cuts = np.array([math.inf if t is None else t[3] for t in tables])
    edges = np.zeros(n + 1, dtype=np.intp)

    stream = RandomStream(config.seed)
    hits = 0
    done = 0
    while done < config.n_trials:
        m = min(_CHUNK, config.n_trials - done)
        u = stream.uniform_open((m, n))
        v = stream.uniform_open((m, n))
        rejected = np.zeros(m, dtype=bool)
        # Candidates grouped by cell: cell j's are cand[edges[j]:edges[j + 1]].
        cand = np.flatnonzero(u > cuts)
        rows, cols = np.divmod(cand, n)
        order = np.argsort(cols, kind="stable")
        rows, cand = rows[order], cand[order]
        np.cumsum(np.bincount(cols, minlength=n), out=edges[1:])
        u_cand, v_cand = u.ravel()[cand], v.ravel()[cand]
        for j, (d, law, table) in enumerate(zip(dists, laws, tables)):
            if table is None:
                x = law.skorokhod_quantile(u[:, j])
                left = np.asarray(d.sf_left(x), dtype=float)
                right = np.asarray(d.sf(x), dtype=float)
                rejected |= _survival_scores(left, right, v[:, j]) < s
            else:
                lo, hi = edges[j], edges[j + 1]
                cdf, lefts, rights, _ = table
                k = np.minimum(np.searchsorted(cdf, u_cand[lo:hi], side="left"), cdf.size - 1)
                scores = _survival_scores(lefts[k], rights[k], v_cand[lo:hi])
                rejected[rows[lo:hi][scores < s]] = True
        hits += int(np.count_nonzero(rejected))
        done += m
    rate = hits / config.n_trials
    se = math.sqrt(rate * (1.0 - rate) / config.n_trials)
    return SimulationResult(rejection_rate=rate, std_error=se, n_trials=config.n_trials)


def _unit(p: float) -> float:
    """p clamped to [0, 1], with +0.0 for every zero: -expm1(0.0) is -0.0."""
    return 0.0 if p <= 0.0 else min(p, 1.0)


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
        return [_unit(s) for s in levels]
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
    The levels, the cells attaining them and the brackets come from the
    test's ``_bounds``; only the two bounds are the enumeration's own.
    """
    try:
        matching = len(dists) == len(observations) != 0
    except TypeError:  # no length: a generator or a bare value
        matching = False
    if not matching:
        raise ShapeError("need matching non-empty models and observations")
    if len(dists) > 4:
        raise SizeError("exact enumeration is limited to panels of at most 4 cells")
    bounds = _bounds(*_survival_brackets(dists, observations))
    levels = (
        bounds.sf_right[bounds.argmax_upper_cell],
        bounds.sf_left[bounds.argmax_lower_cell],
    )

    def one_minus_product(exceedances):
        # P(max > y) = 1 - prod(1 - e_i); a certain cell makes it exactly 1.
        if any(e >= 1.0 for e in exceedances):
            return 1.0
        return -math.expm1(math.fsum(math.log1p(-e) for e in exceedances))

    lower, upper = map(one_minus_product, zip(*(_cell_exceedances(d, levels) for d in dists)))
    return replace(bounds, lower=_unit(lower), upper=_unit(upper))


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
    arr = np.sort(_array(samples, "samples", DomainError).ravel())
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
