"""Independent oracles for the analytic modules.

Four cross-checks that reach their answers by other routes than the
functions they validate: a Monte Carlo harness for size and power of the
randomized test, the exact rejection rate it estimates, an exact
enumeration of the p-value bounds over small product supports, and a
one-sample Kolmogorov-Smirnov uniformity check.  They share with the test
only its definitions: the observed cells' survival brackets, the cut
s = 1 - t, the clamped survival score and, through ``umptest._bounds``,
the cells attaining the smallest brackets, ties to the lowest cell.

The harness, the exact rate and the enumeration work in survival space,
on the brackets [1 - F(x), 1 - F(x-)], so they reach levels far below the
double resolution near 1.  The harness and the exact rate read four
numbers per discrete cell, built once per call (``_Tables``): with k* the
cell's first count whose null bracket falls below s, its sampling law's
F(k* - 1), the cut, and F(k*), the top, and the null's brackets at k*.
A draw at or below the cut cannot score below s; one in (cut, top] lands
on k* and is scored from its brackets; one past the top always rejects.
A trial rejects when any cell's draw does.  Cells whose null and law are
both Poisson find k* by one bisection over all of them; every other
discrete cell scans the null's brackets on its law's cached ``_ladder``,
and an integer law's counts past it by ``_first_count_below``.

Cells are independent, so the harness draws only the exceedances.  Over T
trials, the draws of a discrete cell past its cut fall in a Binomial(T,
1 - cut) count of trials, uniform among the T, and each such draw is
uniform on (cut, 1).  The harness draws every cell's count in one call,
then each cell's trials, then the draw u and the randomizer v of every
exceedance, and scores them all in one call.  A discrete cell whose draws
pass its cut in more than a quarter of the trials, where a pick would cost
more than the draws it saves, draws u and v at every trial instead, in
chunks of ``_CHUNK`` trials, after the exceedances.  A continuous cell
draws u and v at every trial and is scored over them in one call, before
the next cell draws.  Every draw comes from one ``RandomStream(seed)``
generator on the calling thread, and a drawn 0.0 is lifted as
``uniform_open`` does.

The enumeration integrates each cell's brackets below the levels
min 1 - F(x) and min 1 - F(x-).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .distributions import (
    NullDistribution,
    Poisson,
    RandomStream,
    _IntegerSupport,
    _lift_zeros,
    _poisson_cdf,
    _poisson_sf,
    _window_sizes,
)
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
    _shown,
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
    "exact_rejection_rate",
    "enumerate_pvalue_bounds",
    "ks_uniformity",
]

# Multiplier of 1/sqrt(N) giving the asymptotic 1% critical value of the
# one-sample KS statistic.
KS_CRITICAL_SCALE = 1.628

_MAX_SUPPORT = 200_000

# Trials per chunk of a discrete cell drawn at every trial.  Each array of a
# chunk, 64 KiB of doubles, stays under glibc's 128 KiB mmap threshold, so
# it reuses heap memory instead of being mapped and faulted in on each call.
_CHUNK = 8192


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
        try:
            object.__setattr__(self, "panel_template", tuple(self.panel_template))
        except TypeError:  # not iterable: a bare model
            raise ShapeError("panel template must be a sequence of models") from None
        if len(self.panel_template) == 0:
            raise ShapeError("panel template must not be empty")
        if not all(isinstance(d, NullDistribution) for d in self.panel_template):
            raise ParameterError("panel template must hold NullDistribution instances")
        _real(self.alpha, "alpha", 0.0, 1.0, error=DomainError)
        _integer(self.n_trials, "n_trials", 1000)
        _seed(self.seed)
        if self.alternative is not None:
            if not isinstance(self.alternative, Alternative):
                raise ParameterError("alternative must be an Alternative or None")
            n_cells = len(self.panel_template)
            _integer(self.alternative.cell_index, "alternative cell index", 0, n_cells)
            if not isinstance(self.alternative.alt_dist, NullDistribution):
                raise ParameterError("alternative model must be a NullDistribution")


@dataclass(frozen=True)
class SimulationResult:
    rejection_rate: float
    std_error: float
    n_trials: int


@dataclass(frozen=True)
class _Tables:
    """Four numbers per cell of one call, which decide every draw of its discrete cells.

    Let k* be cell j's first count whose null bracket reaches below s;
    ``ks[j]`` is k*, or nan where there is none.  ``cuts[j]`` and
    ``tops[j]`` are its sampling law's F(k* - 1) and F(k*), and
    ``lefts[j]`` and ``rights[j]`` the null's brackets sf_left(k*) and
    sf(k*).  A draw u <= cut lands below k*, where no bracket reaches
    below s, and a score is clipped into its bracket, so it cannot reject.
    A draw in (cut, top] lands on k* and rejects when its score falls
    below s.  A draw past top lands on some x > k*, whose upper bracket
    sf_left(x) <= sf(k*) < s, so it rejects.  The cut is -inf where
    F(k* - 1) == 0.0, and +inf where it is 1.0, where there is no k*, and
    at a continuous cell: no draw of that cell is past it.
    """

    ks: np.ndarray
    cuts: np.ndarray
    tops: np.ndarray
    lefts: np.ndarray
    rights: np.ndarray
    s: float

    @classmethod
    def build(cls, dists, laws, s: float) -> "_Tables":
        """Poisson/Poisson cells find k* by ``_first_below``; every other discrete
        cell scans its null's brackets on its law's cached ``_ladder``.  Past an
        integer law's ladder its F is 1.0, so no draw lands there and the cut
        stays +inf, but its survival tail may reach a k* that
        ``_first_count_below`` finds, for the exact rate."""
        ks = np.full(len(dists), math.nan)
        cuts, tops, lefts, rights = np.full((4, len(dists)), math.inf)
        pair = [type(d) is Poisson and type(law) is Poisson for d, law in zip(dists, laws)]
        pois = np.array(pair, dtype=bool)
        if pois.any():
            nulls, alts = (
                np.array([c.mean for c, p in zip(cells, pair) if p]) for cells in (dists, laws)
            )
            k, lefts[pois], rights[pois] = _first_below(nulls, s)
            cut, tops[pois] = _poisson_cdf(k - np.array([[1.0], [0.0]]), alts)
            found = rights[pois] < s
            ks[np.flatnonzero(pois)[found]] = k[found]
            cut[~found] = 1.0
            cuts[pois] = np.where(cut == 0.0, -math.inf, np.where(cut == 1.0, math.inf, cut))
        for j in np.flatnonzero(~pois):
            d, law = dists[j], laws[j]
            if d.continuous or law.continuous:
                continue
            pts, cdf = law._ladder
            left, right = (np.asarray(f(pts), dtype=float) for f in (d.sf_left, d.sf))
            # np.clip bounds a score by the smaller of the two brackets from below.
            below = np.flatnonzero(np.minimum(left, right) < s)
            if below.size:
                i = below[0]
                cuts[j] = cdf[i - 1] if i else -math.inf
                ks[j], tops[j], lefts[j], rights[j] = pts[i], cdf[i], left[i], right[i]
            elif isinstance(law, _IntegerSupport):
                k = _first_count_below(d, pts[-1] + 1.0, getattr(law, "trials", math.inf), s)
                if not math.isnan(k):
                    ks[j], tops[j], lefts[j], rights[j] = k, 1.0, d.sf_left(k), d.sf(k)
        return cls(ks, cuts, tops, lefts, rights, s)

    def rejecting(self, rows, cols, u, v) -> np.ndarray:
        """The trials ``rows`` in which the draw u, with randomizer v, of cell ``cols``
        past its cut scores below s."""
        return rows[self.rejects(cols, u, v)]

    def rejects(self, cols, u, v) -> np.ndarray:
        """Whether the draw u, with randomizer v, of cell ``cols`` past its cut scores
        below s."""
        scores = _survival_scores(self.lefts[cols], self.rights[cols], v)
        return (u > self.tops[cols]) | (scores < self.s)


def _first_below(means, s: float):
    """k* of each Poisson(mean), the first count with sf(k*) < s, and sf(k* - 1) and sf(k*).

    One bisection of every mean keeps sf(lo) >= s > sf(hi) on counts.  lo
    starts at -1, where sf is 1.0, or, when s <= 1/2, two counts below
    ceil(mean - ln 2) - 1, where sf > 1/2 since the median is at least
    mean - ln 2 (Choi 1994), so lo moves before k* is found.  By Bennett's
    inequality P(X >= mean + a) <= exp(-a^2 / (2 (mean + a / 3))), sf(hi)
    starts at most s / e; it is evaluated only where hi never moves, and
    where it is not below s, as at s == 0, there is no k*.  A window
    reaching 2**53 raises ``SizeError``: there a step of 1 may not move it.
    """
    log = 1.0 - math.log(max(s, math.ulp(0.0)))
    lo = np.full(means.size, -1.0)
    if s <= 0.5:
        lo = np.maximum(np.ceil(means - math.log(2.0)) - 3.0, lo)
    top = np.ceil(means + log / 3.0 + np.sqrt(log * log / 9.0 + 2.0 * log * means))
    _window_sizes(lo, top, "a count window", "bisect")
    hi, left, right = top, np.ones(means.size), np.zeros(means.size)
    # Each step halves every window; one of width 1 keeps its ends.
    for _ in range(int(np.max(hi - lo) - 1.0).bit_length()):
        mid = np.floor((lo + hi) / 2.0)
        sf = _poisson_sf(mid, means)
        below = sf < s
        hi, right = np.where(below, mid, hi), np.where(below, sf, right)
        lo, left = np.where(below, lo, mid), np.where(below, left, sf)
    kept = hi == top
    right[kept] = _poisson_sf(top[kept], means[kept])
    return hi, left, right


def _first_count_below(dist, lo: float, hi: float, s: float) -> float:
    """The first integer k in [lo, hi] with dist.sf(k) < s, or nan where there is none.

    sf does not rise, so the step from lo doubles until sf falls below s,
    and a bisection finds k in the last step.  No count is sought past
    2**53, where a step of 1 may not move.
    """
    hi, step, at = min(hi, 2.0**53), 1.0, lo
    while at <= hi and dist.sf(at) >= s:
        lo, at, step = at + 1.0, min(at + step, hi) if at < hi else math.inf, 2.0 * step
    if at > hi:
        return math.nan
    # sf is at least s below lo and below s at at.
    while lo < at:
        mid = math.floor((lo + at) / 2.0)
        lo, at = (lo, mid) if dist.sf(mid) < s else (mid + 1.0, at)
    return at


def _tables(config: SimulationConfig):
    """The config's ``_Tables`` and its sampling laws: the template's, with the
    alternative's law swapped in."""
    dists = config.panel_template
    laws = list(dists)
    if config.alternative is not None:
        laws[config.alternative.cell_index] = config.alternative.alt_dist
    return _Tables.build(dists, laws, _survival_cut(config.alpha, len(dists))), laws


def simulate_size_and_power(config: SimulationConfig) -> SimulationResult:
    """Monte Carlo rejection rate of the hard-decision test.

    Each trial draws one panel (from the template, or with one cell's
    sampling law swapped to the alternative), scores every cell in
    survival space with fresh randomizers, and rejects when some score
    1 - Y falls below s = 1 - t.  Only a discrete cell's draws past its
    cut F(k* - 1) can reject, so only they are drawn, as the module
    docstring describes: past F(k*) they reject, and the others land on
    k* and are scored from the null's brackets there.  A cell whose draws
    pass its cut in more than a quarter of the trials draws at every
    trial instead, chunk by chunk.  A continuous cell draws through its
    law's ``skorokhod_quantile`` at every trial and evaluates the null's
    survival brackets at every draw.  The same config gives the same
    result; ``exact_rejection_rate`` gives the rate it estimates.
    """
    tables, laws = _tables(config)
    dists, trials = config.panel_template, config.n_trials
    try:
        rejected = np.zeros(trials, dtype=bool)
    except (ValueError, MemoryError):  # numpy's refusals of a size it cannot allocate
        raise SizeError(f"n_trials is too large to allocate: {_shown(trials)}") from None
    gen = RandomStream(config.seed)._gen
    cells = np.flatnonzero(tables.cuts < math.inf)
    low = np.maximum(tables.cuts[cells], 0.0)  # a -inf cut passes every draw
    # A draw past the cut costs about four drawn at every trial, for its pick, its
    # cell's numbers gathered and its trial's flag set (30-40 ns against 8.4 ns at
    # 50,000 trials on a 2-CPU Xeon), so a cell whose draws pass its cut in more
    # than a quarter of the trials draws at every trial.
    every = 4.0 * (1.0 - low) > 1.0
    dense, cells, low = cells[every], cells[~every], low[~every]
    counts = gen.binomial(trials, 1.0 - low)
    drawn = counts > 0
    cells, low, counts = cells[drawn], low[drawn], counts[drawn]
    # numpy picks by Floyd's algorithm or, past a share of the trials, by a partial shuffle.
    picked = [gen.choice(trials, k, replace=False, shuffle=False) for k in counts.tolist()]
    rows = np.concatenate([np.empty(0, dtype=np.int64), *picked])
    low = np.repeat(low, counts)
    u = low + (1.0 - low) * _lift_zeros(gen.random(rows.size))
    v = _lift_zeros(gen.random(rows.size))
    rejected[tables.rejecting(rows, np.repeat(cells, counts), u, v)] = True
    for j in dense.tolist():
        for a in range(0, trials, _CHUNK):
            m = min(_CHUNK, trials - a)
            u, v = _lift_zeros(gen.random(m)), _lift_zeros(gen.random(m))
            rejected[a : a + m] |= (u > tables.cuts[j]) & tables.rejects(j, u, v)
    for d, law in zip(dists, laws):
        if d.continuous or law.continuous:
            x = law.skorokhod_quantile(_lift_zeros(gen.random(trials)))
            left, right = (np.asarray(f(x), dtype=float) for f in (d.sf_left, d.sf))
            rejected |= _survival_scores(left, right, _lift_zeros(gen.random(trials))) < tables.s
    rate = int(np.count_nonzero(rejected)) / trials
    se = math.sqrt(rate * (1.0 - rate) / trials)
    return SimulationResult(rejection_rate=rate, std_error=se, n_trials=trials)


def exact_rejection_rate(config: SimulationConfig) -> float:
    """The rejection rate ``simulate_size_and_power`` estimates, without Monte Carlo error.

    Cells are independent, so the rate is 1 - prod(1 - q_j), summed in
    log1p, where q_j is the chance that cell j's score falls below s.  A
    discrete cell's draw rejects past k*, and at k* with the chance w =
    (s - sf(k*)) / (sf_left(k*) - sf(k*)), clipped to [0, 1], that its
    score falls below s; so q = sf_law(k*) + w (sf_left_law(k*) -
    sf_law(k*)), read in survival space.  A cell with no k* has q = 0, and
    a continuous cell whose law is its null has q = s.  Any other
    continuous cell raises ``ContractError``: its law's chance to score
    below s is not available in survival space.  An integer law's mass
    past its ladder, where its F rounds to 1.0, counts here, though no
    draw of the harness lands there: at most 2**-53 per cell.
    """
    tables, laws = _tables(config)
    s = tables.s
    with np.errstate(divide="ignore", invalid="ignore"):
        # Equal brackets score sf(k*) < s: (s - sf(k*)) / 0 is inf, clipped to 1.
        w = np.clip((s - tables.rights) / (tables.lefts - tables.rights), 0.0, 1.0)
    q = np.zeros(len(laws))
    for j, (d, law) in enumerate(zip(config.panel_template, laws)):
        if d.continuous or law.continuous:
            if law != d:
                raise ContractError(
                    f"no exact rate for cell {j}: its sampling law is not its continuous null"
                )
            q[j] = s
        elif not math.isnan(k := tables.ks[j]):
            sf = law.sf(k)
            q[j] = sf + w[j] * (law.sf_left(k) - sf)
    with np.errstate(divide="ignore"):  # a certain cell: log1p(-1) is -inf, and the rate 1
        return _unit(-math.expm1(math.fsum(np.log1p(-q))))


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
    # The grid k / n, k = 0..n, and one gap buffer: i / n - arr, then
    # arr - (i - 1) / n, for i = 1..n.
    grid = np.arange(n + 1.0)
    grid /= n
    gap = np.subtract(grid[1:], arr)
    above = np.max(gap)
    stat = float(max(above, np.max(np.subtract(arr, grid[:-1], out=gap))))
    crit = KS_CRITICAL_SCALE / math.sqrt(n)
    return KsResult(statistic=stat, critical_value=crit, pass_at_1pct=bool(stat < crit))
