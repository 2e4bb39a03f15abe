"""Independent oracles for the analytic modules.

Three cross-checks that reach their answers by other routes than the
functions they validate: a vectorized Monte Carlo harness for size and
power of the randomized test, an exact enumeration of the p-value bounds
over small product supports, and a one-sample Kolmogorov-Smirnov
uniformity check.  They share with the test only its definitions: the
observed cells' survival brackets, the cut s = 1 - t, the clamped
survival score and, through ``umptest._bounds``, the cells attaining
the smallest brackets, ties to the lowest cell.

The harness and the enumeration work in survival space, on the brackets
[1 - F(x), 1 - F(x-)], so they reach levels far below the double
resolution near 1.  The harness keeps four numbers per discrete cell,
built once per call (``_Tables``): with k* the cell's first count whose
null bracket falls below s = 1 - t, its sampling law's F(k* - 1), the
cut, and F(k*), the top, and the null's brackets at k*.  A draw at or
below the cut cannot score below s; one in (cut, top] lands on k* and is
scored from its brackets; one past the top always rejects.  A trial
rejects when any cell's draw does.  Cells whose null and law are both
Poisson find k* by one bisection over all of them; every other discrete
cell scans the null's brackets on its law's cached ``_ladder``.

The harness reads what ``RandomStream(seed)`` would draw: each chunk of
at most ``_CHUNK`` trials has its whole u block, then its whole v block,
in the stream.  Each chunk is cut into equal row pieces of at most
``_PIECE_CELLS`` (2^18) cells, their row counts differing by at most
one, and a piece's PCG64 starts at the seed and is advanced to its u
rows, so the pieces can run in any order.  A piece fills its u block and
finds its candidates, ``_Tables.candidates``.  It reads v only at its
candidates and continuous cells.  While those are at most
``_FILL_SHARE`` of its cells, it returns its candidates, their u and
its continuous cells' u; once a chunk's pieces are in, the calling
thread draws every v they read in one ``distributions._random_at``
call, at offsets from the seed, while the workers fill the next chunk.
A piece past the share fills its v block and reads its v there.  One
routine scores both: it decides the candidates from their cells' four
numbers in one call and keeps the continuous cells' draws.  Pieces run
inline when there is one piece or one CPU the process may use
(``os.sched_getaffinity``, else ``os.cpu_count()``), and otherwise on a
pool of one worker thread per such CPU.  The pool is started by the
first call that needs it and kept for the life of the process; it is
built again after a fork, whose child has none of its threads, or when
the usable CPUs change.  Python 3.12+ warns on ``os.fork()`` in a
process with more than one thread, which a kept pool makes every process
that has run a parallel call.  Workers fill reused blocks and run numpy
on plain arrays only; every model method, and every ``cdf_fn`` of a
continuous cell, runs on the calling thread, in one call over all
trials.  A drawn 0.0 is lifted as ``uniform_open`` does, so a result
does not depend on the number of CPUs, bit for bit.

The enumeration integrates each cell's brackets below the levels
min 1 - F(x) and min 1 - F(x-).
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field, replace

import numpy as np

from .distributions import (
    NullDistribution,
    Poisson,
    RandomStream,
    _lift_zeros,
    _poisson_cdf,
    _poisson_sf,
    _random_at,
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
    "enumerate_pvalue_bounds",
    "ks_uniformity",
]

# Multiplier of 1/sqrt(N) giving the asymptotic 1% critical value of the
# one-sample KS statistic.
KS_CRITICAL_SCALE = 1.628

_CHUNK = 20_000

# Cells of uniforms per piece of a chunk, in each of its u and v blocks.
_PIECE_CELLS = 2**18

# Past this share of its cells read, a piece fills its whole v block and scores
# on its worker; below it, the calling thread draws what the chunk's pieces read
# by one ``_random_at`` call per chunk.  The fill releases the GIL and
# ``_random_at``'s small numpy calls hold it: on a 2-CPU host, 50,000-trial
# fixture calls with every piece drawn against every piece filled broke even
# near 1.5% read inline and near 0.9-1.5% on two workers (there 7.0 against 8.7 ms
# at 0.3% read, 18.4 against 11.6 ms at 2.6%).  The benchmark's size runs read
# 0.3%, its power runs 0.9-2.6%.
_FILL_SHARE = 0.01

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

    Let k* be cell j's first count whose null bracket reaches below s.
    ``cuts[j]`` and ``tops[j]`` are its sampling law's F(k* - 1) and
    F(k*), and ``lefts[j]`` and ``rights[j]`` the null's brackets
    sf(k* - 1) and sf(k*).  A draw u <= cut lands below k*, where no
    bracket reaches below s, and a score is clipped into its bracket, so
    it cannot reject.  A draw in (cut, top] lands on k* and rejects when
    its score falls below s.  A draw past top lands on some x > k*, whose
    upper bracket sf(x - 1) <= sf(k*) < s, so it rejects.  The cut is
    -inf where F(k* - 1) == 0.0, and +inf where it is 1.0, where there is
    no k*, and at a continuous cell: no draw of that cell is a candidate,
    and the calling thread scores it.
    """

    cuts: np.ndarray
    tops: np.ndarray
    lefts: np.ndarray
    rights: np.ndarray
    s: float
    # Set from cuts: the cells whose cut is below 1 - 1/n, and the cuts with +inf at those.
    low: np.ndarray = field(init=False, repr=False)
    high: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        low = self.cuts < 1.0 - 1.0 / self.cuts.size
        object.__setattr__(self, "low", np.flatnonzero(low))
        object.__setattr__(self, "high", np.where(low, math.inf, self.cuts))

    @classmethod
    def build(cls, dists, laws, s: float) -> "_Tables":
        """Poisson/Poisson cells find k* by ``_first_below``; every other discrete
        cell scans its null's brackets on its law's cached ``_ladder``."""
        cuts, tops, lefts, rights = np.full((4, len(dists)), math.inf)
        pair = [type(d) is Poisson and type(law) is Poisson for d, law in zip(dists, laws)]
        pois = np.array(pair, dtype=bool)
        if pois.any():
            nulls, alts = (
                np.array([c.mean for c, p in zip(cells, pair) if p]) for cells in (dists, laws)
            )
            k, lefts[pois], rights[pois] = _first_below(nulls, s)
            cut, tops[pois] = _poisson_cdf(k - np.array([[1.0], [0.0]]), alts)
            cut[~(rights[pois] < s)] = 1.0  # no k*
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
                tops[j], lefts[j], rights[j] = cdf[i], left[i], right[i]
        return cls(cuts, tops, lefts, rights, s)

    def candidates(self, u) -> np.ndarray:
        """Flat indices of the draws of the block u (trials by cells) past their cell's cut.

        The same set as ``np.flatnonzero(u > cuts)``.  A cell whose cut is
        at least 1 - 1/n passes at most 1/n of its draws, so one compare
        with the smallest such cut finds about one hit per row, and each
        hit is then checked against its own cell's cut.  The cells with
        lower cuts, such as a swapped law's or a -inf cut, are compared on
        their own.  Gathering and comparing a column costs about four
        times comparing it in place, so past n/16 such cells the split
        saves little or nothing, and one broadcast compare of the block
        takes its place.
        """
        n = u.shape[1]
        if 16 * self.low.size > n:
            return np.flatnonzero(u > self.cuts)
        flat = u.ravel()
        hits = np.flatnonzero(flat > self.high.min())
        hits = hits[flat[hits] > self.high[hits % n]]
        low = self.low
        rows, i = np.divmod(np.flatnonzero(u[:, low] > self.cuts[low]), low.size)
        return np.concatenate([hits, rows * n + low[i]])

    def rejecting(self, cells, u, v) -> np.ndarray:
        """The trials in which a draw (u, v) of a discrete cell scores below s.

        ``cells`` are flat indices, trial n + cell, of draws past their
        cell's cut; ``u`` and ``v`` are their uniforms and randomizers.
        """
        rows, cols = np.divmod(cells, self.cuts.size)
        scores = _survival_scores(self.lefts[cols], self.rights[cols], v)
        return rows[(u > self.tops[cols]) | (scores < self.s)]


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
    _window_sizes(lo, top)
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


def _workers() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# The kept worker pool, ((process id, threads), executor), or None before
# the first parallel call.
_POOL = None
_POOL_LOCK = threading.Lock()
if hasattr(os, "register_at_fork"):
    # A fork waits for a call that holds the lock: a child's copy of a held lock is never released.
    os.register_at_fork(
        before=_POOL_LOCK.acquire,
        after_in_parent=_POOL_LOCK.release,
        after_in_child=_POOL_LOCK.release,
    )


def _pool_map(fn, items, workers: int):
    """``fn`` over ``items`` on the kept pool of ``workers`` threads, as ``Executor.map``.

    The pool is built again when this process or the thread count is not
    the one it was built for: a forked child has none of its parent's
    threads, and its queued items would never run.  Items are submitted
    under the lock, so no other call shuts the pool down before they are.
    """
    from concurrent.futures import ThreadPoolExecutor

    global _POOL
    key = (os.getpid(), workers)
    with _POOL_LOCK:
        if _POOL is None or _POOL[0] != key:
            if _POOL is not None:
                _POOL[1].shutdown(wait=False)
            _POOL = (key, ThreadPoolExecutor(workers))
        return _POOL[1].map(fn, items)


def _pieces(trials: int, n: int):
    """(chunk start, chunk rows, piece start, piece rows) of every row piece.

    A chunk of m rows is cut into p = ceil(m / rows) pieces, where rows =
    max(``_PIECE_CELLS`` // n, 1), and piece i holds the chunk's rows
    [i m // p, (i + 1) m // p): at most rows each, and no two differing
    by more than one row, so the workers finish together.
    """
    rows = max(_PIECE_CELLS // n, 1)
    for t in range(0, trials, _CHUNK):
        m = min(_CHUNK, trials - t)
        p = -(-m // rows)
        ends = [t + i * m // p for i in range(p + 1)]
        for a, b in zip(ends, ends[1:]):
            yield t, m, a, b - a


# Uniform blocks that finished pieces gave back, for the next piece or call.
# A piece overwrites the part it reads; list.pop and list.append are atomic.
_SPARE: list[np.ndarray] = []


def _buffer(size: int) -> np.ndarray:
    """A spare float block of at least ``size`` cells; give it back to ``_SPARE``.

    Kept blocks are not faulted in again on every call, as fresh ones
    may be when the allocator hands their pages back to the system.
    """
    try:
        block = _SPARE.pop()
    except IndexError:
        return np.empty(size)
    return block if block.size >= size else np.empty(size)


def simulate_size_and_power(config: SimulationConfig) -> SimulationResult:
    """Monte Carlo rejection rate of the hard-decision test.

    Each trial draws one panel (from the template, or with one cell's
    sampling law swapped to the alternative), scores every cell in
    survival space with fresh randomizers, and rejects when some score
    1 - Y falls below s = 1 - t.  A discrete cell draws by the inverse
    its law's ``skorokhod_quantile`` computes, but only its draws past the
    cut F(k* - 1) are read: past F(k*) they reject, and the others land
    on k* and are scored from the null's brackets there.  Any other
    cell draws through ``skorokhod_quantile`` and evaluates the null's
    survival brackets at every draw.

    The draws are cut into equal row pieces of at most 2^18 cells, which
    run on the kept worker threads as the module docstring describes: a
    piece that reads v at under 1% of its cells hands its candidates to
    the calling thread, which draws their v once per chunk, and a piece
    that fills its v block reads them there; one ``score`` routine serves
    both.  The result is the same on any number of CPUs.
    """
    dists = config.panel_template
    n = len(dists)
    s = _survival_cut(config.alpha, n)
    laws = list(dists)
    if config.alternative is not None:
        laws[config.alternative.cell_index] = config.alternative.alt_dist
    tables = _Tables.build(dists, laws, s)
    cont = np.flatnonzero([d.continuous or law.continuous for d, law in zip(dists, laws)])
    trials = config.n_trials
    try:
        rejected = np.zeros(trials, dtype=bool)
        # Each score writes its own trials; u_cont and v_cont hold the continuous cells' draws.
        u_cont = np.empty((len(cont), trials))
        v_cont = np.empty((len(cont), trials))
    except (ValueError, MemoryError):  # numpy's refusals of a size it cannot allocate
        raise SizeError(f"n_trials is too large to allocate: {_shown(trials)}") from None
    stream = RandomStream(config.seed)
    # The chunk at trial t, of m trials, has its u block 2tn draws in and its v
    # block mn draws later: cell c of trial r has its u at draw (t + r)n + c and
    # its v at draw (t + m + r)n + c.
    pieces = [
        (stream._generator_at((t + a) * n), t, m, a, k) for t, m, a, k in _pieces(trials, n)
    ]
    origin = stream._generator_at(0).bit_generator

    def score(rows, cells, u_at, u_rows, read_v):
        """Score the trials ``rows``: their candidates ``cells``, as flat indices trial
        n + cell, with uniforms ``u_at``, and their continuous cells' uniforms ``u_rows``.
        ``read_v(at)`` gives the randomizers at flat indices ``at``."""
        at = np.concatenate([cells, (rows[:, None] * n + cont).ravel()])
        v = _lift_zeros(read_v(at))
        rejected[tables.rejecting(cells, u_at, v[: cells.size])] = True
        u_cont[:, rows] = u_rows.T
        v_cont[:, rows] = v[cells.size :].reshape(rows.size, len(cont)).T

    def fill(piece):
        """Fill the piece's u block and find its candidates.  Past the share, fill its
        v block and score them; else return them as ``score`` takes them."""
        gen, t, m, a, k = piece
        blocks = [_buffer(k * n)]
        try:
            u = blocks[0][: k * n].reshape(k, n)
            _lift_zeros(gen.random(out=u))
            cand = tables.candidates(u)
            found = np.arange(a, a + k), a * n + cand, u.ravel()[cand], u[:, cont]
            # The piece reads v at its candidates and its continuous cells' rows.
            if cand.size + k * len(cont) <= _FILL_SHARE * k * n:
                return found
            gen.bit_generator.advance((m - k) * n)
            blocks.append(_buffer(k * n))
            block = gen.random(out=blocks[1][: k * n])
            score(*found, lambda at: block[at - a * n])
        finally:
            _SPARE.extend(blocks)

    workers = _workers()
    if min(workers, len(pieces)) == 1:
        results = map(fill, pieces)
    else:
        results = _pool_map(fill, pieces, workers)
    # In piece order: a chunk's pieces are scored once its last one is in.
    drawn = []
    for (_, t, m, a, k), result in zip(pieces, results):
        if result is not None:
            drawn.append(result)
        if a + k == t + m and drawn:
            # One draw of every v the chunk's returned pieces read, at offsets from the seed.
            score(*map(np.concatenate, zip(*drawn)), lambda at: _random_at(origin, (t + m) * n + at))
            drawn = []
    for i, j in enumerate(cont):
        x = laws[j].skorokhod_quantile(u_cont[i])
        left = np.asarray(dists[j].sf_left(x), dtype=float)
        right = np.asarray(dists[j].sf(x), dtype=float)
        rejected |= _survival_scores(left, right, v_cont[i]) < s
    rate = int(np.count_nonzero(rejected)) / trials
    se = math.sqrt(rate * (1.0 - rate) / trials)
    return SimulationResult(rejection_rate=rate, std_error=se, n_trials=trials)


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
