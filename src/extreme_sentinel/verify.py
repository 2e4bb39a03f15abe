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
s.  The cells whose null and law are both Poisson take their ladders
from one ``distributions._integer_ladders`` call and their brackets from
one ``_poisson_brackets`` call; every other discrete cell reads its
law's cached ``_ladder``.  The tables are concatenated, one cut rule
runs over all their segments, and one search covers every candidate of
a block, each on its own cell's ladder.

The harness reads what ``RandomStream(seed)`` would draw: each chunk of
at most ``_CHUNK`` trials has its whole u block, then its whole v block,
in the stream.  Each chunk is cut into equal row pieces of at most
``_PIECE_CELLS`` (2^18) cells, their row counts differing by at most
one, and a piece's PCG64 starts at the seed and is advanced to its u
rows, so the pieces can run in any order.  A piece fills its u block and
finds its candidates, ``_Tables.candidates``.  It reads v only at its
candidates and continuous cells.  While those are at most
``_FILL_SHARE`` of its cells, it returns its candidates and their u;
once a chunk's pieces are in, the calling thread draws every v they
read in one ``distributions._random_at`` call, at offsets from the
seed, and scores all their candidates in one search, while the workers
fill the next chunk.  A piece past the share fills its v block and
scores its own candidates.  Pieces run inline when there is one piece
or one CPU the process may use (``os.sched_getaffinity``, else
``os.cpu_count()``), and otherwise on a pool of one worker thread per
such CPU.  The pool is started by the
first call that needs it and kept for the life of the process; it is
built again after a fork, whose child has none of its threads, or when
the usable CPUs change.  Python 3.12+ warns on ``os.fork()`` in a
process with more than one thread, which a kept pool makes every process
that has run a parallel call.  Workers fill reused blocks and run numpy
on plain arrays only, and only the filling pieces take a lock, one at a
time scoring their candidates; every model method, and every ``cdf_fn``
of a continuous cell, runs on the calling thread, in one call over all
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
    _integer_ladders,
    _lift_zeros,
    _poisson_brackets,
    _poisson_cdf,
    _random_at,
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
# near 2% read inline and near 1-1.3% on two workers (there 7.9 against 10.3 ms
# at 0.3% read, 17.7 against 12.7 ms at 2.6%).  The benchmark's size runs read
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
    """The discrete cells' tables of one call, concatenated.

    Cell j's table is segment ``seg[j]``: its sampling law's CDF ladder
    and the null's survival brackets at the ladder's points.  Its keys
    are (seg[j], cdf) as complex numbers, so ``keys`` is sorted in the
    lexicographic order numpy gives complex values, and one
    ``searchsorted`` of (seg[j], u) bisects cell j's own segment.
    ``last[j]`` is the segment's last index, the clamp of the search.

    The cut of cell j is cdf[k* - 1] for the first ladder index k* whose
    bracket reaches below s: the search of a uniform u lands at or past
    k* exactly when u > cdf[k* - 1], and a score is clipped into its
    bracket, so no draw u <= cut can score below s.  It is -inf when
    k* == 0 and +inf when no bracket reaches below s.  k* is the first
    such index, not the start of a monotone tail, so the draws past the
    cut are a superset of those that can reject.  A continuous cell has
    cut +inf: no draw of it is a candidate, and the calling thread
    scores it.
    """

    keys: np.ndarray
    lefts: np.ndarray
    rights: np.ndarray
    cuts: np.ndarray
    seg: np.ndarray
    last: np.ndarray
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
        n = len(dists)
        pair = [type(d) is Poisson and type(law) is Poisson for d, law in zip(dists, laws)]
        pois = [j for j in range(n) if pair[j]]
        other = [
            j for j in range(n)
            if not (pair[j] or dists[j].continuous or laws[j].continuous)
        ]
        parts, sizes = [], []
        if pois:
            # One ladder pass for every Poisson/Poisson cell, one gammainc call over its points.
            mean = np.array([laws[j].mean for j in pois])
            pts, cdf, counts = _integer_ladders(
                lambda k, i: _poisson_cdf(k, mean[i]), mean, np.sqrt(mean)
            )
            lefts, rights = _poisson_brackets(pts, np.repeat([dists[j].mean for j in pois], counts))
            parts.append((cdf, lefts, rights))
            sizes.extend(counts)
        for j in other:
            pts, cdf = laws[j]._ladder
            lefts = np.asarray(dists[j].sf_left(pts), dtype=float)
            rights = np.asarray(dists[j].sf(pts), dtype=float)
            parts.append((cdf, lefts, rights))
            sizes.append(cdf.size)
        empty = np.empty(0)
        cdf, lefts, rights = (np.concatenate(col) for col in zip((empty,) * 3, *parts))
        order = pois + other
        sizes = np.asarray(sizes, dtype=np.intp)
        ends = np.cumsum(sizes)
        starts = ends - sizes
        # Each segment's first index whose bracket reaches below s, its end if none;
        # np.clip bounds a score by the smaller of the two brackets from below.
        below = np.minimum.reduceat(
            np.where(np.minimum(lefts, rights) < s, np.arange(cdf.size), cdf.size), starts
        )
        cut = np.where(below == starts, -math.inf, cdf[np.maximum(below, 1) - 1])
        cut[below >= ends] = math.inf
        cuts = np.full(n, math.inf)
        cuts[order] = cut
        seg = np.zeros(n)
        seg[order] = np.arange(len(order))
        last = np.zeros(n, dtype=np.intp)
        last[order] = ends - 1
        keys = np.empty(cdf.size, dtype=complex)
        keys.real = np.repeat(np.arange(len(order)), sizes)
        keys.imag = cdf
        return cls(keys, lefts, rights, cuts, seg, last, s)

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
        query = np.empty(cells.size, dtype=complex)
        query.real = self.seg[cols]
        query.imag = u
        k = np.minimum(np.searchsorted(self.keys, query, side="left"), self.last[cols])
        return rows[_survival_scores(self.lefts[k], self.rights[k], v) < self.s]


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
    1 - Y falls below s = 1 - t.  A discrete cell carries a cut
    cdf[k* - 1] on its sampling law's CDF ladder, the one that law's
    ``skorokhod_quantile`` searches: only the draws past the cut can
    score below s, so only those are searched on the ladder and scored
    against the null's survival brackets, tabulated at the ladder's
    points once per call.  Any other cell draws through
    ``skorokhod_quantile`` and evaluates the null's survival brackets at
    every draw.

    The draws are cut into equal row pieces of at most 2^18 cells, which
    run on the kept worker threads as the module docstring describes: a
    piece that reads v at under 1% of its cells hands its candidates to
    the calling thread, which scores them once per chunk, and only the
    pieces that fill their v blocks score on the workers, one at a time.
    The result is the same on any number of CPUs.
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
        # Pieces write disjoint trials of these; u_cont and v_cont hold the continuous cells' draws.
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

    # A filling piece scores on its worker.  The scoring is many small numpy calls,
    # each taking the GIL; one piece at a time runs it, so two threads do not pass
    # it back and forth call by call, and the fills, which release it, run alongside.
    serial = threading.Lock()

    def fill(piece):
        """Fill the piece's u block.  Past the share, fill its v block and score it;
        else return (a, k, its candidates as flat cell indices, their u)."""
        gen, t, m, a, k = piece
        blocks = [_buffer(k * n)]
        try:
            u = blocks[0][: k * n].reshape(k, n)
            _lift_zeros(gen.random(out=u))
            u_cont[:, a : a + k] = u[:, cont].T
            cand = tables.candidates(u)
            cells, u_at = a * n + cand, u.ravel()[cand]
            # The piece reads v at its candidates and its continuous cells' rows.
            if cand.size + k * len(cont) <= _FILL_SHARE * k * n:
                return a, k, cells, u_at
            at = np.concatenate([cand, (np.arange(k)[:, None] * n + cont).ravel()])
            gen.bit_generator.advance((m - k) * n)
            blocks.append(_buffer(k * n))
            v = _lift_zeros(gen.random(out=blocks[1][: k * n])[at])
            with serial:
                rejected[tables.rejecting(cells, u_at, v[: cand.size])] = True
            v_cont[:, a : a + k] = v[cand.size :].reshape(k, len(cont)).T
        finally:
            _SPARE.extend(blocks)

    def score(t, m, drawn):
        """Draw, in one call, the v that the chunk's returned pieces ``drawn`` read; score them."""
        rows = np.concatenate([np.arange(a, a + k) for a, k, _, _ in drawn])
        cells = np.concatenate([cells for _, _, cells, _ in drawn])
        u_at = np.concatenate([u_at for *_, u_at in drawn])
        at = np.concatenate([cells, (rows[:, None] * n + cont).ravel()])
        v = _lift_zeros(_random_at(origin, (t + m) * n + at))
        rejected[tables.rejecting(cells, u_at, v[: cells.size])] = True
        v_cont[:, rows] = v[cells.size :].reshape(rows.size, len(cont)).T

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
            score(t, m, drawn)
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
