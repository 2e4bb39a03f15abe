"""Null distribution models and the shared randomness contract.

Each model knows its cumulative distribution function F, the left limit
F(x-), point masses, and the generalized inverse

    N(omega) = sup{y : F(y) < omega},  omega in (0, 1),

used for inverse-transform sampling.  N satisfies F(N(omega)) >= omega and
F(z) > omega implies z > N(omega).  For every discrete model N is one
search on a lazily cached CDF ladder: the support points and F at them.
That search, and the support lookups of ``TabulatedDiscrete``, go
through ``_SortedTable``: on calls of 1024 values or more, a bucket
guide over the table sends each value straight to its index, the one
``np.searchsorted`` returns, bit for bit.  Values that share a bucket
with two or more entries, and smaller calls, use ``np.searchsorted``
itself.  Survival counterparts (``sf``, ``sf_left``) are first class so tail
quantities close to 1 keep full relative precision instead of dying in
1 - cdf cancellation.

All numeric methods accept scalars or arrays and mirror the numpy ufunc
convention: scalar in, float out.  Array calls on the integer-support
models (``Poisson``, ``Binomial``) evaluate F once per integer of their
range and gather, so scoring many draws costs one special-function call
per distinct value, not per draw.

Of scipy the models need ``scipy.special`` alone: ``Binomial`` calls the
Boost ufuncs that ``scipy.stats.binom`` runs, so no path loads ``scipy.stats``.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Callable, ClassVar, Sequence

import numpy as np
import scipy
from scipy import special

from .errors import (
    ContractError,
    DomainError,
    ParameterError,
    SizeError,
    _array,
    _integer,
    _real,
    _seed,
    _Short,
)

__all__ = [
    "RandomStream",
    "NullDistribution",
    "Poisson",
    "Binomial",
    "Uniform01",
    "TabulatedDiscrete",
    "ContinuousByCdf",
]

def _lift_zeros(u):
    """``u``, a float or a float array lifted in place, with each 0.0 set to 2**-54.

    ``Generator.random`` rounds [0, 2**-53) down to 0.0; 2**-54 is the middle of that step.
    """
    if isinstance(u, float):
        return u or 2.0**-54
    if u.size and u.min() == 0.0:
        u[u == 0.0] = 2.0**-54
    return u


class RandomStream:
    """Deterministic, seedable source of uniforms on the open interval (0, 1).

    Wraps a 64-bit-seeded PCG64 generator.  A stream has a single owner:
    share the stream object itself, never the underlying generator, and use
    :meth:`spawn` to derive independent child streams for parallel work
    instead of reusing one seed.  The seed is a non-negative integer;
    ``spawn`` passes each child its ``SeedSequence`` instead.  No code of
    the package calls ``spawn``: it is the public seed splitting for
    callers' own parallel streams.
    """

    def __init__(self, seed: int | np.random.SeedSequence):
        if not isinstance(seed, np.random.SeedSequence):
            seed = np.random.SeedSequence(_seed(seed))
        self._seq = seed
        self._gen = np.random.Generator(np.random.PCG64(self._seq))

    def uniform_open(self, size: int | tuple | None = None):
        """Draw uniforms strictly inside (0, 1); scalar when size is None.

        ``size`` is None, a non-negative integer, or a tuple of them.  A
        drawn 0.0 is lifted to 2**-54, never redrawn: draw i is the i-th double.
        """
        if size is None:
            return _lift_zeros(self._gen.random())
        if isinstance(size, tuple):
            size = tuple(_integer(k, "size entry", 0) for k in size)
        else:
            size = _integer(size, "size", 0)
        try:
            u = self._gen.random(size)
        except (ValueError, MemoryError):  # numpy's refusals of a size it cannot allocate
            raise SizeError(f"size is too large to allocate: {_Short().repr(size)}") from None
        return _lift_zeros(u)

    def spawn(self, n: int) -> list["RandomStream"]:
        """Derive n independent child streams (seed splitting)."""
        children = self._seq.spawn(_integer(n, "number of child streams", 0))
        return [RandomStream(child) for child in children]


def _draw(stream, size):
    """``stream.uniform_open(size)``, for any object with that method, such as a scripted stream.

    Anything without a callable ``uniform_open`` raises ``ParameterError``.
    """
    uniform_open = getattr(stream, "uniform_open", None)
    if not callable(uniform_open):
        raise ParameterError(f"stream must be a RandomStream, got {type(stream).__name__}")
    return uniform_open(size)


def _ret(x, values):
    """Return a float for scalar input, the array otherwise."""
    if np.ndim(x) == 0:
        return float(values)
    return np.asarray(values, dtype=float)


def _read_only(values, dtype=float) -> np.ndarray:
    """A read-only copy of ``values`` as an array of ``dtype``."""
    column = np.array(values, dtype=dtype)
    column.flags.writeable = False
    return column


class _Record:
    """Equality and hash of a frozen dataclass of arrays and values, declared with ``eq=False``.

    Two records are equal when they have the same type and every field is:
    arrays by ``np.array_equal``, other fields by ``==``.  The hash reads
    the fields that are not arrays.
    """

    def _values(self) -> list:
        return [getattr(self, f.name) for f in fields(self)]

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(
            np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
            for a, b in zip(self._values(), other._values())
        )

    def __hash__(self):
        return hash(tuple(v for v in self._values() if not isinstance(v, np.ndarray)))


def _array_call(fn, xs: np.ndarray, error: type[Exception]):
    """Evaluate fn on the array xs in one call; return (callable used, values).

    A callable that fails on arrays, or returns another shape, is wrapped
    in ``np.vectorize`` and called per element instead.  A non-callable
    raises ``ParameterError``, and values that cannot be read as floats
    raise ``error``; an exception of the callable's own propagates.
    """
    if not callable(fn):
        raise ParameterError(f"expected a callable, got {type(fn).__name__}")
    try:
        vals = np.asarray(fn(xs), dtype=float)
        if vals.shape != xs.shape:
            raise TypeError
    except Exception:
        fn = np.vectorize(fn, otypes=[object])
        out = fn(xs)
        try:
            vals = np.asarray(out, dtype=float)
        except (TypeError, ValueError):
            raise error("callable returned values that are not numbers") from None
    return fn, vals


def _check_open_unit(omega, what: str = "omega") -> np.ndarray:
    om = _array(omega, what, DomainError)
    if not ((om > 0.0) & (om < 1.0)).all():
        raise DomainError(f"{what} must lie strictly inside (0, 1)")
    return om


def _check_finite(x) -> np.ndarray:
    xa = _array(x, "evaluation point", DomainError)
    if not np.isfinite(xa).all():
        raise DomainError("evaluation point must be finite")
    return xa


class NullDistribution(ABC):
    """One panel cell's model under the null hypothesis."""

    continuous: ClassVar[bool] = False

    @abstractmethod
    def cdf(self, x):
        """F(x) = P(X <= x)."""

    @abstractmethod
    def sf(self, x):
        """P(X > x) = 1 - cdf(x), computed without cancellation."""

    @abstractmethod
    def cdf_left(self, x):
        """Left limit F(x-) = P(X < x)."""

    @abstractmethod
    def sf_left(self, x):
        """P(X >= x) = 1 - cdf_left(x), computed without cancellation."""

    @abstractmethod
    def mass(self, x):
        """Point mass P(X = x); zero everywhere for continuous models."""

    @abstractmethod
    def skorokhod_quantile(self, omega):
        """Generalized inverse N(omega) = sup{y : F(y) < omega}."""

    def sample(self, stream: RandomStream, size: int | tuple | None = None):
        """Inverse-transform sampling: N(U) with U from the stream."""
        return self.skorokhod_quantile(_draw(stream, size))


# Calls with fewer needles go straight to np.searchsorted.  Timed with
# fresh uniform needles per call (Xeon, numpy 2.4), np.searchsorted wins or
# ties up to 512 needles on 5- and 30-point tables, and the guide wins from
# 768 on; at 1024 needles it takes 13 against 20 us on a 5-point table,
# 19 against 28 us on a 30-point ladder and 18 against 74 us on a
# 4372-point one.
_GUIDE_MIN_NEEDLES = 1024

# Buckets per table entry.  On 5- to 30-point ladders one bucket per entry
# sends 3-18% of uniform needles to the fallback search, four send under 2%.
_GUIDE_BUCKETS_PER_ENTRY = 4


class _SortedTable:
    """A non-decreasing float64 table with an exact bucket-guided search.

    ``search(x, side)`` returns exactly ``np.searchsorted(values, x, side)``
    for a float64 array ``x`` without NaN.  The guide (Chen & Asau 1974;
    Devroye 1986, section III.2) maps a needle to the bucket
    ``key(x) = floor((clip(x, t[0], t[-1]) - t[0]) * scale)``, with about
    four buckets per entry.  Each step of that map is monotone in IEEE
    arithmetic, clipping first keeps every product finite, and so key
    never decreases as x grows: an entry in an earlier bucket than the
    needle's is below it, an entry in a later bucket above it.  A needle
    whose bucket holds at most one entry therefore lands at
    ``first + (t[first] < x)`` (``<=`` for side "right"), where ``first``
    counts the entries of the earlier buckets.  The needle's bucket is
    never past the one holding t[-1], so ``first`` is a valid index.

    Needles in a bucket of two or more entries go to ``np.searchsorted``,
    and so do whole calls below ``_GUIDE_MIN_NEEDLES`` (1024) needles, the
    measured crossover under which np.searchsorted is as fast, and tables
    whose scale is not a positive finite float: one-point and flat tables,
    and spans that overflow or are too small to divide by.  The guide is
    built on the first call large enough to use it and kept here, beside
    the table.
    """

    def __init__(self, values: np.ndarray):
        self.values = values
        self._guide = None

    @staticmethod
    def _keys(x, low, high, scale):
        b = np.clip(x, low, high)
        b -= low
        b *= scale
        return b.astype(np.intp)

    def _build(self):
        t = self.values
        low, high = float(t[0]), float(t[-1])
        scale = _GUIDE_BUCKETS_PER_ENTRY * t.size / (high - low) if high > low else math.inf
        if not 0.0 < scale < math.inf:
            return ()
        count = np.bincount(self._keys(t, low, high, scale))
        first = np.cumsum(count) - count
        # -1 marks a bucket of two or more entries; the NaN it reads from the
        # padded table compares false with every needle, so the mark survives.
        first[count > 1] = -1
        return low, high, scale, first, np.append(t, np.nan)

    def search(self, x: np.ndarray, side: str) -> np.ndarray:
        if x.size < _GUIDE_MIN_NEEDLES:
            return np.searchsorted(self.values, x, side)
        if self._guide is None:
            self._guide = self._build()
        if not self._guide:
            return np.searchsorted(self.values, x, side)
        low, high, scale, first, padded = self._guide
        i = first[self._keys(x, low, high, scale)]
        i += padded[i] < x if side == "left" else padded[i] <= x
        if i.min() < 0:
            crowded = i < 0
            i[crowded] = np.searchsorted(self.values, x[crowded], side)
        return i


class _Discrete(NullDistribution):
    """Shared inverse for discrete models.

    Each subclass provides ``_ladder``: its support points, increasing,
    and F at those points, non-decreasing.  F is exactly 0 below the
    first point and the last point takes every omega past the table, so
    the search below is the exact sup-form inverse for every omega in
    (0, 1).  The search is ``_SortedTable``'s over F, which returns
    ``np.searchsorted``'s index in constant time per omega on large
    calls.  Each subclass also provides ``_log_mass``, the log point mass
    (-inf off the support), which stays finite where ``mass`` underflows
    to 0.
    """

    @cached_property
    def _ladder_table(self):
        return _SortedTable(self._ladder[1])

    def skorokhod_quantile(self, omega):
        om = _check_open_unit(omega)
        pts = self._ladder[0]
        idx = np.minimum(self._ladder_table.search(om, "left"), pts.size - 1)
        return _ret(omega, pts[idx])


class _Continuous(NullDistribution):
    """Shared plumbing for continuous models: no atoms, so F(x-) = F(x)."""

    continuous: ClassVar[bool] = True

    def cdf_left(self, x):
        return self.cdf(x)

    def sf_left(self, x):
        return self.sf(x)

    def mass(self, x):
        return _ret(x, np.zeros_like(_check_finite(x)))


def _ladder_window(mean, sd, top=math.inf):
    """The first window [lo, hi] of ``_integer_ladder``, as integer-valued floats.

    Chernoff bounds the tail 40 standard deviations below the mean by
    about exp(-800), so F has underflowed to 0 there.  Above, the pad of
    10 carries the small means, whose sd is below 1: the Poisson tail past
    mean + 10 sd + 10 is at most about 3e-21 at any mean, so F has
    rounded to 1 at hi.  A ladder ends at its first F == 1.0, and every
    point past it is evaluated only to be dropped, so a wider pad costs
    F calls; one of 40 put most of a small mean's window there.  The
    builder widens a window where a bound is loose.  Scalars or arrays.
    """
    lo = np.maximum(np.floor(mean - 40.0 * sd - 40.0), 0.0)
    hi = np.ceil(np.minimum(mean + 10.0 * sd + 10.0, top))
    return lo, hi


def _spans(lo, sizes):
    """lo[0], ..., lo[0] + sizes[0] - 1, lo[1], ... as one array; exact for floats below 2**53."""
    return np.repeat(lo - (np.cumsum(sizes) - sizes), sizes) + np.arange(sizes.sum())


# Every integer of magnitude below 2**53 is a float, so a range inside it
# can be rebuilt exactly from its low end.
_EXACT_INTEGERS = 2.0**53


def _window_sizes(lo, hi, what="a CDF ladder", use="build"):
    """The number of points of each window [lo, hi], as floats.

    ``SizeError`` for a window reaching 2**53, where its points are not all
    floats and a step may not move it; the message names ``what`` the
    window holds and the ``use`` it is too large for.
    """
    if hi.max(initial=0.0) >= _EXACT_INTEGERS:
        raise SizeError(f"{what} reaching 2**53 is too large to {use}")
    return hi - lo + 1.0


def _integer_ladder(cdf_at, mean, sd, top=math.inf):
    """The CDF ladder of an integer-support model: its points and F at them.

    ``cdf_at(k)`` is F at the integer-valued k, elementwise.  The window
    from ``_ladder_window`` is widened by whole steps until F(lo - 1) == 0
    and F(hi) == 1.0; the ladder keeps its points from just after the last
    F == 0.0 to the first F == 1.0, so F rises along it even where a
    special function returns a stray 0 in the far lower tail.  A window
    reaching 2**53, before or after widening, or a ladder whose arrays the
    allocator refuses raise ``SizeError``.
    """
    lo, hi = _ladder_window(mean, sd, top)
    _window_sizes(lo, hi)  # before widening too: past 2**53 a step may not move a window
    step = max(hi - lo, 1.0)
    while lo > 0.0 and cdf_at(lo - 1.0) > 0.0:
        lo = max(lo - step, 0.0)
    while cdf_at(hi) < 1.0:
        hi += step
    size = _window_sizes(lo, hi)
    try:
        pts = lo + np.arange(size)
        cdf = cdf_at(pts)
    except MemoryError:
        raise SizeError(f"CDF ladders of {size:.3g} points are too large to build") from None
    zeros = np.flatnonzero(cdf <= 0.0)
    keep = slice(zeros[-1] + 1 if zeros.size else 0, np.argmax(cdf >= 1.0) + 1)
    return pts[keep], cdf[keep]


def _on_integers(fn, k):
    """fn(k) for integer-valued, finite k, evaluated once per integer of k's range.

    An array whose range max - min + 1 holds fewer integers than it has
    entries, so that some entry repeats, with both ends inside +-2**53
    where every integer is a float, gets one call on that range and a
    gather; every other input, a ladder's distinct points among them, is
    passed to fn as it is.  Both paths hand fn the same float values, so
    the results agree bit for bit.
    """
    if np.ndim(k) and k.size:
        lo, hi = k.min(), k.max()
        if -_EXACT_INTEGERS < lo and hi < _EXACT_INTEGERS and hi - lo + 1.0 < k.size:
            table = fn(lo + np.arange(hi - lo + 1.0))
            return table[(k - lo).astype(np.intp)]
    return fn(k)


class _IntegerSupport(_Discrete):
    """Shared left-limit plumbing for models supported on 0, 1, 2, ...

    Each subclass provides ``_cdf_at`` and ``_sf_at``: F(k) and 1 - F(k)
    at integer-valued k, elementwise.  Its ``cdf`` and ``sf`` stay on the
    subclass itself, where ``perfbench/tests/test_tracer.py`` looks them up.
    """

    def cdf_left(self, x):
        # F(x-) = F(ceil(x) - 1): steps down only at integer support points.
        return _ret(x, _on_integers(self._cdf_at, np.ceil(_check_finite(x)) - 1.0))

    def sf_left(self, x):
        return _ret(x, _on_integers(self._sf_at, np.ceil(_check_finite(x)) - 1.0))


def _on_support(x, top=math.inf):
    """Whether each finite point x is an integer in [0, top], and x there, 0 elsewhere."""
    xa = _check_finite(x)
    on = (xa >= 0.0) & (xa <= top) & (np.floor(xa) == xa)
    return on, np.where(on, xa, 0.0)


def _poisson_cdf(k, mean):
    """P(X <= k) for X ~ Poisson(mean): integer-valued k and positive means, broadcast."""
    return np.where(k < 0.0, 0.0, special.gammaincc(np.maximum(k, 0.0) + 1.0, mean))


def _poisson_sf(k, mean):
    """P(X > k) for X ~ Poisson(mean): integer-valued k and positive means, broadcast."""
    return np.where(k < 0.0, 1.0, special.gammainc(np.maximum(k, 0.0) + 1.0, mean))


def _poisson_brackets(k, means):
    """(sf(k - 1), sf(k)) of Poisson(means) at the integer-valued k, an int64 or float array.

    Adjacent entries with an equal mean form a run, as the periods of one
    region do when its population is a yearly figure.  When there are at
    most n/2 runs and their ranges [min k, max k] hold at most n integers
    in all, one ``_poisson_sf`` call over each run's integers from
    min k - 1 to max k makes a table and both brackets are gathered from
    it; otherwise there are two calls of n points each.  Either way every
    bracket is the special function at the same (k, mean) arguments, so
    the two paths agree bit for bit.
    """
    n = means.size
    change = means[1:] != means[:-1]
    if 2 * (1 + np.count_nonzero(change)) <= n:
        starts = np.flatnonzero(np.concatenate(([True], change)))
        lo = np.minimum.reduceat(k, starts) - 1
        width = np.maximum.reduceat(k, starts) - lo + 1
        if width.sum(dtype=float) <= n + starts.size:
            width = width.astype(np.intp)
            table = _poisson_sf(_spans(lo, width), np.repeat(means[starts], width))
            # Each entry's place in the table: its run's table offset plus k - lo.
            shift = np.cumsum(width) - width - lo
            at = (k + np.repeat(shift, np.diff(np.append(starts, n)))).astype(np.intp)
            return table[at - 1], table[at]
    x = k.astype(float)
    return _poisson_sf(x - 1.0, means), _poisson_sf(x, means)


@dataclass(frozen=True)
class Poisson(_IntegerSupport):
    """Poisson model with positive mean."""

    mean: float

    def __post_init__(self):
        _real(self.mean, "Poisson mean", 0.0)

    def cdf(self, x):
        return _ret(x, _on_integers(self._cdf_at, np.floor(_check_finite(x))))

    def sf(self, x):
        return _ret(x, _on_integers(self._sf_at, np.floor(_check_finite(x))))

    def _cdf_at(self, k):
        return _poisson_cdf(k, self.mean)

    def _sf_at(self, k):
        return _poisson_sf(k, self.mean)

    def mass(self, x):
        return _ret(x, np.exp(self._log_mass(x)))

    def _log_mass(self, x):
        on, k = _on_support(x)
        logp = k * np.log(self.mean) - self.mean - special.gammaln(k + 1.0)
        return np.where(on, logp, -np.inf)

    @cached_property
    def _ladder(self):
        return _integer_ladder(self._cdf_at, self.mean, math.sqrt(self.mean))


def _binom_ufunc(name):
    """The Boost ufunc ``scipy.special._ufuncs.<name>`` that ``scipy.stats.binom`` runs.

    A private scipy name, checked present in scipy 1.17; a scipy without it
    raises ``ContractError`` instead of a bare ``AttributeError``.
    """
    try:
        return getattr(getattr(special, "_ufuncs", None), name)
    except AttributeError:
        raise ContractError(
            f"Binomial needs scipy.special._ufuncs.{name}, which scipy 1.17 has "
            f"and the installed scipy {scipy.__version__} lacks"
        ) from None


def _binom_at(name, k, n, p, below, above):
    """``scipy.stats.binom``'s rule around its Boost ufunc ``name``, at integer-valued k.

    ``below`` for k < 0, ``above`` for k >= n, and between them the ufunc
    at (k, n, p) clipped to [0, 1], as the ``rv_discrete`` wrapper does.
    """
    inside = np.clip(_binom_ufunc(name)(np.clip(k, 0.0, n), n, p), 0.0, 1.0)
    return np.where(k < 0.0, below, np.where(k >= n, above, inside))


@dataclass(frozen=True)
class Binomial(_IntegerSupport):
    """Binomial model on {0, ..., trials}, with trials below 2**53.

    F, 1 - F and the mass are the Boost ufuncs ``scipy.stats.binom``
    calls (scipy 1.17: ``scipy.special._ufuncs._binom_cdf``, ``_binom_sf``,
    ``_binom_pmf``), under its wrapper's rules, and the log mass is its
    ``_logpmf`` formula; so every value is ``binom``'s bit for bit.  The
    ufuncs are private names, looked up at call time, so importing the
    package and the other models work on a scipy without them, and a
    Binomial evaluation there raises ``ContractError``.
    """

    trials: int
    success_prob: float

    def __post_init__(self):
        _integer(self.trials, "trials", 0, 2**53)
        _real(self.success_prob, "success_prob", 0.0, 1.0, closed=True)

    def cdf(self, x):
        return _ret(x, _on_integers(self._cdf_at, np.floor(_check_finite(x))))

    def sf(self, x):
        return _ret(x, _on_integers(self._sf_at, np.floor(_check_finite(x))))

    def _cdf_at(self, k):
        return _binom_at("_binom_cdf", k, self.trials, self.success_prob, 0.0, 1.0)

    def _sf_at(self, k):
        return _binom_at("_binom_sf", k, self.trials, self.success_prob, 1.0, 0.0)

    def mass(self, x):
        on, k = _on_support(x, self.trials)
        pmf = _binom_ufunc("_binom_pmf")(k, self.trials, self.success_prob)
        return _ret(x, np.where(on, np.clip(pmf, 0.0, 1.0), 0.0))

    def _log_mass(self, x):
        on, k = _on_support(x, self.trials)
        n, p = self.trials, self.success_prob
        combiln = special.gammaln(n + 1) - (special.gammaln(k + 1) + special.gammaln(n - k + 1))
        logp = combiln + special.xlogy(k, p) + special.xlog1py(n - k, -p)
        return np.where(on, logp, -np.inf)

    @cached_property
    def _ladder(self):
        mean = self.trials * self.success_prob
        sd = math.sqrt(mean * (1.0 - self.success_prob))
        return _integer_ladder(self._cdf_at, mean, sd, self.trials)


@dataclass(frozen=True)
class Uniform01(_Continuous):
    """Standard uniform model on [0, 1]."""

    def cdf(self, x):
        return _ret(x, np.clip(_check_finite(x), 0.0, 1.0))

    def sf(self, x):
        return _ret(x, 1.0 - np.clip(_check_finite(x), 0.0, 1.0))

    def skorokhod_quantile(self, omega):
        om = _check_open_unit(omega)
        return _ret(omega, om)


@dataclass(frozen=True)
class TabulatedDiscrete(_Discrete):
    """Finite discrete model given by explicit support points and masses."""

    support: tuple[float, ...]
    masses: tuple[float, ...]

    def __post_init__(self):
        sup = _array(self.support, "support")
        m = _array(self.masses, "masses")
        if sup.ndim != 1 or m.ndim != 1 or sup.size != m.size or sup.size == 0:
            raise ParameterError("support and masses must be 1-d, non-empty, equal length")
        if not np.all(np.isfinite(sup)) or not np.all(np.diff(sup) > 0.0):
            raise ParameterError("support must be finite and strictly increasing")
        if not np.all(m > 0.0):
            raise ParameterError("all masses must be strictly positive")
        if abs(float(m.sum()) - 1.0) > 1e-12:
            raise ParameterError(f"masses must sum to 1 within 1e-12, got {float(m.sum())!r}")
        object.__setattr__(self, "support", tuple(float(v) for v in sup))
        object.__setattr__(self, "masses", tuple(float(v) for v in m))
        object.__setattr__(self, "_sup", sup)
        object.__setattr__(self, "_m", m)
        # cum[i] = mass at or below point i; tail[i] = mass at or above point i.
        # Masses may sum to 1 within 1e-12, so both are clipped at 1 and end at
        # exactly 1: F reaches 1.0 at the last point and S is 1.0 at the first.
        cum = np.concatenate([[0.0], np.minimum(np.cumsum(m), 1.0)])
        tail = np.concatenate([np.minimum(np.cumsum(m[::-1])[::-1], 1.0), [0.0]])
        cum[-1] = tail[0] = 1.0
        object.__setattr__(self, "_cum", cum)
        object.__setattr__(self, "_tail", tail)
        object.__setattr__(self, "_ladder", (sup, cum[1:]))

    @cached_property
    def _support_table(self):
        return _SortedTable(self._sup)

    def cdf(self, x):
        return _ret(x, self._cum[self._support_table.search(_check_finite(x), "right")])

    def sf(self, x):
        return _ret(x, self._tail[self._support_table.search(_check_finite(x), "right")])

    def cdf_left(self, x):
        return _ret(x, self._cum[self._support_table.search(_check_finite(x), "left")])

    def sf_left(self, x):
        return _ret(x, self._tail[self._support_table.search(_check_finite(x), "left")])

    def mass(self, x):
        xa = _check_finite(x)
        idx = np.minimum(self._support_table.search(xa, "left"), self._sup.size - 1)
        return _ret(x, np.where(self._sup[idx] == xa, self._m[idx], 0.0))

    def _log_mass(self, x):
        # The masses are given, so none underflows: log 0 = -inf off the support.
        with np.errstate(divide="ignore"):
            return np.log(np.asarray(self.mass(x), dtype=float))


@dataclass(frozen=True)
class ContinuousByCdf(_Continuous):
    """Continuous model defined by a CDF callable on [lower, upper].

    The callable must be a genuine CDF reaching 0 at ``lower`` and 1 at
    ``upper``; this is checked on a probe grid at construction.
    """

    cdf_fn: Callable
    lower: float = 0.0
    upper: float = 1.0

    _PROBE_POINTS = 257

    def __post_init__(self):
        _real(self.upper, "upper", _real(self.lower, "lower"))
        xs = np.linspace(self.lower, self.upper, self._PROBE_POINTS)
        fn, vals = _array_call(self.cdf_fn, xs, ParameterError)
        object.__setattr__(self, "_fn", fn)
        if not np.all(np.isfinite(vals)):
            raise ParameterError("cdf callable returned non-finite values on the probe grid")
        if np.any(np.diff(vals) < -1e-12):
            raise ParameterError("cdf callable is decreasing on the probe grid")
        if not (vals[0] <= 1e-9 and vals[-1] >= 1.0 - 1e-9):
            raise ParameterError("cdf callable must reach 0 at lower and 1 at upper")

    def cdf(self, x):
        xa = np.clip(_check_finite(x), self.lower, self.upper)
        return _ret(x, np.clip(np.asarray(self._fn(xa), dtype=float), 0.0, 1.0))

    def sf(self, x):
        return _ret(x, 1.0 - np.asarray(self.cdf(x)))

    def skorokhod_quantile(self, omega):
        om = _check_open_unit(omega)
        oma = np.atleast_1d(om)
        lo = np.full(oma.shape, self.lower)
        hi = np.full(oma.shape, self.upper)
        # Bisect to an interval of width 1e-12, keeping F(hi) >= omega.
        span = self.upper - self.lower
        steps = min(120, int(np.ceil(np.log2(max(span, 1e-12) / 1e-12))) + 2)
        for _ in range(steps):
            mid = 0.5 * (lo + hi)
            below = np.asarray(self.cdf(mid)) < oma
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        return _ret(omega, hi if np.ndim(omega) else hi[0])
