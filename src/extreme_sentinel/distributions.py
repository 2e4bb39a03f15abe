"""Null distribution models and the shared randomness contract.

Each model knows its cumulative distribution function F, the left limit
F(x-), point masses, and the generalized inverse

    N(omega) = sup{y : F(y) < omega},  omega in (0, 1),

used for inverse-transform sampling.  N satisfies F(N(omega)) >= omega and
F(z) > omega implies z > N(omega).  For every discrete model N is one
search on a lazily cached CDF ladder: the support points and F at them.
Survival counterparts (``sf``, ``sf_left``) are first class so tail
quantities close to 1 keep full relative precision instead of dying in
1 - cdf cancellation.

All numeric methods accept scalars or arrays and mirror the numpy ufunc
convention: scalar in, float out.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, ClassVar, Sequence

import numpy as np
from scipy import special, stats

from .errors import DomainError, ParameterError

__all__ = [
    "RandomStream",
    "NullDistribution",
    "Poisson",
    "Binomial",
    "Uniform01",
    "TabulatedDiscrete",
    "ContinuousByCdf",
]

class RandomStream:
    """Deterministic, seedable source of uniforms on the open interval (0, 1).

    Wraps a 64-bit-seeded PCG64 generator.  A stream has a single owner:
    share the stream object itself, never the underlying generator, and use
    :meth:`spawn` to derive independent child streams for parallel work
    instead of reusing one seed.
    """

    def __init__(self, seed: int | tuple | np.random.SeedSequence):
        if isinstance(seed, np.random.SeedSequence):
            self._seq = seed
        else:
            try:
                self._seq = np.random.SeedSequence(seed)
            except (TypeError, ValueError) as exc:
                raise ParameterError(f"invalid seed: {seed!r}") from exc
        self._gen = np.random.Generator(np.random.PCG64(self._seq))

    def uniform_open(self, size: int | tuple | None = None):
        """Draw uniforms strictly inside (0, 1); scalar when size is None."""
        if size is None:
            u = self._gen.random()
            while u == 0.0:
                u = self._gen.random()
            return u
        u = self._gen.random(size)
        mask = u == 0.0
        while mask.any():
            u[mask] = self._gen.random(int(mask.sum()))
            mask = u == 0.0
        return u

    def spawn(self, n: int) -> list["RandomStream"]:
        """Derive n independent child streams (seed splitting)."""
        return [RandomStream(child) for child in self._seq.spawn(n)]


def _ret(x, values):
    """Return a float for scalar input, the array otherwise."""
    if np.ndim(x) == 0:
        return float(values)
    return np.asarray(values, dtype=float)


def _array_call(fn, xs: np.ndarray):
    """Evaluate fn on the array xs in one call; return (callable used, values).

    A callable that fails on arrays, or returns another shape, is wrapped
    in ``np.vectorize`` and called per element instead.
    """
    try:
        vals = np.asarray(fn(xs), dtype=float)
        if vals.shape != xs.shape:
            raise TypeError
    except Exception:
        fn = np.vectorize(fn, otypes=[float])
        vals = np.asarray(fn(xs), dtype=float)
    return fn, vals


def _check_open_unit(omega) -> np.ndarray:
    om = np.asarray(omega, dtype=float)
    if not np.all((om > 0.0) & (om < 1.0)):
        raise DomainError("omega must lie strictly inside (0, 1)")
    return om


def _check_finite(x) -> np.ndarray:
    xa = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xa)):
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
        return self.skorokhod_quantile(stream.uniform_open(size))


class _Discrete(NullDistribution):
    """Shared inverse for discrete models.

    Each subclass provides ``_ladder``: its support points, increasing,
    and F at those points.  F is exactly 0 below the first point and the
    last point takes every omega past the table, so the search below is
    the exact sup-form inverse for every omega in (0, 1).  It also
    provides ``_log_mass``, the log point mass (-inf off the support),
    which stays finite where ``mass`` underflows to 0.
    """

    def skorokhod_quantile(self, omega):
        om = _check_open_unit(omega)
        pts, cdf = self._ladder
        idx = np.minimum(np.searchsorted(cdf, om, side="left"), pts.size - 1)
        return _ret(omega, pts[idx])


def _integer_ladder(dist: _IntegerSupport, mean: float, sd: float, top: float = math.inf):
    """Ladder on the integers [lo, hi] with F(lo - 1) == 0 and F(hi) == 1.0.

    Chernoff bounds the tail 40 standard deviations below the mean by
    about exp(-800), so F has underflowed to 0 there, and the tail 10
    above by about exp(-50), so F has rounded to 1.  The window keeps
    O(sd) points; the loops widen it where a bound is loose.
    """
    lo = max(math.floor(mean - 40.0 * sd - 40.0), 0)
    hi = math.ceil(min(mean + 10.0 * sd + 40.0, top))
    step = max(hi - lo, 1)
    while lo > 0 and dist.cdf(lo - 1.0) > 0.0:
        lo = max(lo - step, 0)
    while dist.cdf(hi) < 1.0:
        hi += step
    pts = np.arange(lo, hi + 1, dtype=float)
    cdf = np.asarray(dist.cdf(pts), dtype=float)
    # Probe grids read the ladder too, so keep only the points where F moves:
    # from the first F > 0 to the first F == 1.0.
    keep = slice(np.searchsorted(cdf, 0.0, "right"), np.searchsorted(cdf, 1.0, "left") + 1)
    return pts[keep], cdf[keep]


class _IntegerSupport(_Discrete):
    """Shared left-limit plumbing for models supported on 0, 1, 2, ..."""

    def cdf_left(self, x):
        # F(x-) = F(ceil(x) - 1): steps down only at integer support points.
        return self.cdf(np.ceil(_check_finite(x)) - 1.0)

    def sf_left(self, x):
        return self.sf(np.ceil(_check_finite(x)) - 1.0)


@dataclass(frozen=True)
class Poisson(_IntegerSupport):
    """Poisson model with positive mean."""

    mean: float

    def __post_init__(self):
        if not (np.isfinite(self.mean) and self.mean > 0.0):
            raise ParameterError(f"Poisson mean must be finite and positive, got {self.mean!r}")

    def cdf(self, x):
        k = np.floor(_check_finite(x))
        vals = special.gammaincc(np.maximum(k, 0.0) + 1.0, self.mean)
        return _ret(x, np.where(k < 0.0, 0.0, vals))

    def sf(self, x):
        k = np.floor(_check_finite(x))
        vals = special.gammainc(np.maximum(k, 0.0) + 1.0, self.mean)
        return _ret(x, np.where(k < 0.0, 1.0, vals))

    def mass(self, x):
        return _ret(x, np.exp(self._log_mass(x)))

    def _log_mass(self, x):
        xa = _check_finite(x)
        on = (xa >= 0.0) & (np.floor(xa) == xa)
        k = np.where(on, xa, 0.0)
        logp = k * np.log(self.mean) - self.mean - special.gammaln(k + 1.0)
        return np.where(on, logp, -np.inf)

    @cached_property
    def _ladder(self):
        return _integer_ladder(self, self.mean, math.sqrt(self.mean))


@dataclass(frozen=True)
class Binomial(_IntegerSupport):
    """Binomial model on {0, ..., trials}."""

    trials: int
    success_prob: float

    def __post_init__(self):
        if not (isinstance(self.trials, (int, np.integer)) and self.trials >= 0):
            raise ParameterError(f"trials must be a non-negative integer, got {self.trials!r}")
        if not (np.isfinite(self.success_prob) and 0.0 <= self.success_prob <= 1.0):
            raise ParameterError(f"success_prob must lie in [0, 1], got {self.success_prob!r}")

    def cdf(self, x):
        k = np.floor(_check_finite(x))
        return _ret(x, stats.binom.cdf(k, self.trials, self.success_prob))

    def sf(self, x):
        k = np.floor(_check_finite(x))
        return _ret(x, stats.binom.sf(k, self.trials, self.success_prob))

    def mass(self, x):
        return _ret(x, stats.binom.pmf(_check_finite(x), self.trials, self.success_prob))

    def _log_mass(self, x):
        return stats.binom.logpmf(_check_finite(x), self.trials, self.success_prob)

    @cached_property
    def _ladder(self):
        mean = self.trials * self.success_prob
        sd = math.sqrt(mean * (1.0 - self.success_prob))
        return _integer_ladder(self, mean, sd, self.trials)


@dataclass(frozen=True)
class Uniform01(NullDistribution):
    """Standard uniform model on [0, 1]."""

    continuous: ClassVar[bool] = True

    def cdf(self, x):
        return _ret(x, np.clip(_check_finite(x), 0.0, 1.0))

    def sf(self, x):
        return _ret(x, 1.0 - np.clip(_check_finite(x), 0.0, 1.0))

    def cdf_left(self, x):
        return self.cdf(x)

    def sf_left(self, x):
        return self.sf(x)

    def mass(self, x):
        return _ret(x, np.zeros_like(_check_finite(x)))

    def skorokhod_quantile(self, omega):
        om = _check_open_unit(omega)
        return _ret(omega, om)


@dataclass(frozen=True)
class TabulatedDiscrete(_Discrete):
    """Finite discrete model given by explicit support points and masses."""

    support: tuple[float, ...]
    masses: tuple[float, ...]

    def __post_init__(self):
        sup = np.asarray(self.support, dtype=float)
        m = np.asarray(self.masses, dtype=float)
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
        # cum[i] = mass at or below point i; tail[i] = mass at or above point i
        object.__setattr__(self, "_cum", np.concatenate([[0.0], np.cumsum(m)]))
        object.__setattr__(self, "_tail", np.concatenate([np.cumsum(m[::-1])[::-1], [0.0]]))
        object.__setattr__(self, "_ladder", (sup, self._cum[1:]))

    def cdf(self, x):
        idx = np.searchsorted(self._sup, _check_finite(x), side="right")
        return _ret(x, self._cum[idx])

    def sf(self, x):
        idx = np.searchsorted(self._sup, _check_finite(x), side="right")
        return _ret(x, self._tail[idx])

    def cdf_left(self, x):
        idx = np.searchsorted(self._sup, _check_finite(x), side="left")
        return _ret(x, self._cum[idx])

    def sf_left(self, x):
        idx = np.searchsorted(self._sup, _check_finite(x), side="left")
        return _ret(x, self._tail[idx])

    def mass(self, x):
        xa = _check_finite(x)
        idx = np.searchsorted(self._sup, xa, side="left")
        idx_c = np.minimum(idx, self._sup.size - 1)
        hit = self._sup[idx_c] == xa
        return _ret(x, np.where(hit, self._m[idx_c], 0.0))

    def _log_mass(self, x):
        # The masses are given, so none underflows: log 0 = -inf off the support.
        with np.errstate(divide="ignore"):
            return np.log(np.asarray(self.mass(x), dtype=float))


@dataclass(frozen=True)
class ContinuousByCdf(NullDistribution):
    """Continuous model defined by a CDF callable on [lower, upper].

    The callable must be a genuine CDF reaching 0 at ``lower`` and 1 at
    ``upper``; this is checked on a probe grid at construction.
    """

    cdf_fn: Callable
    lower: float = 0.0
    upper: float = 1.0

    continuous: ClassVar[bool] = True

    _PROBE_POINTS = 257

    def __post_init__(self):
        if not (np.isfinite(self.lower) and np.isfinite(self.upper) and self.lower < self.upper):
            raise ParameterError("need finite lower < upper")
        xs = np.linspace(self.lower, self.upper, self._PROBE_POINTS)
        fn, vals = _array_call(self.cdf_fn, xs)
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

    def cdf_left(self, x):
        return self.cdf(x)

    def sf_left(self, x):
        return self.sf(x)

    def mass(self, x):
        return _ret(x, np.zeros_like(_check_finite(x)))

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
