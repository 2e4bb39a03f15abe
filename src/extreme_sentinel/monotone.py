"""Monotone null/alternative pairs and the law of the extremeness index.

A pair qualifies as a monotone model when the likelihood (or mass) ratio
of alternative to null is non-decreasing over the support.  For such
pairs the extremeness index Y of an observation drawn from the
alternative has a convex CDF on the unit interval; both facts are
checked here on finite grids rather than proven symbolically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .distributions import NullDistribution, _array_call, _ret
from .errors import (
    AbsoluteContinuityError,
    ContractError,
    DomainError,
    ParameterError,
    _array,
    _integer,
)

__all__ = [
    "ModelPair",
    "CheckResult",
    "alt_extremeness_cdf",
    "mlr_check",
    "convexity_check",
    "discrete_probe_points",
]

# Alternative mass above this at a point the null model cannot reach
# breaks absolute continuity.
PROBE_TAIL = 1e-12

_REL_TOL = 1e-9


@dataclass(frozen=True)
class CheckResult:
    """Verdict of a grid check plus the first offending location, if any.

    Truthiness follows ``passed`` so results read naturally in asserts.
    For ratio checks the violation is the offending adjacent probe pair;
    for convexity it is the enclosing grid interval.
    """

    passed: bool
    violation: tuple[float, float] | None = None

    def __bool__(self) -> bool:
        return self.passed


def discrete_probe_points(dist: NullDistribution) -> np.ndarray:
    """Support points of a discrete model's CDF ladder.

    That is every point where F moves in double precision: the whole
    support of a tabulated model, the integer window of the others.
    """
    if dist.continuous:
        raise ParameterError("probe points are defined for discrete models only")
    return dist._ladder[0].copy()  # a copy: the ladder backs the model's inverse


@dataclass(frozen=True)
class ModelPair:
    """A null and an alternative model sharing one support kind.

    For discrete pairs the alternative must be absolutely continuous with
    respect to the null on the probe grid: a support point where the null
    has zero mass but the alternative carries more than ``PROBE_TAIL`` is
    rejected at construction.  Zero mass is read from the log mass, so a
    null mass that merely underflows does not count.
    """

    null_dist: NullDistribution
    alt_dist: NullDistribution
    support_kind: str = field(init=False)

    def __post_init__(self):
        if not isinstance(self.null_dist, NullDistribution) or not isinstance(
            self.alt_dist, NullDistribution
        ):
            raise ParameterError("both models must be NullDistribution instances")
        if self.null_dist.continuous != self.alt_dist.continuous:
            raise ParameterError(
                "null and alternative must share a support kind "
                "(both discrete or both continuous)"
            )
        kind = "continuous" if self.null_dist.continuous else "discrete"
        object.__setattr__(self, "support_kind", kind)
        if kind == "discrete":
            self._tables  # builds now; enforces absolute continuity

    @cached_property
    def _tables(self):
        # Union grid: every point where either model's CDF moves.
        pts = np.union1d(self.null_dist._ladder[0], self.alt_dist._ladder[0])
        f0r = np.asarray(self.null_dist.cdf(pts), dtype=float)
        f0l = np.asarray(self.null_dist.cdf_left(pts), dtype=float)
        f1l = np.asarray(self.alt_dist.cdf_left(pts), dtype=float)
        p0 = np.asarray(self.null_dist.mass(pts), dtype=float)
        p1 = np.asarray(self.alt_dist.mass(pts), dtype=float)
        bad = (self.null_dist._log_mass(pts) == -np.inf) & (p1 > PROBE_TAIL)
        if np.any(bad):
            raise AbsoluteContinuityError(
                f"alternative carries mass {p1[bad][0]:.3g} at {pts[bad][0]!r} "
                "where the null model has none"
            )
        # Slopes p1/p0 only where p0 is a normal double, so none overflows.
        # A smaller null step is invisible next to F0 = 1, or is met only by
        # y below the normal range; its slope reads 0.
        normal = p0 >= np.finfo(float).tiny
        ratio = np.divide(p1, p0, out=np.zeros_like(p1), where=normal)
        return pts, f0l, f0r, f1l, ratio


def alt_extremeness_cdf(pair: ModelPair, y):
    """CDF at y of the extremeness index when the data follow the alternative.

    Discrete case: locates the support point x with y in [F0(x-), F0(x))
    and returns F1(x-) + (p1(x)/p0(x)) * (y - F0(x-)), a piecewise-linear
    interpolation between the alternative's left CDF limits.  Continuous
    case: F1(F0^{-1}(y)) with the generalized inverse.  Endpoints map to
    themselves.  Accepts scalars or arrays in [0, 1].
    """
    ya = _array(y, "y", DomainError)
    if not np.all(np.isfinite(ya)) or np.any((ya < 0.0) | (ya > 1.0)):
        raise DomainError("y must lie in [0, 1]")
    y1 = np.atleast_1d(ya)
    if pair.support_kind == "continuous":
        out = y1.copy()  # endpoints 0 and 1 pass through
        inner = (y1 > 0.0) & (y1 < 1.0)
        if np.any(inner):
            x = np.asarray(pair.null_dist.skorokhod_quantile(y1[inner]))
            out[inner] = np.clip(np.asarray(pair.alt_dist.cdf(x)), 0.0, 1.0)
    else:
        pts, f0l, f0r, f1l, ratio = pair._tables
        idx = np.searchsorted(f0r, y1, side="right")
        idx_c = np.minimum(idx, pts.size - 1)
        vals = np.clip(f1l[idx_c] + ratio[idx_c] * (y1 - f0l[idx_c]), 0.0, 1.0)
        # Past the table, y is at least F at the null's last point: 1 up to rounding.
        out = np.where(idx >= pts.size, 1.0, vals)
    return _ret(y, out if np.ndim(y) else out[0])


def mlr_check(pair: ModelPair, probe_points) -> CheckResult:
    """Check that the alternative/null ratio is non-decreasing on a grid.

    Discrete pairs compare point-mass ratios at the probes, from log
    masses so that masses which underflow keep their ratio; continuous
    pairs compare density estimates from symmetric CDF differences (the
    window width cancels in the ratio).  Passing means no adjacent pair
    drops by more than a relative 1e-9.
    """
    probes = _array(probe_points, "probe points")
    if probes.ndim != 1 or probes.size < 2:
        raise ParameterError("need a 1-d grid of at least two probe points")
    if not np.all(np.isfinite(probes)) or not np.all(np.diff(probes) > 0.0):
        raise ParameterError("probe points must be finite and strictly increasing")
    if pair.support_kind == "discrete":
        log0 = np.asarray(pair.null_dist._log_mass(probes), dtype=float)
        log1 = np.asarray(pair.alt_dist._log_mass(probes), dtype=float)
    else:
        h = 1e-5 * np.maximum(1.0, np.abs(probes))
        dens0, dens1 = (
            np.asarray(d.cdf(probes + h), dtype=float) - np.asarray(d.cdf(probes - h), dtype=float)
            for d in (pair.null_dist, pair.alt_dist)
        )
        with np.errstate(divide="ignore"):  # no density: log -inf
            log0, log1 = np.log(np.maximum(dens0, 0.0)), np.log(np.maximum(dens1, 0.0))
    if np.any(log0 == -np.inf):
        where = probes[log0 == -np.inf][0]
        raise AbsoluteContinuityError(
            f"null model has no mass or density at probe point {where!r}"
        )
    log_ratio = log1 - log0
    drop = log_ratio[1:] < log_ratio[:-1] + math.log1p(-_REL_TOL)
    if np.any(drop):
        i = int(np.flatnonzero(drop)[0])
        return CheckResult(False, (float(probes[i]), float(probes[i + 1])))
    return CheckResult(True, None)


def convexity_check(cdf_on_unit, grid_size: int) -> CheckResult:
    """Midpoint-convexity check of a CDF handle on a uniform unit grid.

    The midpoint test is robust to piecewise-linear shapes, where second
    differences sit exactly on the tolerance edge at every breakpoint.
    """
    grid = np.linspace(0.0, 1.0, _integer(grid_size, "grid_size", 3))
    _, vals = _array_call(cdf_on_unit, grid, ContractError)
    if not np.all(np.isfinite(vals)):
        raise ContractError("cdf handle returned non-finite values on the grid")
    if abs(vals[0]) > 1e-9 or abs(vals[-1] - 1.0) > 1e-9:
        raise ContractError("cdf handle must satisfy F(0) = 0 and F(1) = 1")
    # Uniform grid: each interior point is the midpoint of its neighbours.
    excess = vals[1:-1] - 0.5 * (vals[:-2] + vals[2:])
    bad = excess > _REL_TOL
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        return CheckResult(False, (float(grid[i]), float(grid[i + 2])))
    return CheckResult(True, None)
