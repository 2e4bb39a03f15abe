"""Randomized probability integral transform and panel extremeness scores.

For an observation x of a model with CDF F and an independent uniform
randomizer u, the score

    Y = (1 - u) F(x-) + u F(x)

is uniform on (0, 1) whenever x is genuinely drawn from F, regardless of
atoms, and is strictly order preserving: larger observations of the same
model always score higher.  A panel of such scores makes non-identically
distributed cells comparable through their common uniform scale.

Panels are scored in survival space, 1 - Y = (1 - u) (1 - F(x-)) +
u (1 - F(x)), read from the survival brackets that the p-value bounds use
too, so a score keeps its precision where Y itself would round to 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import (
    NullDistribution,
    RandomStream,
    _check_open_unit,
    _draw,
    _read_only,
    _Record,
)
from .errors import ParameterError, ShapeError

__all__ = ["ExtremenessVector", "randomized_pit", "extremeness_panel"]


@dataclass(frozen=True, eq=False)
class ExtremenessVector(_Record):
    """One panel's survival scores 1 - Y and randomizers, as read-only float64 arrays."""

    survival: np.ndarray
    randomizers_used: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "survival", _read_only(self.survival))
        object.__setattr__(self, "randomizers_used", _read_only(self.randomizers_used))

    @property
    def argmax_index(self) -> int:
        """The most extreme cell: the lowest index attaining the minimum survival score."""
        return int(np.argmin(self.survival))


def _survival_brackets(
    dists: Sequence[NullDistribution], observations: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Each cell's 1 - F(x-) and 1 - F(x), as float64 arrays in panel order.

    The one bracket pass, and the one check of the panel's shape: both
    arguments have a length, they match, every model is a
    ``NullDistribution`` and every observation is one value.
    """
    try:
        n, n_obs = len(dists), len(observations)
    except TypeError:
        raise ShapeError("models and observations must be sequences with a length") from None
    if n == 0:
        raise ShapeError("panel must contain at least one cell")
    if n != n_obs:
        raise ShapeError(f"got {n} distributions but {n_obs} observations")
    if not all(isinstance(d, NullDistribution) for d in dists):
        raise ParameterError("panel models must hold NullDistribution instances")
    if any(isinstance(x, (list, tuple)) or np.ndim(x) for x in observations):
        raise ShapeError("observations must hold one value per cell")
    pairs = [(d.sf_left(x), d.sf(x)) for d, x in zip(dists, observations)]
    sf_left, sf_right = np.array(pairs, dtype=float).T
    return sf_left, sf_right


def _survival_scores(sf_left, sf_right, u):
    """1 - Y = (1 - u) sf_left + u sf_right, kept inside [sf_right, sf_left]."""
    return np.clip(sf_left + u * (sf_right - sf_left), sf_right, sf_left)


def randomized_pit(dist: NullDistribution, x, u):
    """Score an observation: (1 - u) F(x-) + u F(x).

    The result always lies in the bracket [F(x-), F(x)].  Observations
    below the support floor have both limits zero and score exactly 0.
    Accepts scalars or arrays, broadcast together; shapes that do not
    broadcast raise ``ShapeError``.
    """
    ua = _check_open_unit(u, "randomizer u")
    left = np.asarray(dist.cdf_left(x), dtype=float)
    right = np.asarray(dist.cdf(x), dtype=float)
    # Algebraically (1 - u) left + u right; this form stays inside the
    # bracket under rounding, and the clamp makes that exact.  Worked in one
    # buffer: IEEE + and * commute, so each value is left + ua * (right - left).
    try:
        left, right, ua = np.broadcast_arrays(left, right, ua)
    except ValueError:
        raise ShapeError(
            f"observations of shape {left.shape} and randomizers of shape {ua.shape} "
            "do not broadcast together"
        ) from None
    out = np.asarray(right - left)
    out *= ua
    out += left
    np.clip(out, left, right, out=out)
    if out.ndim == 0:
        return float(out)
    return out


def extremeness_panel(
    dists: Sequence[NullDistribution],
    observations: Sequence[float],
    stream: RandomStream,
) -> ExtremenessVector:
    """Score every cell of a panel in survival space and locate the most extreme one.

    Randomizers are drawn from the stream in cell-index order, so a panel
    run is reproducible from one seed.  Ties on the minimum survival score
    go to the lowest index.
    """
    sf_left, sf_right = _survival_brackets(dists, observations)
    us = _check_open_unit(np.atleast_1d(_draw(stream, len(sf_left))), "randomizer u")
    return ExtremenessVector(_survival_scores(sf_left, sf_right, us), us)
