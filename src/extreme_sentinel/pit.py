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

from .distributions import NullDistribution, RandomStream
from .errors import DomainError, ShapeError

__all__ = ["ExtremenessVector", "randomized_pit", "extremeness_panel"]


@dataclass(frozen=True)
class ExtremenessVector:
    """Per-cell survival scores 1 - Y of one panel, with the randomizers used."""

    survival: tuple[float, ...]
    randomizers_used: tuple[float, ...]

    @property
    def argmax_index(self) -> int:
        """The most extreme cell: the lowest index attaining the minimum survival score."""
        return int(np.argmin(self.survival))


def _survival_brackets(
    dists: Sequence[NullDistribution], observations: Sequence[float]
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Each cell's 1 - F(x-) and 1 - F(x), in panel order: the one bracket pass."""
    if len(dists) == 0:
        raise ShapeError("panel must contain at least one cell")
    if len(dists) != len(observations):
        raise ShapeError(
            f"got {len(dists)} distributions but {len(observations)} observations"
        )
    pairs = [(float(d.sf_left(x)), float(d.sf(x))) for d, x in zip(dists, observations)]
    sf_left, sf_right = zip(*pairs)
    return sf_left, sf_right


def _check_randomizers(u) -> np.ndarray:
    ua = np.asarray(u, dtype=float)
    if not np.all((ua > 0.0) & (ua < 1.0)):
        raise DomainError("randomizer u must lie strictly inside (0, 1)")
    return ua


def _survival_scores(sf_left, sf_right, u):
    """1 - Y = (1 - u) sf_left + u sf_right, kept inside [sf_right, sf_left]."""
    return np.clip(sf_left + u * (sf_right - sf_left), sf_right, sf_left)


def randomized_pit(dist: NullDistribution, x, u):
    """Score an observation: (1 - u) F(x-) + u F(x).

    The result always lies in the bracket [F(x-), F(x)].  Observations
    below the support floor have both limits zero and score exactly 0.
    Accepts scalars or arrays (broadcast together).
    """
    ua = _check_randomizers(u)
    left = np.asarray(dist.cdf_left(x), dtype=float)
    right = np.asarray(dist.cdf(x), dtype=float)
    # Algebraically (1 - u) left + u right; this form stays inside the
    # bracket under rounding, and the clamp makes that exact.
    out = np.clip(left + ua * (right - left), left, right)
    if np.ndim(out) == 0:
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
    us = _check_randomizers(np.atleast_1d(stream.uniform_open(len(sf_left))))
    scores = _survival_scores(np.array(sf_left), np.array(sf_right), us)
    return ExtremenessVector(
        survival=tuple(float(v) for v in scores),
        randomizers_used=tuple(float(v) for v in us),
    )
