"""Randomized probability integral transform and panel extremeness scores.

For an observation x of a model with CDF F and an independent uniform
randomizer u, the score

    Y = (1 - u) F(x-) + u F(x)

is uniform on (0, 1) whenever x is genuinely drawn from F, regardless of
atoms, and is strictly order preserving: larger observations of the same
model always score higher.  A panel of such scores makes non-identically
distributed cells comparable through their common uniform scale.
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
    """Per-cell extremeness scores of one panel, with the randomizers used."""

    values: tuple[float, ...]
    max_value: float
    argmax_index: int
    randomizers_used: tuple[float, ...]


def _check_panel(dists: Sequence[NullDistribution], observations: Sequence[float]) -> int:
    if len(dists) == 0:
        raise ShapeError("panel must contain at least one cell")
    if len(dists) != len(observations):
        raise ShapeError(
            f"got {len(dists)} distributions but {len(observations)} observations"
        )
    return len(dists)


def randomized_pit(dist: NullDistribution, x, u):
    """Score an observation: (1 - u) F(x-) + u F(x).

    The result always lies in the bracket [F(x-), F(x)].  Observations
    below the support floor have both limits zero and score exactly 0.
    Accepts scalars or arrays (broadcast together).
    """
    ua = np.asarray(u, dtype=float)
    if not np.all((ua > 0.0) & (ua < 1.0)):
        raise DomainError("randomizer u must lie strictly inside (0, 1)")
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
    """Score every cell of a panel and locate the most extreme one.

    Randomizers are drawn from the stream in cell-index order, so a panel
    run is reproducible from one seed.  Ties on the maximum go to the
    lowest index.
    """
    n = _check_panel(dists, observations)
    us = np.atleast_1d(stream.uniform_open(n))
    values = np.array(
        [randomized_pit(d, x, u) for d, x, u in zip(dists, observations, us)]
    )
    idx = int(np.argmax(values))
    return ExtremenessVector(
        values=tuple(float(v) for v in values),
        max_value=float(values[idx]),
        argmax_index=idx,
        randomizers_used=tuple(float(v) for v in us),
    )
