"""Most-powerful randomized test for one dominating component in a panel.

The null hypothesis says every cell i of an independent panel follows its
stated model; the alternative says exactly one unknown cell was replaced by
a model whose extremeness score stochastically dominates uniform (convex
score CDF).  The optimal test watches the largest randomized PIT score
Y_max and rejects when it exceeds

    t = (1 - alpha)^(1/n),

which has exact size alpha because the scores are i.i.d. uniform under the
null.  Conditioning on the observations and integrating out the
randomizers gives the deterministic form ``phi_expected``; the bracket
structure of the scores also yields sharp p-value bounds that need no
randomizer at all.  ``pvalue_bounds`` computes the survival brackets
1 - F(x-), 1 - F(x) once and keeps them; ``PValueBounds.decide`` splits on
them against 1 - t, so the split agrees with the bounds at any alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .distributions import NullDistribution
from .errors import ContractError, DomainError
from .pit import ExtremenessVector, _check_panel

__all__ = [
    "TestDecision",
    "PValueBounds",
    "threshold",
    "phi_expected",
    "phi_randomized",
    "pvalue_bounds",
    "power_single_alternative",
]


def threshold(alpha: float, n: int) -> float:
    """Rejection threshold (1 - alpha)^(1/n) for the maximum score."""
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise DomainError(f"panel size must be a positive integer, got {n!r}")
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie strictly inside (0, 1), got {alpha!r}")
    return math.exp(math.log1p(-alpha) / n)


@dataclass(frozen=True)
class TestDecision:
    """Outcome of the deterministic case split, conditional on the counts.

    ``rejection_probability`` is the conditional probability that the
    randomized test rejects; it is 0 or 1 unless some cell's bracket
    [1 - F(x), 1 - F(x-)] straddles 1 - t, in which case ``branch`` is
    "randomized" and the probability is strictly between 0 and 1.
    """

    rejection_probability: float
    threshold: float
    survival_threshold: float  # s = 1 - t, what the split compares against
    branch: str  # "reject" | "accept" | "randomized"
    randomized_set: tuple[int, ...]
    m_statistic: float  # 1 - min sf_left, the largest left limit F(x-)
    alpha: float
    n: int


@dataclass(frozen=True)
class PValueBounds:
    """Sharp bracket for the randomized test's p-value, and the cell brackets.

    m_high is the largest full CDF value F_i(x_i) across cells and drives
    the lower bound 1 - m_high^n; m_low is the largest left limit
    F_i(x_i-) and drives the upper bound 1 - m_low^n.  Argmax indices tie
    to the lowest cell.  ``sf_left`` and ``sf_right`` hold each cell's
    1 - F(x-) and 1 - F(x) in panel order; ``decide`` reads the same ones.
    """

    lower: float
    upper: float
    n: int
    argmax_upper_cell: int  # attains m_high = max_i F_i(x_i)
    argmax_lower_cell: int  # attains m_low = max_i F_i(x_i-)
    sf_left: tuple[float, ...]
    sf_right: tuple[float, ...]

    def decide(self, alpha: float) -> TestDecision:
        """Deterministic case split of the randomized test, given the counts.

        Compares the survival brackets with s = 1 - t computed as
        -expm1(log1p(-alpha)/n), so the split agrees with the bounds even
        where t rounds to 1.  With R the set of cells where
        sf_right < s < sf_left:

          * min sf_left < s: every randomization rejects (phi = 1);
          * otherwise, R empty: no randomization rejects (phi = 0), including
            the measure-zero boundary min sf_left = s;
          * otherwise phi = 1 - prod_{j in R} (sf_left_j - s) / (sf_left_j - sf_right_j).
        """
        n = self.n
        t = threshold(alpha, n)
        s = -math.expm1(math.log1p(-alpha) / n)
        sf_left, sf_right = np.array(self.sf_left), np.array(self.sf_right)
        sf_min = float(np.min(sf_left))
        m_stat = 1.0 - sf_min
        if sf_min < s:
            return TestDecision(1.0, t, s, "reject", (), m_stat, alpha, n)
        straddle = np.where((sf_right < s) & (s < sf_left))[0]
        if straddle.size == 0:
            return TestDecision(0.0, t, s, "accept", (), m_stat, alpha, n)
        keep = np.prod((sf_left[straddle] - s) / (sf_left[straddle] - sf_right[straddle]))
        randomized = tuple(int(j) for j in straddle)
        return TestDecision(float(1.0 - keep), t, s, "randomized", randomized, m_stat, alpha, n)


def phi_expected(
    dists: Sequence[NullDistribution],
    observations: Sequence[float],
    alpha: float,
) -> TestDecision:
    """Deterministic case split of the randomized test: ``pvalue_bounds(...).decide(alpha)``."""
    return pvalue_bounds(dists, observations).decide(alpha)


def phi_randomized(scores: ExtremenessVector, alpha: float) -> int:
    """Hard decision from realized scores: 1 when max Y exceeds the threshold."""
    t = threshold(alpha, len(scores.values))
    return int(scores.max_value > t)


def pvalue_bounds(
    dists: Sequence[NullDistribution],
    observations: Sequence[float],
) -> PValueBounds:
    """Deterministic p-value bracket 1 - m_high^n <= p <= 1 - m_low^n.

    Computed from survival values via log1p/expm1 so both bounds keep
    around five significant digits even when the maxima sit within 1e-6
    of 1 (routine for extreme counts).
    """
    _check_panel(dists, observations)
    sf_left = tuple(float(d.sf_left(x)) for d, x in zip(dists, observations))
    sf_right = tuple(float(d.sf(x)) for d, x in zip(dists, observations))
    n = len(sf_left)
    i_high = int(np.argmin(sf_right))  # max cdf, ties to lowest index
    i_low = int(np.argmin(sf_left))

    def one_minus_mn(sf_at_max: float) -> float:
        if sf_at_max >= 1.0:
            return 1.0
        return float(-np.expm1(n * np.log1p(-sf_at_max)))

    return PValueBounds(
        lower=one_minus_mn(float(sf_right[i_high])),
        upper=one_minus_mn(float(sf_left[i_low])),
        n=n,
        argmax_upper_cell=i_high,
        argmax_lower_cell=i_low,
        sf_left=sf_left,
        sf_right=sf_right,
    )


def power_single_alternative(
    alt_score_cdf: Callable[[float], float],
    alpha: float,
    n: int,
) -> float:
    """Exact rejection probability when one cell follows the alternative.

    ``alt_score_cdf`` is the CDF on [0, 1] of the changed cell's
    extremeness score; the remaining n - 1 scores stay uniform, so the
    power is 1 - t^(n-1) * alt_score_cdf(t).
    """
    t = threshold(alpha, n)
    ft = float(alt_score_cdf(t))
    if not (np.isfinite(ft) and 0.0 <= ft <= 1.0):
        raise ContractError(f"alt score CDF returned {ft!r} at {t!r}, outside [0, 1]")
    return 1.0 - t ** (n - 1) * ft
