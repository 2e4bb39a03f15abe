"""Most-powerful randomized test for one dominating component in a panel.

The null hypothesis says every cell i of an independent panel follows its
stated model; the alternative says exactly one unknown cell was replaced by
a model whose extremeness score stochastically dominates uniform (convex
score CDF).  The optimal test watches the largest randomized PIT score
Y_max and rejects when it exceeds

    t = (1 - alpha)^(1/n),

which has exact size alpha because the scores are i.i.d. uniform under the
null.  Every comparison is made in survival space, against

    s = 1 - t = -expm1(log1p(-alpha)/n),

which keeps its precision where t rounds to 1; t itself is kept for
display only.  The hard decision ``phi_randomized`` compares the
smallest survival score 1 - Y with s.  Conditioning on the observations
and integrating out the randomizers gives the deterministic form
``phi_expected``; the bracket structure of the scores also yields sharp
p-value bounds that need no randomizer at all.  ``pvalue_bounds`` keeps
the survival brackets 1 - F(x-), 1 - F(x) of the one bracket pass in
``pit``, held as read-only float64 arrays; ``PValueBounds.decide``
splits on those arrays against s, so the split agrees with the bounds
at any alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .distributions import NullDistribution, _read_only, _Record
from .errors import ContractError, DomainError, _integer, _real
from .pit import ExtremenessVector, _survival_brackets

__all__ = [
    "TestDecision",
    "PValueBounds",
    "threshold",
    "phi_expected",
    "phi_randomized",
    "pvalue_bounds",
    "power_single_alternative",
]


def _log_threshold(alpha: float, n: int) -> float:
    """log t = log1p(-alpha)/n, after checking alpha and the panel size."""
    n = _integer(n, "panel size", 1, error=DomainError)
    alpha = _real(alpha, "alpha", 0.0, 1.0, error=DomainError)
    return math.log1p(-alpha) / n


def threshold(alpha: float, n: int) -> float:
    """Rejection threshold (1 - alpha)^(1/n) for the maximum score, for display."""
    return math.exp(_log_threshold(alpha, n))


def _survival_cut(alpha: float, n: int) -> float:
    """s = 1 - t, the cut every survival score and bracket is compared with."""
    return -math.expm1(_log_threshold(alpha, n))


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


@dataclass(frozen=True, eq=False)
class PValueBounds(_Record):
    """Sharp bracket for the randomized test's p-value, and the cell brackets.

    m_high is the largest full CDF value F_i(x_i) across cells and drives
    the lower bound 1 - m_high^n; m_low is the largest left limit
    F_i(x_i-) and drives the upper bound 1 - m_low^n.  Argmax indices tie
    to the lowest cell.  ``sf_left`` and ``sf_right`` hold each cell's
    1 - F(x-) and 1 - F(x) in panel order, as read-only float64 arrays
    whatever sequence they were given as; ``decide`` reads the same ones.
    Bounds compare and hash by the ``_Record`` rule.
    """

    lower: float
    upper: float
    n: int
    argmax_upper_cell: int  # attains m_high = max_i F_i(x_i)
    argmax_lower_cell: int  # attains m_low = max_i F_i(x_i-)
    sf_left: np.ndarray
    sf_right: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "sf_left", _read_only(self.sf_left))
        object.__setattr__(self, "sf_right", _read_only(self.sf_right))

    def decide(self, alpha: float) -> TestDecision:
        """Deterministic case split of the randomized test, given the counts.

        Compares the survival brackets with s = 1 - t, so the split agrees
        with the bounds even where t rounds to 1.  With R the set of cells
        where sf_right < s < sf_left:

          * some cell has sf_right < s and sf_left <= s: every randomization
            rejects (phi = 1), since that cell's survival score lies below s
            for every randomizer in (0, 1);
          * otherwise, R empty: no randomization rejects (phi = 0), including
            a zero-width bracket at sf_left = sf_right = s;
          * otherwise phi = 1 - prod_{j in R} (sf_left_j - s) / (sf_left_j - sf_right_j).
        """
        n = self.n
        t = threshold(alpha, n)
        s = _survival_cut(alpha, n)
        sf_left, sf_right = self.sf_left, self.sf_right
        m_stat = 1.0 - float(np.min(sf_left))
        if np.any((sf_right < s) & (sf_left <= s)):
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
    """Hard decision from realized scores: 1 when the smallest survival score is below s.

    min 1 - Y < s is the event max Y > t, decided where it keeps its
    precision: it rejects whenever ``phi_expected`` has phi = 1 and never
    where it has phi = 0, at any alpha.
    """
    s = _survival_cut(alpha, len(scores.survival))
    return int(scores.survival.min() < s)


def pvalue_bounds(
    dists: Sequence[NullDistribution],
    observations: Sequence[float],
) -> PValueBounds:
    """Deterministic p-value bracket 1 - m_high^n <= p <= 1 - m_low^n.

    Computed from survival values via log1p/expm1 so both bounds keep
    around five significant digits even when the maxima sit within 1e-6
    of 1 (routine for extreme counts).
    """
    return _bounds(*_survival_brackets(dists, observations))


def _bounds(sf_left: np.ndarray, sf_right: np.ndarray) -> PValueBounds:
    """``PValueBounds`` of cells whose survival brackets are already known."""
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

    Known limit: the closed form is evaluated in cdf space at t, so it
    loses precision as alpha shrinks.  With the alternative equal to the
    null (``ModelPair(Poisson(2), Poisson(2))``, n = 40) the power should
    be alpha; the relative error is +2.2e-13 at alpha = 1e-3, +8.3e-8 at
    1e-8 and -8.0e-4 at 1e-12, and the power is 0.0 at 1e-16.
    """
    t = threshold(alpha, n)
    ft = float(alt_score_cdf(t))
    if not (np.isfinite(ft) and 0.0 <= ft <= 1.0):
        raise ContractError(f"alt score CDF returned {ft!r} at {t!r}, outside [0, 1]")
    return 1.0 - t ** (n - 1) * ft
