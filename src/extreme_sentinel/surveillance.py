"""Count-panel surveillance: rate estimation, epidemic testing, peeling.

A panel holds observed case counts per (region, period) cell together
with the population at risk: exactly the cells that enter the test, so a
non-reporting area is left out of the panel.  Under the null hypothesis
every cell is Poisson with mean lambda * population; the test asks
whether a single cell was generated by a dominating alternative instead.
A test scores the panel in one array pass: the survival brackets of
every cell's Poisson null come from the count and mean arrays, and no
model is built per cell.  The peel analysis repeats the test with the
flagged cell removed until nothing more stands out; its state is the
kept cells and their survival brackets, so a round at an unchanged rate
only drops one cell.  ``CountPanel`` alone checks its cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Sequence

import numpy as np

from .distributions import Poisson, RandomStream, _poisson_sf
from .errors import DataError, ParameterError, _integer, _real, _seed, _shown
from .umptest import PValueBounds, TestDecision, _bounds
from .umptest import pvalue_bounds  # not called here: perfbench's tracer wraps this name

__all__ = [
    "PanelCell",
    "CountPanel",
    "EpidemicReport",
    "estimate_lambda",
    "null_distributions",
    "epidemic_test",
    "peel_test",
    "listeriosis_fixture_path",
]


@dataclass(frozen=True)
class PanelCell:
    """One (region, period) observation."""

    region_id: str
    period_id: str
    count: int
    population: float


def _id_ok(name) -> bool:
    """A region or period id: a non-empty string without surrounding whitespace."""
    return isinstance(name, str) and name != "" and name == name.strip()


def _first_fault(cells: Sequence, where) -> tuple[int, str] | None:
    """The first cell breaking a panel rule, as (index, reason), or None.

    A duplicate's reason names its first occurrence ``j`` as ``where(j)``.
    A count stays below 2**53, where the float64 array pass is exact.
    """
    first: dict[tuple[str, str], int] = {}
    for i, c in enumerate(cells):
        if not isinstance(c, PanelCell):
            return i, f"must be a PanelCell, got {type(c).__name__}"
        if not (_id_ok(c.region_id) and _id_ok(c.period_id)):
            return i, "ids must be non-empty strings without surrounding whitespace"
        j = first.setdefault((c.region_id, c.period_id), i)
        if j != i:
            return i, f"duplicate key, first seen at {where(j)}"
        try:
            _integer(c.count, "count", 0, 2**53)
        except ParameterError:
            return i, (
                f"count must be a non-negative integer below 2**53, got {_shown(c.count)}"
            )
        try:
            _real(c.population, "population", 0.0)
        except ParameterError:
            return i, f"population must be a positive finite number, got {_shown(c.population)}"
    return None


@dataclass(frozen=True)
class CountPanel:
    """The cells that enter the test: at least one, each valid, keys unique.

    Region and period ids are non-empty strings without surrounding
    whitespace, so every panel is one that a CSV file can hold.
    """

    cells: tuple[PanelCell, ...]

    def __post_init__(self):
        object.__setattr__(self, "cells", tuple(self.cells))
        if not self.cells:
            raise DataError("panel must contain at least one cell")
        fault = _first_fault(self.cells, lambda j: f"position {j}")
        if fault is not None:
            c = self.cells[fault[0]]
            key = (c.region_id, c.period_id) if isinstance(c, PanelCell) else c
            raise DataError(f"cell {_shown(key)}: {fault[1]}")

    @property
    def n(self) -> int:
        """Number of cells entering the test (the exponent in the bounds)."""
        return len(self.cells)


@dataclass(frozen=True)
class EpidemicReport:
    """Outcome of one epidemic test on a panel.

    ``rejected`` is the hard decision: True/False when the case split is
    deterministic, the outcome of a seeded coin on the randomized branch,
    and None when that branch was left unresolved (no seed given).
    """

    bounds: PValueBounds
    decision: TestDecision
    flagged_cell: tuple[str, str]
    lambda_used: float
    alpha: float
    n: int
    seed: int | None
    rejected: bool | None


def estimate_lambda(panel: CountPanel) -> float:
    """Pooled rate: total count over total population.

    All-zero panels have a pooled rate of zero, which cannot parametrize
    a Poisson null; callers must pass an explicit rate in that case.
    """
    return _pooled_rate(panel.cells)


def _pooled_rate(cells: Sequence[PanelCell]) -> float:
    """Total count over total population of the given cells."""
    total_count = sum(c.count for c in cells)
    if total_count == 0:
        raise DataError("all counts are zero; pass an explicit rate instead")
    try:
        total_population = math.fsum(c.population for c in cells)
    except OverflowError:
        raise DataError("total population overflows; pass an explicit rate instead") from None
    return total_count / total_population


def null_distributions(panel: CountPanel, lam: float) -> list[Poisson]:
    """One Poisson(lambda * population) per cell, in panel order."""
    _real(lam, "rate", 0.0)
    return [Poisson(lam * c.population) for c in panel.cells]


def _panel_brackets(
    cells: Sequence[PanelCell], rate: float
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Each cell's Poisson(rate * population) survival brackets, in one array pass.

    Returns what ``pit._survival_brackets`` returns on the cells' null
    models, bit for bit, without building a model per cell; a mean that
    is not a finite positive number raises what ``Poisson`` raises.
    """
    products = [rate * c.population for c in cells]
    means = np.array(products, dtype=float)
    bad = ~(np.isfinite(means) & (means > 0.0))
    if bad.any():
        _real(products[int(np.argmax(bad))], "Poisson mean", 0.0)
    counts = np.array([c.count for c in cells], dtype=float)
    sf_left = _poisson_sf(counts - 1.0, means)
    sf_right = _poisson_sf(counts, means)
    return tuple(sf_left.tolist()), tuple(sf_right.tolist())


def _round_report(
    cells: Sequence[PanelCell],
    bounds: PValueBounds,
    lam: float,
    alpha: float,
    seed: int | None,
) -> EpidemicReport:
    """Decide one test from its cells' bounds; a seeded coin resolves a randomized branch."""
    decision = bounds.decide(alpha)
    if decision.branch == "reject":
        rejected: bool | None = True
    elif decision.branch == "accept":
        rejected = False
    elif seed is not None:
        coin = RandomStream(seed).uniform_open()
        rejected = bool(coin < decision.rejection_probability)
    else:
        rejected = None
    flagged = cells[bounds.argmax_upper_cell]
    return EpidemicReport(
        bounds=bounds,
        decision=decision,
        flagged_cell=(flagged.region_id, flagged.period_id),
        lambda_used=lam,
        alpha=alpha,
        n=bounds.n,
        seed=seed,
        rejected=rejected,
    )


def epidemic_test(
    panel: CountPanel,
    *,
    lam: float | None = None,
    alpha: float = 0.05,
    seed: int | None = None,
) -> EpidemicReport:
    """Run the maximum-score test on a panel.

    Estimates the rate from the panel when ``lam`` is absent.  The
    cells' survival brackets come from one array pass and equal those of
    ``pvalue_bounds`` on ``null_distributions(panel, lam)``.  The flagged
    cell is the one attaining the upper maximum of the p-value bounds,
    i.e. the most extreme observation.
    """
    if seed is not None:
        _seed(seed)
    lam_used = _real(lam, "rate", 0.0) if lam is not None else estimate_lambda(panel)
    bounds = _bounds(*_panel_brackets(panel.cells, lam_used))
    return _round_report(panel.cells, bounds, lam_used, alpha, seed)


def peel_test(
    panel: CountPanel,
    *,
    lam: float | None = None,
    alpha: float = 0.05,
    max_rounds: int = 5,
    seed: int | None = None,
) -> list[EpidemicReport]:
    """Test, set the flagged cell aside on rejection, repeat.

    Stops at the first round that does not produce a hard rejection, or
    after max_rounds, or when no cells remain.  When ``lam`` is absent
    the rate is re-estimated from the surviving cells each round, and the
    peel ends once those cells all count zero: there is no rate to
    estimate, and no cell of an all-zero panel can stand out.

    A cell's survival bracket depends only on its count and on the rate
    times its population, so the brackets are computed, in one array
    pass over the surviving cells, only in a round whose rate differs
    from the one they were computed at: at a fixed rate the panel is
    scored once, and later rounds drop the flagged cell from the kept
    brackets.  A pooled rate moves as cells leave, so each such round
    scores the surviving cells again.  Round r reports exactly what
    ``epidemic_test`` reports on the panel without rounds 1..r-1's
    flagged cells.  No other library code drops a cell from a panel.

    Per-round coin seeds are derived from ``seed`` by seed splitting, and
    each report carries its own derived seed so the round can be replayed
    in isolation.
    """
    if lam is not None:
        lam = _real(lam, "rate", 0.0)
    # Each round sets one cell aside, so no peel outlasts the panel's cells.
    # generate_state is prefix-stable, so no round's seed depends on the cap.
    rounds = min(_integer(max_rounds, "max_rounds", 1), panel.n)
    round_seeds: list[int | None] = [None] * rounds
    if seed is not None:
        state = np.random.SeedSequence(_seed(seed)).generate_state(rounds, dtype=np.uint64)
        round_seeds = [int(s) for s in state]
    reports: list[EpidemicReport] = []
    cells = list(panel.cells)
    scored_at: float | None = None
    for r, round_seed in enumerate(round_seeds):
        if r:  # the previous round rejected: set its flagged cell aside
            flagged = bounds.argmax_upper_cell
            del cells[flagged]
            if lam is None and not any(c.count for c in cells):
                break
        rate = lam if lam is not None else _pooled_rate(cells)
        if rate == scored_at:
            bounds = _bounds(
                bounds.sf_left[:flagged] + bounds.sf_left[flagged + 1 :],
                bounds.sf_right[:flagged] + bounds.sf_right[flagged + 1 :],
            )
        else:
            bounds = _bounds(*_panel_brackets(cells, rate))
            scored_at = rate
        report = _round_report(cells, bounds, rate, alpha, round_seed)
        reports.append(report)
        if report.rejected is not True:
            break
    return reports


def listeriosis_fixture_path() -> Path:
    """Bundled Lombardy listeriosis panel: 2008-2011 counts and populations."""
    return Path(str(resources.files(__package__) / "data" / "listeriosis_lombardy.csv"))
