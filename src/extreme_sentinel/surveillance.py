"""Count-panel surveillance: rate estimation, epidemic testing, peeling.

A panel holds observed case counts per (region, period) cell together
with the population at risk.  Under the null hypothesis every included
cell is Poisson with mean lambda * population; the test asks whether a
single cell was generated by a dominating alternative instead.  The
peel analysis repeats the test with the flagged cell removed until
nothing more stands out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .distributions import Poisson, RandomStream
from .errors import DataError, ParameterError
from .umptest import PValueBounds, TestDecision, pvalue_bounds

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
    included: bool = True


@dataclass(frozen=True)
class CountPanel:
    """Cells with unique (region, period) keys; excluded cells are inert.

    Excluded cells stay in the panel for bookkeeping but contribute to no
    statistic; n counts included cells only.
    """

    cells: tuple[PanelCell, ...]

    def __post_init__(self):
        object.__setattr__(self, "cells", tuple(self.cells))
        seen = set()
        for cell in self.cells:
            if not isinstance(cell, PanelCell):
                raise DataError(f"panel cells must be PanelCell, got {type(cell).__name__}")
            key = (cell.region_id, cell.period_id)
            if key in seen:
                raise DataError(f"duplicate cell key {key!r}")
            seen.add(key)
            if (
                isinstance(cell.count, bool)
                or not isinstance(cell.count, (int, np.integer))
                or cell.count < 0
            ):
                raise DataError(
                    f"cell {key!r}: count must be a non-negative integer, got {cell.count!r}"
                )
            if cell.included and not (
                np.isfinite(cell.population) and cell.population > 0.0
            ):
                raise DataError(
                    f"cell {key!r}: included cell needs a positive population, "
                    f"got {cell.population!r}"
                )

    @property
    def included_cells(self) -> tuple[PanelCell, ...]:
        return tuple(c for c in self.cells if c.included)

    @property
    def n(self) -> int:
        """Number of cells entering the test (the exponent in the bounds)."""
        return sum(1 for c in self.cells if c.included)

    def excluding(self, region_id: str, period_id: str) -> "CountPanel":
        """Copy of the panel with one cell marked excluded."""
        key = (region_id, period_id)
        if not any((c.region_id, c.period_id) == key for c in self.cells):
            raise DataError(f"no cell with key {key!r}")
        return CountPanel(
            tuple(
                replace(c, included=False) if (c.region_id, c.period_id) == key else c
                for c in self.cells
            )
        )


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
    """Pooled rate: total included count over total included population.

    All-zero panels have a pooled rate of zero, which cannot parametrize
    a Poisson null; callers must pass an explicit rate in that case.
    """
    cells = panel.included_cells
    if not cells:
        raise DataError("panel has no included cells")
    total_count = sum(c.count for c in cells)
    total_pop = math.fsum(c.population for c in cells)
    if not total_pop > 0.0:
        raise DataError("total population must be positive")
    if total_count == 0:
        raise DataError("all included counts are zero; pass an explicit rate instead")
    return total_count / total_pop


def null_distributions(panel: CountPanel, lam: float) -> list[Poisson]:
    """One Poisson(lambda * population) per included cell, in panel order."""
    if not (np.isfinite(lam) and lam > 0.0):
        raise ParameterError(f"rate must be finite and positive, got {lam!r}")
    return [Poisson(lam * c.population) for c in panel.included_cells]


def epidemic_test(
    panel: CountPanel,
    *,
    lam: float | None = None,
    alpha: float = 0.05,
    seed: int | None = None,
) -> EpidemicReport:
    """Run the maximum-score test on a panel.

    Estimates the rate from the panel when ``lam`` is absent.  The
    flagged cell is the one attaining the upper maximum of the p-value
    bounds, i.e. the most extreme observation.
    """
    lam_used = float(lam) if lam is not None else estimate_lambda(panel)
    cells = panel.included_cells
    dists = null_distributions(panel, lam_used)
    obs = [c.count for c in cells]
    bounds = pvalue_bounds(dists, obs)
    decision = bounds.decide(alpha)
    flagged = cells[bounds.argmax_upper_cell]
    if decision.branch == "reject":
        rejected: bool | None = True
    elif decision.branch == "accept":
        rejected = False
    elif seed is not None:
        coin = RandomStream(seed).uniform_open()
        rejected = bool(coin < decision.rejection_probability)
    else:
        rejected = None
    return EpidemicReport(
        bounds=bounds,
        decision=decision,
        flagged_cell=(flagged.region_id, flagged.period_id),
        lambda_used=lam_used,
        alpha=alpha,
        n=panel.n,
        seed=seed,
        rejected=rejected,
    )


def peel_test(
    panel: CountPanel,
    *,
    lam: float | None = None,
    alpha: float = 0.05,
    max_rounds: int = 5,
    seed: int | None = None,
) -> list[EpidemicReport]:
    """Test, exclude the flagged cell on rejection, repeat.

    Stops at the first round that does not produce a hard rejection, or
    after max_rounds, or when no included cells remain.  When ``lam`` is
    absent the rate is re-estimated from the surviving cells each round,
    and the peel ends once those cells all count zero: there is no rate
    to estimate, and no cell of an all-zero panel can stand out.
    Per-round coin seeds are derived from ``seed`` by seed splitting, and
    each report carries its own derived seed so the round can be replayed
    in isolation.
    """
    if (
        isinstance(max_rounds, bool)
        or not isinstance(max_rounds, (int, np.integer))
        or max_rounds < 1
    ):
        raise ParameterError(f"max_rounds must be a positive integer, got {max_rounds!r}")
    # Each round excludes one cell, so no peel outlasts the included cells;
    # generate_state is prefix-stable, so no round's seed depends on the cap.
    rounds = min(int(max_rounds), panel.n)
    round_seeds: list[int | None] = [None] * rounds
    if seed is not None:
        state = np.random.SeedSequence(seed).generate_state(rounds, dtype=np.uint64)
        round_seeds = [int(s) for s in state]
    reports: list[EpidemicReport] = []
    working = panel
    for r in range(rounds):
        if r and lam is None and not any(c.count for c in working.included_cells):
            break
        report = epidemic_test(working, lam=lam, alpha=alpha, seed=round_seeds[r])
        reports.append(report)
        if report.rejected is not True:
            break
        working = working.excluding(*report.flagged_cell)
    return reports


def listeriosis_fixture_path() -> Path:
    """Bundled Lombardy listeriosis panel: 2008-2011 counts and populations."""
    return Path(str(resources.files(__package__) / "data" / "listeriosis_lombardy.csv"))
