"""Count-panel surveillance: rate estimation, epidemic testing, peeling.

A panel holds observed case counts per (region, period) cell together
with the population at risk: exactly the cells that enter the test, so a
non-reporting area is left out of the panel.  A panel is built from
its four columns and holds them: region ids and period ids as tuples
of strings, counts and populations as read-only numpy arrays.
``CountPanel.cells`` is a row view of ``PanelCell`` objects, built only
when asked for.  Under the null hypothesis every cell is Poisson with
mean lambda * population; the test asks whether a single cell was
generated by a dominating alternative instead.  A test scores the panel
in one array pass over its count and population columns, and no model is
built per cell.  Adjacent rows that share a mean may share one table of
the survival function, by the rule ``distributions._poisson_brackets``
states; the brackets are those of ``pvalue_bounds`` on
``null_distributions``, bit for bit.  The peel analysis repeats the test
with the flagged cell removed until nothing more stands out; its state
is the indices of the kept rows: a fixed rate scores the panel once and
each round indexes those brackets by the kept rows, while a pooled rate
scores each round's kept rows.  ``_first_fault`` holds the one set of
panel rules: a gate of whole-column checks, then, only when the gate
fails, one row scan that names the first bad row.
``CountPanel`` runs it once on every panel, ``cli.ingest``'s included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from importlib import resources
from pathlib import Path

import numpy as np

from .distributions import Poisson, RandomStream, _poisson_brackets, _read_only, _Record
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
    """A region or period id: a non-empty string without surrounding whitespace.

    ``str.strip`` is the rule, as in ``_ids_pass``, whatever strip a subclass defines.
    """
    return isinstance(name, str) and name != "" and name == str.strip(name)


def _breaks(check, value, *bounds) -> bool:
    """Whether ``check(value, ...)``, one of the rules in ``errors``, refuses ``value``."""
    try:
        check(value, "", *bounds)
    except ParameterError:
        return True
    return False


def _ids_pass(ids: tuple) -> bool:
    """Whether every id is a str, none is empty and none has surrounding whitespace."""
    try:
        joined = "".join(ids)  # a TypeError for any id that is not a str
    except TypeError:
        return False
    # str.split and str.strip cut the same characters, so joined ids that
    # split into themselves hold none; only others are stripped one by one.
    return "" not in ids and (joined.split() == [joined] or tuple(map(str.strip, ids)) == ids)


def _counts_pass(counts) -> bool:
    """Whether every count is a plain int in [0, 2**53), or the column an int64 array of them."""
    if isinstance(counts, np.ndarray):
        return bool(counts.min() >= 0 and counts.max() < 2**53)
    return set(map(type, counts)) == {int} and min(counts) >= 0 and max(counts) < 2**53


def _populations_pass(populations) -> bool:
    """Whether every population is a positive finite int or float, or a float64 column of them."""
    if not isinstance(populations, np.ndarray):
        if not set(map(type, populations)) <= {int, float}:
            return False
        try:
            populations = np.array(populations, dtype=float)
        except OverflowError:  # an int past the float range
            return False
    return bool(np.all((populations > 0.0) & (populations < math.inf)))


def _first_fault(
    region_ids: tuple, period_ids: tuple, counts, populations, where
) -> tuple[int, str] | None:
    """The first row breaking a panel rule, as (row, reason), or None.

    ``counts`` is a sequence or an int64 array, ``populations`` a
    sequence or a float64 array.  The rules, in order: both ids pass
    ``_id_ok``; the key is unique, and a duplicate names its first
    occurrence ``j`` as ``where(j)``; the count is a non-negative integer
    below 2**53, where the float64 array pass is exact; the population
    is a positive finite number.  Every rule is checked on whole columns
    first, and a panel passing them all scans no row.  Otherwise one
    scan applies the rules row by row, in order, to the rows' Python
    values, so the fault is the first bad row's first broken rule.
    """
    if (
        _ids_pass(region_ids)
        and _ids_pass(period_ids)
        and len(set(zip(region_ids, period_ids))) == len(region_ids)
        and _counts_pass(counts)
        and _populations_pass(populations)
    ):
        return None
    counts, populations = (
        c.tolist() if isinstance(c, np.ndarray) else c for c in (counts, populations)
    )
    first: dict[tuple[str, str], int] = {}
    for i, (region, period, count, population) in enumerate(
        zip(region_ids, period_ids, counts, populations)
    ):
        if not (_id_ok(region) and _id_ok(period)):
            return i, "ids must be non-empty strings without surrounding whitespace"
        j = first.setdefault((region, period), i)
        if j != i:
            return i, f"duplicate key, first seen at {where(j)}"
        if _breaks(_integer, count, 0, 2**53):
            return i, f"count must be a non-negative integer below 2**53, got {_shown(count)}"
        if _breaks(_real, population, 0.0):
            return i, f"population must be a positive finite number, got {_shown(population)}"
    return None


def _column(values, name: str, dtype=None) -> tuple | np.ndarray:
    """``values`` as a tuple, an ndarray read through ``tolist``; raises DataError if not iterable.

    A 1-d ndarray of ``dtype``, when one is given, is returned as it is.
    """
    if (
        dtype is not None
        and isinstance(values, np.ndarray)
        and (values.dtype, values.ndim) == (dtype, 1)
    ):
        return values
    try:
        return tuple(values.tolist() if isinstance(values, np.ndarray) else values)
    except TypeError:
        raise DataError(f"{name} must be a column of values, got {_shown(values)}") from None


@dataclass(frozen=True, eq=False)
class CountPanel(_Record):
    """The cells that enter the test: at least one, each valid, keys unique.

    Built from its four columns in panel order, each an iterable, and
    held as ``region_ids`` and ``period_ids`` (tuples of str), ``counts``
    (read-only int64) and ``populations`` (read-only float64).  A 1-d
    int64 count column and a 1-d float64 population column are checked
    as they are and held as read-only copies; any other ndarray is read
    through ``tolist``.  Region and period ids are
    non-empty strings without surrounding whitespace, so every panel is
    one that a CSV file can hold.  Panels compare and hash by the
    ``_Record`` rule.
    """

    region_ids: tuple[str, ...]
    period_ids: tuple[str, ...]
    counts: np.ndarray
    populations: np.ndarray

    def __post_init__(self):
        columns = [
            _column(getattr(self, f.name), f.name, dtype)
            for f, dtype in zip(fields(self), (None, None, np.int64, np.float64))
        ]
        sizes = [len(c) for c in columns]
        if len(set(sizes)) > 1:
            raise DataError(f"columns must have equal lengths, got {sizes}")
        if not sizes[0]:
            raise DataError("panel must contain at least one cell")
        fault = _first_fault(*columns, lambda j: f"position {j}")
        if fault is not None:
            i, reason = fault
            raise DataError(f"cell ({_shown(columns[0][i])}, {_shown(columns[1][i])}): {reason}")
        region_ids, period_ids, counts, populations = columns
        object.__setattr__(self, "region_ids", region_ids)
        object.__setattr__(self, "period_ids", period_ids)
        object.__setattr__(self, "counts", _read_only(counts, np.int64))
        object.__setattr__(self, "populations", _read_only(populations))

    @cached_property
    def cells(self) -> tuple[PanelCell, ...]:
        """The rows as ``PanelCell``s, with int counts and float populations, built on first use."""
        columns = (self.region_ids, self.period_ids, self.counts.tolist(), self.populations.tolist())
        return tuple(map(PanelCell, *columns))

    @property
    def n(self) -> int:
        """Number of cells entering the test (the exponent in the bounds)."""
        return len(self.region_ids)


def _check_panel(panel) -> None:
    """Raise ParameterError unless ``panel`` is a ``CountPanel``."""
    if not isinstance(panel, CountPanel):
        raise ParameterError(f"panel must be a CountPanel, got {type(panel).__name__}")


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
    _check_panel(panel)
    return _pooled_rate(panel.counts, panel.populations)


def _pooled_rate(counts: np.ndarray, populations: np.ndarray) -> float:
    """Total count over total population of the given rows."""
    total_count = sum(counts.tolist())  # a Python int: an int64 sum wraps past 2**63
    if total_count == 0:
        raise DataError("all counts are zero; pass an explicit rate instead")
    try:
        total_population = math.fsum(populations.tolist())
    except OverflowError:
        raise DataError("total population overflows; pass an explicit rate instead") from None
    return total_count / total_population


def null_distributions(panel: CountPanel, lam: float) -> list[Poisson]:
    """One Poisson(lambda * population) per cell, in panel order."""
    _check_panel(panel)
    _real(lam, "rate", 0.0)
    return [Poisson(lam * p) for p in panel.populations.tolist()]


def _panel_brackets(
    counts: np.ndarray, populations: np.ndarray, rate: float
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's Poisson(rate * population) survival brackets, in one array pass.

    Returns what ``pit._survival_brackets`` returns on the rows' null
    models, bit for bit, without building a model per row: the float64
    product ``rate * populations`` is the Python product each model
    receives.  A mean that is not a finite positive number raises what
    ``Poisson`` raises.

    Runs of equal means share a table by ``distributions._poisson_brackets``' rule.
    """
    with np.errstate(over="ignore"):  # an overflowed mean is refused below
        means = rate * populations
    bad = ~(np.isfinite(means) & (means > 0.0))
    if bad.any():
        _real(float(means[int(np.argmax(bad))]), "Poisson mean", 0.0)
    return _poisson_brackets(counts, means)


def _round_report(
    panel: CountPanel,
    flagged: int,
    bounds: PValueBounds,
    lam: float,
    alpha: float,
    seed: int | None,
) -> EpidemicReport:
    """Decide one test from its bounds; ``flagged`` is the panel row of the bounds' upper argmax.

    A seeded coin resolves a randomized branch.
    """
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
    return EpidemicReport(
        bounds=bounds,
        decision=decision,
        flagged_cell=(panel.region_ids[flagged], panel.period_ids[flagged]),
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
    _check_panel(panel)
    if seed is not None:
        _seed(seed)
    lam_used = _real(lam, "rate", 0.0) if lam is not None else estimate_lambda(panel)
    bounds = _bounds(*_panel_brackets(panel.counts, panel.populations, lam_used))
    return _round_report(panel, bounds.argmax_upper_cell, bounds, lam_used, alpha, seed)


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
    times its population.  A fixed rate scores the panel once, in one
    array pass, and each round takes its kept rows' brackets from that
    pass; a pooled rate moves as cells leave, so it scores each round's
    cells.  The peel's only state is the indices of its kept rows.
    Round r reports exactly what ``epidemic_test`` reports on the panel
    without rounds 1..r-1's flagged cells.  No other library code drops
    a cell from a panel.

    Per-round coin seeds are derived from ``seed`` by seed splitting, and
    each report carries its own derived seed so the round can be replayed
    in isolation.
    """
    _check_panel(panel)
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
    kept = np.arange(panel.n)  # the panel rows still in the test
    if lam is not None:  # a fixed rate: every round reads this one pass
        sf_left, sf_right = _panel_brackets(panel.counts, panel.populations, lam)
    for r, round_seed in enumerate(round_seeds):
        if r:  # the previous round rejected: set its flagged cell aside
            kept = np.delete(kept, bounds.argmax_upper_cell)
            if lam is None and not panel.counts[kept].any():
                break
        if lam is None:  # a pooled rate: score the kept rows at their own rate
            counts, populations = panel.counts[kept], panel.populations[kept]
            rate = _pooled_rate(counts, populations)
            bounds = _bounds(*_panel_brackets(counts, populations, rate))
        else:
            rate = lam
            bounds = _bounds(sf_left[kept], sf_right[kept])
        flagged_row = int(kept[bounds.argmax_upper_cell])
        report = _round_report(panel, flagged_row, bounds, rate, alpha, round_seed)
        reports.append(report)
        if report.rejected is not True:
            break
    return reports


def listeriosis_fixture_path() -> Path:
    """Bundled Lombardy listeriosis panel: 2008-2011 counts and populations."""
    return Path(str(resources.files(__package__) / "data" / "listeriosis_lombardy.csv"))
