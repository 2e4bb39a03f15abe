"""Tests for count-panel surveillance: estimation, testing, peeling."""

import csv
import dataclasses
import math

import numpy as np
import pytest
from panel_rows import panel_of, surveil_csv

from extreme_sentinel import cli, distributions, surveillance
from extreme_sentinel.cli import ingest, write_panel
from extreme_sentinel.distributions import Poisson, RandomStream
from extreme_sentinel.errors import DataError, PanelFormatError, ParameterError
from extreme_sentinel.pit import _survival_brackets
from extreme_sentinel.surveillance import (
    CountPanel,
    PanelCell,
    epidemic_test,
    estimate_lambda,
    listeriosis_fixture_path,
    null_distributions,
    peel_test,
)

PUBLISHED_RATE = 9.703e-7


def cell(region, period, count, pop=1_000_000.0):
    return (region, period, count, pop)


def columns(panel):
    return (panel.region_ids, panel.period_ids, panel.counts, panel.populations)


def fixture_panel():
    return ingest(listeriosis_fixture_path())


def spiked_cells(rng):
    """The rows of a small random panel with a few planted spikes, and a rate near its own.

    About one cell in ten is left out, as a non-reporting area is, so the
    cells may run out; the rest keep their names.
    """
    n = int(rng.integers(1, 16))
    pops = np.rint(rng.lognormal(np.log(1e6), 0.7, n))
    rate = float(rng.choice([1e-7, 1e-6, 5e-6]))
    counts = rng.poisson(rate * pops)
    for j in rng.choice(n, int(rng.integers(0, min(n, 3) + 1)), replace=False):
        counts[j] += int(rng.integers(3, 25))
    left_out = rng.random(n) < 0.1
    return (
        tuple(
            cell(f"R{i}", "1", int(c), float(p))
            for i, (c, p, x) in enumerate(zip(counts, pops, left_out))
            if not x
        ),
        rate,
    )


def assert_rounds_replay(panel, reports, *, lam, alpha, max_rounds):
    """The peel as rounds of epidemic_test on panels built without the flagged cells.

    Round r equals epidemic_test, at that round's seed, on the panel with
    rounds 1..r-1's flagged cells filtered out; only the last round may
    fail to reject hard, and a rejecting last round needs a reason to stop.
    """

    def others(panel, flagged):
        return [key != flagged for key in zip(panel.region_ids, panel.period_ids)]

    working = panel
    for i, r in enumerate(reports):
        if i:
            keep = others(working, reports[i - 1].flagged_cell)
            working = CountPanel(*(np.asarray(c)[keep] for c in columns(working)))
        assert epidemic_test(working, lam=lam, alpha=alpha, seed=r.seed) == r
    assert all(r.rejected is True for r in reports[:-1])
    if reports[-1].rejected is True and len(reports) < max_rounds:
        # The last round's flagged cell is set aside: nothing, or only zeros, is left.
        left = others(working, reports[-1].flagged_cell)
        assert not any(left) or (lam is None and not working.counts[left].any())


class TestCountPanel:
    def test_uniqueness_enforced(self):
        with pytest.raises(DataError) as info:
            panel_of((cell("A", "1", 0), cell("A", "1", 2)))
        assert str(info.value) == "cell ('A', '1'): duplicate key, first seen at position 0"

    def test_count_validation(self):
        with pytest.raises(DataError):
            panel_of((cell("A", "1", -1),))
        with pytest.raises(DataError):
            panel_of((cell("A", "1", 1.5),))
        with pytest.raises(DataError):
            panel_of((cell("A", "1", True),))
        for count in ("1", None, math.nan, math.inf):
            with pytest.raises(DataError):
                panel_of((cell("A", "1", count),))
        for pop in (True, "x", None, math.nan, math.inf):
            with pytest.raises(DataError):
                panel_of((cell("A", "1", 0, pop=pop),))

    def test_population_required_only_when_included(self):
        # Every cell enters the test, so every cell needs a positive population.
        for pop in (0.0, -1.0):
            with pytest.raises(DataError, match="population"):
                panel_of((cell("A", "1", 0, pop=pop),))
            with pytest.raises(DataError, match="population"):
                panel_of((cell("A", "1", 0, pop=pop), cell("B", "1", 2)))

    def test_empty_panel_rejected(self):
        for empty in ((), [], np.array([]), iter(())):
            with pytest.raises(DataError, match="at least one cell"):
                CountPanel(empty, (), [], np.array([], dtype=np.int64))

    def test_columns_must_be_iterable_and_equally_long(self):
        good = (("A", "B"), ("1", "1"), (0, 2), (1.0, 2.0))
        for i, name in enumerate(("region_ids", "period_ids", "counts", "populations")):
            for bad in (5, None, np.float64(2.0), np.array(2)):
                with pytest.raises(DataError, match=f"^{name} must be a column of values"):
                    CountPanel(*good[:i], bad, *good[i + 1 :])
            with pytest.raises(DataError, match=r"^columns must have equal lengths"):
                CountPanel(*good[:i], good[i][:1], *good[i + 1 :])
            with pytest.raises(DataError, match=r"^columns must have equal lengths"):
                CountPanel(*good[:i], np.asarray(good[i] * 2), *good[i + 1 :])

    def test_array_counts_are_refused_as_lists_are(self):
        for counts in ([True, False], [1.0, 2.0], [0.0, 2.5]):
            with pytest.raises(DataError) as as_list:
                CountPanel(("A", "B"), ("1", "1"), counts, (1.0, 2.0))
            with pytest.raises(DataError) as as_array:
                CountPanel(("A", "B"), ("1", "1"), np.array(counts), (1.0, 2.0))
            assert str(as_array.value) == str(as_list.value)


    def test_int64_and_float64_columns_are_checked_as_arrays(self):
        # They are held as read-only copies, and every fault reads as it does from lists.
        counts, pops = np.array([3, 0]), np.array([7.0, 2.5])
        panel = CountPanel(("A", "B"), ("1", "2"), counts, pops)
        counts[0], pops[0] = 9, 1.0
        assert panel == panel_of((cell("A", "1", 3, pop=7.0), cell("B", "2", 0, pop=2.5)))
        assert not (panel.counts.flags.writeable or panel.populations.flags.writeable)
        for bad_counts, bad_pops in (
            ([-1, 2], [1.0, 2.0]),
            ([0, 2**53], [1.0, 2.0]),
            ([5, -3], [-1.0, 1.0]),
            ([0, 2], [0.0, 1.0]),
            ([0, 1], [1.0, math.nan]),
            ([0, 1], [math.inf, 1.0]),
        ):
            with pytest.raises(DataError) as as_list:
                CountPanel(("A", "B"), ("1", "2"), bad_counts, bad_pops)
            with pytest.raises(DataError) as as_array:
                CountPanel(("A", "B"), ("1", "2"), np.array(bad_counts), np.array(bad_pops))
            assert str(as_array.value) == str(as_list.value)


@pytest.mark.parametrize(
    "call",
    [
        lambda p, out: estimate_lambda(p),
        lambda p, out: null_distributions(p, 1e-6),
        lambda p, out: epidemic_test(p, lam=1e-6),
        lambda p, out: peel_test(p, lam=1e-6),
        write_panel,
    ],
    ids=["estimate_lambda", "null_distributions", "epidemic_test", "peel_test", "write_panel"],
)
def test_a_panel_argument_must_be_a_count_panel(call, tmp_path):
    rows = (cell("A", "1", 3),)
    out = tmp_path / "panel.csv"
    for not_a_panel in ("x", None, rows, [PanelCell(*rows[0])], columns(panel_of(rows))):
        with pytest.raises(ParameterError, match="^panel must be a CountPanel, got "):
            call(not_a_panel, out)
    assert not out.exists()


class TestEstimateLambda:
    def test_single_cell(self):
        panel = panel_of((cell("A", "1", 5, pop=1e6),))
        assert estimate_lambda(panel) == pytest.approx(5e-6, rel=1e-15)

    def test_pooled(self):
        panel = panel_of((cell("A", "1", 3, pop=1e6), cell("B", "1", 1, pop=1e6)))
        assert estimate_lambda(panel) == pytest.approx(2e-6, rel=1e-15)

    def test_fixture_near_reported_rate(self):
        lam = estimate_lambda(fixture_panel())
        assert abs(lam - PUBLISHED_RATE) / PUBLISHED_RATE < 0.15

    def test_errors(self):
        with pytest.raises(DataError):
            estimate_lambda(panel_of((cell("A", "1", 0),)))

    def test_total_population_overflow_asks_for_a_rate(self):
        panel = panel_of((cell("A", "1", 1, pop=1e308), cell("B", "1", 2, pop=1e308)))
        for call in (estimate_lambda, epidemic_test, peel_test):
            with pytest.raises(DataError, match="total population overflows.*explicit rate"):
                call(panel)
        assert epidemic_test(panel, lam=1e-308).n == 2
        # Below the overflow the pooled rate is still total count over fsum.
        panel = panel_of((cell("A", "1", 1, pop=1e308), cell("B", "1", 2, pop=7e307)))
        assert estimate_lambda(panel) == 3 / math.fsum((1e308, 7e307))
        assert peel_test(panel)[0].lambda_used == 3 / math.fsum((1e308, 7e307))

    def test_pooled_total_count_is_exact(self):
        # 1025 counts of 2**53 - 1 sum past 2**63, where an int64 sum wraps.
        counts = [2**53 - 1] * 1025
        pops = [float(1e6 + i) for i in range(1025)]
        panel = panel_of(cell(f"R{i}", "1", c, p) for i, (c, p) in enumerate(zip(counts, pops)))
        assert sum(counts) > 2**63
        assert estimate_lambda(panel) == sum(counts) / math.fsum(pops)
        assert epidemic_test(panel).lambda_used == sum(counts) / math.fsum(pops)


class TestNullDistributions:
    def test_mean_is_rate_times_population(self):
        panel = panel_of((cell("A", "1", 0, pop=1e6),))
        (dist,) = null_distributions(panel, 1e-6)
        assert dist.mean == pytest.approx(1.0, rel=1e-15)

    def test_fixture_bergamo_2010_mean(self):
        panel = fixture_panel()
        dists = null_distributions(panel, PUBLISHED_RATE)
        idx = list(zip(panel.region_ids, panel.period_ids)).index(("BG", "2010"))
        assert dists[idx].mean == pytest.approx(1.066, abs=5e-3)

    def test_rate_validation(self):
        panel = panel_of((cell("A", "1", 0),))
        for lam in (0.0, -1e-6, math.inf, math.nan, True, "1e-6", None):
            with pytest.raises(ParameterError):
                null_distributions(panel, lam)
        for lam in (0.0, math.inf, math.nan, True, "1e-6"):
            with pytest.raises(ParameterError):
                epidemic_test(panel, lam=lam)
            with pytest.raises(ParameterError):
                peel_test(panel, lam=lam)


class TestEpidemicTest:
    def test_single_quiet_cell_accepts(self):
        panel = panel_of((cell("A", "1", 0, pop=1e6),))
        report = epidemic_test(panel, lam=1e-6, alpha=0.05)
        assert report.bounds.lower == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)
        assert report.bounds.upper == 1.0
        assert report.decision.branch == "accept"
        assert report.rejected is False
        assert report.n == 1 and report.lambda_used == 1e-6

    def test_single_loud_cell_rejects(self):
        panel = panel_of((cell("A", "1", 10, pop=1e6),))
        report = epidemic_test(panel, lam=1e-6, alpha=0.05)
        assert report.decision.branch == "reject"
        assert report.rejected is True
        assert report.decision.m_statistic > 0.95
        assert report.flagged_cell == ("A", "1")

    def test_fixture_rejects_and_flags_bergamo_2010(self):
        report = epidemic_test(fixture_panel(), lam=PUBLISHED_RATE, alpha=0.01)
        assert report.decision.branch == "reject"
        assert report.rejected is True
        assert report.flagged_cell == ("BG", "2010")
        assert report.bounds.lower < 0.001 and report.bounds.upper < 0.001
        assert report.n == 40

    def test_randomized_branch_seed_resolution(self):
        panel = panel_of((cell("A", "1", 0, pop=10_000.0),))
        report = epidemic_test(panel, lam=1e-6, alpha=0.05)  # mean 0.01
        assert report.decision.branch == "randomized"
        assert report.rejected is None and report.seed is None
        phi = report.decision.rejection_probability
        for seed in (1, 2, 3, 4, 5):
            resolved = epidemic_test(panel, lam=1e-6, alpha=0.05, seed=seed)
            coin = RandomStream(seed).uniform_open()
            assert resolved.rejected is (coin < phi)
            assert resolved.seed == seed
        # A bad seed fails on every branch, not only where the coin is drawn.
        loud = panel_of((cell("A", "1", 10, pop=1e6),))
        for seed in (-1, 2.5, True, "7"):
            for p in (panel, loud):
                with pytest.raises(ParameterError):
                    epidemic_test(p, lam=1e-6, alpha=0.05, seed=seed)

    def test_lambda_monotonicity_of_bounds(self):
        panel = fixture_panel()
        lams = [PUBLISHED_RATE * f for f in (0.5, 1.0, 2.0, 4.0, 8.0)]
        reports = [epidemic_test(panel, lam=lam, alpha=0.01) for lam in lams]
        lowers = [r.bounds.lower for r in reports]
        uppers = [r.bounds.upper for r in reports]
        assert all(b >= a for a, b in zip(lowers, lowers[1:]))
        assert all(b >= a for a, b in zip(uppers, uppers[1:]))

    def test_flagged_cell_invariant_under_reordering(self):
        panel = fixture_panel()
        rng = np.random.default_rng(404)
        for _ in range(5):
            order = rng.permutation(panel.n)
            shuffled = CountPanel(*(np.asarray(c)[order] for c in columns(panel)))
            report = epidemic_test(shuffled, lam=PUBLISHED_RATE, alpha=0.01)
            assert report.flagged_cell == ("BG", "2010")


class TestOneBracketPass:
    """Each test scores its cells in one array pass and builds no model per cell."""

    @pytest.fixture
    def panel(self):
        return fixture_panel()

    @pytest.fixture
    def work(self, panel, monkeypatch):
        # Requests `panel` first, so building it is not counted.
        work = {"passes": [], "sf_left": 0, "CountPanel": 0, "Poisson": 0}
        array_pass = surveillance._panel_brackets
        sf_left = Poisson.sf_left
        panel_post_init = CountPanel.__post_init__
        post_init = Poisson.__post_init__

        def counting_pass(counts, populations, rate):
            work["passes"].append(len(counts))
            return array_pass(counts, populations, rate)

        def counting_sf_left(self, x):
            work["sf_left"] += 1
            return sf_left(self, x)

        def counting_panel_post_init(self):
            work["CountPanel"] += 1
            panel_post_init(self)

        def counting_post_init(self):
            work["Poisson"] += 1
            post_init(self)

        monkeypatch.setattr(surveillance, "_panel_brackets", counting_pass)
        monkeypatch.setattr(Poisson, "sf_left", counting_sf_left)
        monkeypatch.setattr(CountPanel, "__post_init__", counting_panel_post_init)
        monkeypatch.setattr(Poisson, "__post_init__", counting_post_init)
        return work

    def test_epidemic_test_on_fixture(self, panel, work):
        epidemic_test(panel, lam=PUBLISHED_RATE, alpha=0.01)
        assert work == {"passes": [panel.n], "sf_left": 0, "CountPanel": 0, "Poisson": 0}

    def test_fixed_rate_peel(self, panel, work):
        # At a fixed rate the brackets never change: the panel is scored once.
        reports = peel_test(panel, lam=PUBLISHED_RATE, alpha=0.01, max_rounds=5)
        assert len(reports) == 2
        assert work == {"passes": [panel.n], "sf_left": 0, "CountPanel": 0, "Poisson": 0}

    def test_pooled_rate_peel(self, panel, work):
        # A pooled rate moves as cells leave, so each round scores its cells again.
        reports = peel_test(panel, alpha=0.01, max_rounds=5)
        assert len(reports) == 2
        assert work["passes"] == [r.n for r in reports]  # one pass per round, r.n cells each
        assert (work["sf_left"], work["Poisson"]) == (0, 0)

    def test_peel_builds_no_panel_and_no_model(self, panel, work):
        for lam in (PUBLISHED_RATE, None):
            assert len(peel_test(panel, lam=lam, alpha=0.01, max_rounds=5, seed=7)) == 2
        assert (work["sf_left"], work["CountPanel"], work["Poisson"]) == (0, 0, 0)


class TestColumnPanel:
    """A panel is built from its columns; its row view is built only when asked for."""

    @staticmethod
    def column_kinds(panel):
        """The panel's columns as lists, as tuples, as ndarrays, and as the panel holds them."""
        lists = [
            list(panel.region_ids),
            list(panel.period_ids),
            panel.counts.tolist(),
            panel.populations.tolist(),
        ]
        return {
            "list": lists,
            "tuple": [tuple(c) for c in lists],
            "ndarray": [np.asarray(c) for c in lists],
            "held": list(columns(panel)),
        }

    def panels(self, tmp_path):
        """The fixture, a 1040-cell surveil panel and random spiked panels."""
        yield fixture_panel()
        yield ingest(surveil_csv(tmp_path))
        rng = np.random.default_rng(2024)
        for _ in range(40):
            rows, _ = spiked_cells(rng)
            if rows:
                yield panel_of(rows)

    def test_hot_path_builds_no_row_objects(self, tmp_path, monkeypatch):
        built = []
        init = PanelCell.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(PanelCell, "__init__", counting_init)
        for source, rate in (
            (listeriosis_fixture_path(), PUBLISHED_RATE),
            (surveil_csv(tmp_path), 2e-5),
        ):
            panel = ingest(source)
            for lam in (rate, None):
                for seed in (7, None):
                    epidemic_test(panel, lam=lam, alpha=0.01, seed=seed)
                    peel_test(panel, lam=lam, alpha=0.01, max_rounds=5, seed=seed)
        assert panel.n == 1040
        assert built == []
        assert len(panel.cells) == 1040 and len(built) == 1040  # built on demand
        assert panel.cells is panel.cells and len(built) == 1040  # and then kept

    def test_columns_and_row_view(self):
        panel = CountPanel(["A", "B"], ("1", "2"), (3, np.int64(0)), np.array([7, 2.5]))
        assert panel.region_ids == ("A", "B") and panel.period_ids == ("1", "2")
        assert panel.counts.dtype == np.int64 and panel.counts.tolist() == [3, 0]
        assert panel.populations.dtype == np.float64 and panel.populations.tolist() == [7.0, 2.5]
        for column in (panel.counts, panel.populations):
            with pytest.raises(ValueError):
                column[0] = 1
        assert panel.cells == (PanelCell("A", "1", 3, 7.0), PanelCell("B", "2", 0, 2.5))
        assert type(panel.cells[1].count) is int and type(panel.cells[0].population) is float
        same = panel_of((cell("A", "1", 3, pop=7.0), cell("B", "2", 0, pop=2.5)))
        assert panel == same and hash(panel) == hash(same)
        assert panel != columns(panel)  # another type holding the same columns
        assert panel != panel_of((cell("A", "1", 3, pop=7.0), cell("B", "2", 1, pop=2.5)))
        assert panel != panel_of((cell("B", "2", 0, pop=2.5), cell("A", "1", 3, pop=7.0)))

    def test_ids_compare_as_python_strings(self):
        # numpy's U arrays drop trailing NULs: as arrays, ids 'a\x00' and 'a' would compare equal.
        nul, plain = (CountPanel([region], ["1"], [1], [1.0]) for region in ("a\x00", "a"))
        assert nul.region_ids == ("a\x00",) and np.array_equal(nul.region_ids, plain.region_ids)
        assert nul != plain

    def test_columns_round_trip(self, tmp_path):
        seen = 0
        for panel in self.panels(tmp_path):
            for kind, cols in self.column_kinds(panel).items():
                assert CountPanel(*cols) == panel, kind
            seen += 1
        assert seen > 30

    def test_valid_columns_scan_no_row(self, tmp_path, monkeypatch):
        # Every rule passes on whole columns, so no row is checked by itself.
        row_checks = []
        for name in ("_id_ok", "_breaks"):
            check = getattr(surveillance, name)

            def counting(*args, _name=name, _check=check):
                row_checks.append(_name)
                return _check(*args)

            monkeypatch.setattr(surveillance, name, counting)
        built = 0
        for panel in self.panels(tmp_path):
            for cols in self.column_kinds(panel).values():
                CountPanel(*cols)
                built += 1
        assert built > 120 and row_checks == []
        # A panel that fails the column gate reaches the row checks.
        with pytest.raises(DataError, match="count must be"):
            CountPanel(["A"], ["1"], [-1], [10.0])
        assert row_checks == ["_id_ok", "_id_ok", "_breaks"]

    def test_whitespace_screen_faults_as_stripping_every_id(self, monkeypatch):
        # Leading, trailing and inner whitespace, ASCII and Unicode, at any row.
        def strip_rule(ids):
            plain = set(map(type, ids)) == {str} and "" not in ids
            return plain and tuple(map(str.strip, ids)) == ids

        rng = np.random.default_rng(2027)
        spaces = (" ", "\t", "\n", "\r", "\x0b", "\x1c", "\x85", "\xa0", "\u2028", "\u3000")
        passed = 0
        for _ in range(2000):
            n = int(rng.integers(1, 6))
            columns = []
            for base in ("R", "P"):
                ids = [f"{base}{i}" for i in range(n)]
                for _ in range(int(rng.integers(0, 3))):
                    i, space = int(rng.integers(n)), spaces[rng.integers(len(spaces))]
                    padded = (space + ids[i], ids[i] + space, ids[i][0] + space + ids[i][1:], space)
                    ids[i] = padded[rng.integers(4)]
                columns.append(tuple(ids))
            assert surveillance._ids_pass(columns[0]) == strip_rule(columns[0]), columns[0]
            rows = (*columns, [1] * n, [10.0] * n, str)
            fault = surveillance._first_fault(*rows)
            with monkeypatch.context() as patched:
                patched.setattr(surveillance, "_ids_pass", strip_rule)
                assert fault == surveillance._first_fault(*rows), columns
            passed += fault is None
        assert 100 < passed < 1900

    def test_id_types_fault_as_the_row_scan(self, monkeypatch):
        # The column gate takes "".join's TypeError as its type test; every
        # column must fault, or pass, as the row scan alone has it.
        class Name(str):
            pass

        class OwnStrip(str):
            def strip(self, chars=None):
                return "stripped"

        plain = ("A", "B", "C")
        odd = (np.str_("B"), np.str_("B "), Name("B"), Name(" B"), 7, 7.0, b"B", None)
        columns = [tuple(map(cls, plain)) for cls in (np.str_, Name, OwnStrip)]
        columns += [plain[:i] + (v,) + plain[i + 1 :] for v in odd for i in range(3)]
        faults = []
        for ids in columns:
            for rows in ((ids, plain), (plain, ids)):
                rows = (*rows, [1, 2, 3], [10.0] * 3, str)
                fault = surveillance._first_fault(*rows)
                with monkeypatch.context() as patched:
                    patched.setattr(surveillance, "_ids_pass", lambda ids: False)
                    assert fault == surveillance._first_fault(*rows), rows
                faults.append(fault)
        assert faults.count(None) == 2 * 3 + 2 * 3 * 2  # the str columns pass
        assert {fault for fault in faults if fault} == {
            (i, "ids must be non-empty strings without surrounding whitespace") for i in range(3)
        }

    def test_valid_ingest_runs_the_panel_rules_once(self, tmp_path, monkeypatch):
        calls = []
        first_fault = surveillance._first_fault

        def counting_first_fault(*args):
            calls.append(args[-1](0))  # where the rules name row 0
            return first_fault(*args)

        monkeypatch.setattr(surveillance, "_first_fault", counting_first_fault)
        monkeypatch.setattr(cli, "_first_fault", counting_first_fault)
        for source in (listeriosis_fixture_path(), surveil_csv(tmp_path)):
            calls.clear()
            ingest(source)
            assert calls == ["position 0"]
        # Only a refused file runs the rules again, to name its lines.
        bad = tmp_path / "bad.csv"
        bad.write_text("region,period,count,population\nA,1,0,10\nA,1,2,10\n")
        calls.clear()
        with pytest.raises(PanelFormatError, match=r":3: duplicate key, first seen at line 2$"):
            ingest(bad)
        assert calls == ["position 0", "line 2"]


def scattered_panels(rng):
    """Panels mixing int and float populations, means from 1e-12 to 1e8, and
    counts of zero, Poisson draws and values up to 1e6; with their rates."""
    for _ in range(400):
        n = int(rng.integers(1, 30))
        rate = float(10.0 ** rng.uniform(-12, -6))
        targets = 10.0 ** rng.uniform(-12, 8, n)
        cells = []
        for i, target in enumerate(targets):
            pop = target / rate
            if rng.random() < 0.5:
                pop = max(1, round(pop))
            kind = int(rng.integers(3))
            count = (0, int(rng.poisson(rate * pop)), int(rng.integers(0, 10**6 + 1)))[kind]
            cells.append(cell(f"R{i}", "1", count, pop))
        yield panel_of(cells), rate


def region_week_ids(regions, weeks):
    """The region and period id columns of a region-major panel."""
    return (
        np.repeat([f"R{r:02d}" for r in range(regions)], weeks),
        np.tile([f"W{w:02d}" for w in range(weeks)], regions),
    )


def shared_population_panels(rng):
    """Region x week panels whose weeks share their region's population; with their rates.

    Each panel comes region-major, in runs of 1 to 60 cells with one
    mean, then period-major and shuffled.  A run mixes counts of zero,
    Poisson draws and values up to a top between 1 and 1e6.
    """
    for _ in range(40):
        regions, weeks = int(rng.integers(1, 7)), int(rng.integers(1, 61))
        rate = float(10.0 ** rng.uniform(-8, -4))
        pops = np.repeat(np.rint(rng.lognormal(np.log(5e5), 0.6, regions)), weeks)
        top = int(10.0 ** rng.uniform(0, 6))
        draws = (0, rng.poisson(rate * pops), rng.integers(0, top + 1, pops.size))
        counts = np.choose(rng.integers(3, size=pops.size), draws)
        ids = region_week_ids(regions, weeks)
        period_major = np.arange(pops.size).reshape(regions, weeks).T.ravel()
        for order in (np.arange(pops.size), period_major, rng.permutation(pops.size)):
            yield CountPanel(*(np.asarray(c)[order] for c in (*ids, counts, pops))), rate


def order_free(report, keys):
    """What a report says, with each row it names given by its key in ``keys``."""
    return (
        report.bounds.lower,
        report.bounds.upper,
        report.lambda_used,
        report.flagged_cell,
        report.rejected,
        dataclasses.replace(report.decision, randomized_set=()),
        sorted(keys[i] for i in report.decision.randomized_set),
        dict(zip(keys, zip(report.bounds.sf_left.tolist(), report.bounds.sf_right.tolist()))),
    )


class TestPanelBrackets:
    @staticmethod
    def counting_sf(monkeypatch):
        """The points of every ``_poisson_sf`` call ``_panel_brackets`` makes, as a list."""
        points = []
        sf = distributions._poisson_sf

        def counting(k, mean):
            points.append(np.size(k))
            return sf(k, mean)

        monkeypatch.setattr(distributions, "_poisson_sf", counting)
        return points

    def test_equals_the_per_model_pass(self, monkeypatch):
        # Both the one-table path and the two direct calls must be taken.
        points = self.counting_sf(monkeypatch)
        calls = set()
        rng = np.random.default_rng(4242)
        for panel, rate in (*scattered_panels(rng), *shared_population_panels(rng)):
            expected = _survival_brackets(
                null_distributions(panel, rate), panel.counts.tolist()
            )
            points.clear()
            got = surveillance._panel_brackets(panel.counts, panel.populations, rate)
            calls.add(len(points))
            for g, e in zip(got, expected, strict=True):
                assert np.array_equal(g, e)
                assert g.dtype == e.dtype == np.float64
        assert calls == {1, 2}

    def test_a_table_never_outgrows_the_direct_calls(self, monkeypatch):
        # One run whose counts span 2**52 integers, and a 1040-cell run holding
        # one count of 10**6: each table would dwarf its panel.
        counts = np.random.default_rng(1040).poisson(10.0, 1040)
        counts[517] = 10**6
        panels = (
            panel_of((cell("A", "1", 0), cell("A", "2", 2**52))),
            panel_of(cell("R", f"W{w}", int(c)) for w, c in enumerate(counts)),
        )
        points = self.counting_sf(monkeypatch)
        for panel in panels:
            points.clear()
            got = surveillance._panel_brackets(panel.counts, panel.populations, 1e-5)
            assert sum(points) <= 2 * panel.n
            expected = _survival_brackets(
                null_distributions(panel, 1e-5), panel.counts.tolist()
            )
            for g, e in zip(got, expected, strict=True):
                assert np.array_equal(g, e)

    def test_row_order_changes_no_report(self, capsys, tmp_path):
        # A 20 x 52 region-major panel with three 8x outbreaks, and the same
        # cells period-major: the first scores runs of equal means, the second none.
        rng = np.random.default_rng(2052)
        pops = np.repeat(np.rint(rng.lognormal(np.log(5e5), 0.6, 20)), 52)
        means = 2e-5 * pops
        outbreaks = rng.choice(pops.size, 3, replace=False)
        means[outbreaks] *= 8.0
        region_major = CountPanel(*region_week_ids(20, 52), rng.poisson(means), pops)
        keys = list(zip(region_major.region_ids, region_major.period_ids))
        outbreaks = {keys[i] for i in outbreaks}
        order = np.arange(pops.size).reshape(20, 52).T.ravel()
        period_major = CountPanel(*(np.asarray(c)[order] for c in columns(region_major)))
        runs = (
            lambda p: [epidemic_test(p, alpha=0.001, seed=3)],
            lambda p: [epidemic_test(p, lam=2e-5, alpha=0.001)],
            lambda p: peel_test(p, lam=2e-5, alpha=0.001, seed=7),
            lambda p: peel_test(p, alpha=0.001, seed=7),
        )
        for run in runs:
            said = []
            for panel in (region_major, period_major):
                reports = run(panel)
                assert reports[0].rejected is True  # an outbreak is found
                assert reports[0].flagged_cell in outbreaks
                keys, rounds = list(zip(panel.region_ids, panel.period_ids)), []
                for report in reports:  # each round's kept rows, in panel order
                    rounds.append(order_free(report, keys))
                    keys.remove(report.flagged_cell)
                said.append(rounds)
            assert said[0] == said[1]
        # The same through the CLI, from each order's CSV: the same bytes out.
        paths = [tmp_path / "region.csv", tmp_path / "period.csv"]
        for panel, path in zip((region_major, period_major), paths):
            write_panel(panel, path)
        for args in (("--alpha", "0.001"), ("--mode", "peel", "--lambda", "2e-5", "--seed", "7")):
            said = []
            for path in paths:
                assert cli.main(["--input", str(path), *args, "--format", "json"]) == 2
                said.append(capsys.readouterr())
            assert said[0] == said[1]

    def test_mean_out_of_range_raises_what_poisson_raises(self):
        # 1e300 * 1e10 overflows to inf; 1e-300 * 1e-30 underflows to 0.
        panel = panel_of((cell("A", "1", 0), cell("B", "1", 3, pop=1e10)))
        tiny = panel_of((cell("A", "1", 0, pop=1e-30),))
        for p, lam, got in ((panel, 1e300, "inf"), (tiny, 1e-300, "0.0")):
            msg = f"Poisson mean must be a finite real number in (0.0, inf), got {got}"
            for run in (epidemic_test, peel_test):
                with pytest.raises(ParameterError) as info:
                    run(p, lam=lam)
                assert str(info.value) == msg


class TestPeelTest:
    def test_fixture_two_rounds(self):
        reports = peel_test(fixture_panel(), lam=PUBLISHED_RATE, alpha=0.01, max_rounds=5)
        assert len(reports) == 2
        assert reports[0].rejected is True
        assert reports[0].flagged_cell == ("BG", "2010")
        assert reports[1].rejected is False
        assert reports[1].n == 39

    def test_fixture_reestimates_rate_each_round(self):
        panel = fixture_panel()
        reports = peel_test(panel, alpha=0.01, max_rounds=5)
        total_count = sum(panel.counts.tolist())
        total_pop = sum(panel.populations.tolist())
        assert reports[0].lambda_used == pytest.approx(total_count / total_pop, rel=1e-12)
        bg2010 = list(zip(panel.region_ids, panel.period_ids)).index(("BG", "2010"))
        lam2 = (total_count - panel.counts[bg2010]) / (total_pop - panel.populations[bg2010])
        assert len(reports) >= 2
        assert reports[1].lambda_used == pytest.approx(lam2, rel=1e-12)

    def test_all_zero_panel_single_accepting_report(self):
        panel = panel_of(cell(f"R{i}", "1", 0) for i in range(5))
        reports = peel_test(panel, lam=1e-6, alpha=0.05)
        assert len(reports) == 1
        assert reports[0].rejected is False

    def test_pooled_rate_stops_at_an_all_zero_remainder(self):
        panel = panel_of((cell("A", "1", 15), cell("B", "1", 0), cell("C", "1", 0)))
        reports = peel_test(panel, alpha=0.5)
        assert len(reports) == 1
        assert reports[0].rejected is True
        assert reports[0].flagged_cell == ("A", "1")

    def test_pooled_rate_all_zero_first_round_is_an_error(self):
        panel = panel_of((cell("A", "1", 0), cell("B", "1", 0)))
        with pytest.raises(DataError):
            peel_test(panel, alpha=0.5)

    def test_two_planted_spikes(self):
        cells = [cell(f"R{i}", "1", 0) for i in range(8)]
        cells[2] = cell("R2", "1", 15)
        cells[6] = cell("R6", "1", 15)
        panel = panel_of(cells)
        reports = peel_test(panel, lam=1e-6, alpha=0.01, max_rounds=5)
        assert [r.rejected for r in reports] == [True, True, False]
        assert {reports[0].flagged_cell, reports[1].flagged_cell} == {
            ("R2", "1"),
            ("R6", "1"),
        }

    def test_round_cap(self):
        panel = panel_of((cell("A", "1", 15), cell("B", "1", 15), cell("C", "1", 15)))
        reports = peel_test(panel, lam=1e-6, alpha=0.05, max_rounds=2)
        assert len(reports) == 2
        assert all(r.rejected for r in reports)

    def test_round_cap_is_bounded_by_the_included_cells(self, monkeypatch):
        # A peel lasts at most panel.n rounds, so a huge cap must not draw
        # a seed word per requested round; the seeds it draws stay the same.
        asked = []

        class SpySeedSequence(np.random.SeedSequence):
            def generate_state(self, n_words, dtype=np.uint32):
                asked.append(n_words)
                return super().generate_state(n_words, dtype)

        panel = fixture_panel()
        expected = peel_test(panel, lam=PUBLISHED_RATE, alpha=0.01, max_rounds=5, seed=7)
        monkeypatch.setattr(np.random, "SeedSequence", SpySeedSequence)
        got = peel_test(panel, lam=PUBLISHED_RATE, alpha=0.01, max_rounds=10**4, seed=7)
        assert asked and max(asked) <= panel.n
        assert got == expected

        spikes = panel_of(cell(f"R{i}", "1", 15) for i in range(3))
        reports = peel_test(spikes, lam=1e-6, alpha=0.05, max_rounds=10**4, seed=7)
        assert [r.rejected for r in reports] == [True, True, True]
        assert max(asked) <= panel.n

    def test_round_seeds_are_replayable(self):
        # A panel that stays on the randomized branch: coin flips per round.
        panel = panel_of(cell(f"R{i}", "1", 0, pop=10_000.0) for i in range(3))
        reports = peel_test(panel, lam=1e-6, alpha=0.5, max_rounds=3, seed=909)
        assert all(r.seed is not None for r in reports)
        assert_rounds_replay(panel, reports, lam=1e-6, alpha=0.5, max_rounds=3)

    @pytest.mark.parametrize("lam", [PUBLISHED_RATE, None])
    def test_fixture_rounds_replay(self, lam):
        panel = fixture_panel()
        for alpha, seed in ((0.01, 7), (0.3, 7), (0.3, None)):
            reports = peel_test(panel, lam=lam, alpha=alpha, max_rounds=6, seed=seed)
            assert len(reports) >= 2
            assert_rounds_replay(panel, reports, lam=lam, alpha=alpha, max_rounds=6)

    def test_spiked_panels_replay(self):
        rng = np.random.default_rng(7070)
        multi_round = 0
        for _ in range(300):
            cells, rate = spiked_cells(rng)
            alpha = float(rng.choice([1e-3, 0.01, 0.05, 0.3, 0.7]))
            max_rounds = int(rng.integers(1, 8))
            drawn_seeds = [int(rng.integers(2**31)) for _ in range(2)]  # one per rate
            if not cells:
                with pytest.raises(DataError):
                    panel_of(cells)
                continue
            panel = panel_of(cells)
            for lam, drawn in zip((rate, None), drawn_seeds):
                for seed in (drawn, None):
                    try:
                        reports = peel_test(
                            panel, lam=lam, alpha=alpha, max_rounds=max_rounds, seed=seed
                        )
                    except DataError:
                        with pytest.raises(DataError):
                            epidemic_test(panel, lam=lam, alpha=alpha, seed=seed)
                        continue
                    assert_rounds_replay(panel, reports, lam=lam, alpha=alpha, max_rounds=max_rounds)
                    multi_round += len(reports) > 1
        assert multi_round >= 300, multi_round

    def test_max_rounds_validation(self):
        panel = panel_of((cell("A", "1", 1),))
        for max_rounds in (0, True, 2.0, "5", None, math.nan, math.inf):
            with pytest.raises(ParameterError):
                peel_test(panel, lam=1e-6, max_rounds=max_rounds)
        for seed in (-1, 2.5, True, "7"):
            with pytest.raises(ParameterError):
                peel_test(panel, lam=1e-6, seed=seed)


class TestPanelCsv:
    def test_spiked_panels_round_trip(self, tmp_path):
        # A panel holds only cells a CSV row can express, so write_panel then
        # ingest gives equal cells back, at integer and fractional populations.
        rng = np.random.default_rng(8080)
        out = tmp_path / "panel.csv"
        fractional_seen = 0
        for _ in range(200):
            cells, _ = spiked_cells(rng)
            if not cells:
                continue
            fractional = tuple(
                (r, p, c, pop * float(rng.uniform(0.5, 1.5))) for r, p, c, pop in cells
            )
            fractional_seen += sum(not row[3].is_integer() for row in fractional)
            for panel in (panel_of(cells), panel_of(fractional)):
                write_panel(panel, out)
                assert ingest(out) == panel
        assert fractional_seen > 1000


    def test_ids_round_trip_or_are_refused(self, tmp_path):
        # An id that a CSV row cannot give back is refused by the panel itself.
        out = tmp_path / "panel.csv"
        for bad in (5, np.int64(5), None, "", " A", "A ", "\tA", "A\n", "\u00a0A"):
            for region, period in ((bad, "1"), ("A", bad)):
                with pytest.raises(DataError, match="ids must be non-empty strings") as info:
                    panel_of((cell("B", "1", 0), cell(region, period, 1)))
                # The cell is named as the repr of its key.
                assert str(info.value).startswith(f"cell {(region, period)!r}: ")
        ids = ("A", "Val d'Aosta", "a,b", 'say "hi"', "two words", "x\ny", "Città", "0")
        panel = panel_of(cell(r, p, 1) for r in ids for p in ids)
        write_panel(panel, out)
        assert ingest(out) == panel


class TestFixtureFile:
    def test_path_exists(self):
        path = listeriosis_fixture_path()
        assert path.is_file()

    def test_shape_and_totals(self):
        panel = fixture_panel()
        # Its four columns, read without ingest, build the same panel.
        with open(listeriosis_fixture_path(), newline="", encoding="utf-8") as fh:
            regions, periods, counts, pops = zip(*list(csv.reader(fh))[1:])
        counts = np.array(counts, dtype=np.int64)
        rebuilt = CountPanel(regions, periods, counts, list(map(float, pops)))
        assert rebuilt == panel
        for lam in (PUBLISHED_RATE, None):
            assert epidemic_test(rebuilt, lam=lam, alpha=0.01) == epidemic_test(
                panel, lam=lam, alpha=0.01
            )
        assert panel.n == 40
        assert sum(panel.counts.tolist()) == 35
        regions = sorted(set(panel.region_ids))
        assert regions == ["BG", "BS", "CO", "CR", "LC", "LO", "MB", "MI", "PV", "VA"]
        periods = sorted(set(panel.period_ids))
        assert periods == ["2008", "2009", "2010", "2011"]

    def test_desk_scale_calibration(self):
        # Null panels shaped like the fixture: rejection rate near alpha.
        from extreme_sentinel.verify import SimulationConfig, simulate_size_and_power

        panel = fixture_panel()
        dists = tuple(null_distributions(panel, PUBLISHED_RATE))
        result = simulate_size_and_power(
            SimulationConfig(panel_template=dists, alpha=0.05, n_trials=10_000, seed=20110815)
        )
        assert abs(result.rejection_rate - 0.05) <= 0.0066
