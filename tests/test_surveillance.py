"""Tests for count-panel surveillance: estimation, testing, peeling."""

import math

import numpy as np
import pytest

from extreme_sentinel.cli import ingest
from extreme_sentinel.distributions import Poisson, RandomStream
from extreme_sentinel.errors import DataError, ParameterError
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


def cell(region, period, count, pop=1_000_000.0, included=True):
    return PanelCell(region, period, count, pop, included)


def fixture_panel():
    return ingest(listeriosis_fixture_path())


class TestCountPanel:
    def test_uniqueness_enforced(self):
        with pytest.raises(DataError):
            CountPanel((cell("A", "1", 0), cell("A", "1", 2)))

    def test_count_validation(self):
        with pytest.raises(DataError):
            CountPanel((cell("A", "1", -1),))
        with pytest.raises(DataError):
            CountPanel((cell("A", "1", 1.5),))
        with pytest.raises(DataError):
            CountPanel((cell("A", "1", True),))

    def test_population_required_only_when_included(self):
        with pytest.raises(DataError):
            CountPanel((cell("A", "1", 0, pop=0.0),))
        panel = CountPanel((cell("A", "1", 0, pop=0.0, included=False), cell("B", "1", 2)))
        assert panel.n == 1
        assert panel.included_cells[0].region_id == "B"

    def test_excluding(self):
        panel = CountPanel((cell("A", "1", 3), cell("B", "1", 0)))
        smaller = panel.excluding("A", "1")
        assert smaller.n == 1
        assert panel.n == 2  # original untouched
        assert [c.included for c in smaller.cells] == [False, True]
        with pytest.raises(DataError):
            panel.excluding("Z", "9")

    def test_cells_must_be_panel_cells(self):
        with pytest.raises(DataError):
            CountPanel((("A", "1", 0, 1.0),))


class TestEstimateLambda:
    def test_single_cell(self):
        panel = CountPanel((cell("A", "1", 5, pop=1e6),))
        assert estimate_lambda(panel) == pytest.approx(5e-6, rel=1e-15)

    def test_pooled(self):
        panel = CountPanel((cell("A", "1", 3, pop=1e6), cell("B", "1", 1, pop=1e6)))
        assert estimate_lambda(panel) == pytest.approx(2e-6, rel=1e-15)

    def test_excluded_cells_ignored(self):
        panel = CountPanel(
            (cell("A", "1", 3, pop=1e6), cell("B", "1", 7, pop=1e6, included=False))
        )
        assert estimate_lambda(panel) == pytest.approx(3e-6, rel=1e-15)

    def test_fixture_near_reported_rate(self):
        lam = estimate_lambda(fixture_panel())
        assert abs(lam - PUBLISHED_RATE) / PUBLISHED_RATE < 0.15

    def test_errors(self):
        with pytest.raises(DataError):
            estimate_lambda(CountPanel(()))
        with pytest.raises(DataError):
            estimate_lambda(CountPanel((cell("A", "1", 0),)))


class TestNullDistributions:
    def test_mean_is_rate_times_population(self):
        panel = CountPanel((cell("A", "1", 0, pop=1e6),))
        (dist,) = null_distributions(panel, 1e-6)
        assert dist.mean == pytest.approx(1.0, rel=1e-15)

    def test_excluded_cells_emit_nothing(self):
        panel = CountPanel(
            (cell("A", "1", 0, pop=1e6), cell("B", "1", 0, pop=2e6, included=False))
        )
        dists = null_distributions(panel, 1e-6)
        assert len(dists) == 1

    def test_fixture_bergamo_2010_mean(self):
        panel = fixture_panel()
        dists = null_distributions(panel, PUBLISHED_RATE)
        idx = [
            i
            for i, c in enumerate(panel.included_cells)
            if (c.region_id, c.period_id) == ("BG", "2010")
        ][0]
        assert dists[idx].mean == pytest.approx(1.066, abs=5e-3)

    def test_rate_validation(self):
        panel = CountPanel((cell("A", "1", 0),))
        for lam in (0.0, -1e-6, math.inf, math.nan):
            with pytest.raises(ParameterError):
                null_distributions(panel, lam)


class TestEpidemicTest:
    def test_single_quiet_cell_accepts(self):
        panel = CountPanel((cell("A", "1", 0, pop=1e6),))
        report = epidemic_test(panel, lam=1e-6, alpha=0.05)
        assert report.bounds.lower == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)
        assert report.bounds.upper == 1.0
        assert report.decision.branch == "accept"
        assert report.rejected is False
        assert report.n == 1 and report.lambda_used == 1e-6

    def test_single_loud_cell_rejects(self):
        panel = CountPanel((cell("A", "1", 10, pop=1e6),))
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
        panel = CountPanel((cell("A", "1", 0, pop=10_000.0),))
        report = epidemic_test(panel, lam=1e-6, alpha=0.05)  # mean 0.01
        assert report.decision.branch == "randomized"
        assert report.rejected is None and report.seed is None
        phi = report.decision.rejection_probability
        for seed in (1, 2, 3, 4, 5):
            resolved = epidemic_test(panel, lam=1e-6, alpha=0.05, seed=seed)
            coin = RandomStream(seed).uniform_open()
            assert resolved.rejected is (coin < phi)
            assert resolved.seed == seed

    def test_exclusion_correctness(self):
        base = CountPanel((cell("A", "1", 2), cell("B", "1", 4)))
        padded = CountPanel(
            (cell("A", "1", 2), cell("B", "1", 4), cell("X", "9", 3, 5e5, included=False))
        )
        r1 = epidemic_test(base, alpha=0.05)
        r2 = epidemic_test(padded, alpha=0.05)
        assert r1 == r2  # lambda re-estimated, bounds, decision, flag: all equal

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
            order = rng.permutation(len(panel.cells))
            shuffled = CountPanel(tuple(panel.cells[i] for i in order))
            report = epidemic_test(shuffled, lam=PUBLISHED_RATE, alpha=0.01)
            assert report.flagged_cell == ("BG", "2010")


class TestOneBracketPass:
    """Each test reads every cell's survival brackets once."""

    @pytest.fixture
    def sf_left_calls(self, monkeypatch):
        calls = []
        original = Poisson.sf_left

        def counting(self, x):
            calls.append(x)
            return original(self, x)

        monkeypatch.setattr(Poisson, "sf_left", counting)
        return calls

    def test_epidemic_test_on_fixture(self, sf_left_calls):
        panel = fixture_panel()
        epidemic_test(panel, lam=PUBLISHED_RATE, alpha=0.01)
        assert len(sf_left_calls) == panel.n

    def test_fixed_rate_peel(self, sf_left_calls):
        reports = peel_test(fixture_panel(), lam=PUBLISHED_RATE, alpha=0.01, max_rounds=5)
        assert len(reports) == 2
        assert len(sf_left_calls) == sum(r.n for r in reports)


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
        total_count = sum(c.count for c in panel.cells)
        total_pop = sum(c.population for c in panel.cells)
        assert reports[0].lambda_used == pytest.approx(total_count / total_pop, rel=1e-12)
        bg2010 = [c for c in panel.cells if (c.region_id, c.period_id) == ("BG", "2010")][0]
        lam2 = (total_count - bg2010.count) / (total_pop - bg2010.population)
        assert len(reports) >= 2
        assert reports[1].lambda_used == pytest.approx(lam2, rel=1e-12)

    def test_all_zero_panel_single_accepting_report(self):
        panel = CountPanel(tuple(cell(f"R{i}", "1", 0) for i in range(5)))
        reports = peel_test(panel, lam=1e-6, alpha=0.05)
        assert len(reports) == 1
        assert reports[0].rejected is False

    def test_pooled_rate_stops_at_an_all_zero_remainder(self):
        panel = CountPanel((cell("A", "1", 15), cell("B", "1", 0), cell("C", "1", 0)))
        reports = peel_test(panel, alpha=0.5)
        assert len(reports) == 1
        assert reports[0].rejected is True
        assert reports[0].flagged_cell == ("A", "1")

    def test_pooled_rate_all_zero_first_round_is_an_error(self):
        panel = CountPanel((cell("A", "1", 0), cell("B", "1", 0)))
        with pytest.raises(DataError):
            peel_test(panel, alpha=0.5)

    def test_two_planted_spikes(self):
        cells = [cell(f"R{i}", "1", 0) for i in range(8)]
        cells[2] = cell("R2", "1", 15)
        cells[6] = cell("R6", "1", 15)
        panel = CountPanel(tuple(cells))
        reports = peel_test(panel, lam=1e-6, alpha=0.01, max_rounds=5)
        assert [r.rejected for r in reports] == [True, True, False]
        assert {reports[0].flagged_cell, reports[1].flagged_cell} == {
            ("R2", "1"),
            ("R6", "1"),
        }

    def test_round_cap(self):
        panel = CountPanel((cell("A", "1", 15), cell("B", "1", 15), cell("C", "1", 15)))
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

        spikes = CountPanel(tuple(cell(f"R{i}", "1", 15) for i in range(3)))
        reports = peel_test(spikes, lam=1e-6, alpha=0.05, max_rounds=10**4, seed=7)
        assert [r.rejected for r in reports] == [True, True, True]
        assert max(asked) <= panel.n

    def test_round_seeds_are_replayable(self):
        # A panel that stays on the randomized branch: coin flips per round.
        panel = CountPanel(tuple(cell(f"R{i}", "1", 0, pop=10_000.0) for i in range(3)))
        reports = peel_test(panel, lam=1e-6, alpha=0.5, max_rounds=3, seed=909)
        for r in reports:
            assert r.seed is not None
            replay = epidemic_test(
                CountPanel(tuple(c for c in panel.cells)), lam=1e-6, alpha=0.5, seed=r.seed
            )
            # Same working panel only for round 1; at least the seed plumbing
            # must make round 1 reproducible in isolation.
            if r is reports[0]:
                assert replay == r

    def test_max_rounds_validation(self):
        panel = CountPanel((cell("A", "1", 1),))
        with pytest.raises(ParameterError):
            peel_test(panel, lam=1e-6, max_rounds=0)


class TestFixtureFile:
    def test_path_exists(self):
        path = listeriosis_fixture_path()
        assert path.is_file()

    def test_shape_and_totals(self):
        panel = fixture_panel()
        assert panel.n == 40
        assert len(panel.cells) == 40
        assert sum(c.count for c in panel.cells) == 35
        regions = sorted({c.region_id for c in panel.cells})
        assert regions == ["BG", "BS", "CO", "CR", "LC", "LO", "MB", "MI", "PV", "VA"]
        periods = sorted({c.period_id for c in panel.cells})
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
