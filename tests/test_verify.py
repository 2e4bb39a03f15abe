"""Tests for the Monte Carlo harness, exact enumeration, and KS check."""

import math

import numpy as np
import pytest

from extreme_sentinel.distributions import (
    Binomial,
    ContinuousByCdf,
    Poisson,
    RandomStream,
    TabulatedDiscrete,
    Uniform01,
)
from extreme_sentinel.errors import (
    DomainError,
    ParameterError,
    ShapeError,
    SizeError,
)
from extreme_sentinel.monotone import ModelPair, alt_extremeness_cdf
from extreme_sentinel.pit import randomized_pit
from extreme_sentinel.umptest import power_single_alternative, pvalue_bounds
from extreme_sentinel.verify import (
    Alternative,
    SimulationConfig,
    enumerate_pvalue_bounds,
    ks_uniformity,
    simulate_size_and_power,
)


class TestSimulationConfig:
    def test_validation(self):
        dists = (Poisson(1.0),)
        with pytest.raises(ShapeError):
            SimulationConfig(panel_template=(), alpha=0.05, n_trials=1000, seed=1)
        with pytest.raises(ParameterError):
            SimulationConfig(panel_template=dists, alpha=0.05, n_trials=999, seed=1)
        with pytest.raises(ParameterError):
            SimulationConfig(panel_template=dists, alpha=0.05, n_trials=1000, seed=None)
        with pytest.raises(DomainError):
            SimulationConfig(panel_template=dists, alpha=1.0, n_trials=1000, seed=1)
        with pytest.raises(ParameterError):
            SimulationConfig(
                panel_template=dists,
                alpha=0.05,
                n_trials=1000,
                seed=1,
                alternative=Alternative(5, Poisson(2.0)),
            )


class TestSimulateSizeAndPower:
    def test_null_size_within_three_se(self):
        dists = tuple(Poisson(m) for m in (0.3, 1.0, 2.5, 0.05, 4.0))
        cfg = SimulationConfig(panel_template=dists, alpha=0.05, n_trials=40_000, seed=11)
        res = simulate_size_and_power(cfg)
        se = math.sqrt(0.05 * 0.95 / cfg.n_trials)
        assert abs(res.rejection_rate - 0.05) <= 3 * se
        assert res.n_trials == 40_000

    def test_mixed_kinds_null_size(self):
        dists = (
            Poisson(1.3),
            Binomial(10, 0.3),
            TabulatedDiscrete((0.0, 1.5, 2.0), (0.2, 0.3, 0.5)),
            Uniform01(),
        )
        cfg = SimulationConfig(panel_template=dists, alpha=0.1, n_trials=40_000, seed=12)
        res = simulate_size_and_power(cfg)
        se = math.sqrt(0.1 * 0.9 / cfg.n_trials)
        assert abs(res.rejection_rate - 0.1) <= 3 * se

    def test_seed_determinism(self):
        dists = (Poisson(1.0), Poisson(2.0))
        cfg = SimulationConfig(panel_template=dists, alpha=0.05, n_trials=5000, seed=77)
        assert simulate_size_and_power(cfg) == simulate_size_and_power(cfg)

    def test_degenerate_swap_is_bit_identical(self):
        dists = (Poisson(0.8), Poisson(1.6), Binomial(7, 0.4))
        base = SimulationConfig(panel_template=dists, alpha=0.05, n_trials=5000, seed=31)
        swapped = SimulationConfig(
            panel_template=dists,
            alpha=0.05,
            n_trials=5000,
            seed=31,
            alternative=Alternative(1, Poisson(1.6)),
        )
        assert simulate_size_and_power(base).rejection_rate == simulate_size_and_power(
            swapped
        ).rejection_rate

    def test_power_matches_analytic_value(self):
        # One cell swapped to a dominating alternative: the Monte Carlo
        # rate must agree with the closed-form rejection probability.
        n = 5
        dists = tuple(Poisson(1.0) for _ in range(n))
        pair = ModelPair(Poisson(1.0), Poisson(6.0))
        alpha = 0.05
        theory = power_single_alternative(
            lambda y: alt_extremeness_cdf(pair, y), alpha, n
        )
        cfg = SimulationConfig(
            panel_template=dists,
            alpha=alpha,
            n_trials=40_000,
            seed=99,
            alternative=Alternative(2, Poisson(6.0)),
        )
        res = simulate_size_and_power(cfg)
        se = math.sqrt(theory * (1 - theory) / cfg.n_trials)
        assert abs(res.rejection_rate - theory) <= 3 * se
        assert res.rejection_rate > alpha  # domination means real power

    @pytest.mark.parametrize(
        "alternative, rate, std_error",
        [
            (Alternative(0, Poisson(4.0)), 0.50775, 0.00790474442186463),
            (Alternative(1, Binomial(10, 0.7)), 0.75825, 0.006769544620947557),
            (
                Alternative(2, TabulatedDiscrete((0.0, 1.5, 2.0), (0.05, 0.15, 0.8))),
                0.1175,
                0.005091506407734355,
            ),
            (
                Alternative(1, ContinuousByCdf(lambda x: (x / 8.0) ** 2, 0.0, 8.0)),
                0.4695,
                0.007890971898315188,
            ),
            (Alternative(3, Poisson(0.4)), 0.3865, 0.007699314092826711),
        ],
        ids=["poisson", "binomial", "tabulated", "continuous-law", "poisson-in-uniform"],
    )
    def test_swapped_cell_results_frozen(self, alternative, rate, std_error):
        # Frozen from the harness that evaluated the null CDF at every draw
        # of the swapped cell; the tabulated brackets must not move a bit.
        template = (
            Poisson(1.3),
            Binomial(10, 0.3),
            TabulatedDiscrete((0.0, 1.5, 2.0), (0.2, 0.3, 0.5)),
            Uniform01(),
        )
        cfg = SimulationConfig(template, 0.1, 4000, 2024, alternative)
        res = simulate_size_and_power(cfg)
        assert (res.rejection_rate, res.std_error) == (rate, std_error)

    @pytest.mark.parametrize("alpha", [5e-17, 1e-200])
    def test_far_swap_rejects_where_t_rounds_to_one(self, alpha):
        # Every Poisson(1e4) draw has null survival brackets of 0, below any s.
        swap = Alternative(0, Poisson(1e4))
        cfg = SimulationConfig((Poisson(1.0),), alpha, 1000, 17, swap)
        assert simulate_size_and_power(cfg).rejection_rate == 1.0

    def test_null_never_rejects_at_tiny_alpha(self):
        cfg = SimulationConfig((Poisson(1.0),), 1e-200, 1000, 17)
        assert simulate_size_and_power(cfg).rejection_rate == 0.0


def assert_relative_match(exact, analytic):
    """Relative 1e-12 where both bounds are at least 1e-300, absolute 1e-300 below."""
    for side in ("lower", "upper"):
        a, b = getattr(exact, side), getattr(analytic, side)
        if min(a, b) >= 1e-300:
            assert a == pytest.approx(b, rel=1e-12, abs=0.0), side
        else:
            assert abs(a - b) <= 1e-300, side


class TestEnumeratePValueBounds:
    def test_single_continuous_cell(self):
        b = enumerate_pvalue_bounds([Uniform01()], [0.8])
        assert b.lower == pytest.approx(0.2, abs=1e-12)
        assert b.upper == pytest.approx(0.2, abs=1e-12)
        assert b.argmax_upper_cell == 0 and b.argmax_lower_cell == 0

    def test_two_zero_counts(self):
        b = enumerate_pvalue_bounds([Poisson(1.0), Poisson(1.0)], [0, 0])
        assert b.lower == pytest.approx(1.0 - math.exp(-2.0), abs=1e-12)
        assert b.upper == 1.0

    def test_agrees_with_analytic_bounds(self):
        dists = [Poisson(1.0), Poisson(2.0)]
        obs = [1, 1]
        exact = enumerate_pvalue_bounds(dists, obs)
        analytic = pvalue_bounds(dists, obs)
        assert exact.lower == pytest.approx(analytic.lower, abs=1e-10)
        assert exact.upper == pytest.approx(analytic.upper, abs=1e-10)
        assert exact.argmax_upper_cell == analytic.argmax_upper_cell
        assert exact.argmax_lower_cell == analytic.argmax_lower_cell

    def test_large_mean_enumerates_its_ladder(self):
        # Enumeration covers the ladder window, not every integer from 0.
        exact = enumerate_pvalue_bounds([Poisson(3e5)], [3e5])
        analytic = pvalue_bounds([Poisson(3e5)], [3e5])
        assert exact.lower == pytest.approx(analytic.lower, abs=2e-16)
        assert exact.upper == pytest.approx(analytic.upper, abs=2e-16)

    def test_oracle_agreement_on_random_instances(self):
        rng = np.random.default_rng(606)
        stream = RandomStream(607)

        def random_dist():
            kind = rng.integers(0, 4)
            if kind == 0:
                return Poisson(float(rng.uniform(0.05, 6.0)))
            if kind == 1:
                return Binomial(int(rng.integers(2, 13)), float(rng.uniform(0.1, 0.9)))
            if kind == 2:
                masses = rng.dirichlet(np.ones(int(rng.integers(2, 6))))
                support = np.sort(rng.choice(np.arange(0.0, 12.0, 0.5), masses.size, replace=False))
                return TabulatedDiscrete(tuple(support), tuple(masses / masses.sum()))
            return Uniform01()

        for _ in range(100):
            n = int(rng.integers(1, 5))
            dists = [random_dist() for _ in range(n)]
            obs = [float(d.sample(stream)) for d in dists]
            exact = enumerate_pvalue_bounds(dists, obs)
            analytic = pvalue_bounds(dists, obs)
            assert exact.n == analytic.n == n
            assert exact.lower == pytest.approx(analytic.lower, abs=1e-10)
            assert exact.upper == pytest.approx(analytic.upper, abs=1e-10)
            assert exact.argmax_upper_cell == analytic.argmax_upper_cell
            assert exact.argmax_lower_cell == analytic.argmax_lower_cell

    @pytest.mark.parametrize(
        "dists, obs",
        [
            ([Poisson(1.0)], [18]),
            ([Poisson(1.0)], [25]),
            ([Poisson(1.0)], [30]),
            ([Poisson(1.0), Poisson(3.0)], [30, 2]),
        ],
    )
    def test_deep_tail_matches_analytic(self, dists, obs):
        # F(x) rounds to 1.0 at all these counts; survival space still
        # resolves bounds down to 1e-35.
        assert_relative_match(enumerate_pvalue_bounds(dists, obs), pvalue_bounds(dists, obs))

    def test_deep_tail_values(self):
        b = enumerate_pvalue_bounds([Poisson(1.0)], [30])
        assert b.lower == pytest.approx(4.618e-35, rel=1e-3, abs=0.0)
        assert b.upper == pytest.approx(1.433e-33, rel=1e-3, abs=0.0)

    def test_deep_tail_on_random_panels(self):
        # One cell sits 0-39 steps past the first point where its F == 1.0.
        rng = np.random.default_rng(515)
        stream = RandomStream(516)
        for _ in range(60):
            n = int(rng.integers(1, 5))
            dists = [
                Poisson(float(rng.uniform(0.05, 6.0)))
                if rng.integers(2)
                else Binomial(int(rng.integers(20, 400)), float(rng.uniform(0.01, 0.2)))
                for _ in range(n)
            ]
            obs = [float(d.sample(stream)) for d in dists]
            j = int(rng.integers(n))
            obs[j] = float(dists[j]._ladder[0][-1] + rng.integers(0, 40))
            if isinstance(dists[j], Binomial):
                obs[j] = min(obs[j], dists[j].trials)
            assert_relative_match(enumerate_pvalue_bounds(dists, obs), pvalue_bounds(dists, obs))

    def test_size_and_shape_errors(self):
        with pytest.raises(SizeError):
            enumerate_pvalue_bounds([Poisson(1.0)] * 5, [0] * 5)
        with pytest.raises(ShapeError):
            enumerate_pvalue_bounds([], [])
        with pytest.raises(ShapeError):
            enumerate_pvalue_bounds([Poisson(1.0)], [0, 1])


class TestKsUniformity:
    def test_near_perfect_grid_passes(self):
        n = 2000
        res = ks_uniformity(np.arange(1, n + 1) / n)
        assert res.statistic == pytest.approx(1.0 / n, abs=1e-12)
        assert res.pass_at_1pct

    def test_point_mass_fails(self):
        res = ks_uniformity(np.full(1000, 0.5))
        assert res.statistic == pytest.approx(0.5, abs=1e-12)
        assert not res.pass_at_1pct

    def test_null_pit_draws_pass(self):
        stream = RandomStream(20260815)
        dist = Poisson(3.7)
        n = 100_000
        x = dist.sample(stream, n)
        u = stream.uniform_open(n)
        res = ks_uniformity(randomized_pit(dist, x, u))
        assert res.pass_at_1pct
        assert res.critical_value == pytest.approx(1.628 / math.sqrt(n), rel=1e-12)

    def test_input_validation(self):
        with pytest.raises(ShapeError):
            ks_uniformity([])
        with pytest.raises(ShapeError):
            ks_uniformity(np.linspace(0.01, 0.99, 500))
        with pytest.raises(DomainError):
            ks_uniformity(np.concatenate([np.full(1500, 0.5), [1.2]]))
