"""Tests for the maximum-score test: threshold, case split, p-value bounds."""

import math

import numpy as np
import pytest

from extreme_sentinel.distributions import (
    Binomial,
    Poisson,
    RandomStream,
    TabulatedDiscrete,
    Uniform01,
)
from extreme_sentinel.errors import ContractError, DomainError, ShapeError
from extreme_sentinel.pit import extremeness_panel
from extreme_sentinel.umptest import (
    PValueBounds,
    phi_expected,
    phi_randomized,
    power_single_alternative,
    pvalue_bounds,
    threshold,
)


class TestThreshold:
    def test_single_cell(self):
        assert threshold(0.05, 1) == pytest.approx(0.95, abs=1e-15)

    def test_forty_cells(self):
        # High-precision oracle value of 0.95^(1/40).
        assert threshold(0.05, 40) == pytest.approx(0.99871848947712474, abs=1e-15)

    def test_tiny_alpha_keeps_precision(self):
        # log1p route: 1 - t ~ alpha/n must not wash out for small alpha.
        t = threshold(1e-12, 10)
        assert 1.0 - t == pytest.approx(1e-13, rel=1e-9)

    def test_domain_checks(self):
        for alpha in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(DomainError):
                threshold(alpha, 5)
        for n in (0, -3, 2.5, True):
            with pytest.raises(DomainError):
                threshold(0.05, n)


class TestPhiExpected:
    def test_single_cell_randomized_branch(self):
        d = phi_expected([Poisson(0.01)], [0], alpha=0.05)
        assert d.branch == "randomized"
        assert d.randomized_set == (0,)
        assert d.rejection_probability == pytest.approx(1.0 - 0.95 * math.exp(0.01), rel=1e-12)
        assert d.rejection_probability == pytest.approx(0.040452, abs=5e-7)

    def test_single_cell_extreme_count_rejects(self):
        d = phi_expected([Poisson(5.0)], [20], alpha=0.05)
        assert d.branch == "reject"
        assert d.rejection_probability == 1.0
        assert d.m_statistic > d.threshold

    def test_two_cells_unremarkable_counts_accept(self):
        d = phi_expected([Poisson(5.0), Poisson(5.0)], [0, 1], alpha=0.05)
        assert d.branch == "accept"
        assert d.rejection_probability == 0.0
        assert d.randomized_set == ()

    def test_boundary_m_equals_t_accepts(self):
        # A score pinned exactly at the threshold: the case split accepts.
        t = threshold(0.05, 1)
        d = phi_expected([Uniform01()], [t], alpha=0.05)
        assert d.m_statistic == t
        assert d.branch == "accept"
        assert d.rejection_probability == 0.0

    def test_randomized_probability_strictly_inside_unit(self):
        rng = np.random.default_rng(5)
        seen = 0
        for _ in range(300):
            n = int(rng.integers(1, 5))
            dists = [Poisson(float(rng.uniform(0.05, 3.0))) for _ in range(n)]
            t = threshold(0.05, n)
            obs = [float(d.skorokhod_quantile(t)) for d in dists]
            dec = phi_expected(dists, obs, alpha=0.05)
            if dec.branch == "randomized":
                seen += 1
                assert 0.0 < dec.rejection_probability < 1.0
                assert len(dec.randomized_set) >= 1
        assert seen > 50  # the construction lands brackets on t routinely

    def test_expected_size_matches_alpha(self):
        # E(phi) under the null is exactly alpha; Monte Carlo within 3 SE.
        alpha = 0.05
        means = [0.3, 1.0, 2.5, 0.05, 4.0]
        dists = [Poisson(m) for m in means]
        stream = RandomStream(424242)
        trials = 20_000
        counts = np.column_stack(
            [np.asarray(d.sample(stream, trials)) for d in dists]
        )
        total = 0.0
        for row in counts:
            total += phi_expected(dists, row, alpha).rejection_probability
        rate = total / trials
        se = math.sqrt(alpha * (1 - alpha) / trials)
        assert abs(rate - alpha) <= 3 * se

    def test_display_equivalence_on_fixed_counts(self):
        # Fresh randomizers: the hard decision averages to phi_expected.
        dists = [Poisson(0.8), Poisson(1.6), Binomial(10, 0.2)]
        obs = [2, 3, 4]
        alpha = 0.05
        expected = phi_expected(dists, obs, alpha).rejection_probability
        stream = RandomStream(99)
        reps = 10_000
        hits = sum(
            phi_randomized(extremeness_panel(dists, obs, stream), alpha)
            for _ in range(reps)
        )
        se = math.sqrt(max(expected * (1 - expected), 1e-12) / reps)
        assert abs(hits / reps - expected) <= 3 * se + 1e-9

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            phi_expected([], [], 0.05)
        with pytest.raises(ShapeError):
            phi_expected([Poisson(1.0)], [0, 1], 0.05)


class TestPValueBounds:
    def test_two_zero_counts(self):
        b = pvalue_bounds([Poisson(1.0), Poisson(1.0)], [0, 0])
        assert b.lower == pytest.approx(1.0 - math.exp(-2.0), rel=1e-12)
        assert b.upper == 1.0
        assert b.argmax_upper_cell == 0 and b.argmax_lower_cell == 0

    def test_bounds_order_and_argmax(self):
        dists = [Poisson(1.0), Poisson(1.0), Poisson(0.2)]
        b = pvalue_bounds(dists, [1, 4, 0])
        assert 0.0 <= b.lower <= b.upper <= 1.0
        assert b.argmax_upper_cell == 1  # count 4 on mean 1 is the extreme cell
        assert b.n == 3

    def test_extreme_tail_keeps_significant_digits(self):
        # One count of 15 on mean 1: survival ~ 3e-13; the naive
        # 1 - cdf^n route would wipe out most of these digits.
        dists = [Poisson(1.0)] * 40
        obs = [15] + [0] * 39
        b = pvalue_bounds(dists, obs)
        tail_ge_16 = math.fsum(math.exp(-1.0) / math.factorial(j) for j in range(16, 80))
        expected_lower = -math.expm1(40 * math.log1p(-tail_ge_16))
        assert b.lower == pytest.approx(expected_lower, rel=1e-9)
        assert b.lower < 1e-10  # far below anything 1 - cdf**n could resolve

    def test_consistency_with_case_split(self):
        # Alpha spans the deep tail, where t = (1 - alpha)^(1/n) rounds to 1;
        # the last case has p_upper ~ 6.1e-17 below alpha = 1e-16.
        rng = np.random.default_rng(7)
        cases = []
        for _ in range(400):
            n = int(rng.integers(1, 6))
            dists = [Poisson(float(rng.uniform(0.05, 4.0))) for _ in range(n)]
            obs = [int(rng.integers(0, 25)) for _ in range(n)]
            alpha = float(np.exp(rng.uniform(math.log(1e-18), math.log(0.5))))
            cases.append((dists, obs, alpha))
        cases.append(([Poisson(1.0)], [18], 1e-16))
        for dists, obs, alpha in cases:
            b = pvalue_bounds(dists, obs)
            dec = phi_expected(dists, obs, alpha)
            if b.upper < alpha:
                assert dec.branch == "reject", (dists, obs, alpha)
            if b.lower > alpha:
                assert dec.branch == "accept", (dists, obs, alpha)
        assert b.upper < 1e-16 and dec.branch == "reject"

    def test_keeps_the_brackets_it_decides_on(self):
        dists = [Poisson(1.0), Binomial(10, 0.3), Uniform01()]
        obs = [3, 0, 0.25]
        b = pvalue_bounds(dists, obs)
        assert b.sf_left == tuple(d.sf_left(x) for d, x in zip(dists, obs))
        assert b.sf_right == tuple(d.sf(x) for d, x in zip(dists, obs))
        assert all(type(v) is float for v in b.sf_left + b.sf_right)
        for alpha in (0.5, 0.05, 1e-9):
            assert b.decide(alpha) == phi_expected(dists, obs, alpha)
        with pytest.raises(DomainError):
            b.decide(1.0)

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            pvalue_bounds([], [])


def _deep_tail_panel(rng):
    """1-5 mixed cells, alpha log-uniform in [1e-300, 0.5], and counts from one
    support point below to two above each null's survival-s point, the first
    support point x with sf(x) < s."""
    n = int(rng.integers(1, 6))
    alpha = float(np.exp(rng.uniform(math.log(1e-300), math.log(0.5))))
    s = -math.expm1(math.log1p(-alpha) / n)
    dists, counts = [], []
    for _ in range(n):
        kind = int(rng.integers(0, 3))
        if kind == 0:
            d = Poisson(float(rng.uniform(0.05, 20.0)))
            support = np.arange(0.0, 4000.0)
        elif kind == 1:
            d = Binomial(int(rng.integers(1, 60)), float(rng.uniform(0.05, 0.95)))
            support = np.arange(0.0, d.trials + 1.0)
        else:
            size = int(rng.integers(2, 7))
            masses = rng.dirichlet(np.ones(size))
            d = TabulatedDiscrete(
                tuple(float(v) for v in np.cumsum(rng.uniform(0.5, 1.5, size))),
                tuple(float(m) for m in masses),
            )
            support = np.asarray(d.support)
        point = int(np.argmax(np.asarray(d.sf(support)) < s))
        k = point + int(rng.integers(-1, 3))
        dists.append(d)
        counts.append(float(support[min(max(k, 0), support.size - 1)]))
    return dists, counts, alpha


class TestPhiRandomized:
    def test_threshold_comparison(self):
        stream = RandomStream(3)
        scores = extremeness_panel([Poisson(1.0)], [12], stream)
        assert phi_randomized(scores, 0.05) == 1
        scores = extremeness_panel([Poisson(4.0)], [3], stream)
        assert phi_randomized(scores, 0.05) == 0

    def test_agrees_with_the_case_split_in_the_deep_tail(self):
        # Where the split is deterministic, every randomization must agree,
        # also where t = (1 - alpha)^(1/n) rounds to 1.
        rng = np.random.default_rng(2006)
        seen = {"reject": 0, "accept": 0, "rounded": 0}
        for _ in range(300):
            dists, counts, alpha = _deep_tail_panel(rng)
            dec = phi_expected(dists, counts, alpha)
            if dec.branch == "randomized":
                continue
            want = int(dec.branch == "reject")
            for seed in range(20):
                got = phi_randomized(extremeness_panel(dists, counts, RandomStream(seed)), alpha)
                assert got == want, (dists, counts, alpha, seed)
            seen[dec.branch] += 1
            seen["rounded"] += int(want and dec.threshold == 1.0)
        assert seen["reject"] >= 80 and seen["accept"] >= 15 and seen["rounded"] >= 60, seen

    def test_rejects_where_t_rounds_to_one(self):
        # One Poisson(1) cell at 19: both bounds below 3.2e-18 < alpha = 5e-17.
        dists, counts, alpha = [Poisson(1.0)], [19], 5e-17
        assert threshold(alpha, 1) == 1.0
        assert phi_expected(dists, counts, alpha).branch == "reject"
        for seed in range(50):
            assert phi_randomized(extremeness_panel(dists, counts, RandomStream(seed)), alpha) == 1


class TestPowerSingleAlternative:
    def test_identity_gives_alpha(self):
        for n in (1, 2, 7, 40):
            assert power_single_alternative(lambda y: y, 0.05, n) == pytest.approx(0.05, rel=1e-12)

    def test_square_cdf(self):
        assert power_single_alternative(lambda y: y * y, 0.05, 1) == pytest.approx(0.0975, rel=1e-12)
        assert power_single_alternative(lambda y: y * y, 0.05, 2) == pytest.approx(
            1.0 - 0.95**1.5, rel=1e-12
        )

    def test_more_convex_means_more_power(self):
        powers = [power_single_alternative(lambda y, c=c: y**c, 0.05, 10) for c in (1, 2, 4, 8)]
        assert all(b > a for a, b in zip(powers, powers[1:]))

    def test_contract_violation_rejected(self):
        with pytest.raises(ContractError):
            power_single_alternative(lambda y: 1.2, 0.05, 3)
        with pytest.raises(ContractError):
            power_single_alternative(lambda y: -0.1, 0.05, 3)


def test_decision_types_are_frozen_dataclasses():
    from extreme_sentinel import umptest

    d = phi_expected([Poisson(1.0)], [0], 0.05)
    assert isinstance(d, umptest.TestDecision)
    with pytest.raises(Exception):
        d.alpha = 0.1
    b = pvalue_bounds([Poisson(1.0)], [0])
    assert isinstance(b, PValueBounds)
