"""Tests for monotone model pairs and the alternative-law CDF."""

import math
import warnings

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
    AbsoluteContinuityError,
    ContractError,
    DomainError,
    ParameterError,
)
from extreme_sentinel.monotone import (
    ModelPair,
    alt_extremeness_cdf,
    convexity_check,
    discrete_probe_points,
    mlr_check,
)
from extreme_sentinel.pit import randomized_pit


def square_alt():
    return ContinuousByCdf(lambda x: np.clip(x, 0.0, 1.0) ** 2)


def mlr_tabulated_pair():
    # Mass ratio alt/null is (0.5, 1.0, 1.5, 3.0) scaled: non-decreasing.
    null = TabulatedDiscrete((0.0, 1.0, 2.0, 4.0), (0.4, 0.3, 0.2, 0.1))
    raw = np.array([0.4 * 0.5, 0.3 * 1.0, 0.2 * 1.5, 0.1 * 3.0])
    alt = TabulatedDiscrete((0.0, 1.0, 2.0, 4.0), tuple(raw / raw.sum()))
    return ModelPair(null, alt)


class TestModelPair:
    def test_support_kind_derivation(self):
        assert ModelPair(Poisson(1.0), Poisson(2.0)).support_kind == "discrete"
        assert ModelPair(Uniform01(), square_alt()).support_kind == "continuous"

    def test_mixed_kinds_rejected(self):
        with pytest.raises(ParameterError):
            ModelPair(Poisson(1.0), Uniform01())

    def test_absolute_continuity_enforced_at_construction(self):
        # Alternative extends past a bounded null support.
        with pytest.raises(AbsoluteContinuityError):
            ModelPair(Binomial(3, 0.5), Poisson(2.0))
        # Alternative puts mass on a point the null skips.
        null = TabulatedDiscrete((0.0, 2.0), (0.5, 0.5))
        alt = TabulatedDiscrete((0.0, 1.0, 2.0), (0.3, 0.4, 0.3))
        with pytest.raises(AbsoluteContinuityError):
            ModelPair(null, alt)

    def test_non_distribution_arguments_rejected(self):
        with pytest.raises(ParameterError):
            ModelPair(Poisson(1.0), "poisson")


class TestDiscreteProbePoints:
    def test_tabulated_gives_support(self):
        d = TabulatedDiscrete((0.0, 1.5, 2.0), (0.2, 0.3, 0.5))
        assert discrete_probe_points(d).tolist() == [0.0, 1.5, 2.0]

    def test_integer_grid_covers_tail(self):
        # The grid is the CDF ladder: F is 0 below it and 1.0 at its end.
        for d in (Poisson(3.0), Poisson(1e5), Binomial(40, 0.3)):
            pts = discrete_probe_points(d)
            assert d.cdf(pts[0] - 1.0) == 0.0 < d.cdf(pts[0])
            assert d.cdf(pts[-2]) < 1.0 == d.cdf(pts[-1])
            assert np.all(np.diff(pts) == 1.0)
        assert discrete_probe_points(Poisson(1e5)).size < 20_000

    def test_continuous_rejected(self):
        with pytest.raises(ParameterError):
            discrete_probe_points(Uniform01())


class TestAltExtremenessCdf:
    def test_self_pair_is_identity(self):
        for pair in (
            ModelPair(Poisson(1.3), Poisson(1.3)),
            ModelPair(Uniform01(), Uniform01()),
            mlr_and_self_tabulated(),
        ):
            ys = np.linspace(0.0, 1.0, 211)
            vals = alt_extremeness_cdf(pair, ys)
            assert np.allclose(vals, ys, atol=1e-12, rtol=0.0)

    def test_self_pair_exact_at_breakpoints(self):
        null = Poisson(0.7)
        pair = ModelPair(null, Poisson(0.7))
        for k in range(6):
            y = null.cdf(k)
            assert alt_extremeness_cdf(pair, y) == y

    def test_poisson_one_versus_two(self):
        # Ratio of masses at 0 is e^{-2}/e^{-1} = e^{-1}; inside the first
        # null bracket the CDF is that slope times y.
        pair = ModelPair(Poisson(1.0), Poisson(2.0))
        y = 0.5 * math.exp(-1.0)
        expected = math.exp(-1.0) * y
        got = alt_extremeness_cdf(pair, y)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.06766764161830635, rel=1e-12)

    def test_piecewise_linear_inside_one_bracket(self):
        pair = ModelPair(Poisson(1.0), Poisson(2.0))
        lo, hi = math.exp(-1.0), 2.0 * math.exp(-1.0)  # bracket of count 1
        ys = np.linspace(lo + 1e-9, hi - 1e-9, 41)
        vals = alt_extremeness_cdf(pair, ys)
        second = np.diff(vals, 2)
        assert np.all(np.abs(second) < 1e-12)

    def test_uniform_null_square_alt(self):
        pair = ModelPair(Uniform01(), square_alt())
        ys = np.linspace(0.0, 1.0, 101)
        assert np.allclose(alt_extremeness_cdf(pair, ys), ys**2, atol=1e-11)

    def test_continuous_nontrivial_inverse(self):
        # Null CDF x^2 has inverse sqrt(y); alt uniform gives sqrt(y).
        pair = ModelPair(square_alt(), Uniform01())
        for y in (0.04, 0.25, 0.81):
            assert alt_extremeness_cdf(pair, y) == pytest.approx(math.sqrt(y), abs=1e-11)

    def test_is_a_cdf_on_fine_grid(self):
        pairs = [
            ModelPair(Poisson(1.0), Poisson(2.0)),
            ModelPair(Binomial(12, 0.2), Binomial(12, 0.6)),
            mlr_tabulated_pair(),
            ModelPair(Uniform01(), square_alt()),
        ]
        ys = np.linspace(0.0, 1.0, 1001)
        for pair in pairs:
            vals = alt_extremeness_cdf(pair, ys)
            assert vals[0] == 0.0 and vals[-1] == 1.0
            assert np.all(np.diff(vals) >= -1e-12)
            assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_domain_checks(self):
        pair = ModelPair(Poisson(1.0), Poisson(2.0))
        for y in (-0.1, 1.1, math.nan):
            with pytest.raises(DomainError):
                alt_extremeness_cdf(pair, y)

    def test_matches_simulation(self):
        # Draw from the alternative, transform by the null: the sample of
        # extremeness indices must follow the claimed CDF.
        pair = ModelPair(Poisson(1.0), Poisson(2.0))
        stream = RandomStream(20260815)
        n = 100_000
        x = pair.alt_dist.sample(stream, n)
        u = stream.uniform_open(n)
        y = np.sort(randomized_pit(pair.null_dist, x, u))
        f = alt_extremeness_cdf(pair, y)
        i = np.arange(1, n + 1)
        d = max(np.max(i / n - f), np.max(f - (i - 1) / n))
        assert d < 1.628 / math.sqrt(n)


def mlr_and_self_tabulated():
    d = TabulatedDiscrete((0.0, 1.5, 2.0, 4.0, 7.0), (0.1, 0.2, 0.3, 0.25, 0.15))
    return ModelPair(d, d)


class TestMlrCheck:
    def test_poisson_increasing_means(self):
        pair = ModelPair(Poisson(1.0), Poisson(2.0))
        probes = np.arange(0.0, 21.0)
        # Closed form: ratio is e^{-1} * 2^x, strictly increasing.
        exact = np.exp(-1.0) * 2.0**probes
        assert np.all(np.diff(exact) > 0.0)
        res = mlr_check(pair, probes)
        assert res.passed and res.violation is None
        assert bool(res) is True

    def test_poisson_decreasing_means(self):
        pair = ModelPair(Poisson(2.0), Poisson(1.0))
        res = mlr_check(pair, np.arange(0.0, 21.0))
        assert not res.passed
        assert res.violation == (0.0, 1.0)

    def test_self_pair_constant_ratio(self):
        pair = ModelPair(Poisson(3.0), Poisson(3.0))
        assert mlr_check(pair, discrete_probe_points(Poisson(3.0)))

    def test_far_apart_poisson_pair_on_the_ladder(self):
        # Null masses underflow before the alternative's last moving point
        # (Poisson(1) near 178, where Poisson(100) and Poisson(120) still
        # carry mass); log masses keep the ratio, and nothing warns.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for null_mean, alt_mean in ((0.2, 50.0), (1.0, 100.0), (1.0, 120.0)):
                pair = ModelPair(Poisson(null_mean), Poisson(alt_mean))
                assert mlr_check(pair, discrete_probe_points(pair.alt_dist))
                assert convexity_check(lambda y: alt_extremeness_cdf(pair, y), 1001)
                back = ModelPair(Poisson(alt_mean), Poisson(null_mean))
                assert not mlr_check(back, discrete_probe_points(back.null_dist))

    def test_binomial_pairs(self):
        up = ModelPair(Binomial(10, 0.3), Binomial(10, 0.5))
        down = ModelPair(Binomial(10, 0.5), Binomial(10, 0.3))
        probes = np.arange(0.0, 11.0)
        assert mlr_check(up, probes)
        assert not mlr_check(down, probes)

    def test_continuous_density_ratio(self):
        probes = np.linspace(0.05, 0.95, 30)
        assert mlr_check(ModelPair(Uniform01(), square_alt()), probes)
        res = mlr_check(ModelPair(square_alt(), Uniform01()), probes)
        assert not res.passed

    def test_zero_null_mass_probe(self):
        pair = mlr_and_self_tabulated()
        with pytest.raises(AbsoluteContinuityError):
            mlr_check(pair, (0.0, 1.0, 1.5))  # null has no mass at 1.0

    def test_probe_grid_validation(self):
        pair = ModelPair(Poisson(1.0), Poisson(2.0))
        with pytest.raises(ParameterError):
            mlr_check(pair, (3.0,))
        with pytest.raises(ParameterError):
            mlr_check(pair, (0.0, 2.0, 1.0))


class TestConvexityCheck:
    def test_linear_and_square_pass(self):
        assert convexity_check(lambda y: y, 101)
        assert convexity_check(lambda y: y * y, 101)

    def test_array_handle_is_called_once(self):
        calls = []

        def square(y):
            calls.append(np.shape(y))
            return np.asarray(y) ** 2

        assert convexity_check(square, 1001)
        assert calls == [(1001,)]

    def test_sqrt_fails_near_zero(self):
        res = convexity_check(math.sqrt, 101)
        assert not res.passed
        assert res.violation[0] == 0.0  # first interior triple already breaks

    def test_endpoint_contract(self):
        with pytest.raises(ContractError):
            convexity_check(lambda y: 0.5 + 0.5 * y, 101)
        with pytest.raises(ContractError):
            convexity_check(lambda y: 0.9 * y, 101)

    def test_grid_size_validation(self):
        with pytest.raises(ParameterError):
            convexity_check(lambda y: y, 2)
        for grid_size in (100.5, True, "101", None, math.nan, math.inf):
            with pytest.raises(ParameterError):
                convexity_check(lambda y: y, grid_size)


class TestMonotonePairsGiveConvexLaw:
    """Ratio monotone on the grid implies a convex alternative-law CDF."""

    def test_random_poisson_and_binomial_pairs(self):
        rng = np.random.default_rng(8151)
        pairs = []
        for _ in range(12):
            lo = float(rng.uniform(0.2, 5.0))
            pairs.append(ModelPair(Poisson(lo), Poisson(lo * float(rng.uniform(1.2, 3.0)))))
        for _ in range(12):
            trials = int(rng.integers(4, 25))
            p_lo = float(rng.uniform(0.1, 0.5))
            p_hi = float(rng.uniform(p_lo + 0.1, 0.9))
            pairs.append(ModelPair(Binomial(trials, p_lo), Binomial(trials, p_hi)))
        for pair in pairs:
            probes = discrete_probe_points(pair.alt_dist)
            assert mlr_check(pair, probes)
            assert convexity_check(lambda y: alt_extremeness_cdf(pair, y), 1000)

    def test_reversed_pairs_fail_mlr(self):
        rng = np.random.default_rng(8152)
        for _ in range(10):
            lo = float(rng.uniform(0.2, 5.0))
            pair = ModelPair(Poisson(lo * float(rng.uniform(1.2, 3.0))), Poisson(lo))
            assert not mlr_check(pair, discrete_probe_points(pair.null_dist))
