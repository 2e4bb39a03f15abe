"""Distribution model tests.

Derived expectations are computed by independent oracles: forward pmf
summation for small-mean Poisson CDFs, exact rational arithmetic for the
binomial, and frozen 40-digit incomplete-gamma evaluations for large means.
"""

import math
from fractions import Fraction

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
from extreme_sentinel.errors import DomainError, ParameterError

KS_CRIT_1PCT = 1.628  # asymptotic 1% critical coefficient, stat < 1.628/sqrt(N)


def poisson_cdf_series(k: int, mean: float) -> float:
    """Forward pmf recursion oracle; valid while exp(-mean) is normal."""
    term = math.exp(-mean)
    total = [term]
    for j in range(1, k + 1):
        term *= mean / j
        total.append(term)
    return math.fsum(total)


def binomial_cdf_exact(k: int, trials: int, p: float) -> float:
    """Exact rational CDF of the float-parameterized binomial."""
    pf = Fraction(p)
    acc = sum(Fraction(math.comb(trials, j)) * pf**j * (1 - pf) ** (trials - j) for j in range(k + 1))
    return float(acc)


def ks_distance(samples: np.ndarray, dist) -> float:
    """sup_x |ecdf(x) - F(x)|, handling atoms by checking both jump sides."""
    xs = np.sort(np.asarray(samples, dtype=float))
    n = xs.size
    if dist.continuous:
        grid = np.arange(1, n + 1) / n
        fv = np.asarray(dist.cdf(xs))
        return float(max(np.max(grid - fv), np.max(fv - (grid - 1.0 / n))))
    points, counts = np.unique(xs, return_counts=True)
    ecdf = np.cumsum(counts) / n
    ecdf_left = ecdf - counts / n
    fv = np.asarray(dist.cdf(points))
    fl = np.asarray(dist.cdf_left(points))
    return float(max(np.max(np.abs(ecdf - fv)), np.max(np.abs(ecdf_left - fl))))


def unit_dists():
    return [
        Poisson(3.7),
        Binomial(10, 0.3),
        TabulatedDiscrete((0.0, 1.5, 2.0, 4.0, 7.0), (0.1, 0.2, 0.3, 0.25, 0.15)),
        Uniform01(),
        ContinuousByCdf(lambda y: np.clip(y, 0.0, 1.0) ** 2),
    ]


class TestPoisson:
    def test_cdf_matches_pmf_series(self):
        for mean in (0.1, 0.5, 1.0, 2.0, 5.0, 20.0):
            d = Poisson(mean)
            for k in range(0, 40):
                assert d.cdf(k) == pytest.approx(poisson_cdf_series(k, mean), abs=1e-13)

    def test_cdf_at_zero_is_exp_neg_mean(self):
        assert Poisson(1.0).cdf(0) == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_cdf_frozen_value(self):
        assert Poisson(2.0).cdf(3) == pytest.approx(0.8571234605, abs=1e-10)

    def test_cdf_high_mean_absolute_error(self):
        # 40-digit regularized incomplete gamma evaluations, frozen.
        frozen = [
            (0.5, 0, 0.60653065971263342),
            (0.5, 2, 0.98561232203302931),
            (1.0, 3, 0.98101184312384619),
            (5.0, 4, 0.44049328506521241),
            (5.0, 12, 0.99798114837256297),
            (100.0, 90, 0.1713851193217614),
            (100.0, 130, 0.99829315962949851),
            (10000.0, 9900, 0.15987118224528374),
            (10000.0, 10250, 0.99372534018094468),
            (1000000.0, 999000, 0.15877629981172561),
            (1000000.0, 1002000, 0.97724987704032575),
        ]
        for mean, k, expected in frozen:
            assert abs(Poisson(mean).cdf(k) - expected) <= 1e-12

    def test_cdf_left_shifts_one_support_point(self):
        d = Poisson(2.0)
        assert d.cdf_left(3) == d.cdf(2)
        assert d.cdf_left(3.5) == d.cdf(3.5) == d.cdf(3)
        assert d.cdf_left(0) == 0.0
        assert d.cdf(-1) == 0.0 and d.sf(-1) == 1.0

    def test_mass_values(self):
        assert Poisson(1.0).mass(1) == pytest.approx(math.exp(-1.0), rel=1e-14)
        assert Poisson(1.0).mass(1.5) == 0.0
        assert Poisson(1.0).mass(-2) == 0.0

    def test_survival_complements(self):
        d = Poisson(5.0)
        for k in range(0, 30):
            assert d.cdf(k) + d.sf(k) == pytest.approx(1.0, abs=1e-14)
            assert d.cdf_left(k) + d.sf_left(k) == pytest.approx(1.0, abs=1e-14)

    def test_deep_tail_survival_keeps_relative_precision(self):
        # P(N >= 15) for mean 1: oracle by forward series of the tail.
        d = Poisson(1.0)
        tail = math.fsum(math.exp(-1.0) / math.factorial(j) for j in range(15, 60))
        assert d.sf_left(15) == pytest.approx(tail, rel=1e-12)

    def test_invalid_mean_rejected(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ParameterError):
                Poisson(bad)


class TestBinomial:
    def test_cdf_matches_exact_rational(self):
        d = Binomial(10, 0.3)
        for k in range(11):
            assert d.cdf(k) == pytest.approx(binomial_cdf_exact(k, 10, 0.3), abs=1e-14)

    def test_mass_and_edges(self):
        d = Binomial(10, 0.3)
        assert d.mass(3) == pytest.approx(binomial_cdf_exact(3, 10, 0.3) - binomial_cdf_exact(2, 10, 0.3), abs=1e-14)
        assert d.cdf(10) == 1.0
        assert d.cdf(11) == 1.0
        assert d.cdf(-1) == 0.0
        assert d.mass(2.5) == 0.0

    def test_degenerate_probabilities(self):
        assert Binomial(5, 0.0).cdf(0) == 1.0
        assert Binomial(5, 1.0).cdf(4) == 0.0
        assert Binomial(5, 1.0).skorokhod_quantile(0.5) == 5.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ParameterError):
            Binomial(-1, 0.5)
        with pytest.raises(ParameterError):
            Binomial(3, 1.5)
        with pytest.raises(ParameterError):
            Binomial(3.5, 0.5)


class TestTabulatedDiscrete:
    def test_two_point_example(self):
        d = TabulatedDiscrete((0.0, 2.0), (0.3, 0.7))
        assert d.cdf(1) == pytest.approx(0.3)
        assert d.cdf_left(2) == pytest.approx(0.3)
        assert d.cdf(2) == pytest.approx(1.0)
        assert d.mass(2.0) == pytest.approx(0.7)
        assert d.mass(1.0) == 0.0

    def test_validation(self):
        with pytest.raises(ParameterError):
            TabulatedDiscrete((0.0, 1.0), (0.5, 0.6))  # sums past 1
        with pytest.raises(ParameterError):
            TabulatedDiscrete((1.0, 0.0), (0.5, 0.5))  # not increasing
        with pytest.raises(ParameterError):
            TabulatedDiscrete((0.0, 1.0), (1.0, 0.0))  # zero mass
        with pytest.raises(ParameterError):
            TabulatedDiscrete((), ())

    def test_tail_table_is_cancellation_free(self):
        masses = (0.5, 0.25, 0.25 - 1e-13, 1e-13)
        d = TabulatedDiscrete((0.0, 1.0, 2.0, 3.0), masses)
        assert d.sf(2.0) == pytest.approx(1e-13, rel=1e-9)
        assert d.sf_left(3.0) == pytest.approx(1e-13, rel=1e-9)


class TestContinuousByCdf:
    def test_square_cdf(self):
        d = ContinuousByCdf(lambda y: np.clip(y, 0.0, 1.0) ** 2)
        assert d.cdf(0.5) == pytest.approx(0.25)
        assert d.cdf_left(0.5) == d.cdf(0.5)
        assert d.mass(0.5) == 0.0
        assert d.skorokhod_quantile(0.25) == pytest.approx(0.5, abs=1e-10)

    def test_probe_grid_rejects_non_cdf(self):
        with pytest.raises(ParameterError):
            ContinuousByCdf(lambda y: 1.0 - np.clip(y, 0.0, 1.0))  # decreasing
        with pytest.raises(ParameterError):
            ContinuousByCdf(lambda y: 0.5 * np.clip(y, 0.0, 1.0))  # never reaches 1


class TestUniform01:
    def test_identity_cdf(self):
        d = Uniform01()
        for x in (0.0, 0.25, 0.031, 1.0):
            assert d.cdf(x) == x
        assert d.cdf(-3.0) == 0.0 and d.cdf(7.0) == 1.0
        assert d.skorokhod_quantile(0.42) == 0.42


class TestSharedInvariants:
    @pytest.mark.parametrize("dist", unit_dists(), ids=lambda d: type(d).__name__)
    def test_cdf_monotone_and_bracketed(self, dist):
        rng = np.random.default_rng(101)
        xs = np.sort(rng.uniform(-2.0, 15.0, size=300))
        fv = np.asarray(dist.cdf(xs))
        fl = np.asarray(dist.cdf_left(xs))
        assert np.all(np.diff(fv) >= -1e-15)
        assert np.all(fl <= fv + 1e-15)
        assert np.all((fv >= 0.0) & (fv <= 1.0))

    @pytest.mark.parametrize("dist", unit_dists(), ids=lambda d: type(d).__name__)
    def test_mass_is_cdf_jump(self, dist):
        rng = np.random.default_rng(202)
        xs = np.concatenate([np.arange(0.0, 12.0), rng.uniform(0.0, 8.0, size=50)])
        for x in xs:
            assert dist.mass(x) == pytest.approx(dist.cdf(x) - dist.cdf_left(x), abs=1e-12)

    def test_mass_sums_to_cdf(self):
        d = Poisson(4.2)
        ks = np.arange(0, 60)
        running = np.cumsum(np.asarray(d.mass(ks)))
        assert np.max(np.abs(running - np.asarray(d.cdf(ks)))) <= 1e-12
        assert running[-1] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("dist", unit_dists(), ids=lambda d: type(d).__name__)
    def test_skorokhod_properties(self, dist):
        rng = np.random.default_rng(303)
        omega = rng.uniform(1e-9, 1.0 - 1e-9, size=10_000)
        n_of = np.asarray(dist.skorokhod_quantile(omega))
        # Property (1): F(N(omega)) >= omega.
        assert np.all(np.asarray(dist.cdf(n_of)) >= omega)
        # Property (2), in the form the sup definition actually supports:
        # N(omega) <= z exactly when omega <= F(z).  The strict variant
        # "F(z) > omega implies z > N(omega)" fails with positive
        # probability at atoms (z = N(omega) whenever omega falls inside
        # z's jump), so the test pins the correct equivalence.
        zs = np.linspace(-1.0, 12.0, 77)
        fz = np.asarray(dist.cdf(zs))
        slack = 1e-9 if dist.continuous else 0.0  # bisection tolerance
        for z, f in zip(zs, fz):
            sel = f >= omega
            assert np.all(n_of[sel] <= z + slack)
            sel = n_of <= z - slack
            assert np.all(omega[sel] <= f + slack)

    @pytest.mark.parametrize("dist", unit_dists(), ids=lambda d: type(d).__name__)
    def test_sampling_matches_model(self, dist):
        stream = RandomStream(8675309)
        samples = np.asarray(dist.sample(stream, 100_000))
        assert ks_distance(samples, dist) < KS_CRIT_1PCT / math.sqrt(100_000)

    def test_sample_uses_skorokhod_inverse(self):
        class _Fixed:
            def uniform_open(self, size=None):
                return 0.9

        assert Poisson(1.0).sample(_Fixed()) == 2.0

    @pytest.mark.parametrize("dist", unit_dists(), ids=lambda d: type(d).__name__)
    def test_quantile_domain_checked(self, dist):
        for bad in (0.0, 1.0, -0.2, 1.3, math.nan):
            with pytest.raises(DomainError):
                dist.skorokhod_quantile(bad)

    @pytest.mark.parametrize("dist", unit_dists(), ids=lambda d: type(d).__name__)
    def test_non_finite_points_rejected(self, dist):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                dist.cdf(bad)


class TestRandomStream:
    def test_deterministic_given_seed(self):
        a = RandomStream(7).uniform_open(1000)
        b = RandomStream(7).uniform_open(1000)
        assert np.array_equal(a, b)

    def test_open_interval(self):
        u = RandomStream(11).uniform_open(200_000)
        assert np.all((u > 0.0) & (u < 1.0))

    def test_spawn_streams_differ(self):
        children = RandomStream(13).spawn(3)
        draws = [c.uniform_open(8).tolist() for c in children]
        assert draws[0] != draws[1] != draws[2]

    def test_spawn_deterministic(self):
        a = [s.uniform_open(4).tolist() for s in RandomStream(99).spawn(2)]
        b = [s.uniform_open(4).tolist() for s in RandomStream(99).spawn(2)]
        assert a == b

    def test_bad_seed_rejected(self):
        with pytest.raises(ParameterError):
            RandomStream("not-a-seed")


def test_ladder_matches_cdf_and_covers_the_unit_interval():
    for dist in (Poisson(1.0661), Poisson(9.0), Poisson(1e6), Binomial(10, 0.3)):
        pts, cdf = dist._ladder
        assert np.array_equal(cdf, np.asarray(dist.cdf(pts)))
        assert cdf[-1] == 1.0
        assert dist.cdf(pts[0] - 1.0) == 0.0


def test_poisson_quantile_frozen_at_large_mean():
    omega = [1e-300, 1e-12, 0.3, 0.5, 1.0 - 1e-12, np.nextafter(1.0, 0.0)]
    expected = [963182, 992974, 999475, 1000000, 1007043, 1008172]
    assert np.array_equal(Poisson(1e6).skorokhod_quantile(omega), expected)


def test_ladder_stays_a_window_at_huge_mean():
    assert Poisson(1e8)._ladder[0].size < 1_000_000
