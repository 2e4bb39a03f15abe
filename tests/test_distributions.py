"""Distribution model tests.

Derived expectations are computed by independent oracles: forward pmf
summation for small-mean Poisson CDFs, exact rational arithmetic for the
binomial, and frozen 40-digit incomplete-gamma evaluations for large means.
"""

import hashlib
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from bulk import BULK_MODELS, SIZE
from scipy import stats
from zero_draws import zero_draws

from extreme_sentinel import distributions
from extreme_sentinel.distributions import (
    Binomial,
    ContinuousByCdf,
    Poisson,
    RandomStream,
    TabulatedDiscrete,
    Uniform01,
)
from extreme_sentinel.errors import DomainError, ParameterError
from extreme_sentinel.pit import randomized_pit

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
        for bad in (0.0, -1.0, math.inf, math.nan, True, "2", None):
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
        with pytest.raises(ParameterError):
            Binomial(True, 0.5)
        for trials in ("3", None, math.nan, math.inf, 3.0):
            with pytest.raises(ParameterError):
                Binomial(trials, 0.5)
        for prob in (True, "0.5", None, math.nan, math.inf):
            with pytest.raises(ParameterError):
                Binomial(3, prob)


def binom_points(rng, trials):
    """-3 .. trials + 3 (a strided pass and both ends past 2000 trials), their halves and +-1e300."""
    if trials <= 2000:
        ints = np.arange(-3.0, trials + 4.0)
    else:
        ints = np.unique(np.concatenate([
            np.arange(-3.0, 4.0),
            trials + np.arange(-3.0, 4.0),
            np.floor(rng.uniform(0.0, trials, 1500)),
        ]))
    return np.concatenate([ints, ints + 0.5, [1e300, -1e300, -0.0]])


def binom_reference(method, x, n, p):
    """``method`` of ``Binomial(n, p)`` at x from ``scipy.stats.binom``."""
    if method in ("cdf", "sf"):
        return getattr(stats.binom, method)(np.floor(x), n, p)
    if method in ("cdf_left", "sf_left"):
        return getattr(stats.binom, method[:-5])(np.ceil(x) - 1.0, n, p)
    return (stats.binom.pmf if method == "mass" else stats.binom.logpmf)(x, n, p)


def test_binomial_matches_scipy_stats_binom_bit_for_bit():
    # Binomial runs the Boost ufuncs behind scipy.stats.binom under the
    # rules of its rv_discrete wrapper, and the log mass is binom's formula.
    rng = np.random.default_rng(2026)
    trials = [0, 1, 2, 5, 40, 1000, 10**6, np.int64(17)]
    trials += [int(rng.integers(0, 10 ** int(rng.integers(1, 8)))) for _ in range(6)]
    probs = [0.0, 1.0, 1e-300, 1.0 - 1e-16, np.float32(0.3)]
    probs += [float(v) for v in rng.random(3)] + [float(10.0 ** rng.uniform(-300.0, 0.0))]
    methods = ("cdf", "sf", "cdf_left", "sf_left", "mass", "_log_mass")
    for n in trials:
        x = binom_points(rng, int(n))
        scalars = rng.choice(x, 12)
        for p in probs:
            dist = Binomial(n, p)
            for method in methods:
                got = np.asarray(getattr(dist, method)(x), dtype=float)
                want = np.asarray(binom_reference(method, x, n, p), dtype=float)
                assert got.shape == x.shape
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), (n, p, method)
                for v in scalars:
                    got = getattr(dist, method)(float(v))
                    want = binom_reference(method, v, n, p)
                    assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64), (n, p, method, v)


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

    @pytest.mark.parametrize(
        "masses",
        [
            (0.1, 0.2, 0.7000000000005),  # sums past 1
            (0.1, 0.2, 0.6999999999995),  # sums short of 1
            (0.3, 0.7 + 6e-13, 1e-13),  # F passes 1 before a tiny last mass
            (1e-13, 0.7 + 6e-13, 0.3),  # S passes 1 after a tiny first mass
        ],
    )
    def test_table_ends_are_exactly_one(self, masses):
        support = np.arange(len(masses), dtype=float)
        d = TabulatedDiscrete(tuple(support), masses)
        _, cdf = d._ladder
        assert np.all(np.diff(cdf) >= 0.0) and cdf[0] > 0.0 and cdf[-1] == 1.0
        assert d.cdf(support[-1]) == d.sf_left(support[0]) == 1.0
        assert d.cdf(9.0) + d.sf(9.0) == 1.0 and d.cdf_left(-9.0) + d.sf_left(-9.0) == 1.0
        tail = np.asarray(d.sf_left(support))
        assert np.all(np.diff(tail) <= 0.0) and np.all(tail <= 1.0)
        # Each entry of the clipped table is within 1e-12 of the plain running sums.
        assert np.max(np.abs(cdf - np.cumsum(masses))) <= 1e-12
        assert np.max(np.abs(tail - np.cumsum(masses[::-1])[::-1])) <= 1e-12
        # Sampling reads the same points as a search on the plain running sums.
        u = np.concatenate([
            RandomStream(5).uniform_open(5000),
            [0.3, 0.9999999999995, 1.0 - 1e-13, np.nextafter(1.0, 0.0)],
            np.nextafter(np.cumsum(masses)[:-1], 0.0),
        ])
        u = u[u < 1.0]
        plain = np.minimum(np.searchsorted(np.cumsum(masses), u), len(masses) - 1)
        for omega in (u, u[:100]):  # guided and plain searches
            assert np.array_equal(d.skorokhod_quantile(omega), support[plain[: omega.size]])

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
        for lower, upper in ((1.0, 1.0), (0.0, -1.0), (math.nan, 1.0), (0.0, math.inf),
                             ("0", 1.0), (0.0, None), (False, 1.0)):
            with pytest.raises(ParameterError):
                ContinuousByCdf(lambda y: np.clip(y, 0.0, 1.0) ** 2, lower, upper)


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

    def test_seeded_streams_are_pinned(self):
        # Digests of the draws as the seeded PCG64 yields them: a change to
        # the draw rule that moves any draw changes one of them.
        def digest(values):
            return hashlib.sha256(np.asarray(values, dtype=float).tobytes()).hexdigest()

        blocks = {
            0: "a010c6a86bb92e830f53f1359dc36fba9536ae188f63400da8abad59f3a2f844",
            1: "0d09537b8430ea92e03aa285e81f9b8ff37ab2c2139c7e3dc4f17dc7b22657b0",
            2**62: "0d13a513286d557d75705f7c4dd93cff8d3f3f41e74804f3609437cea87aa978",
        }
        for seed, want in blocks.items():
            assert digest(RandomStream(seed).uniform_open(10**6)) == want, seed
        scalars = [RandomStream(seed).uniform_open() for seed in range(1000)]
        assert digest(scalars) == "067341473f1e6e0be15ec7055bf3e46742c942196e0e5c4b580e0cfe68fce25b"
        samples = {
            Poisson(3.7): "26d77fcddfe2a61eb73e505a9e8425cc415aa3ca4ca45237d7ccf93867ed80ac",
            Binomial(25, 0.3): "b3414d79aa078c4637fd5f74451bb497f1778379a7f945e4649e2f7dcf11cbcc",
        }
        for dist, want in samples.items():
            assert digest(dist.sample(RandomStream(0), 20_000)) == want, dist

    def test_a_drawn_zero_is_lifted_and_moves_no_later_draw(self, monkeypatch):
        def draws(stream):
            head = [stream.uniform_open() for _ in range(4)]
            block = stream.uniform_open((3, 4)).ravel().tolist()
            return head + block + [stream.uniform_open() for _ in range(4)]

        want = np.array(draws(RandomStream(3)))
        zeros = (2, 4, 5, 15, 16, 19)
        want[list(zeros)] = 2.0**-54
        hits = zero_draws(monkeypatch, zeros)
        assert draws(RandomStream(3)) == want.tolist()
        assert hits == list(zeros)
        assert np.all(RandomStream(3).uniform_open(20) == want)

    def test_random_access_draws_equal_generator_random(self):
        rng = np.random.default_rng(2031)
        span = 2**20
        # Each digit boundary of the 9-bit jump tables, and offsets far past them.
        edges = [0, 1, 511, 512, 2**18 - 1, 2**18, 2**18 + 1, span - 1]
        far = np.array([2**27 + 5, 2**36 - 1, 2**45 + 2**18, 2**62 + 3])
        for _ in range(4):
            seed, start = int(rng.integers(2**63)), int(rng.integers(2**40))
            bits = RandomStream(seed)._generator_at(start).bit_generator
            picked = rng.integers(0, span, SIZE)
            # Unsorted, with repeats: the picks, some of them again reversed, the edges both ways.
            offsets = np.concatenate([edges, picked, picked[:50][::-1], edges[::-1]])
            drawn = RandomStream(seed)._generator_at(start).random(span)
            for top in (512, 2**18, span):
                at = offsets[offsets < top]
                assert distributions._random_at(bits, at).tobytes() == drawn[at].tobytes(), top
            want = [RandomStream(seed)._generator_at(start + int(e)).random() for e in far]
            assert distributions._random_at(bits, far).tobytes() == np.array(want).tobytes()
            assert distributions._random_at(bits, np.array([], dtype=np.intp)).size == 0
            # The bit generator was not moved.
            assert bits.random_raw() == RandomStream(seed)._generator_at(start).bit_generator.random_raw()

    def test_lift_zeros(self):
        u = np.array([0.5, 0.0, 2.0**-53, 0.0])
        assert distributions._lift_zeros(u) is u
        assert u.tolist() == [0.5, 2.0**-54, 2.0**-53, 2.0**-54]
        assert distributions._lift_zeros(0.0) == 2.0**-54
        assert distributions._lift_zeros(0.25) == 0.25
        assert distributions._lift_zeros(np.empty((0, 3))).shape == (0, 3)

    def test_bad_seed_rejected(self):
        for seed in ("not-a-seed", -1, 2.5, True, None, (1, 2)):
            with pytest.raises(ParameterError):
                RandomStream(seed)
        for n in (-1, 2.5, True, "2", None):
            with pytest.raises(ParameterError):
                RandomStream(1).spawn(n)


def test_ladder_matches_cdf_and_covers_the_unit_interval():
    # scipy 1.17's binom.cdf of the last model is positive at k = 0..28 and
    # 0.0 at k = 29..38: its ladder starts past the stray zeros, at 39.
    models = (Poisson(1.0661), Poisson(9.0), Poisson(1e6), Binomial(10, 0.3))
    for dist in (*models, Binomial(1895, 0.3176706067668721)):
        pts, cdf = dist._ladder
        assert np.array_equal(cdf, np.asarray(dist.cdf(pts)))
        assert np.all(np.diff(cdf) >= 0.0) and cdf[0] > 0.0
        assert cdf[-1] == 1.0
        assert dist.cdf(pts[0] - 1.0) == 0.0


def test_every_ladder_rises_from_above_zero_to_one():
    # The guided search is exact only on a non-decreasing table.
    rng = np.random.default_rng(2410)
    probs = (0.0, 1e-300, 1e-12, 0.5, 1.0 - 1e-12, np.nextafter(1.0, 0.0), 1.0)
    models = [Poisson(float(m)) for m in np.exp(rng.uniform(math.log(1e-3), math.log(1e6), 80))]
    models += [
        Binomial(int(n), float(p))
        for n, p in zip(np.exp(rng.uniform(0.0, math.log(1e5), 80)).astype(int), rng.choice(probs, 80))
    ]
    models += [Binomial(10**5, p) for p in probs] + [Binomial(1895, 0.3176706067668721)]
    for size in rng.integers(1, 200, 40):
        masses = rng.exponential(1.0, size) ** 8
        masses /= masses.sum()
        models.append(TabulatedDiscrete(tuple(np.cumsum(rng.uniform(0.1, 2.0, size))), tuple(masses)))
    for dist in models:
        cdf = dist._ladder[1]
        assert np.all(np.diff(cdf) >= 0.0) and cdf[0] > 0.0 and cdf[-1] == 1.0, dist


def test_poisson_quantile_frozen_at_large_mean():
    omega = [1e-300, 1e-12, 0.3, 0.5, 1.0 - 1e-12, np.nextafter(1.0, 0.0)]
    expected = [963182, 992974, 999475, 1000000, 1007043, 1008172]
    assert np.array_equal(Poisson(1e6).skorokhod_quantile(omega), expected)


def test_ladder_stays_a_window_at_huge_mean():
    assert Poisson(1e8)._ladder[0].size < 1_000_000


def test_spans_equal_concatenated_ranges():
    # Pieces of zero points among them, and float starts up to 2**52.
    rng = np.random.default_rng(2029)
    for _ in range(200):
        sizes = rng.integers(0, 6, int(rng.integers(1, 8)))
        lo = rng.integers(-50, 50, sizes.size)
        want = np.concatenate([np.arange(a, a + m) for a, m in zip(lo, sizes)])
        got = distributions._spans(lo, sizes)
        assert got.dtype == np.int64 and np.array_equal(got, want)
        lo = np.floor(rng.uniform(0.0, 2.0**52, sizes.size))
        want = np.concatenate([np.arange(a, a + m) for a, m in zip(lo, sizes)] + [np.empty(0)])
        got = distributions._spans(lo, sizes)
        assert got.dtype == np.float64 and np.array_equal(got, want)


def test_ladder_widens_below_a_loose_first_window():
    # The first window of Binomial(100, 0.999) starts at 47, but F(46) = 7e-134.
    dist = Binomial(100, 0.999)
    assert dist.cdf(46.0) > 0.0
    pts, _ = dist._ladder
    assert pts[0] < 47
    assert dist.cdf(pts[0] - 1.0) == 0.0 < dist.cdf(pts[0])
    support = np.arange(0.0, 101.0)
    cdf = np.asarray(dist.cdf(support))
    for omega in (1e-300, 1e-200, 1e-133, 1e-16, 0.5):
        # The sup-form inverse is the first support point with F >= omega.
        assert dist.skorokhod_quantile(omega) == support[np.argmax(cdf >= omega)]


INTEGER_MODELS = (Poisson(3.7), Poisson(250.0), Binomial(40, 0.3), Binomial(7, 1.0))
BRACKET_METHODS = ("cdf", "sf", "cdf_left", "sf_left")


def integer_support_points(rng, dist):
    """Arrays for the four bracket methods: dense draws and every edge of the range rule."""
    draws = np.asarray(dist.sample(RandomStream(int(rng.integers(2**32))), 120))
    edges = np.array([2.0**53, -(2.0**53), 2.0**53 - 1.0, 2.0**60, -(2.0**60), 1e300, -1e300])
    return [
        draws,
        draws - 5.0,  # negative entries
        draws + rng.uniform(-1.0, 1.0, draws.size),  # non-integer entries
        draws.reshape(12, 10),
        np.empty(0),
        np.empty((0, 3)),
        np.array([-0.0, 0.0, -0.5, 0.5, -1.0]),
        np.array([0.0, 1e6, 3.0]),  # a sparse range: one call on the points
        np.concatenate([draws, rng.choice(edges, 5)]),
        np.concatenate([draws, [2.0**53 - 2.0]]),
        draws + (2.0**53 - 100.0),
        draws - (2.0**53 - 100.0),
    ]


@pytest.mark.parametrize("dist", INTEGER_MODELS, ids=repr)
def test_integer_support_arrays_match_scalar_calls_bit_for_bit(dist):
    rng = np.random.default_rng(404)
    for _ in range(3):
        for x in integer_support_points(rng, dist):
            for method in BRACKET_METHODS:
                fn = getattr(dist, method)
                got = np.asarray(fn(x))
                want = np.array([fn(float(v)) for v in x.flat], dtype=float).reshape(x.shape)
                assert got.shape == x.shape
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), (method, x)


@pytest.mark.parametrize(
    "dist, owner, name",
    [
        (Poisson(3.7), distributions.special, "gammaincc"),
        (Binomial(40, 0.3), distributions.special._ufuncs, "_binom_cdf"),
    ],
    ids=["Poisson", "Binomial"],
)
def test_randomized_pit_evaluates_each_integer_once(monkeypatch, dist, owner, name):
    stream = RandomStream(1)
    x = np.asarray(dist.sample(stream, 20_000))
    u = stream.uniform_open(20_000)
    inner, points = getattr(owner, name), []

    def counted(k, *args):
        points.append(np.size(k))
        return inner(k, *args)

    monkeypatch.setattr(owner, name, counted)
    randomized_pit(dist, x, u)
    assert 0 < sum(points) <= 2 * (x.max() - x.min() + 2)


def searchsorted_reference(dist, x, unit):
    """The guided lookups of ``dist`` at x, each from one plain ``np.searchsorted``.

    With ``unit`` the inverse on the ladder, otherwise the five support lookups.
    """
    x = np.asarray(x, dtype=float)
    if unit:
        pts, cdf = dist._ladder
        return {"skorokhod_quantile": pts[np.minimum(np.searchsorted(cdf, x, side="left"), pts.size - 1)]}
    left, right = (np.searchsorted(dist._sup, x, side=side) for side in ("left", "right"))
    at = np.minimum(left, dist._sup.size - 1)
    return {
        "cdf": dist._cum[right],
        "sf": dist._tail[right],
        "cdf_left": dist._cum[left],
        "sf_left": dist._tail[left],
        "mass": np.where(dist._sup[at] == x, dist._m[at], 0.0),
    }


def random_guided_model(rng, i):
    """Model i of the differential: tabulated supports of every shape, and small integer models."""
    kind = i % 10
    if kind == 0:
        return Poisson(float(np.exp(rng.uniform(math.log(1e-3), math.log(300.0)))))
    if kind == 1:
        return Binomial(int(rng.integers(0, 120)), float(rng.choice([0.0, 1e-12, rng.random(), 1.0])))
    size = int(rng.integers(1, 3)) if kind == 2 else int(rng.integers(2, 60))
    if kind in (3, 4):  # clustered: a few tight clumps far apart
        clumps = rng.uniform(-1e3, 1e3, 3)
        support = np.unique(rng.choice(clumps, size) + rng.uniform(0.0, 1e-9, size) * 1e3)
    elif kind == 5:  # spans of every scale, overflowing ones included
        support = np.unique(rng.uniform(-1.0, 1.0, size) * 10.0 ** float(rng.integers(-310, 309)))
    else:
        support = np.cumsum(rng.uniform(0.1, 3.0, size)) - 20.0
    masses = rng.exponential(1.0, support.size) ** float(rng.choice([1.0, 12.0]))
    return TabulatedDiscrete(tuple(support), tuple(masses / masses.sum()))


def guided_needles(rng, table, guide, unit):
    """Random needles, the table's entries and their neighbours, and both sides of bucket edges.

    ``unit`` keeps them inside (0, 1), for the inverse.
    """
    near = rng.choice(table, 100)
    if guide:
        low, _, scale, first, _ = guide
        near = np.concatenate([near, low + rng.integers(0, first.size + 1, 100) / scale])
    if unit:
        spread = rng.uniform(0.0, 1.0, 1100)
    elif np.ptp(table) < 1e300:
        spread = rng.uniform(table[0] - 1.0, table[-1] + 1.0, 1100)
    else:
        spread = rng.uniform(-1.0, 1.0, 1100) * 1e308
    needles = np.concatenate([
        spread, near, np.nextafter(near, -np.inf), np.nextafter(near, np.inf), [-1e308, 1e308],
    ])
    if unit:
        needles = needles[(needles > 0.0) & (needles < 1.0)]
    rng.shuffle(needles)
    return needles


def test_guided_lookups_equal_searchsorted_on_random_models():
    rng = np.random.default_rng(1974)
    guided = 0
    for i in range(3000):
        dist = random_guided_model(rng, i)
        lookups = [(dist._ladder_table, True, ("skorokhod_quantile",))]
        if isinstance(dist, TabulatedDiscrete):
            lookups.append((dist._support_table, False, ("cdf", "cdf_left", "sf", "sf_left", "mass")))
        for table, unit, methods in lookups:
            getattr(dist, methods[0])(np.full(1024, 0.5))  # builds the guide, if any
            big = guided_needles(rng, table.values, table._guide, unit)
            small = big[:7]
            shapes = [big]
            if i % 7 == 0:  # every shape on a seventh of the models, the long array on all
                shapes += [big[:1024].reshape(32, 32), small, small.tolist(), np.empty(0), np.empty((0, 2))]
            for x in shapes + [small[0]]:
                want = searchsorted_reference(dist, x, unit)
                for method in methods:
                    got = getattr(dist, method)(x)
                    if np.ndim(x) == 0:  # scalar in, float out
                        assert type(got) is float and got == want[method]
                        continue
                    assert type(got) is np.ndarray and got.dtype == want[method].dtype == np.float64
                    assert got.shape == want[method].shape and np.array_equal(got, want[method]), (dist, method)
            guided += bool(table._guide)
    assert guided > 3000  # most of the 5400 tables ran on a guide


@pytest.mark.parametrize("name", BULK_MODELS)
def test_bulk_draws_equal_searchsorted(name):
    # SIZE draws, on the tabulated model its five lookups at them and at their
    # neighbours both ways: what one np.searchsorted on the model's tables gives.
    dist = BULK_MODELS[name]()
    u = RandomStream(24).uniform_open(SIZE)
    x = dist.sample(RandomStream(24), SIZE)
    assert dist._ladder_table._guide, "fewer than _GUIDE_MIN_NEEDLES draws search without a guide"
    assert np.array_equal(x, searchsorted_reference(dist, u, True)["skorokhod_quantile"])
    if isinstance(dist, TabulatedDiscrete):
        x = np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])
        for method, want in searchsorted_reference(dist, x, False).items():
            assert np.array_equal(getattr(dist, method)(x), want), method
        assert dist._support_table._guide


def test_seeded_tabulated_sample_is_pinned_and_the_guide_is_no_field():
    # These draws need no scipy: numpy's PCG64 and one guided search.
    d = TabulatedDiscrete((-3.0, 0.0, 0.5, 2.0, 7.25, 100.0), (0.05, 0.3, 0.15, 0.25, 0.2, 0.05))
    x = d.sample(RandomStream(20261019), (300, 400))
    digest = "09026f5431aa27e152eadda3e68bd4f98a1fbef85ff956c09be94b9e16b956a8"
    assert x.shape == (300, 400) and hashlib.sha256(x.tobytes()).hexdigest() == digest
    d.cdf(x)
    assert d._ladder_table._guide and d._support_table._guide
    fresh = TabulatedDiscrete(d.support, d.masses)
    assert d == fresh and hash(d) == hash(fresh) and repr(d) == repr(fresh)
    copy = pickle.loads(pickle.dumps(d))
    assert copy == d and np.array_equal(copy.sf_left(x), fresh.sf_left(x))
    assert hashlib.sha256(copy.sample(RandomStream(20261019), (300, 400)).tobytes()).hexdigest() == digest
