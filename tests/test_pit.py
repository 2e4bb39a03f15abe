"""Randomized PIT and panel scoring tests."""

import math
import tracemalloc

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
from extreme_sentinel.errors import DomainError, ParameterError, ShapeError
from extreme_sentinel.pit import ExtremenessVector, extremeness_panel, randomized_pit

KS_CRIT_1PCT = 1.628


def ks_vs_uniform(samples: np.ndarray) -> float:
    xs = np.sort(samples)
    n = xs.size
    grid = np.arange(1, n + 1) / n
    return float(max(np.max(grid - xs), np.max(xs - (grid - 1.0 / n))))


class TestRandomizedPit:
    def test_interpolates_the_bracket(self):
        d = Poisson(1.0)
        lo, hi = math.exp(-1.0), 2.0 * math.exp(-1.0)
        assert randomized_pit(d, 1, 1e-12) == pytest.approx(lo, abs=1e-11)
        assert randomized_pit(d, 1, 1.0 - 1e-12) == pytest.approx(hi, abs=1e-11)
        assert randomized_pit(d, 1, 0.5) == pytest.approx(0.5 * (lo + hi), rel=1e-14)

    def test_bracketing(self):
        rng = np.random.default_rng(11)
        for d in (Poisson(2.3), Binomial(10, 0.3), TabulatedDiscrete((0.0, 2.0), (0.3, 0.7))):
            xs = np.floor(rng.uniform(0, 8, size=500))
            us = rng.uniform(1e-6, 1 - 1e-6, size=500)
            ys = randomized_pit(d, xs, us)
            assert np.all(ys >= np.asarray(d.cdf_left(xs)))
            assert np.all(ys <= np.asarray(d.cdf(xs)))

    def test_strict_order_preservation(self):
        rng = np.random.default_rng(12)
        d = Poisson(3.0)
        x1 = np.floor(rng.uniform(0, 6, size=2000))
        x2 = x1 + np.floor(rng.uniform(1, 4, size=2000))
        y1 = randomized_pit(d, x1, rng.uniform(1e-9, 1 - 1e-9, size=2000))
        y2 = randomized_pit(d, x2, rng.uniform(1e-9, 1 - 1e-9, size=2000))
        assert np.all(y1 < y2)

    def test_below_support_floor_scores_zero(self):
        assert randomized_pit(Poisson(1.0), -1, 0.7) == 0.0
        assert randomized_pit(Binomial(5, 0.4), -3, 0.2) == 0.0

    def test_continuous_model_recovers_plain_pit(self):
        u01 = Uniform01()
        assert randomized_pit(u01, 0.37, 0.9) == pytest.approx(0.37, abs=1e-15)

    def test_uniform_under_the_model(self):
        # 1e5 Monte Carlo draws from Poisson(3.7); scores must look uniform.
        stream = RandomStream(20260815)
        d = Poisson(3.7)
        xs = np.asarray(d.sample(stream, 100_000))
        ys = randomized_pit(d, xs, stream.uniform_open(100_000))
        assert ks_vs_uniform(ys) < KS_CRIT_1PCT / math.sqrt(100_000)

    def test_randomizer_domain_checked(self):
        for bad in (0.0, 1.0, -0.5, 2.0, math.nan):
            with pytest.raises(DomainError):
                randomized_pit(Poisson(1.0), 1, bad)

    def test_shapes_that_do_not_broadcast_raise_shape_error(self):
        with pytest.raises(ShapeError, match=r"shape \(3,\) .* shape \(2,\)"):
            randomized_pit(Poisson(1.0), [1.0, 2.0, 3.0], [0.5, 0.5])


def out_of_place_pit(dist, x, u):
    """The score as one out-of-place expression: the reference for the in-place form."""
    ua = np.asarray(u, dtype=float)
    left = np.asarray(dist.cdf_left(x), dtype=float)
    right = np.asarray(dist.cdf(x), dtype=float)
    out = np.clip(left + ua * (right - left), left, right)
    if np.ndim(out) == 0:
        return float(out)
    return out


class TestScoresWorkedInPlace:
    MODELS = (
        Poisson(3.7),
        Poisson(1e6),
        Binomial(40, 0.3),
        TabulatedDiscrete((-1.5, 0.0, 0.25, 2.0, 7.0), (0.1, 0.2, 0.3, 0.15, 0.25)),
        Uniform01(),
        ContinuousByCdf(lambda x: -np.expm1(-x), 0.0, 60.0),
    )
    # (x shape, u shape); None is a Python float.
    SHAPES = (
        (None, None),
        ((), ()),
        (None, ()),
        ((1,), (7,)),
        ((7,), (1,)),
        (None, (5,)),
        ((5,), None),
        ((7,), (7,)),
        ((3, 4), (3, 4)),
        ((3, 4), (4,)),
        ((3, 1), (1, 4)),
        ((1,), ()),
    )

    @staticmethod
    def _observations(rng, dist, shape):
        x = np.asarray(dist.sample(RandomStream(int(rng.integers(2**32))), shape), dtype=float)
        if not dist.continuous:  # half-integers and values off the support too
            x = x + rng.choice([0.0, 0.0, 0.5, -0.5, -1e3, 1e7], shape)
        return x

    def test_bit_identical_to_the_out_of_place_expression(self):
        rng = np.random.default_rng(2028)
        for _ in range(7):  # 504 cases
            for dist in self.MODELS:
                for x_shape, u_shape in self.SHAPES:
                    x = self._observations(rng, dist, x_shape or ())
                    u = rng.uniform(2.0**-54, 1.0, u_shape or ())
                    if rng.random() < 0.2:  # the ends of the randomizer's range
                        u = np.where(u < 0.5, 5e-324, 1.0 - 2.0**-53)
                    x = float(x) if x_shape is None else x
                    u = float(u) if u_shape is None else u
                    got, want = randomized_pit(dist, x, u), out_of_place_pit(dist, x, u)
                    assert type(got) is type(want)
                    if isinstance(want, float):
                        assert got.hex() == want.hex(), (dist, x, u)
                    else:
                        assert got.shape == want.shape
                        assert np.array_equal(got, want)
                        assert list(map(float.hex, got.ravel().tolist())) == list(
                            map(float.hex, want.ravel().tolist())
                        ), (dist, x_shape, u_shape)

    def test_scores_in_at_most_three_arrays_of_the_output(self):
        # left, right and one work buffer of 8n bytes each, plus small temporaries.
        n = 20_000
        rng = np.random.default_rng(28)
        x, u = rng.random(n), rng.uniform(1e-9, 1.0 - 1e-9, n)
        dist = Uniform01()
        randomized_pit(dist, x, u)
        tracemalloc.start()
        try:
            randomized_pit(dist, x, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 8 * n + 64 * 1024


class TestExtremenessPanel:
    def test_two_cell_example(self):
        class _Scripted:
            def __init__(self, vals):
                self._vals = list(vals)

            def uniform_open(self, size=None):
                if size is None:
                    return self._vals.pop(0)
                return np.array([self._vals.pop(0) for _ in range(size)])

        dists = [Poisson(1.0), Poisson(1.0)]
        ev = extremeness_panel(dists, [0, 0], _Scripted([0.5, 0.25]))
        assert ev.survival[0] == pytest.approx(1.0 - 0.5 * math.exp(-1.0), rel=1e-14)
        assert ev.survival[1] == pytest.approx(1.0 - 0.25 * math.exp(-1.0), rel=1e-14)
        assert 1.0 - min(ev.survival) == pytest.approx(0.18394, abs=5e-6)
        assert ev.argmax_index == 0
        assert ev.randomizers_used.tolist() == [0.5, 0.25]

    def test_ties_go_to_lowest_index(self):
        class _Constant:
            def uniform_open(self, size=None):
                return np.full(size, 0.5) if size is not None else 0.5

        dists = [Poisson(1.0)] * 3
        ev = extremeness_panel(dists, [2, 2, 2], _Constant())
        assert ev.survival[0] == ev.survival[1] == ev.survival[2]
        assert ev.argmax_index == 0

    def test_deterministic_given_seed(self):
        dists = [Poisson(0.5), Binomial(10, 0.3), Poisson(2.0)]
        obs = [1, 4, 0]
        a = extremeness_panel(dists, obs, RandomStream(31337))
        b = extremeness_panel(dists, obs, RandomStream(31337))
        assert a == b
        assert isinstance(a, ExtremenessVector)

    def test_fields_are_read_only_float64_arrays(self):
        ev = extremeness_panel([Poisson(0.5), Binomial(10, 0.3)], [1, 4], RandomStream(7))
        for column in (ev.survival, ev.randomizers_used):
            assert type(column) is np.ndarray and column.dtype == np.float64
            assert column.shape == (2,)
            with pytest.raises(ValueError):
                column[0] = 0.5
        # Built from tuples, a vector holds the same arrays, and compares and hashes alike.
        columns = (tuple(ev.survival.tolist()), tuple(ev.randomizers_used.tolist()))
        from_tuples = ExtremenessVector(*columns)
        assert from_tuples == ev and hash(from_tuples) == hash(ev)
        nudged = ev.survival.copy()
        nudged[1] = np.nextafter(nudged[1], 1.0)
        assert ExtremenessVector(nudged, ev.randomizers_used) != ev

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            extremeness_panel([Poisson(1.0)], [0, 1], RandomStream(1))
        with pytest.raises(ShapeError):
            extremeness_panel([], [], RandomStream(1))
        with pytest.raises(ShapeError):
            extremeness_panel([Poisson(1.0)], 3, RandomStream(1))
        with pytest.raises(ShapeError):
            extremeness_panel([Poisson(1.0)], [[1, 2]], RandomStream(1))
        with pytest.raises(ParameterError, match="must hold NullDistribution instances"):
            extremeness_panel([1.0], [0], RandomStream(1))
