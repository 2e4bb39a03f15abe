"""Bad array and size arguments raise the site's package error, never a raw numpy one."""

import math

import numpy as np
import pytest
from panel_rows import panel_of

from extreme_sentinel import distributions
from extreme_sentinel.distributions import (
    Binomial,
    ContinuousByCdf,
    Poisson,
    RandomStream,
    TabulatedDiscrete,
    Uniform01,
)
from extreme_sentinel.errors import (
    ContractError,
    DataError,
    DomainError,
    ParameterError,
    SizeError,
    _array,
)
from extreme_sentinel.monotone import ModelPair, alt_extremeness_cdf, convexity_check, mlr_check
from extreme_sentinel.pit import extremeness_panel, randomized_pit
from extreme_sentinel.surveillance import CountPanel, epidemic_test
from extreme_sentinel.umptest import pvalue_bounds, threshold
from extreme_sentinel.verify import SimulationConfig, ks_uniformity, simulate_size_and_power


def test_unreadable_arrays_raise_the_sites_error():
    pair = ModelPair(Poisson(1.0), Poisson(2.0))
    probes = [
        (DomainError, lambda: Poisson(1.0).cdf("x")),
        (DomainError, lambda: pvalue_bounds([Poisson(1.0)], ["x"])),
        (DomainError, lambda: extremeness_panel([Poisson(1.0)], ["x"], RandomStream(1))),
        (DomainError, lambda: randomized_pit(Poisson(1.0), 1, "x")),
        (DomainError, lambda: ks_uniformity(["x"] * 1000)),
        (ParameterError, lambda: TabulatedDiscrete(("a",), (1.0,))),
        (ParameterError, lambda: mlr_check(pair, ["a", "b"])),
        (DomainError, lambda: alt_extremeness_cdf(pair, "a")),
    ]
    for error, call in probes:
        with pytest.raises(error, match="must be real numbers"):
            call()


def test_cdf_callables_that_are_not_or_do_not_return_numbers():
    probes = [
        (ParameterError, lambda: ContinuousByCdf(3)),
        (ParameterError, lambda: convexity_check(3, 5)),
        (ParameterError, lambda: ContinuousByCdf(lambda x: "a")),
        (ContractError, lambda: convexity_check(lambda y: "a", 5)),
        (ContractError, lambda: convexity_check(lambda y: [0.0, 1.0], 5)),
        (ParameterError, lambda: ContinuousByCdf(lambda x: np.where(x < 0.5, x, np.nan))),
        (ContractError, lambda: convexity_check(lambda y: np.where(y < 1.0, y, np.inf), 5)),
    ]
    for error, call in probes:
        with pytest.raises(error):
            call()


def test_a_cdf_callables_own_error_propagates():
    def broken(x):
        raise ValueError("inside the callable")

    for call in (lambda: ContinuousByCdf(broken), lambda: convexity_check(broken, 5)):
        with pytest.raises(ValueError, match="inside the callable"):
            call()


def test_bools_and_strings_are_refused_as_the_scalar_rules_refuse_them():
    # numpy reads each of these as numbers; the scalar rules refuse them all.
    probes = [
        (DomainError, lambda: Poisson(1.0).cdf("3")),
        (DomainError, lambda: Poisson(1.0).cdf(True)),
        (DomainError, lambda: Poisson(1.0).sf(np.array([True, False]))),
        (DomainError, lambda: Poisson(1.0).sf_left(b"3")),
        (DomainError, lambda: pvalue_bounds([Poisson(1.0)], [np.True_])),
        (DomainError, lambda: ks_uniformity(["0.5"] * 1000)),
        (ParameterError, lambda: TabulatedDiscrete(("1",), (1.0,))),
        (ParameterError, lambda: TabulatedDiscrete((1.0,), (True,))),
        # Inside an object array numpy reads each element as a number.
        (DomainError, lambda: Poisson(1.0).cdf(np.array(["3"], dtype=object))),
        (DomainError, lambda: Poisson(1.0).cdf(np.array([True], dtype=object))),
        (DomainError, lambda: Poisson(1.0).sf(np.array([1, np.True_], dtype=object))),
        (DomainError, lambda: Poisson(1.0).sf_left(np.array([[1.0], [None]], dtype=object))),
        (DomainError, lambda: pvalue_bounds([Poisson(1.0)], np.array([b"3"], dtype=object))),
        (ParameterError, lambda: TabulatedDiscrete(np.array(["1"], dtype=object), (1.0,))),
        # In a list or tuple numpy would cast True to 1 before the rule saw it.
        (DomainError, lambda: Poisson(1.0).cdf([1, True])),
        (DomainError, lambda: Poisson(1.0).sf([[0, 1], [True, 2]])),
        (DomainError, lambda: randomized_pit(Poisson(1.0), [1, 2], [0.5, True])),
    ]
    for error, call in probes:
        with pytest.raises(error, match="must be real numbers"):
            call()


def test_real_arrays_are_read_as_before():
    x = np.linspace(0.0, 1.0, 5)
    assert _array(x, "x") is x  # a float array is not copied
    assert Poisson(1.0).cdf(x).tolist() == Poisson(1.0).cdf(x.tolist()).tolist()
    assert Poisson(1.0).cdf([0, 1, 2]).tolist() == Poisson(1.0).cdf(x[::2] * 2.0).tolist()
    assert Poisson(1.0).cdf(np.int64(3)) == Poisson(1.0).cdf(3.0)
    assert _array([2**64], "x").tolist() == [2.0**64]
    mixed = np.array([1, 2.5, np.int64(3), np.float32(0.5)], dtype=object)
    assert Poisson(1.0).cdf(mixed).tolist() == Poisson(1.0).cdf([1.0, 2.5, 3.0, 0.5]).tolist()


def test_huge_integers_raise_the_sites_error():
    # float() refuses an int past the float range, and repr() one past 4300 digits.
    past_float, past_repr = 10**400, -(10**5000)

    def panel(count=3, population=1e6):
        return panel_of((("A", "1", count, population),))

    probes = [
        (ParameterError, "Poisson mean", lambda: Poisson(past_float)),
        (ParameterError, "rate", lambda: epidemic_test(panel(), lam=past_float)),
        (ParameterError, "trials", lambda: Binomial(past_repr, 0.5)),
        (ParameterError, "trials", lambda: Binomial(10**30, 0.5).cdf(3.0)),
        (DataError, "population", lambda: panel(population=past_float)),
        (DataError, "count must be a non-negative", lambda: panel(count=past_repr)),
        (DataError, "must be a column", lambda: CountPanel(("A",), ("1",), past_repr, (1e6,))),
        (DataError, "ids must be", lambda: CountPanel((past_repr,), ("1",), (3,), (1e6,))),
        (DataError, "ids must be", lambda: CountPanel(("A",), (past_repr,), (3,), (1e6,))),
        (DomainError, "panel size", lambda: threshold(0.05, past_repr)),
        (DomainError, "must be real numbers", lambda: Poisson(1.0).cdf([past_float])),
        (DomainError, "must be real numbers", lambda: Poisson(1.0).cdf(past_repr)),
    ]
    for error, says, call in probes:
        with pytest.raises(error, match=says) as info:
            call()
        assert "-bit integer" in str(info.value)
    # As counts are: past 2**53 the float64 ufuncs would see 2**53 instead.
    with pytest.raises(ParameterError, match=r"trials must be an integer in \[0, 9007199254740992\)"):
        Binomial(2**53 + 1, 0.5)
    assert Binomial(2**53 - 1, 0.5).cdf(3.0) == 0.0


def test_counts_stop_below_two_to_the_53():
    # Every integer below 2**53 is exact in the float64 array pass.
    for count in (2**53, 2**53 + 1, 10**400):
        with pytest.raises(DataError, match="count must be a non-negative integer below 2"):
            panel_of((("A", "1", count, 1e6),))
    report = epidemic_test(panel_of((("A", "1", 2**53 - 1, 1e6),)), lam=1e-6)
    assert report.bounds.upper == 0.0 and report.rejected is True


def test_a_ladder_too_large_to_build_raises_size_error():
    # A window reaching 2**53: at a mean of 1e30 it holds 5e16 points, which no
    # allocator grants, and at 1e300 it is narrower than the float spacing there.
    probes = [
        lambda: Poisson(1e30).sample(RandomStream(1), 2),
        lambda: Poisson(1e30).skorokhod_quantile(0.5),
        lambda: ModelPair(Poisson(1e30), Poisson(2e30)),
        lambda: Poisson(1e300).sample(RandomStream(1), 2),
        lambda: ModelPair(Poisson(1e300), Poisson(1e300)),
    ]
    for call in probes:
        with pytest.raises(SizeError, match="CDF ladder reaching 2[*][*]53 is too large to build"):
            call()
    # The harness bisects a Poisson null's counts, in a window as wide, and builds no ladder.
    with pytest.raises(SizeError, match="^a count window reaching 2[*][*]53 is too large to bisect$"):
        simulate_size_and_power(SimulationConfig((Poisson(1e30),), 0.05, 1000, 1))


def test_a_ladder_the_allocator_refuses_raises_size_error():
    # One window of 1.76e15 points below 2**53: 14 PB, past any address space.
    def step_at(k):
        return (k >= 2.0**51).astype(float)

    with pytest.raises(SizeError, match="CDF ladders of 1.76e[+]15 points are too large to build"):
        distributions._integer_ladder(step_at, 2.0**51, 2.0**45)


def test_many_moderate_ladder_windows_pass_the_size_check():
    # 2**18 windows of 241 points, a panel of Poisson means of 100: 6.3e7
    # points in all.  The check reads only each window's top, not the total.
    lo, hi = np.zeros(2**18), np.full(2**18, 240.0)
    sizes = distributions._window_sizes(lo, hi)
    assert sizes.sum() == 241 * 2**18 > 2**24


def test_sizes_numpy_cannot_allocate_raise_size_error():
    # Each size is past numpy's dimension or byte limit, so numpy refuses it
    # before it takes any memory.
    template = (Poisson(1.0), Uniform01())
    probes = [
        ("size", "a 71-bit integer", lambda: RandomStream(1).uniform_open(2**70)),
        ("size", r"\(2147483648, 2147483648\)", lambda: RandomStream(1).uniform_open((2**31, 2**31))),
        ("size", "a 71-bit integer", lambda: Poisson(1.0).sample(RandomStream(1), 2**70)),
        ("grid_size", "a 100-bit integer", lambda: convexity_check(lambda y: y, 10**30)),
    ]
    for trials, shown in ((10**30, "a 100-bit integer"), (10**19, "10000000000000000000")):
        config = SimulationConfig(template, 0.05, trials, 1)
        probes.append(("n_trials", shown, lambda config=config: simulate_size_and_power(config)))
    for name, shown, call in probes:
        with pytest.raises(SizeError, match=f"^{name} is too large to allocate: {shown}$"):
            call()


def test_a_trial_count_the_allocator_refuses_raises_size_error(monkeypatch):
    zeros = np.zeros

    def refusing(shape, *args, **kwargs):
        if isinstance(shape, int) and shape == 1234:
            raise MemoryError
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", refusing)
    config = SimulationConfig((Poisson(1.0),), 0.05, 1234, 1)
    with pytest.raises(SizeError, match="^n_trials is too large to allocate: 1234$"):
        simulate_size_and_power(config)


def test_a_stream_without_uniform_open_raises_parameter_error():
    probes = [
        ("int", lambda: Poisson(1.0).sample(7, 3)),
        ("NoneType", lambda: Poisson(1.0).sample(None)),
        ("Generator", lambda: extremeness_panel([Poisson(1.0)], [1], np.random.default_rng(1))),
    ]
    for kind, call in probes:
        with pytest.raises(ParameterError, match=f"^stream must be a RandomStream, got {kind}$"):
            call()


def test_a_scipy_without_the_binomial_ufuncs_raises_contract_error(monkeypatch):
    for name in ("_binom_cdf", "_binom_sf", "_binom_pmf"):
        monkeypatch.delattr(distributions.special._ufuncs, name)
    for call in (
        lambda: Binomial(10, 0.3).cdf(3.0),
        lambda: Binomial(10, 0.3).sf(np.arange(4.0)),
        lambda: Binomial(10, 0.3).mass(3.0),
    ):
        with pytest.raises(ContractError, match="needs scipy.special._ufuncs._binom_.* scipy 1.17 has"):
            call()
    assert Poisson(2.0).cdf(1.0) == pytest.approx(3.0 * math.exp(-2.0))


def test_sizes_are_none_a_count_or_a_tuple_of_counts():
    draw = (
        lambda size: RandomStream(1).uniform_open(size),
        lambda size: Poisson(1.0).sample(RandomStream(1), size),
    )
    for f in draw:
        assert np.ndim(f(None)) == 0
        for size, shape in ((0, (0,)), (3, (3,)), (np.int64(2), (2,)), ((2, 3), (2, 3)), ((), ())):
            assert np.shape(f(size)) == shape
        for size in (-1, 2.5, (2, -1), True, "3", [2, 3], (2.0,)):
            with pytest.raises(ParameterError, match="size"):
                f(size)
