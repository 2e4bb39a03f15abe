"""Bad array and size arguments raise the site's package error, never a raw numpy one."""

import numpy as np
import pytest

from extreme_sentinel.distributions import Poisson, RandomStream, TabulatedDiscrete
from extreme_sentinel.errors import DomainError, ParameterError
from extreme_sentinel.monotone import ModelPair, alt_extremeness_cdf, mlr_check
from extreme_sentinel.pit import extremeness_panel, randomized_pit
from extreme_sentinel.umptest import pvalue_bounds
from extreme_sentinel.verify import ks_uniformity


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
