"""Panel helpers the tests share: a ``CountPanel`` built from rows, and a surveil-sized CSV."""

import numpy as np

from extreme_sentinel.surveillance import CountPanel


def panel_of(rows):
    """The ``CountPanel`` of (region, period, count, population) rows, given as its four columns."""
    columns = tuple(map(tuple, zip(*rows))) or ((),) * 4
    return CountPanel(*columns)


def surveil_csv(tmp_path):
    """A 20-region, 52-week panel CSV of Poisson counts: 1040 cells."""
    rng = np.random.default_rng(1040)
    pops = np.rint(rng.lognormal(np.log(5e5), 0.6, 20))
    rows = [
        f"R{r:02d},W{w:02d},{rng.poisson(2e-5 * pops[r])},{int(pops[r])}"
        for r in range(20)
        for w in range(52)
    ]
    path = tmp_path / "surveil.csv"
    path.write_text("region,period,count,population\n" + "\n".join(rows) + "\n")
    return path
