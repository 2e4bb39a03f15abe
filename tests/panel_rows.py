"""The panel builder the tests share: rows in, a ``CountPanel`` of their columns out."""

from extreme_sentinel.surveillance import CountPanel


def panel_of(rows):
    """The ``CountPanel`` of (region, period, count, population) rows, given as its four columns."""
    columns = tuple(map(tuple, zip(*rows))) or ((),) * 4
    return CountPanel(*columns)
