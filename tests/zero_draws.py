"""Streams that draw a 0.0 at chosen positions, for the tests of the lift rule."""

import numpy as np

from extreme_sentinel.distributions import RandomStream


class ZeroAt:
    """``gen`` with its doubles at the stream positions ``zeros`` set to ``value``, 0.0
    unless given.

    A position counts the doubles drawn by ``random``; every other
    method is gen's own.  Each position drawn as ``value`` is appended to ``hits``.
    """

    def __init__(self, gen, zeros, hits, value=0.0):
        self.gen, self.zeros, self.hits, self.pos = gen, zeros, hits, 0
        self.value = value

    def __getattr__(self, name):
        return getattr(self.gen, name)

    def random(self, size=None):
        x = self.gen.random(size)
        count = int(np.size(x))
        at = [p for p in self.zeros if self.pos <= p < self.pos + count]
        self.hits.extend(at)
        if np.ndim(x) == 0:
            x = self.value if at else x
        else:
            x.flat[[p - self.pos for p in at]] = self.value
        self.pos += count
        return x


def zero_draws(monkeypatch, zeros, value=0.0) -> list:
    """Make every seeded stream draw a 0.0, or ``value``, at the positions ``zeros``;
    return the hits.

    ``uniform_open`` and the harness, which draws from the generator of
    ``RandomStream(seed)``, see the same zeros.
    """
    hits = []
    init = RandomStream.__init__

    def zeroed_init(stream, seed):
        init(stream, seed)
        stream._gen = ZeroAt(stream._gen, zeros, hits, value)

    monkeypatch.setattr(RandomStream, "__init__", zeroed_init)
    return hits
