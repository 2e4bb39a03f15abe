"""Streams that draw a 0.0 at chosen positions, for the tests of the lift rule."""

import numpy as np

from extreme_sentinel.distributions import RandomStream


class ZeroAt:
    """``gen`` with its doubles at the stream positions ``zeros`` set to 0.0.

    ``start`` is the stream position of gen's next double, and
    ``bit_generator.advance`` moves it as it moves gen.  Each position
    drawn as a 0.0 is appended to ``hits``.
    """

    def __init__(self, gen, zeros, hits, start=0):
        self.gen, self.zeros, self.hits, self.pos = gen, zeros, hits, start
        self.bit_generator = self

    def advance(self, delta):
        self.gen.bit_generator.advance(delta)
        self.pos += delta

    def random(self, size=None, out=None):
        x = self.gen.random(size) if out is None else self.gen.random(out=out)
        count = int(np.size(x))
        at = [p for p in self.zeros if self.pos <= p < self.pos + count]
        self.hits.extend(at)
        if np.ndim(x) == 0:
            x = 0.0 if at else x
        else:
            x.flat[[p - self.pos for p in at]] = 0.0
        self.pos += count
        return x


def zero_draws(monkeypatch, zeros) -> list:
    """Make every seeded stream draw a 0.0 at the positions ``zeros``; return the hits.

    The streams ``RandomStream(seed)`` makes and the generators its
    ``_generator_at`` returns are both patched, so ``uniform_open`` and
    the harness's pieces see the same zeros.
    """
    hits = []
    init, at = RandomStream.__init__, RandomStream._generator_at

    def zeroed_init(stream, seed):
        init(stream, seed)
        stream._gen = ZeroAt(stream._gen, zeros, hits)

    def zeroed_at(stream, offset):
        return ZeroAt(at(stream, offset), zeros, hits, offset)

    monkeypatch.setattr(RandomStream, "__init__", zeroed_init)
    monkeypatch.setattr(RandomStream, "_generator_at", zeroed_at)
    return hits
