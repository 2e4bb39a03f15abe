"""Golden digests of the package's results on seeded inputs.

Each test feeds the values it computes, in a fixed order, to one sha256
and compares the digest with the one pinned here.  A value is hashed by
canonical bytes, not by its container: a float array, or a sequence of
floats, by the ``tobytes`` of its float64 array; a float by
``float.hex``; an int by its decimal digits; any other value by
``repr``.  So a record whose floats move from a tuple to an array keeps
its digest, while one ulp in a bracket, a tie broken to another cell or
a stream read from another seed changes it.  Every input is seeded here.

The digests were taken with numpy 2.4.6 and scipy 1.17.1 (Python
3.11.7).  Another build's special functions and libm may differ in the
last bit, so on other versions the tests are skipped.
"""

import hashlib
import io
from contextlib import redirect_stdout

import numpy as np
import pytest
import scipy

from extreme_sentinel import (
    Alternative,
    Binomial,
    CountPanel,
    Poisson,
    RandomStream,
    SimulationConfig,
    TabulatedDiscrete,
    Uniform01,
    cli,
    enumerate_pvalue_bounds,
    epidemic_test,
    extremeness_panel,
    listeriosis_fixture_path,
    peel_test,
    phi_randomized,
    pvalue_bounds,
    simulate_size_and_power,
)

pytestmark = pytest.mark.skipif(
    (np.__version__, scipy.__version__) != ("2.4.6", "1.17.1"),
    reason=f"digests pinned on numpy 2.4.6 and scipy 1.17.1; found numpy {np.__version__}"
    f" and scipy {scipy.__version__}",
)

FIXTURE = str(listeriosis_fixture_path())
PUBLISHED_RATE = 9.703e-7


def _canon(value) -> bytes:
    """The canonical bytes of one value, whatever container holds it."""
    if isinstance(value, (np.ndarray, list, tuple)) and len(value):
        if all(isinstance(v, (float, np.floating)) for v in value):
            return np.asarray(value, dtype=np.float64).tobytes()
    if isinstance(value, (float, np.floating)):
        return float(value).hex().encode()
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value)).encode()
    return repr(value).encode()


class _Digest:
    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *values):
        for value in values:
            data = _canon(value)
            self._h.update(len(data).to_bytes(8, "little") + data)

    def bounds(self, b):
        self.add(b.lower, b.upper, b.n, b.argmax_upper_cell, b.argmax_lower_cell)
        self.add(np.asarray(b.sf_left, dtype=float), np.asarray(b.sf_right, dtype=float))

    def decision(self, d):
        self.add(d.rejection_probability, d.threshold, d.survival_threshold, d.branch)
        self.add(d.randomized_set, d.m_statistic, d.alpha, d.n)

    def report(self, r):
        self.bounds(r.bounds)
        self.decision(r.decision)
        self.add(r.flagged_cell, r.lambda_used, r.alpha, r.n, r.seed, r.rejected)

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _model(rng):
    """One seeded model of four kinds, and an observation of it, sometimes far in its tail."""
    kind = rng.integers(4)
    if kind == 0:
        dist = Poisson(float(np.exp(rng.uniform(np.log(0.05), np.log(50.0)))))
        x = int(rng.poisson(dist.mean)) + int(rng.integers(0, 40) if rng.random() < 0.2 else 0)
    elif kind == 1:
        dist = Binomial(int(rng.integers(1, 41)), float(rng.uniform(0.05, 0.95)))
        x = int(rng.binomial(dist.trials, dist.success_prob))
    elif kind == 2:
        support = np.cumsum(rng.uniform(0.5, 2.0, int(rng.integers(2, 7))))
        masses = rng.uniform(0.1, 1.0, support.size)
        dist = TabulatedDiscrete(tuple(support), tuple(masses / masses.sum()))
        x = float(rng.choice(support) + (0.25 if rng.random() < 0.2 else 0.0))
    else:
        dist, x = Uniform01(), float(rng.uniform())
    return dist, x


def _panel(rng, size):
    """A mixed panel of ``size`` cells; some repeat an earlier cell, so brackets tie."""
    dists, obs = [], []
    for _ in range(size):
        if dists and rng.random() < 0.3:
            j = int(rng.integers(len(dists)))
            dist, x = dists[j], obs[j]
        else:
            dist, x = _model(rng)
        dists.append(dist)
        obs.append(x)
    return dists, obs


def _surveil(rng, outbreaks=3):
    """A 20-region, 52-week panel of Poisson counts at rate 2e-5, with a few outbreak cells."""
    pops = np.rint(rng.lognormal(np.log(5e5), 0.6, 20))
    means = 2e-5 * np.repeat(pops, 52).reshape(20, 52)
    for r, w in zip(rng.integers(20, size=outbreaks), rng.integers(52, size=outbreaks)):
        means[r, w] *= 6.0
    regions = np.repeat([f"R{r:02d}" for r in range(20)], 52).tolist()
    weeks = np.tile([f"W{w:02d}" for w in range(52)], 20).tolist()
    return CountPanel(regions, weeks, rng.poisson(means).ravel(), np.repeat(pops, 52))


def test_bounds_and_decisions():
    rng = np.random.default_rng(3001)
    digest = _Digest()
    for _ in range(300):
        dists, obs = _panel(rng, int(rng.integers(1, 9)))
        alpha = float(np.exp(rng.uniform(np.log(1e-300), np.log(0.5))))
        bounds = pvalue_bounds(dists, obs)
        digest.bounds(bounds)
        digest.decision(bounds.decide(alpha))
    assert digest.hexdigest() == (
        "6bb258a719c79dd49c9231555d8e51ca1754f06b8e21fd41389ea21f2604ad03"
    )


def test_enumerated_bounds():
    rng = np.random.default_rng(3006)
    digest = _Digest()
    for _ in range(200):
        dists, obs = _panel(rng, int(rng.integers(1, 5)))
        bounds = enumerate_pvalue_bounds(dists, obs)
        digest.add(bounds.lower, bounds.upper, bounds.argmax_upper_cell, bounds.argmax_lower_cell)
    assert digest.hexdigest() == (
        "8b45ae1bc416ab033a498e919aa4e8b4d30e5bab7f2360781df0c5de8f2c1e55"
    )


def test_extremeness_scores():
    rng = np.random.default_rng(3002)
    digest = _Digest()
    for seed in range(100):
        dists, obs = _panel(rng, int(rng.integers(1, 13)))
        scores = extremeness_panel(dists, obs, RandomStream(seed))
        alpha = float(np.exp(rng.uniform(np.log(1e-12), np.log(0.5))))
        digest.add(np.asarray(scores.survival, dtype=float))
        digest.add(np.asarray(scores.randomizers_used, dtype=float))
        digest.add(scores.argmax_index, phi_randomized(scores, alpha))
    assert digest.hexdigest() == (
        "1f854e6ce64534e92418ba465bf5f95d177441091a98f8ffefb52c9282ba6e53"
    )


def test_epidemic_and_peel_reports():
    rng = np.random.default_rng(3003)
    fixture = cli.ingest(FIXTURE)
    order = rng.permutation(fixture.n)
    columns = (fixture.region_ids, fixture.period_ids, fixture.counts, fixture.populations)
    shuffled = CountPanel(*(np.asarray(c)[order] for c in columns))
    digest = _Digest()
    for panel, rate in [(shuffled, PUBLISHED_RATE)] + [(_surveil(rng), 2e-5) for _ in range(3)]:
        for lam in (rate, None):
            for alpha, seed in ((0.01, 7), (0.05, None), (1e-4, 11)):
                digest.report(epidemic_test(panel, lam=lam, alpha=alpha, seed=seed))
                for report in peel_test(panel, lam=lam, alpha=alpha, max_rounds=5, seed=seed):
                    digest.report(report)
    assert digest.hexdigest() == (
        "22760091463b68bd9bfaa4285444abfefcf7026f7787432636883ee8a046aff2"
    )


def test_simulation_results():
    rng = np.random.default_rng(3004)
    digest = _Digest()
    for _ in range(50):
        dists, _ = _panel(rng, int(rng.integers(1, 6)))
        alternative = None
        if rng.random() < 0.4:
            cell = int(rng.integers(len(dists)))
            alternative = Alternative(cell, Poisson(float(rng.uniform(2.0, 20.0))))
        config = SimulationConfig(
            panel_template=tuple(dists),
            alpha=float(np.exp(rng.uniform(np.log(1e-4), np.log(0.5)))),
            n_trials=int(rng.integers(1000, 3001)),
            seed=int(rng.integers(2**32)),
            alternative=alternative,
        )
        result = simulate_size_and_power(config)
        digest.add(result.rejection_rate, result.std_error, result.n_trials)
    assert digest.hexdigest() == (
        "d9a612051e2f6165ee992ff1f852f8afdb4f5d30cd2ce1707ab8a2e6d985c553"
    )


def test_fixture_cli_stdout(monkeypatch):
    monkeypatch.delenv(cli.ENV_SEED, raising=False)
    runs = [
        [],
        ["--alpha", "0.01", "--lambda", str(PUBLISHED_RATE)],
        ["--mode", "peel", "--alpha", "0.01", "--seed", "7"],
        ["--mode", "peel", "--alpha", "0.01", "--lambda", str(PUBLISHED_RATE), "--seed", "7"],
        ["--mode", "simulate-null", "--seed", "1", "--trials", "1000"],
    ]
    digest = _Digest()
    for args in runs:
        for fmt in ("text", "json"):
            out = io.StringIO()
            with redirect_stdout(out):
                status = cli.main(["--input", FIXTURE, *args, "--format", fmt])
            digest.add(status, out.getvalue())
    assert digest.hexdigest() == (
        "cb2462aef3adf70bbe2a66aa24ff8f7b37bd2378cdac015ae36d82df1bf57bc0"
    )
