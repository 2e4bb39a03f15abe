"""Tests for the Monte Carlo harness, exact enumeration, and KS check."""

import contextlib
import dataclasses
import itertools
import json
import math
import os
import signal
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from bulk import BULK_MODELS, SIZE
from fresh_process import run_python
from zero_draws import zero_draws

from extreme_sentinel import CountPanel, distributions, verify
from extreme_sentinel.cli import ingest
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
    DomainError,
    ParameterError,
    ShapeError,
    SizeError,
)
from extreme_sentinel.monotone import ModelPair, alt_extremeness_cdf
from extreme_sentinel.pit import _survival_brackets, _survival_scores, randomized_pit
from extreme_sentinel.surveillance import (
    _panel_brackets,
    listeriosis_fixture_path,
    null_distributions,
)
from extreme_sentinel.umptest import _survival_cut, power_single_alternative, pvalue_bounds
from extreme_sentinel.verify import (
    Alternative,
    SimulationConfig,
    SimulationResult,
    enumerate_pvalue_bounds,
    ks_uniformity,
    simulate_size_and_power,
)


class TestSimulationConfig:
    def test_validation(self):
        dists = (Poisson(1.0),)
        with pytest.raises(ShapeError):
            SimulationConfig(panel_template=(), alpha=0.05, n_trials=1000, seed=1)
        with pytest.raises(ParameterError):
            SimulationConfig(panel_template=dists, alpha=0.05, n_trials=999, seed=1)
        with pytest.raises(ParameterError):
            SimulationConfig(panel_template=dists, alpha=0.05, n_trials=1000, seed=None)
        with pytest.raises(ParameterError, match="must hold NullDistribution"):
            SimulationConfig(panel_template=(*dists, 1.0), alpha=0.05, n_trials=1000, seed=1)
        with pytest.raises(ParameterError, match="alternative model must be"):
            SimulationConfig(dists, 0.05, 1000, 1, alternative=Alternative(0, 2.0))
        with pytest.raises(DomainError):
            SimulationConfig(panel_template=dists, alpha=1.0, n_trials=1000, seed=1)
        for alpha in (True, "0.05", None, math.nan, math.inf):
            with pytest.raises(DomainError):
                SimulationConfig(panel_template=dists, alpha=alpha, n_trials=1000, seed=1)
        for n_trials in (True, "1000", None, math.nan, math.inf, 1000.0):
            with pytest.raises(ParameterError):
                SimulationConfig(panel_template=dists, alpha=0.05, n_trials=n_trials, seed=1)
        for seed in (-1, 2.5, True, "1", math.nan):
            with pytest.raises(ParameterError):
                SimulationConfig(panel_template=dists, alpha=0.05, n_trials=1000, seed=seed)
        with pytest.raises(ParameterError):
            SimulationConfig(
                panel_template=dists,
                alpha=0.05,
                n_trials=1000,
                seed=1,
                alternative=Alternative(5, Poisson(2.0)),
            )
        with pytest.raises(ParameterError):
            SimulationConfig(
                panel_template=(Poisson(1.0), Poisson(2.0)),
                alpha=0.05,
                n_trials=1000,
                seed=1,
                alternative=Alternative(True, Poisson(4.0)),
            )
        for alternative in ((0, Poisson(2.0)), 3):
            with pytest.raises(ParameterError):
                SimulationConfig(dists, 0.05, 1000, 1, alternative)
        with pytest.raises(ShapeError):
            SimulationConfig(Poisson(1.0), 0.05, 1000, 1)


class TestSimulateSizeAndPower:
    def test_null_size_within_three_se(self):
        dists = tuple(Poisson(m) for m in (0.3, 1.0, 2.5, 0.05, 4.0))
        cfg = SimulationConfig(panel_template=dists, alpha=0.05, n_trials=40_000, seed=11)
        res = simulate_size_and_power(cfg)
        se = math.sqrt(0.05 * 0.95 / cfg.n_trials)
        assert abs(res.rejection_rate - 0.05) <= 3 * se
        assert res.n_trials == 40_000

    def test_mixed_kinds_null_size(self):
        dists = (
            Poisson(1.3),
            Binomial(10, 0.3),
            TabulatedDiscrete((0.0, 1.5, 2.0), (0.2, 0.3, 0.5)),
            Uniform01(),
        )
        cfg = SimulationConfig(panel_template=dists, alpha=0.1, n_trials=40_000, seed=12)
        res = simulate_size_and_power(cfg)
        se = math.sqrt(0.1 * 0.9 / cfg.n_trials)
        assert abs(res.rejection_rate - 0.1) <= 3 * se

    def test_seed_determinism(self):
        dists = (Poisson(1.0), Poisson(2.0))
        cfg = SimulationConfig(panel_template=dists, alpha=0.05, n_trials=5000, seed=77)
        assert simulate_size_and_power(cfg) == simulate_size_and_power(cfg)

    def test_degenerate_swap_is_bit_identical(self):
        dists = (Poisson(0.8), Poisson(1.6), Binomial(7, 0.4))
        base = SimulationConfig(panel_template=dists, alpha=0.05, n_trials=5000, seed=31)
        swapped = SimulationConfig(
            panel_template=dists,
            alpha=0.05,
            n_trials=5000,
            seed=31,
            alternative=Alternative(1, Poisson(1.6)),
        )
        assert simulate_size_and_power(base).rejection_rate == simulate_size_and_power(
            swapped
        ).rejection_rate

    def test_power_matches_analytic_value(self):
        # One cell swapped to a dominating alternative: the Monte Carlo
        # rate must agree with the closed-form rejection probability.
        n = 5
        dists = tuple(Poisson(1.0) for _ in range(n))
        pair = ModelPair(Poisson(1.0), Poisson(6.0))
        alpha = 0.05
        theory = power_single_alternative(
            lambda y: alt_extremeness_cdf(pair, y), alpha, n
        )
        cfg = SimulationConfig(
            panel_template=dists,
            alpha=alpha,
            n_trials=40_000,
            seed=99,
            alternative=Alternative(2, Poisson(6.0)),
        )
        res = simulate_size_and_power(cfg)
        se = math.sqrt(theory * (1 - theory) / cfg.n_trials)
        assert abs(res.rejection_rate - theory) <= 3 * se
        assert res.rejection_rate > alpha  # domination means real power

    @pytest.mark.parametrize(
        "alternative, rate, std_error",
        [
            (Alternative(0, Poisson(4.0)), 0.50775, 0.00790474442186463),
            (Alternative(1, Binomial(10, 0.7)), 0.75825, 0.006769544620947557),
            (
                Alternative(2, TabulatedDiscrete((0.0, 1.5, 2.0), (0.05, 0.15, 0.8))),
                0.1175,
                0.005091506407734355,
            ),
            (
                Alternative(1, ContinuousByCdf(lambda x: (x / 8.0) ** 2, 0.0, 8.0)),
                0.4695,
                0.007890971898315188,
            ),
            (Alternative(3, Poisson(0.4)), 0.3865, 0.007699314092826711),
        ],
        ids=["poisson", "binomial", "tabulated", "continuous-law", "poisson-in-uniform"],
    )
    def test_swapped_cell_results_frozen(self, alternative, rate, std_error):
        # Frozen from the harness that evaluated the null CDF at every draw
        # of the swapped cell; the tabulated brackets must not move a bit.
        template = (
            Poisson(1.3),
            Binomial(10, 0.3),
            TabulatedDiscrete((0.0, 1.5, 2.0), (0.2, 0.3, 0.5)),
            Uniform01(),
        )
        cfg = SimulationConfig(template, 0.1, 4000, 2024, alternative)
        res = simulate_size_and_power(cfg)
        assert (res.rejection_rate, res.std_error) == (rate, std_error)

    @pytest.mark.parametrize("alpha", [5e-17, 1e-200])
    def test_far_swap_rejects_where_t_rounds_to_one(self, alpha):
        # Every Poisson(1e4) draw has null survival brackets of 0, below any s.
        swap = Alternative(0, Poisson(1e4))
        cfg = SimulationConfig((Poisson(1.0),), alpha, 1000, 17, swap)
        assert simulate_size_and_power(cfg).rejection_rate == 1.0

    def test_null_never_rejects_at_tiny_alpha(self):
        cfg = SimulationConfig((Poisson(1.0),), 1e-200, 1000, 17)
        assert simulate_size_and_power(cfg).rejection_rate == 0.0


def reference_simulate(config):
    """The harness as a per-cell loop: every draw of every cell searched and scored."""
    dists = config.panel_template
    n = len(dists)
    s = _survival_cut(config.alpha, n)
    laws = list(dists)
    if config.alternative is not None:
        laws[config.alternative.cell_index] = config.alternative.alt_dist
    stream = RandomStream(config.seed)
    hits = 0
    done = 0
    while done < config.n_trials:
        m = min(verify._CHUNK, config.n_trials - done)
        u = stream.uniform_open((m, n))
        v = stream.uniform_open((m, n))
        min_score = np.ones(m)
        for j, (d, law) in enumerate(zip(dists, laws)):
            if d.continuous or law.continuous:
                x = law.skorokhod_quantile(u[:, j])
                left = np.asarray(d.sf_left(x), dtype=float)
                right = np.asarray(d.sf(x), dtype=float)
            else:
                pts, cdf = law._ladder
                k = np.minimum(np.searchsorted(cdf, u[:, j], side="left"), cdf.size - 1)
                left = np.asarray(d.sf_left(pts), dtype=float)[k]
                right = np.asarray(d.sf(pts), dtype=float)[k]
            np.minimum(min_score, _survival_scores(left, right, v[:, j]), out=min_score)
        hits += int(np.count_nonzero(min_score < s))
        done += m
    rate = hits / config.n_trials
    se = math.sqrt(rate * (1.0 - rate) / config.n_trials)
    return SimulationResult(rejection_rate=rate, std_error=se, n_trials=config.n_trials)


def random_law(rng):
    """One model of a random kind: Poisson with a log-normal mean, Binomial,
    TabulatedDiscrete, Uniform01 or ContinuousByCdf."""
    # ContinuousByCdf bisects every draw, so it is drawn least often.
    kind = rng.choice(5, p=(0.3, 0.2, 0.3, 0.15, 0.05))
    if kind == 0:
        return Poisson(float(np.exp(rng.normal(0.0, 2.0))))
    if kind == 1:
        return Binomial(int(rng.integers(1, 40)), float(rng.uniform(0.01, 0.99)))
    if kind == 2:
        k = int(rng.integers(1, 6))
        support = np.unique(np.round(rng.uniform(-5.0, 30.0, size=k), 1))
        return TabulatedDiscrete(tuple(support), tuple(rng.dirichlet(np.ones(support.size))))
    if kind == 3:
        return Uniform01()
    c = float(rng.uniform(0.3, 4.0))
    return ContinuousByCdf(lambda x, c=c: x**c)


def random_config(rng):
    n = int(rng.integers(1, 7))
    template = tuple(random_law(rng) for _ in range(n))
    alternative = Alternative(int(rng.integers(n)), random_law(rng)) if rng.random() < 0.5 else None
    return SimulationConfig(
        panel_template=template,
        alpha=float(10.0 ** rng.uniform(-200.0, math.log10(0.5))),
        n_trials=int(np.exp(rng.uniform(math.log(1000), math.log(45_001)))),
        seed=int(rng.integers(2**31)),
        alternative=alternative,
    )


class TestCutMatchesEveryDrawScored:
    def test_random_configs(self):
        rng = np.random.default_rng(20141)
        rates = []
        for _ in range(300):
            cfg = random_config(rng)
            res = simulate_size_and_power(cfg)
            assert res == reference_simulate(cfg), cfg
            rates.append(res.rejection_rate)
        # The sweep must reach trials that reject, not only all-accept runs.
        assert sum(0.0 < r < 1.0 for r in rates) >= 30
        assert any(r == 1.0 for r in rates)

    def test_one_point_null_makes_every_draw_a_candidate(self):
        point = TabulatedDiscrete((0.0,), (1.0,))
        template = (point, Poisson(2.0))
        s = _survival_cut(0.05, 2)
        assert verify._Tables.build(template, template, s).cuts[0] == -math.inf
        cfg = SimulationConfig(template, 0.05, 5000, 3)
        res = simulate_size_and_power(cfg)
        assert res == reference_simulate(cfg)
        assert 0.0 < res.rejection_rate < 1.0

    def test_cell_that_cannot_reject_has_no_cut(self):
        # Poisson(1)'s brackets stay far above s at alpha 1e-200; the swapped cell rejects.
        template = (Poisson(1.0), Poisson(1.0))
        s = _survival_cut(1e-200, 2)
        assert verify._Tables.build(template, template, s).cuts[0] == math.inf
        cfg = SimulationConfig(template, 1e-200, 3000, 5, Alternative(1, Poisson(300.0)))
        res = simulate_size_and_power(cfg)
        assert res == reference_simulate(cfg)
        assert res.rejection_rate == 1.0

    def test_chunk_without_candidates(self):
        template = (Poisson(1.0),)
        cfg = SimulationConfig(template, 1e-5, 1000, 8)
        cut = verify._Tables.build(template, template, _survival_cut(1e-5, 1)).cuts[0]
        assert 0.0 < cut < 1.0
        u = RandomStream(8).uniform_open((1000, 1))
        assert not np.any(u > cut)
        assert simulate_size_and_power(cfg) == reference_simulate(cfg)

    def test_one_trial_last_chunk(self):
        template = (Poisson(1.3), Binomial(10, 0.3), Uniform01())
        for alternative in (None, Alternative(0, Poisson(4.0))):
            cfg = SimulationConfig(template, 0.1, 20_001, 6, alternative)
            assert simulate_size_and_power(cfg) == reference_simulate(cfg)

    def test_continuous_law_swap(self):
        template = (Poisson(1.3), Binomial(10, 0.3), TabulatedDiscrete((0.0, 1.5), (0.4, 0.6)))
        swap = Alternative(1, ContinuousByCdf(lambda x: (x / 8.0) ** 2, 0.0, 8.0))
        cfg = SimulationConfig(template, 0.1, 4000, 9, swap)
        laws = (template[0], swap.alt_dist, template[2])
        assert verify._Tables.build(template, laws, 0.5).cuts[1] == math.inf
        res = simulate_size_and_power(cfg)
        assert res == reference_simulate(cfg)
        assert 0.0 < res.rejection_rate < 1.0


class TestFixtureTemplateFrozen:
    """The benchmark-scale runs on the bundled panel, frozen from the harness
    that searched and scored every draw."""

    @pytest.fixture(scope="class")
    def template(self):
        return tuple(null_distributions(ingest(listeriosis_fixture_path()), 9.703e-7))

    def test_size(self, template):
        res = simulate_size_and_power(SimulationConfig(template, 0.05, 50_000, 123))
        assert res == SimulationResult(0.0494, 0.0009691196004621927, 50_000)

    def test_power(self, template):
        swap = Alternative(5, Poisson(8 * template[5].mean))
        res = simulate_size_and_power(SimulationConfig(template, 0.05, 50_000, 456, swap))
        assert res == SimulationResult(0.90858, 0.0012888939723654537, 50_000)


class TestFixtureTemplateAtSize:
    """The fixture template at SIZE trials (tests/bulk.py), against the per-cell loop."""

    def test_size_and_power_draw_each_chunk_once(self, monkeypatch):
        template = tuple(null_distributions(ingest(listeriosis_fixture_path()), 9.703e-7))
        n = len(template)
        calls = []
        random_at = verify._random_at

        def recorded(bits, offsets):
            calls.append(np.array(offsets))
            return random_at(bits, offsets)

        monkeypatch.setattr(verify, "_random_at", recorded)
        swap = Alternative(5, Poisson(8 * template[5].mean))
        for cfg in (
            SimulationConfig(template, 0.05, SIZE, 123),
            SimulationConfig(template, 0.05, SIZE, 456, swap),
        ):
            calls.clear()
            assert simulate_size_and_power(cfg) == reference_simulate(cfg), cfg.seed
            # The v positions of every piece that reads at most its share, by chunk:
            # a candidate at trial r, cell c of the chunk at trial t, of m trials, is
            # read at draw (t + m + r)n + c, inside the chunk's v block.
            laws = list(template)
            if cfg.alternative is not None:
                laws[5] = swap.alt_dist
            cuts = verify._Tables.build(template, laws, _survival_cut(0.05, n)).cuts
            stream, expected, chunks, filled = RandomStream(cfg.seed), [], [], 0
            for t in range(0, SIZE, verify._CHUNK):
                m = min(verify._CHUNK, SIZE - t)
                past = stream.uniform_open((m, n)) > cuts
                stream.uniform_open((m, n))
                reads = []
                for a, k in [(a, k) for c, _, a, k in verify._pieces(SIZE, n) if c == t]:
                    rows = past[a - t : a - t + k]
                    if rows.sum() > verify._FILL_SHARE * k * n:
                        filled += 1
                    else:
                        reads.append((t + m + a) * n + np.flatnonzero(rows))
                if reads:
                    expected.append(np.concatenate(reads))
                    chunks.append((t, m))
            assert len(calls) == len(expected), cfg.seed
            for (t, m), got, want in zip(chunks, calls, expected):
                assert np.all((2 * t + m) * n <= got) and np.all(got < 2 * (t + m) * n)
                assert np.array_equal(np.sort(got), want)
            if cfg.alternative is None:
                # The size run reads about 0.3% of its cells: its chunks are drawn.
                assert len(calls) >= 1
            else:
                # The power run's swapped cell passes its cut in about 2.6% of its cells.
                assert filled >= 1


class TestPieces:
    """The same stream cut into row pieces that run on worker threads."""

    def test_random_configs_in_pieces(self, monkeypatch):
        rng = np.random.default_rng(20141)
        short = 0
        for _ in range(300):
            cfg = random_config(rng)
            # Six pieces of a first chunk. Unless the last chunk's rows divide by
            # rows, at least one of its pieces is shorter than rows.
            n, rows = len(cfg.panel_template), min(cfg.n_trials, verify._CHUNK) // 5 - 1
            monkeypatch.setattr(verify, "_PIECE_CELLS", n * rows)
            short += cfg.n_trials % verify._CHUNK % rows != 0
            assert simulate_size_and_power(cfg) == reference_simulate(cfg), cfg
        assert short >= 290

    def test_equal_pieces_cover_each_chunk_once(self, monkeypatch):
        rng = np.random.default_rng(2027)
        cases = [(50_000, 40, 2**18), (20_001, 3, 12), (1000, 7, 1), (45_000, 1, 2**18)]
        for _ in range(300):
            trials, n = int(rng.integers(1000, 60_000)), int(rng.integers(1, 300))
            cases.append((trials, n, int(rng.integers(1, 2**19))))
        for trials, n, cells in cases:
            monkeypatch.setattr(verify, "_PIECE_CELLS", cells)
            pieces = list(verify._pieces(trials, n))
            covered = np.concatenate([np.arange(a, a + k) for _, _, a, k in pieces])
            assert np.array_equal(covered, np.arange(trials)), (trials, n, cells)
            for t in range(0, trials, verify._CHUNK):
                chunk = [(m, a, k) for c, m, a, k in pieces if c == t]
                sizes = [k for _, _, k in chunk]
                assert {m for m, _, _ in chunk} == {min(verify._CHUNK, trials - t)}
                assert {a // verify._CHUNK * verify._CHUNK for _, a, _ in chunk} == {t}
                assert max(sizes) <= max(cells // n, 1) and max(sizes) - min(sizes) <= 1
        # The benchmark's fixture runs: four pieces of 5000 rows per full chunk, two per half chunk.
        monkeypatch.setattr(verify, "_PIECE_CELLS", 2**18)
        assert [k for *_, k in verify._pieces(50_000, 40)] == [5000] * 10

    def test_pieces_of_three_rows(self, monkeypatch):
        monkeypatch.setattr(verify, "_PIECE_CELLS", 12)
        template = (
            Poisson(1.3),
            Binomial(10, 0.3),
            TabulatedDiscrete((0.0, 1.5, 2.0), (0.2, 0.3, 0.5)),
            ContinuousByCdf(lambda x: (x / 8.0) ** 2, 0.0, 8.0),
        )
        cfg = SimulationConfig(template, 0.1, 2000, 21, Alternative(0, Poisson(4.0)))
        res = simulate_size_and_power(cfg)
        assert res == reference_simulate(cfg)
        assert 0.0 < res.rejection_rate < 1.0

    def test_more_workers_than_cpus_with_a_short_switch_interval(self, monkeypatch):
        # Pieces share the result arrays and the spare blocks: a lost or
        # crossed write would move the rate.
        monkeypatch.setattr(verify, "_PIECE_CELLS", 40)
        monkeypatch.setattr(verify, "_workers", lambda: 8)
        template = (Poisson(1.3), Binomial(10, 0.3), Poisson(0.4), Uniform01())
        cfg = SimulationConfig(template, 0.2, 6000, 13, Alternative(2, Poisson(3.0)))
        expected = reference_simulate(cfg)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                assert simulate_size_and_power(cfg) == expected
        finally:
            sys.setswitchinterval(interval)

    # Positions in the stream of 21,000 trials of 4 cells, each in a piece's
    # u or v block: the first and last draw of each block of the first
    # chunk, draws of the continuous cells 2 and 3, and the second chunk.
    @pytest.mark.parametrize(
        "zero", [0, 12_071, 79_999, 80_000, 100_002, 159_999, 162_003, 167_999]
    )
    @pytest.mark.parametrize("workers", [1, 8])
    def test_a_zero_draw_scores_as_the_lifted_stream(self, monkeypatch, zero, workers):
        monkeypatch.setattr(verify, "_PIECE_CELLS", 4000)
        monkeypatch.setattr(verify, "_workers", lambda: workers)
        template = (
            Poisson(1.3),
            Binomial(10, 0.3),
            Uniform01(),
            ContinuousByCdf(lambda x: (x / 8.0) ** 2, 0.0, 8.0),
        )
        cfg = SimulationConfig(template, 0.2, 21_000, 17, Alternative(0, Poisson(4.0)))
        hits = zero_draws(monkeypatch, (zero,))
        # uniform_open lifts the 0.0; a continuous cell's quantile would refuse it.
        expected = reference_simulate(cfg)
        assert hits == [zero]
        assert simulate_size_and_power(cfg) == expected
        assert hits == [zero, zero]

    # A discrete template's pieces draw v at their candidates only: a 0.0 at a
    # candidate's v position is drawn and lifted, and one at any other v
    # position is drawn by the reference's stream alone.
    @pytest.mark.parametrize("candidate", [True, False], ids=["candidate", "non-candidate"])
    @pytest.mark.parametrize("workers", [1, 8])
    def test_a_zero_draw_at_random_access_scores_as_the_lifted_stream(
        self, monkeypatch, candidate, workers
    ):
        monkeypatch.setattr(verify, "_PIECE_CELLS", 4000)
        monkeypatch.setattr(verify, "_workers", lambda: workers)
        template = (Poisson(1.3), Binomial(10, 0.3), Poisson(0.4), Poisson(2.2))
        cfg = SimulationConfig(template, 0.005, 21_000, 17)
        cuts = verify._Tables.build(template, template, _survival_cut(0.005, 4)).cuts
        past = (RandomStream(17).uniform_open((verify._CHUNK, 4)) > cuts).ravel()
        # The first chunk's v block follows its 80,000 u draws.
        chosen = np.flatnonzero(past == candidate)
        zero = 80_000 + int(chosen[chosen.size // 2])
        lifted = []
        rejecting = verify._Tables.rejecting

        def recorded_rejecting(tables, cells, u, v):
            lifted.extend(v[v <= 2.0**-54].tolist())
            return rejecting(tables, cells, u, v)

        monkeypatch.setattr(verify._Tables, "rejecting", recorded_rejecting)
        hits = zero_draws(monkeypatch, (zero,))
        expected = reference_simulate(cfg)
        assert hits == [zero]
        assert simulate_size_and_power(cfg) == expected
        assert hits == ([zero, zero] if candidate else [zero])
        assert lifted == ([2.0**-54] if candidate else [])

    def test_a_piece_fills_its_v_block_only_past_the_share(self, monkeypatch):
        monkeypatch.setattr(verify, "_PIECE_CELLS", 4000)
        sizes, draws = [], []
        buffer, random_at = verify._buffer, verify._random_at

        def recorded_buffer(size):
            sizes.append(size)
            return buffer(size)

        def recorded_random_at(bits, offsets):
            draws.append(np.array(offsets))
            return random_at(bits, offsets)

        monkeypatch.setattr(verify, "_buffer", recorded_buffer)
        monkeypatch.setattr(verify, "_random_at", recorded_random_at)
        template = (Poisson(1.3), Binomial(10, 0.3), Poisson(0.4), Poisson(2.2))
        # Under 1% of the null draws are candidates; the far swap makes every draw of cell 0 one.
        for alternative, fills in ((None, False), (Alternative(0, Poisson(40.0)), True)):
            sizes.clear()
            draws.clear()
            cfg = SimulationConfig(template, 0.005, 3000, 5, alternative)
            assert simulate_size_and_power(cfg) == reference_simulate(cfg)
            # Three pieces of 1000 rows; a filling piece takes a second block for its v rows.
            assert sizes == [4000] * (6 if fills else 3)
            # The one chunk's v block is draws 12,000 to 23,999; the calling thread
            # draws what its pieces read in one call, each piece under the share.
            assert len(draws) == (0 if fills else 1)
            for offsets in draws:
                assert offsets.min() >= 12_000 and offsets.max() < 24_000
                reads = np.bincount((offsets - 12_000) // 4000, minlength=3)
                assert all(0 < r <= verify._FILL_SHARE * 4000 for r in reads)

    @pytest.mark.parametrize("share", [0.0, 1.0], ids=["always-fill", "never-fill"])
    def test_random_configs_on_either_side_of_the_share(self, monkeypatch, share):
        monkeypatch.setattr(verify, "_FILL_SHARE", share)
        monkeypatch.setattr(verify, "_PIECE_CELLS", 5000)
        rng = np.random.default_rng(2031)
        for _ in range(40):
            cfg = random_config(rng)
            assert simulate_size_and_power(cfg) == reference_simulate(cfg), cfg

    def test_model_methods_run_on_the_calling_thread(self, monkeypatch):
        monkeypatch.setattr(verify, "_PIECE_CELLS", 64)
        callers = []

        def recorded(fn):
            def call(*args, **kwargs):
                callers.append(threading.get_ident())
                return fn(*args, **kwargs)

            return call

        for cls in (Poisson, Binomial, ContinuousByCdf):
            for name in ("cdf", "sf", "cdf_left", "sf_left", "mass", "skorokhod_quantile"):
                monkeypatch.setattr(cls, name, recorded(getattr(cls, name)))
        template = (
            Poisson(1.3),
            Binomial(10, 0.3),
            ContinuousByCdf(recorded(lambda x: (x / 8.0) ** 2), 0.0, 8.0),
            Poisson(2.0),
        )
        pieces = set()
        candidates = verify._Tables.candidates

        def recorded_candidates(tables, u):
            pieces.add(threading.get_ident())
            return candidates(tables, u)

        monkeypatch.setattr(verify._Tables, "candidates", recorded_candidates)
        callers.clear()
        for alternative in (None, Alternative(3, Poisson(6.0)), Alternative(0, Binomial(8, 0.5))):
            pieces.clear()
            simulate_size_and_power(SimulationConfig(template, 0.1, 3000, 8, alternative))
            # The pieces ran on the workers, or inline on one CPU.
            inline = verify._workers() == 1
            assert (threading.get_ident() in pieces) == inline
            assert len(pieces) <= verify._workers()
        assert callers and set(callers) == {threading.get_ident()}


class TestKeptPool:
    """The worker pool is kept across calls and built again where it cannot serve."""

    config = SimulationConfig(
        (Poisson(1.3), Binomial(10, 0.3), Poisson(0.4), Uniform01()),
        0.2,
        6000,
        13,
        Alternative(2, Poisson(3.0)),
    )

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")
    def test_a_child_forked_after_a_parallel_call_runs_one(self, monkeypatch):
        monkeypatch.setattr(verify, "_PIECE_CELLS", 400)
        monkeypatch.setattr(verify, "_workers", lambda: 2)
        expected = simulate_size_and_power(self.config)
        read, write = os.pipe()
        # Python 3.12+ warns on a fork in a process with threads, as the kept pool's are.
        forked = (
            pytest.warns(DeprecationWarning, match="multi-threaded")
            if sys.version_info >= (3, 12)
            else contextlib.nullcontext()
        )
        with forked:
            pid = os.fork()
            if pid == 0:
                # The child: a hang on the parent's pool ends in SIGALRM, not a blocked test.
                status = 1
                try:
                    signal.signal(signal.SIGALRM, signal.SIG_DFL)
                    signal.alarm(30)
                    os.write(write, repr(simulate_size_and_power(self.config)).encode())
                    status = 0
                finally:
                    os._exit(status)
        os.close(write)
        with os.fdopen(read) as fh:
            reply = fh.read()
        _, status = os.waitpid(pid, 0)
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0, status
        assert reply == repr(expected)

    def test_workers_without_an_affinity_call(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert verify._workers() == (os.cpu_count() or 1)
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # the count is unknown
        assert verify._workers() == 1

    def test_a_call_after_more_workers_than_cpus_uses_at_most_the_cpus(self, monkeypatch):
        monkeypatch.setattr(verify, "_PIECE_CELLS", 400)
        threads = set()
        buffer = verify._buffer

        def slow_buffer(size):
            # Each piece holds its thread a while, so a pool of 8 starts all 8.
            threads.add(threading.get_ident())
            time.sleep(0.02)
            return buffer(size)

        monkeypatch.setattr(verify, "_buffer", slow_buffer)
        cpus = verify._workers
        monkeypatch.setattr(verify, "_workers", lambda: 8)
        expected = simulate_size_and_power(self.config)
        assert len(threads) == 8
        monkeypatch.setattr(verify, "_workers", cpus)
        threads.clear()
        assert simulate_size_and_power(self.config) == expected
        assert len(threads) <= verify._workers()

    def test_concurrent_calls_that_build_the_pool_again(self, monkeypatch):
        # Each call sees another thread count and replaces the pool that
        # other calls may be about to submit to.
        monkeypatch.setattr(verify, "_PIECE_CELLS", 400)
        expected = simulate_size_and_power(self.config)
        counts = itertools.cycle((2, 3))
        monkeypatch.setattr(verify, "_workers", lambda: next(counts))
        results, errors = [], []

        def caller():
            try:
                for _ in range(3):
                    results.append(simulate_size_and_power(self.config))
            except Exception as exc:  # reported by the assert below
                errors.append(exc)

        callers = [threading.Thread(target=caller) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in callers)
        assert errors == [] and results == [expected] * 12

    # A child pinned to the CPUs in argv[1] runs argv[2] 50,000-trial fixture
    # calls, ten pieces each, so a second call reuses the first one's threads.
    PINNED = """
import json
import os
import sys

os.sched_setaffinity(0, json.loads(sys.argv[1]))
from extreme_sentinel import cli, listeriosis_fixture_path, verify

args = ["--mode", "simulate-null", "--seed", "1", "--trials", "50000"]
for _ in range(int(sys.argv[2])):
    assert cli.main(["--input", str(listeriosis_fixture_path()), *args]) == 0
print(json.dumps([verify._workers(), verify._POOL is not None]), file=sys.stderr)
"""

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
        reason="needs two CPUs this process may pin a child to",
    )
    def test_two_pinned_cpus_run_a_kept_pool_and_one_runs_inline(self):
        two = sorted(os.sched_getaffinity(0))[:2]
        runs = {}
        for cpus, calls in ((two, 2), (two[:1], 1)):
            done = run_python(self.PINNED, json.dumps(cpus), str(calls))
            assert done.returncode == 0, done.stderr
            runs[len(cpus)] = (done.stdout, json.loads(done.stderr.splitlines()[-1]))
        assert runs[2][1] == [2, True]  # two threads on a kept pool
        assert runs[1][1] == [1, False]  # pieces inline, no pool built
        assert "trials=50000  rejection rate=" in runs[1][0]
        assert runs[2][0] == runs[1][0] * 2


class PoissonByCell(Poisson):
    """A Poisson model that ``_Tables.build`` tabulates cell by cell, as any other law."""


class TestOnePassPoissonTables:
    @staticmethod
    def check_pairs(rng, pairs):
        cuts = []
        for _ in range(pairs // 100):
            nulls, laws = 10.0 ** rng.uniform(-3.0, 6.0, size=(2, 100))
            s = 10.0 ** rng.uniform(-300.0, math.log10(0.5))
            tables = [
                verify._Tables.build(tuple(map(cls, nulls)), tuple(map(cls, laws)), s)
                for cls in (Poisson, PoissonByCell)
            ]
            for field in ("keys", "lefts", "rights", "cuts", "seg", "last"):
                ours, theirs = (getattr(table, field) for table in tables)
                assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs), (field, s)
            cuts.extend(tables[0].cuts)
        return np.array(cuts)

    def test_bit_identical_to_cell_tables(self):
        cuts = self.check_pairs(np.random.default_rng(2024), 2000)
        assert np.any(cuts == -math.inf) and np.any(cuts == math.inf)
        assert np.any(np.isfinite(cuts))

    def test_widened_windows(self, monkeypatch):
        # Windows of +-2 sd: both widening loops run, in both builds.
        def narrow(mean, sd, top=math.inf):
            lo = np.maximum(np.floor(mean - 2.0 * sd), 0.0)
            return lo, np.ceil(np.minimum(mean + 2.0 * sd, top))

        monkeypatch.setattr(distributions, "_ladder_window", narrow)
        self.check_pairs(np.random.default_rng(2025), 1000)

    @staticmethod
    def counting_sf(monkeypatch):
        """The points of every ``distributions._poisson_sf`` call, as a list."""
        points = []
        sf = distributions._poisson_sf

        def counting(k, mean):
            points.append(np.size(k))
            return sf(k, mean)

        monkeypatch.setattr(distributions, "_poisson_sf", counting)
        return points

    def test_fixture_template_takes_one_sf_call(self, monkeypatch):
        template = tuple(null_distributions(ingest(listeriosis_fixture_path()), 9.703e-7))
        points = self.counting_sf(monkeypatch)
        tables = verify._Tables.build(template, template, _survival_cut(0.05, len(template)))
        # Each ladder's points and the one before its first; a cell whose null
        # mean is its left neighbour's shares that cell's ladder, and adds no point.
        sizes = np.diff(tables.last, prepend=-1)
        means = np.array([d.mean for d in template])
        shared = np.flatnonzero(means[1:] == means[:-1]) + 1
        assert shared.size == 1  # one region's population repeats from one year to the next
        assert points == [tables.keys.size + len(template) - (sizes[shared] + 1).sum()]

    def test_adjacent_cells_sharing_a_null_mean(self, monkeypatch):
        # Cells 2 and 3 share their null mean, so their ladders form one run;
        # swapping cell 3's law far out makes that run's range outgrow the table.
        means = (0.7, 2.5, 4.0, 4.0, 1.3, 9.0)
        points = self.counting_sf(monkeypatch)
        calls = []
        for law in (None, 1e4):
            built = []
            for cls in (Poisson, PoissonByCell):
                dists = tuple(map(cls, means))
                laws = dists if law is None else dists[:3] + (cls(law),) + dists[4:]
                points.clear()
                built.append(verify._Tables.build(dists, laws, 1e-3))
                calls.append(len(points))
            for field in ("keys", "lefts", "rights", "cuts", "seg", "last"):
                ours, theirs = (getattr(tables, field) for tables in built)
                assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs), (law, field)
        # The shared run takes the table; the swapped one falls back to two calls.
        assert calls[0] == 1 and calls[2] == 2

    def test_bulk_brackets_against_the_per_model_pass(self, monkeypatch):
        # A panel of SIZE cells, regions x 25 periods, in both row orders, and a
        # template of SIZE means: bit for bit what one model per cell gives.
        points = self.counting_sf(monkeypatch)
        rng = np.random.default_rng(2029)
        regions, periods, rate = SIZE // 25, 25, 2e-5
        pops = np.repeat(np.rint(rng.lognormal(np.log(5e5), 0.6, regions)), periods)
        counts = rng.poisson(rate * pops)
        ids = (
            np.repeat([f"R{r}" for r in range(regions)], periods).tolist(),
            np.tile([f"W{w}" for w in range(periods)], regions).tolist(),
        )
        order = np.arange(pops.size).reshape(regions, periods).T.ravel()
        for name, rows, calls in (("region-major", slice(None), 1), ("period-major", order, 2)):
            panel = CountPanel(*(np.asarray(c)[rows] for c in (*ids, counts, pops)))
            points.clear()
            got = _panel_brackets(panel.counts, panel.populations, rate)
            assert len(points) == calls, (name, points)  # the table, or two direct calls
            want = _survival_brackets(null_distributions(panel, rate), panel.counts.tolist())
            assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want, strict=True)), name
        means = rng.uniform(0.2, 3.0, SIZE)
        s = 0.05 / means.size
        one, per_cell = (
            verify._Tables.build(t, t, s)
            for t in (tuple(map(cls, means)) for cls in (Poisson, PoissonByCell))
        )
        for field in ("keys", "lefts", "rights", "cuts", "seg", "last"):
            a, b = getattr(one, field), getattr(per_cell, field)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field


class TestOneCutRule:
    def test_cut_of_every_discrete_cell_matches_its_definition(self):
        rng = np.random.default_rng(2026)
        finite = 0
        for _ in range(200):
            n = int(rng.integers(1, 9))
            dists = tuple(random_law(rng) for _ in range(n))
            # Half the laws are swapped, most often to another family.
            laws = tuple(random_law(rng) if rng.random() < 0.5 else d for d in dists)
            s = 10.0 ** rng.uniform(-300.0, math.log10(0.5))
            cuts = verify._Tables.build(dists, laws, s).cuts
            for j, (d, law) in enumerate(zip(dists, laws)):
                if d.continuous or law.continuous:
                    assert cuts[j] == math.inf
                    continue
                pts, cdf = law._ladder
                brackets = np.minimum(d.sf_left(pts), d.sf(pts))
                below = np.flatnonzero(brackets < s)
                if below.size == 0:
                    expected = math.inf
                elif below[0] == 0:
                    expected = -math.inf
                else:
                    expected = cdf[below[0] - 1]
                assert cuts[j] == expected, (d, law, s)
                finite += math.isfinite(expected)
        assert finite >= 50


class TestCandidates:
    """``_Tables.candidates`` finds the set ``np.flatnonzero(u > cuts)``."""

    def test_equal_to_the_broadcast_compare_as_a_set(self):
        rng = np.random.default_rng(2033)
        base = verify._Tables.build((Poisson(1.0),), (Poisson(1.0),), 0.5)
        rechecked = split_cases = 0
        for case in range(1200):
            n = 1 if case % 5 == 0 else int(rng.integers(2, 100))
            split = 1.0 - 1.0 / n
            # Cuts at or above 1 - 1/n, some exactly at it and some +inf, and cuts below
            # it, some -inf. Cells are below with probability 0.3, all or none of them
            # are, or from 1 to n/16 of them are, so both ways of comparing them run.
            high = rng.uniform(split, 1.0, n)
            high[rng.random(n) < 0.1] = split
            high[rng.random(n) < 0.2] = math.inf
            low = np.where(
                (rng.random(n) < 0.3) | (split == 0.0), -math.inf, rng.uniform(0.0, split, n)
            )
            mode = case % 4
            if mode == 3:
                few = int(rng.integers(1, max(n // 16, 1) + 1))
                below = np.zeros(n, dtype=bool)
                below[rng.choice(n, few, replace=False)] = True
            else:
                below = rng.random(n) < (0.3, 1.0, 0.0)[mode]
            cuts = np.where(below, low, high)
            u = rng.random((int(rng.integers(1, 600)), n))
            # Draws equal to their cell's cut do not pass it.
            ties = rng.integers(u.size, size=3)
            ties = ties[np.isfinite(cuts[ties % n])]
            u.flat[ties] = cuts[ties % n]
            got = dataclasses.replace(base, cuts=cuts).candidates(u)
            assert got.dtype == np.intp
            assert np.array_equal(np.sort(got), np.flatnonzero(u > cuts)), (n, cuts)
            if 16 * below.sum() <= n:
                split_cases += below.any()
                # Draws past the smallest cut at or above 1 - 1/n that only the check
                # of each hit against its own cell's cut leaves out.
                scan = np.where(below, math.inf, cuts).min()
                rechecked += np.count_nonzero((u > scan) & ~(u > cuts))
        assert rechecked >= 1000 and split_cases >= 100


def assert_relative_match(exact, analytic):
    """Relative 1e-12 where both bounds are at least 1e-300, absolute 1e-300 below."""
    for side in ("lower", "upper"):
        a, b = getattr(exact, side), getattr(analytic, side)
        if min(a, b) >= 1e-300:
            assert a == pytest.approx(b, rel=1e-12, abs=0.0), side
        else:
            assert abs(a - b) <= 1e-300, side


class TestEnumeratePValueBounds:
    def test_single_continuous_cell(self):
        b = enumerate_pvalue_bounds([Uniform01()], [0.8])
        assert b.lower == pytest.approx(0.2, abs=1e-12)
        assert b.upper == pytest.approx(0.2, abs=1e-12)
        assert b.argmax_upper_cell == 0 and b.argmax_lower_cell == 0

    def test_zero_bounds_are_positive_zero(self):
        # F(40) rounds to 1, so sf is 0 and 1 - prod(1 - 0) is -expm1(0.0) = -0.0.
        dists, obs = [ContinuousByCdf(lambda x: -np.expm1(-x), 0.0, 60.0)], [40.0]
        for b in (enumerate_pvalue_bounds(dists, obs), pvalue_bounds(dists, obs)):
            assert b.lower == b.upper == 0.0
            assert math.copysign(1.0, b.lower) == math.copysign(1.0, b.upper) == 1.0

    def test_two_zero_counts(self):
        b = enumerate_pvalue_bounds([Poisson(1.0), Poisson(1.0)], [0, 0])
        assert b.lower == pytest.approx(1.0 - math.exp(-2.0), abs=1e-12)
        assert b.upper == 1.0

    def test_agrees_with_analytic_bounds(self):
        dists = [Poisson(1.0), Poisson(2.0)]
        obs = [1, 1]
        exact = enumerate_pvalue_bounds(dists, obs)
        analytic = pvalue_bounds(dists, obs)
        assert exact.lower == pytest.approx(analytic.lower, abs=1e-10)
        assert exact.upper == pytest.approx(analytic.upper, abs=1e-10)
        assert exact.argmax_upper_cell == analytic.argmax_upper_cell
        assert exact.argmax_lower_cell == analytic.argmax_lower_cell

    def test_continuous_and_discrete_cells(self):
        # A continuous cell's brackets both come from its sf.
        dists = [ContinuousByCdf(lambda x: x**2), Poisson(1.0)]
        exact = enumerate_pvalue_bounds(dists, [0.9, 2])
        analytic = pvalue_bounds(dists, [0.9, 2])
        assert analytic.sf_left[0] == analytic.sf_right[0] == pytest.approx(0.19, abs=1e-15)
        assert exact.lower == pytest.approx(analytic.lower, abs=1e-12)
        assert exact.upper == pytest.approx(analytic.upper, abs=1e-12)
        assert exact.argmax_upper_cell == analytic.argmax_upper_cell == 1
        assert exact.argmax_lower_cell == analytic.argmax_lower_cell == 0

    def test_large_mean_enumerates_its_ladder(self):
        # Enumeration covers the ladder window, not every integer from 0.
        exact = enumerate_pvalue_bounds([Poisson(3e5)], [3e5])
        analytic = pvalue_bounds([Poisson(3e5)], [3e5])
        assert exact.lower == pytest.approx(analytic.lower, abs=2e-16)
        assert exact.upper == pytest.approx(analytic.upper, abs=2e-16)

    def test_oracle_agreement_on_random_instances(self):
        rng = np.random.default_rng(606)
        stream = RandomStream(607)

        def random_dist():
            kind = rng.integers(0, 4)
            if kind == 0:
                return Poisson(float(rng.uniform(0.05, 6.0)))
            if kind == 1:
                return Binomial(int(rng.integers(2, 13)), float(rng.uniform(0.1, 0.9)))
            if kind == 2:
                masses = rng.dirichlet(np.ones(int(rng.integers(2, 6))))
                support = np.sort(rng.choice(np.arange(0.0, 12.0, 0.5), masses.size, replace=False))
                return TabulatedDiscrete(tuple(support), tuple(masses / masses.sum()))
            return Uniform01()

        for _ in range(100):
            n = int(rng.integers(1, 5))
            dists = [random_dist() for _ in range(n)]
            obs = [float(d.sample(stream)) for d in dists]
            exact = enumerate_pvalue_bounds(dists, obs)
            analytic = pvalue_bounds(dists, obs)
            assert exact.n == analytic.n == n
            assert exact.lower == pytest.approx(analytic.lower, abs=1e-10)
            assert exact.upper == pytest.approx(analytic.upper, abs=1e-10)
            assert exact.argmax_upper_cell == analytic.argmax_upper_cell
            assert exact.argmax_lower_cell == analytic.argmax_lower_cell

    @pytest.mark.parametrize(
        "dists, obs",
        [
            ([Poisson(1.0)], [18]),
            ([Poisson(1.0)], [25]),
            ([Poisson(1.0)], [30]),
            ([Poisson(1.0), Poisson(3.0)], [30, 2]),
        ],
    )
    def test_deep_tail_matches_analytic(self, dists, obs):
        # F(x) rounds to 1.0 at all these counts; survival space still
        # resolves bounds down to 1e-35.
        assert_relative_match(enumerate_pvalue_bounds(dists, obs), pvalue_bounds(dists, obs))

    def test_deep_tail_values(self):
        b = enumerate_pvalue_bounds([Poisson(1.0)], [30])
        assert b.lower == pytest.approx(4.618e-35, rel=1e-3, abs=0.0)
        assert b.upper == pytest.approx(1.433e-33, rel=1e-3, abs=0.0)

    def test_deep_tail_on_random_panels(self):
        # One cell sits 0-39 steps past the first point where its F == 1.0.
        rng = np.random.default_rng(515)
        stream = RandomStream(516)
        for _ in range(60):
            n = int(rng.integers(1, 5))
            dists = [
                Poisson(float(rng.uniform(0.05, 6.0)))
                if rng.integers(2)
                else Binomial(int(rng.integers(20, 400)), float(rng.uniform(0.01, 0.2)))
                for _ in range(n)
            ]
            obs = [float(d.sample(stream)) for d in dists]
            j = int(rng.integers(n))
            obs[j] = float(dists[j]._ladder[0][-1] + rng.integers(0, 40))
            if isinstance(dists[j], Binomial):
                obs[j] = min(obs[j], dists[j].trials)
            assert_relative_match(enumerate_pvalue_bounds(dists, obs), pvalue_bounds(dists, obs))

    def test_size_and_shape_errors(self):
        with pytest.raises(SizeError):
            enumerate_pvalue_bounds([Poisson(1.0)] * 5, [0] * 5)
        support = np.arange(verify._MAX_SUPPORT + 1.0)
        wide = TabulatedDiscrete(support, np.full(support.size, 1.0 / support.size))
        with pytest.raises(SizeError, match="support of 200001 points"):
            enumerate_pvalue_bounds([wide], [0])
        with pytest.raises(ShapeError):
            enumerate_pvalue_bounds([], [])
        with pytest.raises(ShapeError):
            enumerate_pvalue_bounds([Poisson(1.0)], [0, 1])
        with pytest.raises(ShapeError):
            enumerate_pvalue_bounds([Poisson(1.0)], 3)
        with pytest.raises(ShapeError):
            enumerate_pvalue_bounds((Poisson(1.0) for _ in range(1)), [0])
        with pytest.raises(ShapeError):
            enumerate_pvalue_bounds([Poisson(1.0)], [[1, 2]])
        with pytest.raises(ParameterError, match="must hold NullDistribution instances"):
            enumerate_pvalue_bounds([1.0], [0])

    def test_brackets_that_lose_mass_are_a_contract_error(self):
        class Leaky(Poisson):
            """A Poisson model whose left brackets are its right ones, so they hold no mass."""

            def sf_left(self, x):
                return self.sf(x)

        with pytest.raises(ContractError, match="lost probability mass"):
            enumerate_pvalue_bounds([Leaky(1.0)], [0])


class TestKsUniformity:
    def test_near_perfect_grid_passes(self):
        n = 2000
        res = ks_uniformity(np.arange(1, n + 1) / n)
        assert res.statistic == pytest.approx(1.0 / n, abs=1e-12)
        assert res.pass_at_1pct

    def test_point_mass_fails(self):
        res = ks_uniformity(np.full(1000, 0.5))
        assert res.statistic == pytest.approx(0.5, abs=1e-12)
        assert not res.pass_at_1pct

    def test_null_pit_draws_pass(self):
        stream = RandomStream(20260815)
        dist = Poisson(3.7)
        n = 100_000
        x = dist.sample(stream, n)
        u = stream.uniform_open(n)
        res = ks_uniformity(randomized_pit(dist, x, u))
        assert res.pass_at_1pct
        assert res.critical_value == pytest.approx(1.628 / math.sqrt(n), rel=1e-12)

    @staticmethod
    def out_of_place_statistic(samples):
        """The statistic as the out-of-place expressions: the reference for the one-grid form."""
        arr = np.sort(np.asarray(samples, dtype=float).ravel())
        n = arr.size
        i = np.arange(1, n + 1)
        return float(max(np.max(i / n - arr), np.max(arr - (i - 1) / n)))

    def test_statistic_bit_identical_to_the_out_of_place_expressions(self):
        rng = np.random.default_rng(2029)
        models = (
            Poisson(3.7),
            Binomial(40, 0.3),
            TabulatedDiscrete((0.0, 1.0, 4.0), (0.5, 0.3, 0.2)),
            Uniform01(),
            ContinuousByCdf(lambda x: -np.expm1(-x), 0.0, 60.0),
        )
        for case in range(500):
            n = int(rng.integers(1000, 3000))
            kind = case % 5
            if kind == 0:  # scores of draws under each model, some off it
                dist = models[case // 5 % len(models)]
                stream = RandomStream(case)
                x = dist.sample(stream, n) + (case % 2) * rng.integers(0, 3, n)
                samples = randomized_pit(dist, x, stream.uniform_open(n))
            elif kind == 1:  # ties: a few distinct values
                samples = rng.choice(rng.random(int(rng.integers(1, 20))), n)
            elif kind == 2:  # exact k / n points, with repeats and the ends
                samples = rng.integers(0, n + 1, n) / n
            elif kind == 3:  # exact points of another grid, ties, 0 and 1
                m = int(rng.integers(1, 50))
                samples = rng.integers(0, m + 1, n) / m
            else:  # a 2-D sample
                samples = rng.random((2, n // 2))
            got = ks_uniformity(samples).statistic
            assert got.hex() == self.out_of_place_statistic(samples).hex(), case

    @pytest.mark.parametrize("name", BULK_MODELS)
    def test_bulk_statistic_bit_identical_to_the_out_of_place_expressions(self, name):
        dist = BULK_MODELS[name]()
        stream = RandomStream(28)
        x = dist.sample(stream, SIZE)
        scores = randomized_pit(dist, x, stream.uniform_open(SIZE))
        got = ks_uniformity(scores).statistic
        assert got.hex() == self.out_of_place_statistic(scores).hex()

    def test_statistic_in_at_most_three_arrays_of_the_sample(self):
        # The sorted sample, the grid and one gap buffer of 8n bytes each,
        # plus small temporaries.
        n = 20_000
        samples = np.random.default_rng(28).random(n)
        ks_uniformity(samples)
        tracemalloc.start()
        try:
            ks_uniformity(samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 8 * n + 64 * 1024

    def test_input_validation(self):
        with pytest.raises(ShapeError):
            ks_uniformity([])
        with pytest.raises(ShapeError):
            ks_uniformity(np.linspace(0.01, 0.99, 500))
        with pytest.raises(DomainError):
            ks_uniformity(np.concatenate([np.full(1500, 0.5), [1.2]]))
