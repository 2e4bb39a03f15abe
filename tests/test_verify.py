"""Tests for the Monte Carlo harness, its exact rate, exact enumeration, and KS check."""

import dataclasses
import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from bulk import BULK_MODELS, SIZE
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
    exact_rejection_rate,
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
            (Alternative(0, Poisson(4.0)), 0.50825, 0.007904617914548431),
            (Alternative(1, Binomial(10, 0.7)), 0.76525, 0.006701537836571543),
            (
                Alternative(2, TabulatedDiscrete((0.0, 1.5, 2.0), (0.05, 0.15, 0.8))),
                0.1155,
                0.005053705323819346,
            ),
            (
                Alternative(1, ContinuousByCdf(lambda x: (x / 8.0) ** 2, 0.0, 8.0)),
                0.4745,
                0.007895406101018491,
            ),
            (Alternative(3, Poisson(0.4)), 0.37625, 0.007659731351359523),
        ],
        ids=["poisson", "binomial", "tabulated", "continuous-law", "poisson-in-uniform"],
    )
    def test_swapped_cell_results_frozen(self, alternative, rate, std_error):
        # Frozen from the harness that draws the exceedances, and every trial of a
        # cell past its cut in more than a quarter of them; the seed
        # must give the same result on every run and machine.
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

    def test_a_call_starts_no_thread(self, monkeypatch):
        started = []
        start = threading.Thread.start

        def recorded(thread):
            started.append(thread)
            return start(thread)

        monkeypatch.setattr(threading.Thread, "start", recorded)
        template = tuple(Poisson(m) for m in np.linspace(0.2, 3.0, 40))
        before = threading.active_count()
        for alternative in (None, Alternative(5, Poisson(20.0))):
            simulate_size_and_power(SimulationConfig(template, 0.05, 50_000, 3, alternative))
            assert threading.active_count() == before and started == []

    def test_forty_continuous_cells_at_200000_trials_peak_under_16_mb(self):
        # Each continuous cell's draws are scored and freed before the next cell
        # draws: a whole-call store of u and v would take 128 MB.
        cfg = SimulationConfig((Uniform01(),) * 40, 0.05, 200_000, 5)
        tracemalloc.start()
        try:
            res = simulate_size_and_power(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert within_z_se(res, 0.05)

    def test_cells_drawn_at_every_trial_keep_to_chunk_sized_arrays(self):
        # Half of each cell's draws pass its cut, F(1.5) = 0.5, so it draws at every
        # trial, a chunk at a time: 200,000-trial arrays of u and v would take 3.2 MB.
        cell = TabulatedDiscrete((0.0, 1.5, 2.0), (0.2, 0.3, 0.5))
        cfg = SimulationConfig((cell,) * 4, 0.05, 200_000, 5)
        assert np.array_equal(verify._tables(cfg)[0].cuts, np.full(4, 0.5))
        tracemalloc.start()
        try:
            res = simulate_size_and_power(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert within_z_se(res, exact_rejection_rate(cfg))

    # The harness draws its doubles in this order: the exceedances' u, their v,
    # the swapped cell's u and v at every trial, past its cut in most trials, then
    # the continuous cell's u and v at every trial.
    @pytest.mark.parametrize(
        "draw",
        [
            "exceedance u",
            "exceedance v",
            "every-trial u",
            "every-trial v",
            "continuous u",
            "continuous v",
        ],
    )
    def test_a_zero_draw_is_lifted_as_uniform_open_lifts_it(self, monkeypatch, draw):
        template = (Poisson(1.3), Binomial(10, 0.3), Uniform01())
        cfg = SimulationConfig(template, 0.2, 2000, 17, Alternative(0, Poisson(4.0)))
        cuts = verify._tables(cfg)[0].cuts
        assert cuts[0] < 0.75 < cuts[1] < 1.0
        seen = {}
        rejecting, rejects = verify._Tables.rejecting, verify._Tables.rejects
        scores, quantile = verify._survival_scores, Uniform01.skorokhod_quantile

        def recorded_rejecting(tables, rows, cols, u, v):
            seen.update({"exceedance u": u, "exceedance v": v, "cuts": tables.cuts[cols]})
            return rejecting(tables, rows, cols, u, v)

        def recorded_rejects(tables, cols, u, v):
            if np.ndim(cols) == 0:  # a cell drawn at every trial
                seen.update({"every-trial u": u, "every-trial v": v})
            return rejects(tables, cols, u, v)

        def recorded_scores(left, right, v):
            seen["continuous v"] = v  # the last call scores the continuous cell
            return scores(left, right, v)

        def recorded_quantile(dist, omega):
            seen["continuous u"] = omega.copy()
            return quantile(dist, omega)

        monkeypatch.setattr(verify._Tables, "rejecting", recorded_rejecting)
        monkeypatch.setattr(verify._Tables, "rejects", recorded_rejects)
        monkeypatch.setattr(verify, "_survival_scores", recorded_scores)
        monkeypatch.setattr(Uniform01, "skorokhod_quantile", recorded_quantile)
        simulate_size_and_power(cfg)
        drawn, trials = seen["exceedance u"].size, cfg.n_trials
        assert trials <= verify._CHUNK
        # The stream position of each draw's first double; its eighth is zeroed.
        # The trials fit one chunk, so the swapped cell draws all its u, then its v.
        first = {"exceedance u": 0, "exceedance v": drawn}
        for k, name in enumerate(["every-trial u", "every-trial v", "continuous u"]):
            first[name] = 2 * drawn + k * trials
        first["continuous v"] = first["continuous u"] + trials
        hits = zero_draws(monkeypatch, (first[draw] + 7,))
        # Unlifted, the continuous cell's quantile would refuse the 0.0.
        simulate_size_and_power(cfg)
        assert hits == [first[draw] + 7] and seen["exceedance u"].size == drawn
        low = max(seen["cuts"][7], 0.0)
        lifted = low + (1.0 - low) * 2.0**-54 if draw == "exceedance u" else 2.0**-54
        assert seen[draw][7] == lifted


# The per-cell reference's chunk of trials: each chunk draws its u block, then its v block.
REFERENCE_CHUNK = 20_000


def sampling_laws(config):
    """The config's sampling laws: the template's, with the alternative's swapped in."""
    laws = list(config.panel_template)
    if config.alternative is not None:
        laws[config.alternative.cell_index] = config.alternative.alt_dist
    return laws


def reference_simulate(config):
    """The harness as a per-cell loop: every draw of every cell searched and scored."""
    dists = config.panel_template
    n = len(dists)
    s = _survival_cut(config.alpha, n)
    laws = sampling_laws(config)
    stream = RandomStream(config.seed)
    hits = 0
    done = 0
    while done < config.n_trials:
        m = min(REFERENCE_CHUNK, config.n_trials - done)
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


def reference_rate(config):
    """The exact rejection rate as a per-cell sum over every point, without k*.

    Each discrete cell sums its law's mass at each point of both ladders,
    as sf_left - sf, times the chance that the point's score, uniform on
    its null brackets [sf, sf_left], falls below s.  An integer law's
    points run on past both ladders until the null's sf falls below s,
    past which every point rejects, and the law's mass there, its sf at
    the last point, is added whole.  A continuous cell's law must be its
    null, whose score falls below s with chance s.
    """
    dists = config.panel_template
    s = _survival_cut(config.alpha, len(dists))
    logs = []
    for d, law in zip(dists, sampling_laws(config)):
        if d.continuous or law.continuous:
            assert law == d, "no reference rate for a swapped continuous law"
            logs.append(math.log1p(-s))
            continue
        pts = np.union1d(d._ladder[0], law._ladder[0])
        if isinstance(law, (Poisson, Binomial)):
            end = getattr(law, "trials", math.inf)
            while d.sf(pts[-1]) >= s and pts[-1] < end and law.sf(pts[-1]) > 0.0:
                pts = np.concatenate([pts, np.floor(pts[-1]) + np.arange(1.0, pts.size + 1.0)])
        left, right = np.asarray(d.sf_left(pts)), np.asarray(d.sf(pts))
        with np.errstate(divide="ignore", invalid="ignore"):
            chance = np.where(right < s, np.clip((s - right) / (left - right), 0.0, 1.0), 0.0)
        mass = np.asarray(law.sf_left(pts)) - np.asarray(law.sf(pts))
        tail = law.sf(pts[-1]) if d.sf(pts[-1]) < s else 0.0
        q = math.fsum(mass * chance) + tail
        logs.append(math.log1p(-q) if q < 1.0 else -math.inf)
    return -math.expm1(math.fsum(logs))


def swaps_a_continuous_law(config):
    """Whether some cell's sampling law is continuous and not its null: no exact rate yet."""
    pairs = zip(config.panel_template, sampling_laws(config))
    return any((d.continuous or law.continuous) and law != d for d, law in pairs)


# The harness must fall within Z se of the exact rate, se taken from that
# rate, plus one trial, the rate's resolution.  Without that trial, a run of
# T trials at a rate p below 1/(Z^2 T) would fail with chance about pT
# whenever a single trial rejects.  ``false_failure`` gives the chance that
# a correct harness fails the rule; the tests that apply it to many configs
# bound its sum over them.
Z = 5.0


def within_z_se(result, rate, se=None):
    """Whether a harness result lies within Z se of ``rate``, plus one trial."""
    trials = result.n_trials
    if se is None:
        se = math.sqrt(rate * (1.0 - rate) / trials)
    return abs(result.rejection_rate - rate) <= Z * se + 1.0 / trials


def false_failure(rate, trials):
    """The chance that a harness whose exact rate is ``rate`` fails ``within_z_se``:
    the Binomial(trials, rate) tails outside the rule's window of counts."""
    if rate in (0.0, 1.0):
        return 0.0
    mean, width = trials * rate, Z * math.sqrt(trials * rate * (1.0 - rate)) + 1.0
    count = Binomial(trials, rate)
    return float(count.cdf(math.ceil(mean - width) - 1.0) + count.sf(math.floor(mean + width)))


def agree_within_z_se(ours, theirs):
    """Two independent harness results of one config within Z se of their difference."""
    pooled = (ours.rejection_rate + theirs.rejection_rate) / 2.0
    se = math.sqrt(2.0 * pooled * (1.0 - pooled) / ours.n_trials)
    return within_z_se(ours, theirs.rejection_rate, se)


def assert_exact_rate(config):
    """``exact_rejection_rate`` equals the per-cell sum within relative 1e-12; returns it."""
    rate = exact_rejection_rate(config)
    assert rate == pytest.approx(reference_rate(config), rel=1e-12, abs=0.0), config
    return rate


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
    """The exact rate from each cell's four numbers equals the sum over every point of
    each law, and the harness drawing only the exceedances estimates it."""

    def test_random_configs(self):
        rng = np.random.default_rng(20141)
        rates, swapped = [], 0
        for _ in range(300):
            cfg = random_config(rng)
            if swaps_a_continuous_law(cfg):
                swapped += 1
                with pytest.raises(ContractError, match="not its continuous null"):
                    exact_rejection_rate(cfg)
                assert agree_within_z_se(simulate_size_and_power(cfg), reference_simulate(cfg)), cfg
                continue
            rate = assert_exact_rate(cfg)
            if cfg.alternative is None and not any(d.continuous for d in cfg.panel_template):
                assert rate == pytest.approx(cfg.alpha, rel=1e-12, abs=0.0), cfg
            rates.append(rate)
        # The sweep must reach rates strictly inside (0, 1), certain rejection, and swapped
        # continuous laws.
        assert sum(0.0 < r < 1.0 for r in rates) >= 200
        assert any(r == 1.0 for r in rates) and swapped >= 30

    def test_one_point_null_makes_every_draw_a_candidate(self):
        point = TabulatedDiscrete((0.0,), (1.0,))
        template = (point, Poisson(2.0))
        s = _survival_cut(0.05, 2)
        assert verify._Tables.build(template, template, s).cuts[0] == -math.inf
        cfg = SimulationConfig(template, 0.05, 5000, 3)
        assert assert_exact_rate(cfg) == pytest.approx(0.05, rel=1e-12)
        res = simulate_size_and_power(cfg)
        assert within_z_se(res, 0.05) and 0.0 < res.rejection_rate < 1.0

    def test_cell_that_cannot_reject_has_no_cut(self):
        # Poisson(1)'s brackets stay far above s at alpha 1e-200; the swapped cell rejects.
        template = (Poisson(1.0), Poisson(1.0))
        s = _survival_cut(1e-200, 2)
        assert verify._Tables.build(template, template, s).cuts[0] == math.inf
        cfg = SimulationConfig(template, 1e-200, 3000, 5, Alternative(1, Poisson(300.0)))
        assert assert_exact_rate(cfg) == 1.0
        assert simulate_size_and_power(cfg).rejection_rate == 1.0

    def test_chunk_without_candidates(self):
        # About one trial in 1e5 passes the cut: 1000 trials draw no exceedance.
        template = (Poisson(1.0),)
        cfg = SimulationConfig(template, 1e-5, 1000, 8)
        cut = verify._Tables.build(template, template, _survival_cut(1e-5, 1)).cuts[0]
        assert 0.0 < cut < 1.0
        assert assert_exact_rate(cfg) == pytest.approx(1e-5, rel=1e-12)
        assert simulate_size_and_power(cfg).rejection_rate == 0.0

    def test_one_trial_last_chunk(self):
        # A trial count that no chunk of the reference divides.
        template = (Poisson(1.3), Binomial(10, 0.3), Uniform01())
        for alternative in (None, Alternative(0, Poisson(4.0))):
            cfg = SimulationConfig(template, 0.1, 20_001, 6, alternative)
            rate = assert_exact_rate(cfg)
            assert within_z_se(simulate_size_and_power(cfg), rate), alternative
            assert within_z_se(reference_simulate(cfg), rate), alternative

    def test_continuous_law_swap(self):
        template = (Poisson(1.3), Binomial(10, 0.3), TabulatedDiscrete((0.0, 1.5), (0.4, 0.6)))
        swap = Alternative(1, ContinuousByCdf(lambda x: (x / 8.0) ** 2, 0.0, 8.0))
        cfg = SimulationConfig(template, 0.1, 4000, 9, swap)
        laws = (template[0], swap.alt_dist, template[2])
        assert verify._Tables.build(template, laws, 0.5).cuts[1] == math.inf
        with pytest.raises(ContractError, match="cell 1"):
            exact_rejection_rate(cfg)
        res = simulate_size_and_power(cfg)
        assert agree_within_z_se(res, reference_simulate(cfg))
        assert 0.0 < res.rejection_rate < 1.0


class TestHarnessWithinExactRate:
    def test_random_configs(self):
        # Z = 5 with one trial of slack: over these 250 configs the chance that a
        # correct harness fails somewhere, the sum of ``false_failure``, is below 0.1%.
        # Alpha is drawn from [1e-3, 0.5], so that most runs reject in some trials.
        rng = np.random.default_rng(2037)
        budget, interior, checked = [], 0, 0
        while checked < 250:
            alpha = float(10.0 ** rng.uniform(-3.0, math.log10(0.5)))
            cfg = dataclasses.replace(random_config(rng), alpha=alpha)
            if swaps_a_continuous_law(cfg):
                continue
            rate = exact_rejection_rate(cfg)
            res = simulate_size_and_power(cfg)
            assert within_z_se(res, rate), (cfg, res, rate)
            budget.append(false_failure(rate, cfg.n_trials))
            interior += 0.0 < res.rejection_rate < 1.0
            checked += 1
        assert math.fsum(budget) < 1e-3
        assert interior >= 200

    def test_exact_rate_is_alpha_on_null_panels(self):
        # Each cell scores below s with chance s, and 1 - (1 - s)^n is alpha.
        rng = np.random.default_rng(2038)
        for alpha in (0.5, 0.05, 1e-3, 1e-8, 1e-12, 1e-16, 1e-100, 1e-300):
            for n in (1, 2, 7, 40):
                template = tuple(random_law(rng) for _ in range(n))
                cfg = SimulationConfig(template, alpha, 1000, 1)
                assert exact_rejection_rate(cfg) == pytest.approx(alpha, rel=1e-12), cfg


class TestFixtureTemplateFrozen:
    """The benchmark-scale runs on the bundled panel, frozen from the harness
    that draws the exceedances, and every trial of the swapped cell."""

    @pytest.fixture(scope="class")
    def template(self):
        return tuple(null_distributions(ingest(listeriosis_fixture_path()), 9.703e-7))

    def test_size(self, template):
        res = simulate_size_and_power(SimulationConfig(template, 0.05, 50_000, 123))
        assert res == SimulationResult(0.04822, 0.0009580692208812472, 50_000)

    def test_power(self, template):
        swap = Alternative(5, Poisson(8 * template[5].mean))
        res = simulate_size_and_power(SimulationConfig(template, 0.05, 50_000, 456, swap))
        assert res == SimulationResult(0.90912, 0.0012854635397396533, 50_000)


class TestFixtureTemplateAtSize:
    """The fixture template at SIZE trials (tests/bulk.py), against the exact rate."""

    def test_size_and_power_draw_each_chunk_once(self):
        template = tuple(null_distributions(ingest(listeriosis_fixture_path()), 9.703e-7))
        swap = Alternative(5, Poisson(8 * template[5].mean))
        for cfg in (
            SimulationConfig(template, 0.05, SIZE, 123),
            SimulationConfig(template, 0.05, SIZE, 456, swap),
        ):
            rate = assert_exact_rate(cfg)
            assert within_z_se(simulate_size_and_power(cfg), rate), cfg.seed
            assert within_z_se(reference_simulate(cfg), rate), cfg.seed


def scored_draws(monkeypatch) -> list:
    """Record the bytes of every draw the harness scores: the exceedances' u and v,
    and each continuous cell's u, as its quantile reads it, and v."""
    scored = []
    rejecting, scores = verify._Tables.rejecting, verify._survival_scores

    def recorded_rejecting(tables, rows, cols, u, v):
        scored.extend([rows.tobytes(), u.tobytes()])
        return rejecting(tables, rows, cols, u, v)

    def recorded_scores(left, right, v):
        scored.append(v.tobytes())
        return scores(left, right, v)

    monkeypatch.setattr(verify._Tables, "rejecting", recorded_rejecting)
    monkeypatch.setattr(verify, "_survival_scores", recorded_scores)
    for cls in (Uniform01, ContinuousByCdf):

        def recorded_quantile(dist, omega, quantile=cls.skorokhod_quantile):
            scored.append(omega.tobytes())
            return quantile(dist, omega)

        monkeypatch.setattr(cls, "skorokhod_quantile", recorded_quantile)
    return scored


class TestPieces:
    """The harness's draws, taken in pieces on the calling thread: each discrete
    cell's count of exceedances and its trials, the exceedances' u and v, then
    each continuous cell's u and v in turn."""

    template = (
        Poisson(1.3),
        Binomial(10, 0.3),
        Uniform01(),
        ContinuousByCdf(lambda x: (x / 8.0) ** 2, 0.0, 8.0),
    )

    def test_more_workers_than_cpus_with_a_short_switch_interval(self):
        # Calls on more threads than CPUs, switching every microsecond, share one
        # template whose ladders the first calls build: a crossed draw or a
        # half-built ladder would move the rate.
        def config():
            template = (Poisson(1.3), Binomial(10, 0.3), Poisson(0.4), Uniform01())
            return SimulationConfig(template, 0.2, 6000, 13, Alternative(2, Poisson(3.0)))

        expected = simulate_size_and_power(config())
        shared = config()
        results, errors = [], []

        def caller():
            try:
                for _ in range(3):
                    results.append(simulate_size_and_power(shared))
            except Exception as exc:  # reported by the assert below
                errors.append(exc)

        callers = [threading.Thread(target=caller) for _ in range((os.cpu_count() or 1) + 1)]
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
        assert errors == [] and results == [expected] * (3 * len(callers))

    # Positions in the stream of 37,000 null trials.  For one copy of the
    # template and for eight, they fall in the exceedances' u and their v, and
    # in the continuous cells' u and v.
    @pytest.mark.parametrize(
        "zero", [0, 12_071, 79_999, 80_000, 100_002, 159_999, 162_003, 167_999]
    )
    @pytest.mark.parametrize("copies", [1, 8])
    def test_a_zero_draw_scores_as_the_lifted_stream(self, monkeypatch, zero, copies):
        cfg = SimulationConfig(self.template * copies, 0.2, 37_000, 17)
        runs = []
        # uniform_open lifts a 0.0 to 2**-54; a continuous cell's quantile would refuse it.
        for value in (0.0, 2.0**-54):
            with monkeypatch.context() as patched:
                hits = zero_draws(patched, (zero,), value)
                scored = scored_draws(patched)
                runs.append((simulate_size_and_power(cfg), scored))
            assert hits == [zero]
        assert runs[0] == runs[1]

    # A discrete template draws u and v at its exceedances only, the trials
    # picked at random past each cut: a 0.0 at an exceedance's v is drawn and
    # lifted, and no trial past no cut draws a double.
    @pytest.mark.parametrize("candidate", [True, False], ids=["candidate", "non-candidate"])
    @pytest.mark.parametrize("copies", [1, 8])
    def test_a_zero_draw_at_random_access_scores_as_the_lifted_stream(
        self, monkeypatch, candidate, copies
    ):
        template = (Poisson(1.3), Binomial(10, 0.3), Poisson(0.4), Poisson(2.2)) * copies
        cfg = SimulationConfig(template, 0.005, 21_000, 17)
        drawn, lifted = [], []
        rejecting = verify._Tables.rejecting

        def recorded_rejecting(tables, rows, cols, u, v):
            drawn.append(rows.size)
            lifted.extend(v[v <= 2.0**-54].tolist())
            return rejecting(tables, rows, cols, u, v)

        monkeypatch.setattr(verify._Tables, "rejecting", recorded_rejecting)
        expected = simulate_size_and_power(cfg)
        # The exceedances' u come first, then their v, and nothing after them.
        (exceedances,) = drawn
        zero = exceedances + exceedances // 2 if candidate else 2 * exceedances
        lifted.clear()
        runs = []
        for value in (0.0, 2.0**-54):
            with monkeypatch.context() as patched:
                hits = zero_draws(patched, (zero,), value)
                runs.append(simulate_size_and_power(cfg))
            assert hits == ([zero] if candidate else [])
        assert lifted == ([2.0**-54] * 2 if candidate else [])
        assert runs[0] == runs[1]
        if not candidate:
            assert runs[0] == expected

    @pytest.mark.parametrize("dense", [True, False], ids=["always-fill", "never-fill"])
    def test_random_configs_on_either_side_of_the_share(self, monkeypatch, dense):
        # numpy picks k of T > 10,000 trials by a partial shuffle of an array it
        # fills with all T once k passes T // 20, and by Floyd's algorithm, which
        # fills none, below.  Each side gets configs of 10,001 to 45,000 trials
        # whose every drawn share 1 - cut is at least 0.15, some of them at most
        # 0.25, or whose every share is at most 0.01, so each count lies tens of
        # se from T // 20; alpha is drawn from [0.2, 0.5] on the first side and
        # from [1e-3, 0.05] on the second, so that most configs pick some trials.
        # A cell past a share of 0.25 draws at every trial and picks none.  Z = 5
        # with one trial of slack: the chance that a correct harness fails one of
        # the 40 is below 0.1%.
        picks, scored = [], []
        init, rejecting = RandomStream.__init__, verify._Tables.rejecting

        class Picks:
            def __init__(self, gen):
                self.gen = gen

            def __getattr__(self, name):
                return getattr(self.gen, name)

            def choice(self, trials, k, **kwargs):
                picks.append((trials, k))
                return self.gen.choice(trials, k, **kwargs)

        def picking_init(stream, seed):
            init(stream, seed)
            stream._gen = Picks(stream._gen)

        def recorded_rejecting(tables, rows, cols, u, v):
            scored.append((rows, cols))
            return rejecting(tables, rows, cols, u, v)

        monkeypatch.setattr(RandomStream, "__init__", picking_init)
        monkeypatch.setattr(verify._Tables, "rejecting", recorded_rejecting)
        rng = np.random.default_rng(2031)
        budget, picked = [], 0
        while len(budget) < 40:
            trials = int(rng.integers(10_001, 45_001))
            cfg = dataclasses.replace(random_config(rng), n_trials=trials)
            alpha = rng.uniform(0.2, 0.5) if dense else 10.0 ** rng.uniform(-3.0, math.log10(0.05))
            cfg = dataclasses.replace(cfg, alpha=float(alpha))
            cuts = verify._tables(cfg)[0].cuts
            shares = 1.0 - np.maximum(cuts[cuts < math.inf], 0.0)
            if swaps_a_continuous_law(cfg) or not shares.size:
                continue
            if not (0.15 <= shares.min() <= 0.25 if dense else shares.max() <= 0.01):
                continue
            picks.clear()
            scored.clear()
            res = simulate_size_and_power(cfg)
            assert all((k > trials // 20) == dense for _, k in picks), (cfg, picks)
            assert len(picks) <= np.count_nonzero(shares <= 0.25), (cfg, picks)
            picked += bool(picks)
            # Each cell's picked trials are distinct trials of the call.
            ((rows, cols),) = scored
            for j in np.unique(cols):
                mine = rows[cols == j]
                assert np.unique(mine).size == mine.size, cfg
                assert 0 <= mine.min() and mine.max() < trials, cfg
            rate = exact_rejection_rate(cfg)
            assert within_z_se(res, rate), (cfg, res, rate)
            budget.append(false_failure(rate, trials))
        assert math.fsum(budget) < 1e-3
        assert picked >= 30

    def test_model_methods_run_on_the_calling_thread(self, monkeypatch):
        callers = []

        def recorded(fn):
            def call(*args, **kwargs):
                callers.append(threading.get_ident())
                return fn(*args, **kwargs)

            return call

        for cls in (Poisson, Binomial, ContinuousByCdf):
            for name in ("cdf", "sf", "cdf_left", "sf_left", "mass", "skorokhod_quantile"):
                monkeypatch.setattr(cls, name, recorded(getattr(cls, name)))
        monkeypatch.setattr(verify._Tables, "rejecting", recorded(verify._Tables.rejecting))
        template = (
            Poisson(1.3),
            Binomial(10, 0.3),
            ContinuousByCdf(recorded(lambda x: (x / 8.0) ** 2), 0.0, 8.0),
            Poisson(2.0),
        )
        callers.clear()
        for alternative in (None, Alternative(3, Poisson(6.0)), Alternative(0, Binomial(8, 0.5))):
            simulate_size_and_power(SimulationConfig(template, 0.1, 3000, 8, alternative))
        assert callers and set(callers) == {threading.get_ident()}


class PoissonByCell(Poisson):
    """A Poisson model that ``_Tables.build`` scans on its ladder, as any other law."""


FOUR = ("cuts", "tops", "lefts", "rights")


def assert_same_decisions(rng, tables):
    """Two tables of one panel have equal cuts, and equal tops and brackets where a cut
    is finite; at a -inf cut k* may sit below the ladder, so every draw past the cut
    must reject or score alike.  Elsewhere k* is the same count, or none."""
    ours, theirs = tables
    assert np.array_equal(ours.cuts, theirs.cuts)
    kept = ours.cuts > -math.inf
    assert np.array_equal(ours.ks[kept], theirs.ks[kept], equal_nan=True)
    finite = np.isfinite(ours.cuts)
    for field in FOUR[1:]:
        a, b = getattr(ours, field)[finite], getattr(theirs, field)[finite]
        assert a.tobytes() == b.tobytes(), field
    u, v = rng.random((2, 200, ours.cuts.size))
    # Half the rows at or below top, and none below 2**-54, as the lifted stream draws.
    u[:100] = np.maximum(u[:100] * np.where(np.isfinite(ours.tops), ours.tops, 1.0), 2.0**-54)
    rows, cols = np.nonzero(u > ours.cuts)
    at = rows, cols, u[rows, cols], v[rows, cols]
    assert np.array_equal(ours.rejecting(*at), theirs.rejecting(*at))


class TestOnePassPoissonTables:
    """Poisson/Poisson cells take their four numbers from one bisection, without a ladder;
    a per-cell scan of each law's ladder must give the same."""

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
            assert_same_decisions(rng, tables)
            cuts.extend(tables[0].cuts)
        return np.array(cuts)

    def test_bit_identical_to_cell_tables(self):
        cuts = self.check_pairs(np.random.default_rng(2024), 2000)
        assert np.any(cuts == -math.inf) and np.any(cuts == math.inf)
        assert np.any(np.isfinite(cuts))

    def test_widened_windows(self, monkeypatch):
        # Ladder windows of +-2 sd: both widening loops of the scanned ladders run.
        def narrow(mean, sd, top=math.inf):
            lo = np.maximum(np.floor(mean - 2.0 * sd), 0.0)
            return lo, np.ceil(np.minimum(mean + 2.0 * sd, top))

        monkeypatch.setattr(distributions, "_ladder_window", narrow)
        self.check_pairs(np.random.default_rng(2025), 1000)

    @staticmethod
    def counting_sf(monkeypatch, module=verify):
        """The points of every ``_poisson_sf`` call made through ``module``, as a list."""
        points = []
        sf = distributions._poisson_sf

        def counting(k, mean):
            points.append(np.size(k))
            return sf(k, mean)

        monkeypatch.setattr(module, "_poisson_sf", counting)
        return points

    def test_fixture_template_sf_calls_do_not_grow_with_cells(self, monkeypatch):
        template = tuple(null_distributions(ingest(listeriosis_fixture_path()), 9.703e-7))
        points = self.counting_sf(monkeypatch)
        n = len(template)
        built, calls = [], []
        for copies in (1, 250):
            points.clear()
            built.append(verify._Tables.build(template * copies, template * copies, 0.05 / n))
            # One call per bisection step over every cell, and one over the cells
            # whose k* is the bisection's first upper end: none here.
            assert points[:-1] == [n * copies] * (len(points) - 1) and points[-1] == 0
            calls.append(len(points))
        assert calls[0] == calls[1] <= 8
        one, tiled = built
        for field in FOUR:
            assert np.array_equal(np.tile(getattr(one, field), 250), getattr(tiled, field))

    def test_adjacent_cells_sharing_a_null_mean(self, monkeypatch):
        # Cells 2 and 3 share their null mean, so they share k* and its brackets;
        # swapping cell 3's law far out moves only its cut and top.
        means = (0.7, 2.5, 4.0, 4.0, 1.3, 9.0)
        points = self.counting_sf(monkeypatch)
        rng = np.random.default_rng(2026)
        calls = []
        for law in (None, 1e4):
            built = []
            for cls in (Poisson, PoissonByCell):
                dists = tuple(map(cls, means))
                laws = dists if law is None else dists[:3] + (cls(law),) + dists[4:]
                points.clear()
                built.append(verify._Tables.build(dists, laws, 1e-3))
                calls.append(len(points))
            assert_same_decisions(rng, built)
            ours = built[0]
            assert ours.lefts[2] == ours.lefts[3] and ours.rights[2] == ours.rights[3]
            assert (ours.cuts[2] == ours.cuts[3]) == (law is None)
        # The laws do not enter the bisection; a scanned ladder calls the model's own sf.
        assert calls[0] == calls[2] > 0 and calls[1] == calls[3] == 0

    def test_bulk_brackets_against_the_per_model_pass(self, monkeypatch):
        # A panel of SIZE cells, regions x 25 periods, in both row orders, and a
        # template of SIZE means: bit for bit what one model per cell gives.
        points = self.counting_sf(monkeypatch, distributions)
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
        templates = (tuple(map(cls, means)) for cls in (Poisson, PoissonByCell))
        assert_same_decisions(rng, [verify._Tables.build(t, t, s) for t in templates])


class TestHugeMeans:
    """Means the bisection reaches without a ladder; past 2**53 see tests/test_errors.py."""

    @staticmethod
    def first_below(dist, s):
        """k*, the first count with sf(k*) < s, by a scalar search over Python integers."""
        lo, hi = -1, 2**53
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if dist.sf(float(mid)) < s else (mid, hi)
        return hi

    @pytest.mark.parametrize("alpha", [0.5, 0.05, 1e-12, 1e-300])
    def test_four_numbers_of_a_mean_of_two_to_the_52(self, alpha):
        # Its ladder would hold 3.36e9 points; the bisection needs none.
        big = Poisson(2.0**52)
        s = _survival_cut(alpha, 1)
        tables = verify._Tables.build((big,), (big,), s)
        k = self.first_below(big, s)
        assert tables.rights[0] == big.sf(float(k)) < s <= big.sf(float(k - 1)) == tables.lefts[0]
        assert tables.tops[0] == big.cdf(float(k))
        cut = big.cdf(float(k - 1))
        assert tables.cuts[0] == (math.inf if cut == 1.0 else cut)

    def test_a_law_past_two_to_the_53_rejects_every_draw(self):
        # Only the null's counts are bisected; the law's F is read at k* - 1 and k*.
        cfg = SimulationConfig((Poisson(1.0),), 0.05, 1000, 1, Alternative(0, Poisson(1e30)))
        assert verify._Tables.build((Poisson(1.0),), (Poisson(1e30),), 0.05).cuts[0] == -math.inf
        assert simulate_size_and_power(cfg).rejection_rate == 1.0


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
            tables = verify._Tables.build(dists, laws, s)
            cuts = tables.cuts
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
                if below.size:
                    # The premise of the four numbers: a draw past top lands on a
                    # point whose upper bracket is below s, so it rejects.
                    k = below[0]
                    assert np.all(d.sf_left(pts[k + 1 :]) < s), (d, law, s)
                    # A Poisson cell's k* may sit below a law's ladder, where F is 0.
                    assert tables.ks[j] == pts[k] or expected == -math.inf, (d, law, s)
                    top = tables.tops[j]
                    assert top == cdf[k] or (expected == -math.inf and top == 0.0), (d, law, s)
                    if math.isfinite(expected):
                        brackets = (tables.lefts[j], tables.rights[j])
                        assert brackets == (d.sf_left(pts[k]), d.sf(pts[k])), (d, law, s)
        assert finite >= 50


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
