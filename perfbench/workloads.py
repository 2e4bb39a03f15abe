"""The four workloads: their ops and the checks on every op's output.

``build(workload, work_dir)`` reads the generated input files and returns
the op cycle a closed-loop client runs, one op after another.  Each op is a
``Form``: ``run(k)`` performs op number ``k`` through the package's public
API, and ``check(k, out)`` returns the cells the op evaluated or raises
``CheckError`` when the output is wrong.

Workloads with two op forms cycle three ops of the first form and one of
the second.  The forms differ in latency by 2x to 4x; with a 1:1 mix the
median would sit on the gap between the two modes and jump between them
from run to run, while 3:1 puts the median inside the first mode and p90
inside the second.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import extreme_sentinel as es
import hostspeed
from extreme_sentinel import cli

# Both p-value bounds of the paper's panel sit below this at alpha = 0.01.
FIXTURE_P_UPPER = 1e-3
# Monte Carlo rates must land within this many standard errors of theory.
MC_SIGMAS = 4.0
# The audit draws are fixed per seed, so ks_uniformity's own 1% verdict
# would fail a correct sampler on about 4% of seeds (four models).  The
# check uses twice its 1% critical value, a false-alarm level near 1e-9;
# a sampler that is off by one support step lands far beyond it.
KS_SLACK = 2.0
ENUM_TOL = 1e-10


class CheckError(Exception):
    """An op returned a wrong output."""


@dataclass(frozen=True)
class Form:
    run: Callable[[int], object]
    check: Callable[[int, object], int]


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


def _check_sandwich(alpha, p_lower, p_upper, branch) -> None:
    """The decision must agree with the p-value bounds that clear alpha."""
    if p_upper < alpha:
        _require(branch == "reject", f"p_upper {p_upper} < alpha but branch {branch}")
    if p_lower > alpha:
        _require(branch == "accept", f"p_lower {p_lower} > alpha but branch {branch}")


def build(workload: str, work_dir: Path) -> tuple[Form, ...]:
    """The op cycle of ``workload`` over the inputs in ``work_dir``."""
    return _BUILDERS[workload](Path(work_dir))


# fixture: the paper's own panel through the command line, in process.


def _cli(args: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(args)
    return code, buf.getvalue()


def check_fixture_test(out) -> int:
    code, text = out
    r = json.loads(text)
    _require(code == 2, f"test exit status {code}, expected 2")
    _require(
        (r["flagged_region"], r["flagged_period"]) == ("BG", "2010"),
        f"flagged {r['flagged_region']} {r['flagged_period']}",
    )
    _require(r["p_upper"] < FIXTURE_P_UPPER, f"p_upper {r['p_upper']}")
    _check_sandwich(r["alpha"], r["p_lower"], r["p_upper"], r["branch"])
    return r["n"]


def check_fixture_peel(out) -> int:
    code, text = out
    rounds = json.loads(text)["rounds"]
    _require(code == 2, f"peel exit status {code}, expected 2")
    _require(len(rounds) == 2, f"{len(rounds)} peel rounds, expected 2")
    first, second = rounds
    _require(first["rejected"] is True, "round 1 did not reject")
    _require((first["flagged_region"], first["flagged_period"]) == ("BG", "2010"), "round 1 flag")
    _require(second["branch"] == "accept" and second["rejected"] is False, "round 2 did not accept")
    for r in rounds:
        _check_sandwich(r["alpha"], r["p_lower"], r["p_upper"], r["branch"])
    return sum(r["n"] for r in rounds)


def _fixture(work_dir: Path) -> tuple[Form, ...]:
    common = ["--input", str(work_dir / "panel.csv"), "--alpha", "0.01",
              "--lambda", "9.703e-7", "--format", "json"]
    test_args = ["--mode", "test", *common]
    peel_args = ["--mode", "peel", "--seed", "7", *common]
    test = Form(lambda k: _cli(test_args), lambda k, out: check_fixture_test(out))
    peel = Form(lambda k: _cli(peel_args), lambda k, out: check_fixture_peel(out))
    return (test, test, test, peel)


# surveil: generated region-by-week panels with three injected outbreaks.


def _report_sandwich(report) -> None:
    _check_sandwich(report.alpha, report.bounds.lower, report.bounds.upper, report.decision.branch)


def check_surveil_test(report, injected: frozenset) -> int:
    _require(report.rejected is True, "pooled-rate test did not reject")
    _require(report.flagged_cell in injected, f"flagged {report.flagged_cell}, not an outbreak")
    _report_sandwich(report)
    return report.n


def check_surveil_peel(reports, injected: frozenset) -> int:
    _require(len(reports) > len(injected), f"peel stopped after {len(reports)} rounds")
    flagged = [r.flagged_cell for r in reports[: len(injected)]]
    _require(all(r.rejected is True for r in reports[: len(injected)]), "an outbreak round accepted")
    _require(frozenset(flagged) == injected, f"flagged {flagged}, outbreaks {sorted(injected)}")
    _require(reports[-1].rejected is not True, "last peel round rejected")
    for r in reports:
        _report_sandwich(r)
    return sum(r.n for r in reports)


def _surveil(work_dir: Path) -> tuple[Form, ...]:
    spec = json.loads((work_dir / "spec.json").read_text())
    panels = [
        (str(work_dir / p["file"]), frozenset(tuple(c) for c in p["injected"]), p["peel_seed"])
        for p in spec["panels"]
    ]
    alpha, lam, rounds = spec["alpha"], spec["lambda"], spec["max_rounds"]

    def test(k):
        path, _, _ = panels[k % len(panels)]
        return es.epidemic_test(cli.ingest(path), alpha=alpha)

    def peel(k):
        path, _, seed = panels[k % len(panels)]
        return es.peel_test(cli.ingest(path), lam=lam, alpha=alpha, max_rounds=rounds, seed=seed)

    t = Form(test, lambda k, out: check_surveil_test(out, panels[k % len(panels)][1]))
    p = Form(peel, lambda k, out: check_surveil_peel(out, panels[k % len(panels)][1]))
    return (t, t, t, p)


# simulate: Monte Carlo size and power on the fixture's null template.


def check_rate(result, target: float, trials: int) -> int:
    se = math.sqrt(target * (1.0 - target) / trials)
    _require(result.n_trials == trials, f"{result.n_trials} trials, expected {trials}")
    _require(
        abs(result.rejection_rate - target) <= MC_SIGMAS * se,
        f"rejection rate {result.rejection_rate}, expected {target} +/- {MC_SIGMAS * se}",
    )
    return trials


def _simulate(work_dir: Path) -> tuple[Form, ...]:
    spec = json.loads((work_dir / "spec.json").read_text())
    panel = cli.ingest(work_dir / "panel.csv")
    template = tuple(es.null_distributions(panel, spec["lambda"]))
    n, alpha, trials, j = len(template), spec["alpha"], spec["trials"], spec["alt_cell"]
    alt = es.Poisson(spec["alt_factor"] * template[j].mean)
    size_cfg = es.SimulationConfig(template, alpha, trials, spec["size_seed"])
    power_cfg = es.SimulationConfig(
        template, alpha, trials, spec["power_seed"], es.Alternative(j, alt)
    )
    pair = es.ModelPair(template[j], alt)
    power = es.power_single_alternative(lambda y: es.alt_extremeness_cdf(pair, y), alpha, n)

    size = Form(
        lambda k: es.simulate_size_and_power(size_cfg),
        lambda k, out: n * check_rate(out, alpha, trials),
    )
    pow_ = Form(
        lambda k: es.simulate_size_and_power(power_cfg),
        lambda k, out: n * check_rate(out, power, trials),
    )
    return (size, size, size, pow_)


# audit: sampler uniformity, monotone-pair checks and the exact oracle.


def _dist(model: dict):
    kind = model["kind"]
    if kind == "poisson":
        return es.Poisson(model["mean"])
    if kind == "binomial":
        return es.Binomial(model["trials"], model["p"])
    if kind == "tabulated":
        return es.TabulatedDiscrete(tuple(model["support"]), tuple(model["masses"]))
    return es.Uniform01()


@dataclass(frozen=True)
class AuditOutput:
    ks: tuple
    mlr: object
    convexity: object
    exact: object
    analytic: object


def check_audit(out: AuditOutput, draws: int) -> int:
    for ks in out.ks:
        _require(ks.statistic < KS_SLACK * ks.critical_value, f"KS statistic {ks.statistic}")
    _require(out.mlr.passed, f"MLR check failed at {out.mlr.violation}")
    _require(out.convexity.passed, f"convexity check failed at {out.convexity.violation}")
    for side in ("lower", "upper"):
        a, b = getattr(out.exact, side), getattr(out.analytic, side)
        _require(abs(a - b) <= ENUM_TOL, f"{side} bound: enumeration {a}, analytic {b}")
    return draws * len(out.ks)


def _audit(work_dir: Path) -> tuple[Form, ...]:
    spec = json.loads((work_dir / "spec.json").read_text())
    models = [_dist(m) for m in spec["models"]]
    seeds, draws, grid = spec["stream_seeds"], spec["draws"], spec["grid"]
    null_mean = spec["pair_mean"]
    alt_mean = spec["pair_factor"] * null_mean
    panel = [_dist(m) for m in spec["panel"]]
    obs = spec["observations"]

    def audit(k):
        ks = []
        for dist, seed in zip(models, seeds):
            stream = es.RandomStream(seed)
            x = dist.sample(stream, draws)
            u = stream.uniform_open(draws)
            ks.append(es.ks_uniformity(es.randomized_pit(dist, x, u)))
        pair = es.ModelPair(es.Poisson(null_mean), es.Poisson(alt_mean))
        return AuditOutput(
            ks=tuple(ks),
            mlr=es.mlr_check(pair, es.discrete_probe_points(pair.alt_dist)),
            convexity=es.convexity_check(lambda y: es.alt_extremeness_cdf(pair, y), grid),
            exact=es.enumerate_pvalue_bounds(panel, obs),
            analytic=es.pvalue_bounds(panel, obs),
        )

    return (Form(audit, lambda k, out: check_audit(out, draws)),)


_BUILDERS = {"fixture": _fixture, "surveil": _surveil, "simulate": _simulate, "audit": _audit}

# The host speed probe that does the same kind of work as each workload's
# ops: per-cell scalar calls everywhere but in the Monte Carlo harness.
PROBES = {
    "fixture": hostspeed.scalar,
    "surveil": hostspeed.scalar,
    "simulate": hostspeed.array,
    "audit": hostspeed.scalar,
}
