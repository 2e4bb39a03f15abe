"""Command-line front end: ingest count panels, run tests, print reports.

Input is a CSV with header ``region,period,count,population``.  Reports
go to standard output as text or JSON; JSON carries full precision and
stable key names, text rounds the p-value bounds to two significant
figures.  Exit status: 0 accept, 2 reject, 1 any error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DataError,
    ExtremeSentinelError,
    PanelFormatError,
    ParameterError,
)
from .surveillance import (
    CountPanel,
    EpidemicReport,
    PanelCell,
    epidemic_test,
    estimate_lambda,
    null_distributions,
    peel_test,
)
from .verify import SimulationConfig, simulate_size_and_power

__all__ = ["RunConfig", "ingest", "write_panel", "run", "main", "ENV_SEED", "HEADER"]

HEADER = ("region", "period", "count", "population")

# Fallback seed source when --seed is not given.
ENV_SEED = "EXTREME_SENTINEL_SEED"

_MODES = ("test", "peel", "simulate-null")


@dataclass(frozen=True)
class RunConfig:
    """One CLI invocation.  ``lam`` is the rate (the flag is --lambda)."""

    input_path: Path
    mode: str = "test"
    alpha: float = 0.05
    lam: float | None = None
    seed: int | None = None
    max_rounds: int = 5
    output_format: str = "text"
    trials: int = 10_000

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ParameterError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if not (0.0 < self.alpha < 1.0):
            raise ParameterError(f"alpha must lie in (0, 1), got {self.alpha!r}")
        if self.lam is not None and not (np.isfinite(self.lam) and self.lam > 0.0):
            raise ParameterError(f"lambda must be positive, got {self.lam!r}")
        if self.max_rounds < 1:
            raise ParameterError(f"max-rounds must be at least 1, got {self.max_rounds}")
        if self.output_format not in ("text", "json"):
            raise ParameterError(f"format must be text or json, got {self.output_format!r}")
        if self.trials < 1000:
            raise ParameterError(f"trials must be at least 1000, got {self.trials}")


def _ascii_number(text: str, kind: type):
    """``kind(text)`` for kind int or float, refusing Python's literal forms.

    int() and float() also read 1_0 as 10 and full-width digits as
    digits.  An int here is ASCII digits with an optional sign; a float
    is what float() reads from ASCII text without '_'.  Raises ValueError.
    """
    if kind is int:
        ok = re.fullmatch(r"[+-]?[0-9]+", text) is not None
    else:
        ok = text.isascii() and "_" not in text
    if not ok:
        raise ValueError(text)
    return kind(text)


def ingest(input_path, excluded_regions=()) -> CountPanel:
    """Parse and validate a panel CSV.

    Rows for a region in ``excluded_regions`` (non-reporting areas) must
    carry zero counts and are kept as excluded cells; a positive count
    there is a data error, not something to drop silently.  All parse
    errors name the offending line.
    """
    path = Path(input_path)
    excluded = frozenset(excluded_regions)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise PanelFormatError(f"{path}: {exc.strerror or exc}") from exc
    if not rows:
        raise PanelFormatError(f"{path}:1: empty file, expected header {','.join(HEADER)}")
    if tuple(f.strip() for f in rows[0]) != HEADER:
        raise PanelFormatError(
            f"{path}:1: expected header {','.join(HEADER)}, got {','.join(rows[0])!r}"
        )
    cells = []
    seen: dict[tuple[str, str], int] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) == 0:
            continue  # trailing blank line
        if len(row) != 4:
            raise PanelFormatError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
        region, period, count_s, pop_s = (f.strip() for f in row)
        if not region or not period:
            raise PanelFormatError(f"{path}:{lineno}: empty region or period")
        key = (region, period)
        if key in seen:
            raise PanelFormatError(
                f"{path}:{lineno}: duplicate cell {region},{period} "
                f"(first seen at line {seen[key]})"
            )
        seen[key] = lineno
        try:
            count = _ascii_number(count_s, int)
        except ValueError:
            raise PanelFormatError(
                f"{path}:{lineno}: count must be an integer, got {count_s!r}"
            ) from None
        if count < 0:
            raise PanelFormatError(f"{path}:{lineno}: negative count {count}")
        if not pop_s:
            raise PanelFormatError(f"{path}:{lineno}: missing population")
        try:
            population = _ascii_number(pop_s, float)
        except ValueError:
            raise PanelFormatError(
                f"{path}:{lineno}: population must be a number, got {pop_s!r}"
            ) from None
        if not (np.isfinite(population) and population > 0.0):
            raise PanelFormatError(
                f"{path}:{lineno}: population must be positive, got {pop_s!r}"
            )
        included = True
        if region in excluded:
            if count > 0:
                raise PanelFormatError(
                    f"{path}:{lineno}: region {region} is excluded from reporting "
                    f"but carries count {count}"
                )
            included = False
        cells.append(PanelCell(region, period, count, population, included))
    if not cells:
        raise PanelFormatError(f"{path}: no data rows after the header")
    try:
        return CountPanel(tuple(cells))
    except DataError as exc:  # defense in depth; parse checks should catch first
        raise PanelFormatError(f"{path}: {exc}") from exc


def write_panel(panel: CountPanel, output_path) -> None:
    """Inverse of ingest for all-included panels (exact round-trip)."""
    with open(output_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(HEADER)
        for c in panel.cells:
            pop = (
                str(int(c.population))
                if float(c.population).is_integer()
                else repr(c.population)
            )
            writer.writerow([c.region_id, c.period_id, c.count, pop])


def _report_payload(report: EpidemicReport) -> dict:
    return {
        "alpha": report.alpha,
        "n": report.n,
        "lambda": report.lambda_used,
        "p_lower": report.bounds.lower,
        "p_upper": report.bounds.upper,
        "phi": report.decision.rejection_probability,
        "branch": report.decision.branch,
        "threshold": report.decision.threshold,
        "threshold_sf": report.decision.survival_threshold,
        "flagged_region": report.flagged_cell[0],
        "flagged_period": report.flagged_cell[1],
        "seed": report.seed,
        "rejected": report.rejected,
    }


def _fmt_sig2(x: float) -> str:
    # Two significant figures, positional notation: 6.454e-4 -> '0.00065'.
    return np.format_float_positional(float(x), precision=2, fractional=False, trim="-")


def _decision_line(payload: dict) -> str:
    if payload["rejected"] is True:
        return "decision: reject"
    if payload["rejected"] is False:
        return "decision: accept"
    return "decision: unresolved randomized branch (pass --seed for a hard decision)"


def _text_report(payload: dict) -> str:
    # Every numeric here restates a JSON field, rounded at most.
    return "\n".join(
        [
            f"n={payload['n']} cells  alpha={payload['alpha']}  lambda={payload['lambda']}",
            f"p-value bounds: [{_fmt_sig2(payload['p_lower'])}, {_fmt_sig2(payload['p_upper'])}]",
            f"branch={payload['branch']}  phi={payload['phi']}  threshold={payload['threshold']}",
            f"flagged cell: {payload['flagged_region']} {payload['flagged_period']}",
            _decision_line(payload),
        ]
    )


def run(config: RunConfig) -> int:
    """Execute one configured invocation; returns the exit status."""
    try:
        panel = ingest(config.input_path)
        if config.mode == "test":
            report = epidemic_test(
                panel, lam=config.lam, alpha=config.alpha, seed=config.seed
            )
            payload = _report_payload(report)
            if config.output_format == "json":
                print(json.dumps(payload, indent=2))
            else:
                print(_text_report(payload))
            return 2 if report.rejected is True else 0
        if config.mode == "peel":
            reports = peel_test(
                panel,
                lam=config.lam,
                alpha=config.alpha,
                max_rounds=config.max_rounds,
                seed=config.seed,
            )
            payload = {"rounds": [_report_payload(r) for r in reports]}
            if config.output_format == "json":
                print(json.dumps(payload, indent=2))
            else:
                blocks = [
                    f"round {i}:\n{_text_report(p)}"
                    for i, p in enumerate(payload["rounds"], start=1)
                ]
                print("\n\n".join(blocks))
            return 2 if (reports and reports[0].rejected is True) else 0
        # simulate-null
        if config.seed is None:
            raise ParameterError(
                f"simulate-null needs a seed (--seed or {ENV_SEED}) for reproducibility"
            )
        lam = config.lam if config.lam is not None else estimate_lambda(panel)
        dists = tuple(null_distributions(panel, lam))
        result = simulate_size_and_power(
            SimulationConfig(
                panel_template=dists,
                alpha=config.alpha,
                n_trials=config.trials,
                seed=config.seed,
            )
        )
        payload = {
            "alpha": config.alpha,
            "n": len(dists),
            "lambda": lam,
            "trials": result.n_trials,
            "rejection_rate": result.rejection_rate,
            "std_error": result.std_error,
            "seed": config.seed,
        }
        if config.output_format == "json":
            print(json.dumps(payload, indent=2))
        else:
            print(
                f"n={payload['n']} cells  alpha={payload['alpha']}  lambda={payload['lambda']}\n"
                f"trials={payload['trials']}  rejection rate={payload['rejection_rate']}"
                f"  std error={payload['std_error']}\n"
                f"seed={payload['seed']}"
            )
        return 0
    except (ExtremeSentinelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


class _Parser(argparse.ArgumentParser):
    # Usage errors must exit 1: status 2 is reserved for rejections.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _flag(kind: type):
    """argparse type reading ``kind`` through _ascii_number."""

    def convert(text):
        try:
            return _ascii_number(text, kind)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None

    return convert


def main(argv=None) -> int:
    parser = _Parser(
        prog="extreme-sentinel",
        description=(
            "Detect a dominating component in an independent count panel "
            "with a randomized most-powerful test."
        ),
    )
    parser.add_argument("--input", required=True, help="panel CSV (region,period,count,population)")
    parser.add_argument("--mode", choices=_MODES, default="test")
    parser.add_argument("--alpha", type=_flag(float), default=0.05, help="test size (default 0.05)")
    parser.add_argument(
        "--lambda",
        dest="lam",
        type=_flag(float),
        default=None,
        help="cases per person-period; estimated from the panel when omitted",
    )
    parser.add_argument("--seed", type=_flag(int), default=None, help="seed for randomized decisions")
    parser.add_argument("--max-rounds", type=_flag(int), default=5, help="peel rounds cap (default 5)")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument(
        "--trials", type=_flag(int), default=10_000, help="simulate-null trial count (default 10000)"
    )
    args = parser.parse_args(argv)
    seed = args.seed
    if seed is None:
        env = os.environ.get(ENV_SEED)
        if env:
            try:
                seed = _ascii_number(env, int)
            except ValueError:
                print(f"error: {ENV_SEED} must be an integer, got {env!r}", file=sys.stderr)
                return 1
    try:
        config = RunConfig(
            input_path=Path(args.input),
            mode=args.mode,
            alpha=args.alpha,
            lam=args.lam,
            seed=seed,
            max_rounds=args.max_rounds,
            output_format=args.format,
            trials=args.trials,
        )
    except ExtremeSentinelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
