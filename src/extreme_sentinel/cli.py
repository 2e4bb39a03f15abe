"""Command-line front end: ingest count panels, run tests, print reports.

Input is a CSV with header ``region,period,count,population``.  Reports
go to standard output as text or JSON; JSON carries full precision and
stable key names, text rounds the p-value bounds to two significant
figures.  Exit status: 0 accept, 2 reject, 1 any error.

``RunConfig`` holds every flag's default: each flag is stored under the
name of its ``RunConfig`` field, and an absent flag is left to the field.
"""

from __future__ import annotations

import argparse
import codecs
import csv
import io
import json
import os
import re
import sys
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DataError,
    ExtremeSentinelError,
    PanelFormatError,
    ParameterError,
    _integer,
    _real,
)
from .surveillance import (
    CountPanel,
    EpidemicReport,
    _check_panel,
    _first_fault,
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
_FORMATS = ("text", "json")


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
        _real(self.alpha, "alpha", 0.0, 1.0)
        if self.lam is not None:
            _real(self.lam, "lambda", 0.0)
        _integer(self.max_rounds, "max-rounds", 1)
        if self.output_format not in _FORMATS:
            raise ParameterError(f"format must be text or json, got {self.output_format!r}")
        _integer(self.trials, "trials", 1000)


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


def _numbers(texts: Sequence[str], kind: type) -> np.ndarray | list | None:
    """The column read as ``kind`` when _ascii_number reads every text, else None.

    A column of ASCII digits below 10**15, so exact in int64 and float64,
    is read by numpy in one call into an int64 (kind int) or float64
    (kind float) array.  Any other column is read value by value, after
    one check of the whole column: its text is ASCII without '_'.  That
    is _ascii_number's whole float rule, and for stripped text its int
    rule too, as int() reads no other such text than a sign and digits.
    """
    framed = f",{','.join(texts)},".encode()
    if framed.translate(None, b"0123456789") == b"," * (len(texts) + 1) and b",," not in framed:
        values = np.fromstring(framed[1:-1], dtype=np.int64, sep=",")  # saturates past 2**63
        if values.max() < 10**15:
            return values if kind is int else values.astype(np.float64)
    joined = "".join(texts)
    if joined.isascii() and "_" not in joined:
        try:
            return list(map(kind, texts))
        except ValueError:
            pass
    return None


def _path(value, what: str) -> Path:
    """``Path(value)`` for a str or an os.PathLike naming a str path; raises ParameterError."""
    if isinstance(value, (str, os.PathLike)) and isinstance(os.fspath(value), str):
        return Path(value)
    raise ParameterError(f"{what} must be a str or os.PathLike, got {type(value).__name__}")


def _text_fault(count: str, population: str) -> str | None:
    """The first text rule a row's stripped count and population break, in order, or None."""
    try:
        _ascii_number(count, int)
    except ValueError:
        return f"count must be an integer, got {count!r}"
    if not population:
        return "missing population"
    try:
        _ascii_number(population, float)
    except ValueError:
        return f"population must be a number, got {population!r}"
    return None


def _csv_columns(path: Path, data: bytes) -> tuple[tuple, Sequence[int], tuple | None]:
    """The file's stripped text columns as ``csv.reader`` reads them, their lines, any ragged row.

    A row's line is the one its record starts on.  The ragged row is the
    first row without four fields, as (row, reason), or None; the columns
    hold the rows before it.  Blank lines are skipped.  A file that cannot
    be read, or whose header is wrong, raises PanelFormatError.
    """
    try:
        with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            # A tuple of strings leaves the garbage collector's watch; a list does not.
            rows, ends = [], [0]  # ends[i]: the line record i - 1 ends on
            for row in reader:
                rows.append(tuple(row))
                ends.append(reader.line_num)
    except UnicodeDecodeError as exc:
        raise PanelFormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    except csv.Error as exc:
        raise PanelFormatError(f"{path}:{reader.line_num}: {exc}") from exc
    if not rows:
        raise PanelFormatError(f"{path}:1: empty file, expected header {','.join(HEADER)}")
    if tuple(f.strip() for f in rows[0]) != HEADER:
        raise PanelFormatError(
            f"{path}:1: expected header {','.join(HEADER)}, got {','.join(rows[0])!r}"
        )
    body, lines = rows[1:], [end + 1 for end in ends[1:-1]]
    fault = None  # the first bad row and its reason
    if set(map(len, body)) != {4}:
        lines = [line for line, row in zip(lines, body) if row]  # blank lines are skipped
        body = [row for row in body if row]
        if not body:
            raise PanelFormatError(f"{path}: no data rows after the header")
        i = next((i for i, row in enumerate(body) if len(row) != 4), None)
        if i is not None:  # columns come from the rows before it
            fault = i, f"expected 4 fields, got {len(body[i])}"
            body = body[:i]
    columns = tuple(tuple(map(str.strip, map(itemgetter(k), body))) for k in range(4))
    return columns, lines, fault


# Deleting the bytes a field may hold as it is, and flagging every other
# byte but ',' and '\n' as '!', leaves ',,,\n' per line of a plain file.
_ORDINARY = bytes(b for b in range(128) if b not in b',\n"\r\0' and not chr(b).isspace())
_FLAGGED = bytes(b if b in b",\n" else ord("!") for b in range(256))


def _plain_columns(data: bytes) -> list[list[str]] | None:
    """The four columns of a plain file, by one split, or None when ``data`` is not plain.

    A plain file is ASCII and ends in a newline.  It holds no quote,
    carriage return, NUL or other byte that ``str.strip`` removes, four
    fields on every line, so no blank line, and no line longer than
    ``csv.field_size_limit()``.  Its header is exact and at least one row
    follows.  On such a file ``csv.reader`` reads these same fields, and
    stripping them changes none.
    """
    shape = data.translate(_FLAGGED, _ORDINARY)
    if not data.endswith(b"\n") or shape != b",,,\n" * data.count(b"\n"):
        return None
    limit = csv.field_size_limit()
    if len(data) > limit:  # no field is longer than its line
        ends = np.flatnonzero(np.frombuffer(data, np.uint8) == ord("\n"))
        if np.diff(ends, prepend=-1).max() > limit + 1:
            return None
    fields = data.decode("ascii").replace("\n", ",").split(",")
    if tuple(fields[:4]) != HEADER or len(fields) < 9:
        return None
    return [fields[k:-1:4] for k in range(4, 8)]


def ingest(input_path) -> CountPanel:
    """Read a UTF-8 panel CSV; every row is a cell that enters the test.

    A non-reporting area is left out of the file, not given zero rows.
    A leading byte-order mark is dropped.  A plain file (ASCII, ending
    in a newline, no quote, carriage return, NUL, tab or other byte that
    ``str.strip`` removes, exactly four fields on every line, so no blank
    line, and no field past the csv limit) is cut into its four columns
    by one split, with no strip pass; any other file is read by
    ``csv.reader`` and its fields are stripped.  A count or population
    column of plain digits is read in bulk, any other value by value.
    The text rules come first: when both numeric columns read as
    numbers there is no text fault, otherwise one scan checks each row's
    count literal, then a missing population, then the population
    literal.  ``CountPanel``'s panel rules come next, so a bad literal
    is reported before any bad value.  Errors name the line on which the
    first bad record starts: the panel rules run again, naming lines,
    only when the panel refuses the columns.
    """
    path = _path(input_path, "input path")
    try:
        data = path.read_bytes().removeprefix(codecs.BOM_UTF8)
    except OSError as exc:
        raise PanelFormatError(f"{path}: {exc.strerror or exc}") from exc
    columns = _plain_columns(data)
    if columns is None:
        columns, lines, fault = _csv_columns(path, data)
    else:  # a plain file has no blank line
        lines, fault = range(2, len(columns[0]) + 2), None
    region_ids, period_ids, count_texts, pop_texts = columns
    counts, populations = _numbers(count_texts, int), _numbers(pop_texts, float)
    if counts is None or populations is None:
        for i, reason in enumerate(map(_text_fault, count_texts, pop_texts)):
            if reason is not None:
                fault = i, reason
                break
    if fault is None:
        try:
            return CountPanel(region_ids, period_ids, counts, populations)
        except DataError:
            fault = _first_fault(
                region_ids, period_ids, counts, populations, lambda j: f"line {lines[j]}"
            )
    raise PanelFormatError(f"{path}:{lines[fault[0]]}: {fault[1]}")


def write_panel(panel: CountPanel, output_path) -> None:
    """Inverse of ingest: ``ingest`` of the written file returns an equal panel.

    ``output_path`` is a str or an os.PathLike; anything else raises ParameterError.
    """
    _check_panel(panel)
    path = _path(output_path, "output path")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        # Before Python 3.13 csv.writer leaves a bare '\r' unquoted: such rows are quoted whole.
        quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(HEADER)
        for row in zip(
            panel.region_ids, panel.period_ids, panel.counts.tolist(), panel.populations.tolist()
        ):
            pop = row[3]
            fields = [*row[:3], str(int(pop)) if pop.is_integer() else repr(pop)]
            (quoted if "\r" in row[0] + row[1] else writer).writerow(fields)


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


def _text_rounds(payload: dict) -> str:
    return "\n\n".join(
        f"round {i}:\n{_text_report(p)}" for i, p in enumerate(payload["rounds"], start=1)
    )


def _text_simulation(payload: dict) -> str:
    return (
        f"n={payload['n']} cells  alpha={payload['alpha']}  lambda={payload['lambda']}\n"
        f"trials={payload['trials']}  rejection rate={payload['rejection_rate']}"
        f"  std error={payload['std_error']}\n"
        f"seed={payload['seed']}"
    )


def _emit(config: RunConfig, payload: dict, text: Callable[[dict], str]) -> None:
    """Print the payload as indented JSON or through its text renderer."""
    print(json.dumps(payload, indent=2) if config.output_format == "json" else text(payload))


def run(config: RunConfig) -> int:
    """Execute one configured invocation; returns the exit status."""
    try:
        panel = ingest(config.input_path)
        if config.mode == "test":
            report = epidemic_test(
                panel, lam=config.lam, alpha=config.alpha, seed=config.seed
            )
            _emit(config, _report_payload(report), _text_report)
            return 2 if report.rejected is True else 0
        if config.mode == "peel":
            reports = peel_test(
                panel,
                lam=config.lam,
                alpha=config.alpha,
                max_rounds=config.max_rounds,
                seed=config.seed,
            )
            _emit(config, {"rounds": [_report_payload(r) for r in reports]}, _text_rounds)
            return 2 if reports[0].rejected is True else 0
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
        _emit(config, payload, _text_simulation)
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


_PARSER = _Parser(
    prog="extreme-sentinel",
    description=(
        "Detect a dominating component in an independent count panel "
        "with a randomized most-powerful test."
    ),
    argument_default=argparse.SUPPRESS,  # an absent flag takes RunConfig's default
)
_PARSER.add_argument(
    "--input",
    dest="input_path",
    type=Path,
    metavar="INPUT",
    required=True,
    help="panel CSV (region,period,count,population)",
)
_PARSER.add_argument("--mode", choices=_MODES)
_PARSER.add_argument("--alpha", type=_flag(float), help=f"test size (default {RunConfig.alpha})")
_PARSER.add_argument(
    "--lambda",
    dest="lam",
    type=_flag(float),
    help="cases per person-period; estimated from the panel when omitted",
)
_PARSER.add_argument("--seed", type=_flag(int), help="seed for randomized decisions")
_PARSER.add_argument(
    "--max-rounds", type=_flag(int), help=f"peel rounds cap (default {RunConfig.max_rounds})"
)
_PARSER.add_argument("--format", dest="output_format", choices=_FORMATS)
_PARSER.add_argument(
    "--trials", type=_flag(int), help=f"simulate-null trial count (default {RunConfig.trials})"
)


def main(argv=None) -> int:
    args = vars(_PARSER.parse_args(argv))
    env = os.environ.get(ENV_SEED)
    if "seed" not in args and env:
        try:
            args["seed"] = _ascii_number(env, int)
        except ValueError:
            print(f"error: {ENV_SEED} must be an integer, got {env!r}", file=sys.stderr)
            return 1
    try:
        config = RunConfig(**args)
    except ExtremeSentinelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
