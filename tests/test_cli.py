"""Tests for panel ingestion and the command-line front end."""

import csv
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from panel_rows import panel_of, surveil_csv

from extreme_sentinel import cli
from extreme_sentinel.cli import (
    ENV_SEED,
    HEADER,
    RunConfig,
    _fmt_sig2,
    ingest,
    main,
    run,
    write_panel,
)
from extreme_sentinel.errors import (
    DataError,
    PanelFormatError,
    ParameterError,
    _integer,
    _real,
    _shown,
)
from extreme_sentinel.surveillance import listeriosis_fixture_path

FIXTURE = str(listeriosis_fixture_path())


@pytest.fixture(autouse=True)
def _no_ambient_seed(monkeypatch):
    monkeypatch.delenv(ENV_SEED, raising=False)


def write_csv(tmp_path, body, name="panel.csv"):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return str(path)


class TestIngest:
    def test_fixture(self):
        panel = ingest(FIXTURE)
        assert panel.n == 40
        assert sum(panel.counts.tolist()) == 35

    def test_missing_file(self, tmp_path):
        with pytest.raises(PanelFormatError):
            ingest(tmp_path / "nope.csv")

    def test_empty_file(self, tmp_path):
        with pytest.raises(PanelFormatError, match="empty file"):
            ingest(write_csv(tmp_path, ""))

    def test_header_only(self, tmp_path):
        with pytest.raises(PanelFormatError, match="no data rows"):
            ingest(write_csv(tmp_path, "region,period,count,population\n"))

    def test_wrong_header(self, tmp_path):
        with pytest.raises(PanelFormatError, match=":1:"):
            ingest(write_csv(tmp_path, "area,year,cases,pop\nA,1,0,10\n"))

    def test_field_count(self, tmp_path):
        body = "region,period,count,population\nA,1,0\n"
        with pytest.raises(PanelFormatError, match=":2:"):
            ingest(write_csv(tmp_path, body))

    def test_duplicate_key_names_both_lines(self, capsys, tmp_path):
        body = "region,period,count,population\nA,1,0,10\nA,1,2,10\n"
        path = write_csv(tmp_path, body)
        with pytest.raises(PanelFormatError, match=r":3:.*line 2"):
            ingest(path)
        says = f"error: {path}:3: duplicate key, first seen at line 2\n"
        assert run_main(capsys, "--input", path) == (1, "", says)

    def test_negative_count(self, tmp_path):
        body = "region,period,count,population\nA,1,-1,10\n"
        with pytest.raises(PanelFormatError, match=":2:.*negative"):
            ingest(write_csv(tmp_path, body))

    def test_non_integer_count(self, tmp_path):
        # int() would read the last three as 10, 12 and 3.
        for count in ("two", "1.0", "1_0", "\uff11\uff12", "\u0663"):
            body = f"region,period,count,population\nA,1,{count},10\n"
            with pytest.raises(PanelFormatError, match=":2:.*integer"):
                ingest(write_csv(tmp_path, body))

    def test_missing_population(self, tmp_path):
        body = "region,period,count,population\nA,1,0,\n"
        with pytest.raises(PanelFormatError, match=":2:.*population"):
            ingest(write_csv(tmp_path, body))

    def test_non_numeric_population(self, tmp_path):
        # float() would read the last two as 1000 and 10.
        for pop in ("ten", "1_000", "\uff11\uff10"):
            body = f"region,period,count,population\nA,1,0,{pop}\n"
            with pytest.raises(PanelFormatError, match=":2:.*population must be a number"):
                ingest(write_csv(tmp_path, body))

    def test_signed_count_accepted(self, tmp_path):
        body = "region,period,count,population\nA,1,+3,10\n"
        assert ingest(write_csv(tmp_path, body)).counts.tolist() == [3]

    def test_nonpositive_population(self, tmp_path):
        body = "region,period,count,population\nA,1,0,0\n"
        with pytest.raises(PanelFormatError, match=":2:.*positive"):
            ingest(write_csv(tmp_path, body))

    def test_count_past_two_to_the_53_exits_one(self, capsys, tmp_path):
        # 400 nines once escaped as a raw OverflowError from the float pass.
        path = write_csv(tmp_path, f"region,period,count,population\nA,1,{'9' * 400},10\n")
        code, out, err = run_main(capsys, "--input", path, "--lambda", "1e-6")
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}:2: count must be a non-negative integer")
        assert "Traceback" not in err

    def test_file_is_read_before_its_cells_are_checked(self, capsys, tmp_path):
        # Line 2 holds a bad value and line 3 a bad literal: the literal is reported.
        for literal in ("two", "1_0"):
            body = f"region,period,count,population\nA,1,-1,10\nB,1,{literal},10\n"
            path = write_csv(tmp_path, body)
            with pytest.raises(PanelFormatError, match=":3:.*count must be an integer"):
                ingest(path)
            says = f"error: {path}:3: count must be an integer, got {literal!r}\n"
            assert run_main(capsys, "--input", path) == (1, "", says)
        body = "region,period,count,population\nA,1,0,10\nA,1,0,10\nB,1,0,\n"
        with pytest.raises(PanelFormatError, match=":4:.*missing population"):
            ingest(write_csv(tmp_path, body))

    def test_undecodable_bytes_exit_one(self, capsys, tmp_path):
        # Bytes that are not UTF-8 once escaped as a raw UnicodeDecodeError.
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"region,period,count,population\nA\xff,1,0,10\n")
        with pytest.raises(PanelFormatError, match="not UTF-8 text") as read:
            ingest(path)
        assert str(read.value).startswith(f"{path}: ")
        code, out, err = run_main(capsys, "--input", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}: not UTF-8 text") and "Traceback" not in err

    def test_oversized_field_names_its_line(self, capsys, tmp_path):
        # A field past the csv module's 131072-character limit once escaped as _csv.Error.
        body = f"region,period,count,population\nA,1,0,10\nB,{'9' * 200_000},0,10\n"
        path = write_csv(tmp_path, body)
        with pytest.raises(PanelFormatError, match=rf"^{re.escape(path)}:3: field larger"):
            ingest(path)
        code, out, err = run_main(capsys, "--input", path)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}:3: field larger") and "Traceback" not in err

    @pytest.mark.parametrize("spanned", ['"A\nX"', '"A\nX\nY"', '"A\r\nX\rY"'])
    @pytest.mark.parametrize("blank", ["", "\n"])
    def test_errors_name_the_line_a_record_starts_on(self, capsys, tmp_path, spanned, blank):
        # A quoted id that spans lines once shifted every later line named,
        # as rows were numbered by their index.
        head = f"region,period,count,population\n{blank}{spanned},1,0,10\n{blank}"
        at = len(re.findall(r"\r\n|\r|\n", head)) + 1  # the line after head
        then = at + 1 + len(blank)
        cases = {
            "B,1,0\n": f"{at}: expected 4 fields, got 3",
            "B,1,x,10\n": f"{at}: count must be an integer, got 'x'",
            f"B,1,1,10\n{blank}B,1,2,10\n": f"{then}: duplicate key, first seen at line {at}",
        }
        for tail, says in cases.items():
            path = tmp_path / "spanned.csv"
            path.write_bytes((head + tail).encode())
            with pytest.raises(PanelFormatError) as read:
                ingest(path)
            assert str(read.value) == f"{path}:{says}"
            code, out, err = run_main(capsys, "--input", str(path))
            assert (code, out, err) == (1, "", f"error: {path}:{says}\n")

    def test_byte_order_mark_is_dropped(self, capsys, tmp_path):
        # Spreadsheet programs often start a UTF-8 file with one; it once broke the header.
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + Path(FIXTURE).read_bytes())
        assert ingest(path) == ingest(FIXTURE)
        args = ("--alpha", "0.01", "--lambda", "9.703e-7", "--format", "json")
        assert run_main(capsys, "--input", str(path), *args) == run_main(
            capsys, "--input", FIXTURE, *args
        )
        path.write_bytes(b"\xef\xbb\xbfregion,period,count,population\r\nA,1,0,10\r\n")
        assert ingest(path) == panel_of([("A", "1", 0, 10.0)])

    def test_path_that_is_not_a_path(self, capsys, tmp_path):
        # bytes and ints are refused too: open() reads an int as a file descriptor.
        write_csv(tmp_path, "region,period,count,population\nA,1,0,10\n")
        for value in (None, 0, 3, str(tmp_path / "panel.csv").encode()):
            with pytest.raises(ParameterError, match="input path must be a str or os.PathLike"):
                ingest(value)
            assert run(RunConfig(input_path=value)) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: input path must be") and "Traceback" not in err


# One planted fault per CSV: (kind, how its reason starts).
FAULTS = (
    ("empty region", "ids must be non-empty strings"),
    ("empty period", "ids must be non-empty strings"),
    ("duplicate", "duplicate key, first seen at line"),
    ("negative count", "count must be a non-negative integer"),
    ("zero population", "population must be a positive finite number"),
    ("negative population", "population must be a positive finite number"),
    ("inf population", "population must be a positive finite number"),
    ("nan population", "population must be a positive finite number"),
)
BAD_POPULATIONS = {"zero": "0", "negative": "-2.5", "inf": "inf", "nan": "nan"}


class TestOneRuleSet:
    def test_ingest_and_count_panel_name_the_same_fault(self, tmp_path):
        # ingest names the planted line; CountPanel on the same cells names its key.
        rng = np.random.default_rng(20111)
        path = tmp_path / "panel.csv"
        for trial in range(240):
            kind, says = FAULTS[trial % len(FAULTS)]
            dup = kind == "duplicate"
            rows = [
                [f"R{i}", str(2000 + i % 4), str(rng.integers(0, 20)), repr(rng.uniform(1e3, 1e6))]
                for i in range(int(rng.integers(dup, 30)))
            ]
            at = int(rng.integers(dup, len(rows) + 1))
            bad = ["X", "1", "3", "1000"]
            if dup:
                first = int(rng.integers(0, at))
                bad[:2] = rows[first][:2]
            elif kind == "empty region":
                bad[0] = ""
            elif kind == "empty period":
                bad[1] = ""
            elif kind == "negative count":
                bad[2] = str(-rng.integers(1, 5))
            else:
                bad[3] = BAD_POPULATIONS[kind.split()[0]]
            rows.insert(at, bad)
            # Blank lines are skipped, so a row's line is not its index plus 2.
            text, lines = ["region,period,count,population"], []
            for row in rows:
                if rng.random() < 0.2:
                    text.append("")
                text.append(",".join(row))
                lines.append(len(text))
            path.write_text("\n".join(text) + "\n", encoding="utf-8")

            with pytest.raises(PanelFormatError) as read:
                ingest(path)
            prefix = f"{path}:{lines[at]}: "
            assert str(read.value).startswith(prefix + says), (kind, str(read.value))
            reason = str(read.value)[len(prefix) :]
            if dup:
                assert reason.endswith(f"line {lines[first]}")
                reason = reason.replace(f"line {lines[first]}", f"position {first}")
            with pytest.raises(DataError) as built:
                panel_of((r, p, int(c), float(pop)) for r, p, c, pop in rows)
            assert str(built.value) == f"cell {(bad[0], bad[1])!r}: {reason}"


def reference_rules(rows, where):
    """The per-row rule loop, kept as an oracle: the first (index, reason), or None.

    ``rows`` are (region, period, count, population) tuples.
    """
    first = {}
    for i, (region, period, count, population) in enumerate(rows):
        if not all(isinstance(x, str) and x and x == x.strip() for x in (region, period)):
            return i, "ids must be non-empty strings without surrounding whitespace"
        j = first.setdefault((region, period), i)
        if j != i:
            return i, f"duplicate key, first seen at {where(j)}"
        try:
            _integer(count, "count", 0, 2**53)
        except ParameterError:
            return i, f"count must be a non-negative integer below 2**53, got {_shown(count)}"
        try:
            _real(population, "population", 0.0)
        except ParameterError:
            return i, f"population must be a positive finite number, got {_shown(population)}"
    return None


def reference_ingest(path):
    """The per-row reading loop, kept as an oracle: (error message or None, cell rows).

    A leading byte-order mark is dropped, a row's line is the one its
    record starts on, and a csv error names the reader's line.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        rows, starts = [], [1]
        try:
            for row in reader:
                rows.append(row)
                starts.append(reader.line_num + 1)
        except csv.Error as exc:
            return f"{path}:{reader.line_num}: {exc}", None
    cells, lines = [], []
    for lineno, row in zip(starts[1:], rows[1:]):
        if not row:
            continue
        if len(row) != 4:
            return f"{path}:{lineno}: expected 4 fields, got {len(row)}", None
        region, period, count_s, pop_s = (f.strip() for f in row)
        if re.fullmatch(r"[+-]?[0-9]+", count_s) is None:
            return f"{path}:{lineno}: count must be an integer, got {count_s!r}", None
        if not pop_s:
            return f"{path}:{lineno}: missing population", None
        if not pop_s.isascii() or "_" in pop_s:
            return f"{path}:{lineno}: population must be a number, got {pop_s!r}", None
        try:
            population = float(pop_s)
        except ValueError:
            return f"{path}:{lineno}: population must be a number, got {pop_s!r}", None
        cells.append((region, period, int(count_s), population))
        lines.append(lineno)
    fault = reference_rules(cells, lambda j: f"line {lines[j]}")
    return (None if fault is None else f"{path}:{lines[fault[0]]}: {fault[1]}"), tuple(cells)


# Faults in rule order: the text rules, then the panel rules.
PLANTED = (
    "ragged",
    "count literal",
    "missing population",
    "population literal",
    "ids",
    "duplicate",
    "count value",
    "population value",
)


def plant(kind, rows, at, rng):
    """Row ``at`` of ``rows`` with one fault of ``kind``; rows are lists of four texts."""
    row = list(rows[at])

    def pick(*texts):
        return str(rng.choice(texts))

    if kind == "ragged":
        return row[: int(rng.integers(1, 4))] if rng.random() < 0.5 else row + ["x"]
    if kind == "count literal":
        row[2] = pick("1_0", "two", "1.0", "\uff11", "")
    elif kind == "missing population":
        row[3] = pick("", " ")
    elif kind == "population literal":
        row[3] = pick("1_000", "ten", "\uff11\uff10")
    elif kind == "ids":
        row[int(rng.integers(2))] = pick("", " ")
    elif kind == "duplicate":
        row[:2] = rows[int(rng.integers(0, at))][:2]
    elif kind == "count value":
        row[2] = pick("-1", "-40", str(2**53), "9" * 30)
    else:
        row[3] = pick("0", "-2.5", "inf", "nan")
    return row


class TestRowOrderBeatsRuleOrder:
    def test_two_faults_match_the_per_row_reference(self, tmp_path):
        # The later fault breaks an earlier rule: a check that takes the first
        # row per rule, not per row, names the wrong line.
        rng = np.random.default_rng(131313)
        path = tmp_path / "panel.csv"
        built = 0
        for trial in range(2000):
            n = int(rng.integers(4, 25))
            rows = [
                [f"R{i}", str(2000 + i % 4), str(rng.integers(0, 20)), repr(rng.uniform(1e3, 1e6))]
                for i in range(n)
            ]
            early, late = sorted(rng.choice(np.arange(1, n), 2, replace=False).tolist())
            late_kind = int(rng.integers(0, len(PLANTED) - 1))
            early_kind = int(rng.integers(late_kind + 1, len(PLANTED)))
            if rng.random() < 0.25:  # sometimes the rule order agrees with the row order
                early_kind, late_kind = late_kind, early_kind
            for at, kind in ((early, early_kind), (late, late_kind)):
                rows[at] = plant(PLANTED[kind], rows, at, rng)
            text = ["region,period,count,population"]
            for row in rows:
                if rng.random() < 0.15:
                    text.append("")  # a blank line shifts every later line
                text.append(",".join(row))
            path.write_text("\n".join(text) + "\n", encoding="utf-8")

            expected, cells = reference_ingest(path)
            assert expected is not None, (trial, rows)
            with pytest.raises(PanelFormatError) as read:
                ingest(path)
            assert str(read.value) == expected, (trial, rows)
            if cells is not None:  # no text fault: CountPanel names the same cell
                i, reason = reference_rules(cells, lambda j: f"position {j}")
                key = cells[i][:2]
                with pytest.raises(DataError) as panel:
                    panel_of(cells)
                assert str(panel.value) == f"cell {_shown(key)}: {reason}"
                built += 1
        assert built > 600, built


# Each CSV form the dialect differential writes, and whether a file in it is plain.
DIALECT_FORMS = {
    "plain": True,
    "byte-order mark": True,
    "signed counts": True,
    "leading zeros": True,
    "16-digit counts": True,
    "decimal populations": True,
    "exponent populations": True,
    "crlf": False,
    "lone cr": False,
    "quoted": False,
    "blank lines": False,
    "no final newline": False,
    "padded": False,
    "nul": False,
    "non-ascii id": False,
    "spanned id": False,
    "oversized field": False,
}


def dialect_csv(path, forms, rng):
    """Write a random panel in each of ``forms`` to ``path``, each form present at least once."""
    n = int(rng.integers(1, 25))
    rows = [
        [f"R{i}", str(2000 + i % 4), str(rng.integers(0, 30)), str(rng.integers(1000, 10**6))]
        for i in range(n)
    ]

    def some():
        """Row 0, and each other row with probability 1/2."""
        return [row for j, row in enumerate(rows) if j == 0 or rng.random() < 0.5]

    if "signed counts" in forms:
        for row in some():
            row[2] = str(rng.choice(["+", "+", "+", "-"])) + row[2]  # '-0' passes
    if "leading zeros" in forms:
        for row in some():
            row[2], row[3] = "0" * int(rng.integers(1, 4)) + row[2], "00" + row[3]
    if "16-digit counts" in forms:  # about one in nine reaches 2**53
        rows[int(rng.integers(n))][2] = str(rng.integers(10**15, 10**16))
    if "decimal populations" in forms:
        for row in some():
            row[3] = f"{rng.uniform(1e3, 1e6):.{int(rng.integers(1, 4))}f}"
    if "exponent populations" in forms:
        for row in some():
            row[3] = f"{rng.uniform(1, 9):.3f}{rng.choice(['e', 'E', 'e+'])}{rng.integers(3, 7)}"
    if "nul" in forms:
        rows[int(rng.integers(n))][0] += "\x00"
    if "spanned id" in forms:  # a quoted first id over two or three lines moves every later line
        rows[0][0] = '"R' + "\n" * int(rng.integers(1, 3)) + '0"'
    if "non-ascii id" in forms:
        k = int(rng.integers(n))
        rows[k][0] = f"Citt\u00e0{k}"
    if "oversized field" in forms:  # at, just past or far past the csv limit
        limit = csv.field_size_limit()
        rows[int(rng.integers(n))][0] = "x" * (limit + int(rng.choice([0, 1, 1000])))
    lines = [list(HEADER)] + rows
    if "padded" in forms:
        pads = ["", "", " ", "\t", "  ", " \t"]
        lines = [
            [str(rng.choice(pads)) + f + str(rng.choice(pads)) for f in line] for line in lines
        ]
        lines[-1][-1] += " "
    if "quoted" in forms:  # the header's first field, and a field holding ',' or '"', always
        lines[int(rng.integers(1, n + 1))][0] = str(rng.choice(['a,b', 'say "hi"', "R,0"]))
        lines = [
            [
                '"' + f.replace('"', '""') + '"'
                if (i, j) == (0, 0) or rng.random() < 0.5 or "," in f or '"' in f
                else f
                for j, f in enumerate(line)
            ]
            for i, line in enumerate(lines)
        ]
    text = [",".join(line) for line in lines]
    if "blank lines" in forms:
        for _ in range(int(rng.integers(1, 4))):
            text.insert(int(rng.integers(1, len(text) + 1)), "")
    end = "\r\n" if "crlf" in forms else "\r" if "lone cr" in forms else "\n"
    body = end.join(text) + ("" if "no final newline" in forms else end)
    if "byte-order mark" in forms:
        body = "\ufeff" + body
    path.write_bytes(body.encode("utf-8"))


class TestDialects:
    def test_every_form_matches_the_per_row_reference(self, capsys, tmp_path):
        rng = np.random.default_rng(2020)
        path = tmp_path / "panel.csv"
        names = list(DIALECT_FORMS)
        outcomes = {"panel": 0, "error": 0}
        for trial in range(960):
            forms = {names[trial % len(names)]}
            forms.update(rng.choice(names, int(rng.integers(0, 3)), replace=False).tolist())
            dialect_csv(path, forms, rng)
            expected, cells = reference_ingest(path)
            if expected is None:
                assert ingest(path) == panel_of(cells), (trial, forms)
                outcomes["panel"] += 1
            else:
                with pytest.raises(PanelFormatError) as read:
                    ingest(path)
                assert str(read.value) == expected, (trial, forms)
                outcomes["error"] += 1
        assert min(outcomes.values()) > 150, outcomes
        # The fixture's CRLF and fully quoted copies give its panel and report.
        data = Path(FIXTURE).read_bytes()
        quoted = "".join(
            ",".join(f'"{f}"' for f in line.split(",")) + "\n"
            for line in data.decode().splitlines()
        )
        args = ("--alpha", "0.01", "--lambda", "9.703e-7", "--format", "json")
        report = run_main(capsys, "--input", FIXTURE, *args)
        assert report[0] == 2
        for copy in (data.replace(b"\n", b"\r\n"), quoted.encode()):
            path.write_bytes(copy)
            assert ingest(path) == ingest(FIXTURE)
            assert run_main(capsys, "--input", str(path), *args) == report

    def test_only_files_that_are_not_plain_reach_the_csv_reader(self, tmp_path, monkeypatch):
        class Reached(Exception):
            pass

        def reader(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(cli.csv, "reader", reader)
        assert ingest(FIXTURE).n == 40
        assert ingest(surveil_csv(tmp_path)).n == 1040
        rng = np.random.default_rng(77)
        path = tmp_path / "panel.csv"
        for form, plain in DIALECT_FORMS.items():
            for _ in range(5):
                dialect_csv(path, {form}, rng)
                try:
                    ingest(path)
                    reached = False
                except Reached:
                    reached = True
                except PanelFormatError:  # a plain file may still hold a bad value
                    reached = False
                assert reached is not plain, form
        for body in (b"", b"region,period,count,population\n", b"area,year,cases,pop\nA,1,0,10\n"):
            path.write_bytes(body)
            with pytest.raises(Reached):
                ingest(path)


class TestWritePanel:
    def test_round_trip_fixture(self, tmp_path):
        panel = ingest(FIXTURE)
        out = tmp_path / "copy.csv"
        write_panel(panel, out)
        assert ingest(out) == panel

    def test_round_trip_fractional_population(self, tmp_path):
        out = tmp_path / "frac.csv"
        for pop in (123456.78, np.float64(123456.78), np.float32(1.5), np.int64(7)):
            panel = panel_of((("A", "1", 2, pop),))
            write_panel(panel, out)
            assert ingest(out) == panel

    def test_round_trip_ids_that_need_quotes(self, capsys, tmp_path):
        # csv.writer left a bare '\r' unquoted before Python 3.13, and the
        # file it wrote was read back as two records.
        ids = ["a,b", 'say "hi"', "A\nX", "A\rX", "A\r\nX", "A\x85X", "A\u2028X", "A\x0bX"]
        if sys.version_info >= (3, 11):  # csv.reader refuses NUL before Python 3.11
            ids.append("A\x00X")
        out = tmp_path / "ids.csv"
        panels = [panel_of([(x, "1", 1, 10.0), ("B", x, 2, 20.5)]) for x in ids]
        panels.append(panel_of([(x, y, 3, 30.0) for x in ids for y in ids]))
        panels.append(panel_of([("A\rX", "1", 9, 1000.0), ("B\nY", "1", 0, 2000.0)]))
        for panel in panels:
            write_panel(panel, out)
            assert ingest(out) == panel
        write_panel(panel_of([("A\rX", "1", 2, 10.0), ("B", "1", 0, 20.0)]), out)
        want = b'region,period,count,population\n"A\rX","1","2","10"\nB,1,0,20\n'
        assert out.read_bytes() == want
        args = ("--lambda", "0.01", "--format", "json")
        report = run_main(capsys, "--input", str(out), *args)
        assert report[0] == 2 and json.loads(report[1])["flagged_region"] == "A\rX"
        copy = tmp_path / "copy.csv"
        write_panel(ingest(out), copy)
        assert run_main(capsys, "--input", str(copy), *args) == report

    def test_a_panel_without_carriage_returns_keeps_its_bytes(self, tmp_path):
        # Only a row with a '\r' in an id is quoted, so other files stay plain.
        out = tmp_path / "copy.csv"
        write_panel(ingest(FIXTURE), out)
        assert out.read_bytes() == Path(FIXTURE).read_bytes()
        assert cli._plain_columns(out.read_bytes()) is not None

    def test_output_path_that_is_not_a_path(self, tmp_path):
        # An int once named a file descriptor: the panel was written to it and it was closed.
        panel = ingest(FIXTURE)
        read_end, write_end = os.pipe()
        try:
            for value in (None, write_end, str(tmp_path / "out.csv").encode()):
                with pytest.raises(ParameterError, match="output path must be a str or os.PathLike"):
                    write_panel(panel, value)
            os.fstat(write_end)  # still open
            os.set_blocking(read_end, False)
            with pytest.raises(BlockingIOError):
                os.read(read_end, 1)  # and nothing was written to it
        finally:
            os.close(read_end)
            os.close(write_end)
        assert not (tmp_path / "out.csv").exists()


def run_main(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


JSON_KEYS = {
    "alpha",
    "n",
    "lambda",
    "p_lower",
    "p_upper",
    "phi",
    "branch",
    "threshold",
    "threshold_sf",
    "flagged_region",
    "flagged_period",
    "seed",
    "rejected",
}


class TestRunTestMode:
    def test_fixture_json_reject(self, capsys):
        code, out, _ = run_main(
            capsys,
            "--input", FIXTURE,
            "--mode", "test",
            "--alpha", "0.01",
            "--lambda", "9.703e-7",
            "--format", "json",
        )
        assert code == 2
        payload = json.loads(out)
        assert set(payload) == JSON_KEYS
        assert payload["branch"] == "reject"
        assert payload["rejected"] is True
        assert payload["flagged_region"] == "BG"
        assert payload["flagged_period"] == "2010"
        assert payload["n"] == 40
        assert payload["p_lower"] < 0.001 and payload["p_upper"] < 0.001
        assert payload["lambda"] == 9.703e-7

    def test_threshold_sf_is_what_the_split_compares(self, capsys):
        # t rounds to 1.0 at this alpha; s = 1 - t keeps its precision.
        _, out, _ = run_main(capsys, "--input", FIXTURE, "--alpha", "1e-16", "--format", "json")
        payload = json.loads(out)
        assert payload["threshold"] == 1.0
        s = -math.expm1(math.log1p(-1e-16) / 40)
        assert payload["threshold_sf"] == pytest.approx(s, rel=1e-12)

    def test_all_zero_panel_accepts_exit_zero(self, capsys, tmp_path):
        body = "region,period,count,population\nA,1,0,1000000\n"
        path = write_csv(tmp_path, body)
        code, out, _ = run_main(
            capsys, "--input", path, "--lambda", "1e-6", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["branch"] == "accept"
        assert payload["rejected"] is False
        assert payload["p_lower"] == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)

    def test_all_zero_panel_without_rate_is_an_error(self, capsys, tmp_path):
        body = "region,period,count,population\nA,1,0,1000000\n"
        path = write_csv(tmp_path, body)
        code, out, err = run_main(capsys, "--input", path)
        assert code == 1
        assert out == ""
        assert "error" in err

    def test_unseeded_randomized_branch_is_left_unresolved(self, capsys, tmp_path):
        path = write_csv(tmp_path, "region,period,count,population\nA,1,1,1000000\n")
        code, out, err = run_main(capsys, "--input", path, "--lambda", "1e-6", "--alpha", "0.5")
        assert (code, err) == (0, "")
        assert "branch=randomized" in out
        assert out.endswith(
            "decision: unresolved randomized branch (pass --seed for a hard decision)\n"
        )

    def test_every_text_numeric_exists_in_json(self, capsys):
        args = ("--input", FIXTURE, "--alpha", "0.01", "--lambda", "9.703e-7")
        code_t, text, _ = run_main(capsys, *args, "--format", "text")
        code_j, blob, _ = run_main(capsys, *args, "--format", "json")
        assert code_t == code_j == 2
        payload = json.loads(blob)
        allowed = set()
        for v in payload.values():
            allowed.add(str(v))
            if isinstance(v, float):
                allowed.add(_fmt_sig2(v))
        tokens = re.findall(r"-?\d+(?:\.\d+)?(?:e-?\d+)?", text)
        for token in tokens:
            assert token in allowed, f"text numeral {token} missing from JSON payload"

    def test_byte_identical_json(self, capsys):
        args = (
            "--input", FIXTURE,
            "--alpha", "0.05",
            "--seed", "42",
            "--format", "json",
        )
        _, first, _ = run_main(capsys, *args)
        _, second, _ = run_main(capsys, *args)
        assert first == second


class TestRunPeelMode:
    def test_fixture_two_rounds(self, capsys):
        code, out, _ = run_main(
            capsys,
            "--input", FIXTURE,
            "--mode", "peel",
            "--alpha", "0.01",
            "--lambda", "9.703e-7",
            "--format", "json",
        )
        assert code == 2
        payload = json.loads(out)
        assert list(payload) == ["rounds"]
        rounds = payload["rounds"]
        assert len(rounds) == 2
        assert rounds[0]["branch"] == "reject"
        assert [(r["flagged_region"], r["flagged_period"]) for r in rounds] == [
            ("BG", "2010"),
            ("BG", "2011"),
        ]
        assert [r["rejected"] for r in rounds] == [True, False]
        assert rounds[1]["n"] == 39

    def test_max_rounds_flag(self, capsys):
        code, out, _ = run_main(
            capsys,
            "--input", FIXTURE,
            "--mode", "peel",
            "--alpha", "0.01",
            "--lambda", "9.703e-7",
            "--max-rounds", "1",
            "--format", "json",
        )
        assert code == 2
        assert len(json.loads(out)["rounds"]) == 1

    def test_pooled_rate_peel_ends_at_all_zero_remainder(self, capsys, tmp_path):
        body = (
            "region,period,count,population\n"
            "A,1,15,1000000\nB,1,0,1000000\nC,1,0,1000000\n"
        )
        path = write_csv(tmp_path, body)
        args = ("--input", path, "--alpha", "0.5", "--format", "json")
        code, _, _ = run_main(capsys, *args, "--mode", "test")
        assert code == 2
        code, out, err = run_main(capsys, *args, "--mode", "peel")
        assert code == 2
        assert err == ""
        rounds = json.loads(out)["rounds"]
        assert len(rounds) == 1
        assert rounds[0]["flagged_region"] == "A"

    def test_text_mode_labels_rounds(self, capsys):
        code, out, _ = run_main(
            capsys,
            "--input", FIXTURE,
            "--mode", "peel",
            "--alpha", "0.01",
            "--lambda", "9.703e-7",
        )
        assert code == 2
        assert "round 1:" in out and "round 2:" in out


class TestRunSimulateNull:
    def test_summary_and_determinism(self, capsys, tmp_path):
        body = "region,period,count,population\nA,1,2,1000000\nB,1,1,1000000\n"
        path = write_csv(tmp_path, body)
        args = (
            "--input", path,
            "--mode", "simulate-null",
            "--seed", "7",
            "--trials", "2000",
            "--format", "json",
        )
        code, out, _ = run_main(capsys, *args)
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {
            "alpha", "n", "lambda", "trials", "rejection_rate", "std_error", "seed",
        }
        assert payload["trials"] == 2000
        assert payload["n"] == 2
        assert 0.0 <= payload["rejection_rate"] <= 1.0
        _, again, _ = run_main(capsys, *args)
        assert out == again

    def test_text_summary_on_the_fixture(self, capsys):
        code, out, err = run_main(
            capsys,
            "--input", FIXTURE,
            "--mode", "simulate-null",
            "--seed", "1",
            "--trials", "1000",
            "--alpha", "0.01",
        )
        assert (code, err) == (0, "")
        assert out == (
            "n=40 cells  alpha=0.01  lambda=9.452773538283868e-07\n"
            "trials=1000  rejection rate=0.007  std error=0.0026364749192814255\n"
            "seed=1\n"
        )

    def test_seed_required(self, capsys):
        code, _, err = run_main(capsys, "--input", FIXTURE, "--mode", "simulate-null")
        assert code == 1
        assert "seed" in err

    def test_a_ladder_too_large_to_build_exits_one(self, capsys, tmp_path):
        # A cell of mean 1e30 needs a ladder window past 2**53, of 5e16 points.
        body = "region,period,count,population\nA,1,3,1e30\nB,1,2,5\n"
        path = write_csv(tmp_path, body)
        args = ("--input", path, "--lambda", "1", "--mode", "simulate-null", "--seed", "1")
        code, out, err = run_main(capsys, *args, "--trials", "1000")
        assert (code, out) == (1, "")
        assert err.startswith("error: a CDF ladder reaching 2**53 is too large to build")
        assert "Traceback" not in err

    def test_a_trial_count_too_large_to_allocate_exits_one(self, capsys):
        args = ("--input", FIXTURE, "--mode", "simulate-null", "--seed", "1")
        code, out, err = run_main(capsys, *args, "--trials", str(10**30))
        assert (code, out) == (1, "")
        assert err == "error: n_trials is too large to allocate: a 100-bit integer\n"

    def test_trials_floor(self, capsys):
        code, _, err = run_main(
            capsys,
            "--input", FIXTURE,
            "--mode", "simulate-null",
            "--seed", "1",
            "--trials", "10",
        )
        assert code == 1
        assert "trials" in err


class TestSeedSources:
    def test_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv(ENV_SEED, "123")
        _, out, _ = run_main(
            capsys, "--input", FIXTURE, "--lambda", "9.703e-7", "--format", "json"
        )
        assert json.loads(out)["seed"] == 123

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv(ENV_SEED, "123")
        _, out, _ = run_main(
            capsys,
            "--input", FIXTURE,
            "--lambda", "9.703e-7",
            "--seed", "9",
            "--format", "json",
        )
        assert json.loads(out)["seed"] == 9

    def test_bad_env_seed(self, capsys, monkeypatch):
        # int() would read the last two as 12 and 10.
        for env in ("not-a-number", "\uff11\uff12", "1_0"):
            monkeypatch.setenv(ENV_SEED, env)
            code, _, err = run_main(capsys, "--input", FIXTURE)
            assert code == 1
            assert ENV_SEED in err

    def test_negative_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv(ENV_SEED, "-3")
        code, _, err = run_main(capsys, "--input", FIXTURE, "--mode", "peel")
        assert code == 1
        assert err.startswith("error:") and "seed" in err
        assert "Traceback" not in err


class TestArgumentErrors:
    def test_unknown_mode_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["--input", FIXTURE, "--mode", "bogus"])
        assert exc.value.code == 1

    def test_missing_input_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_bad_alpha_exits_one(self, capsys):
        code, _, err = run_main(capsys, "--input", FIXTURE, "--alpha", "1.5")
        assert code == 1
        assert "alpha" in err

    def test_negative_seed_exits_one(self, capsys):
        # test mode rejects the fixture deterministically, so the seed is
        # never drawn from, yet it is still checked.
        for mode in ("peel", "test", "simulate-null"):
            code, _, err = run_main(
                capsys, "--input", FIXTURE, "--mode", mode, "--alpha", "0.01", "--seed", "-1"
            )
            assert code == 1
            assert err.startswith("error:") and "seed" in err
            assert "Traceback" not in err

    def test_python_literal_numbers_exit_one(self, capsys):
        # int() and float() would read these as 10, 2, 1000, 0.01 and 9.703e-7.
        for flag, value in (
            ("--seed", "1_0"),
            ("--max-rounds", "\uff12"),
            ("--trials", "1_000"),
            ("--alpha", "0.0_1"),
            ("--lambda", "9.703e-0_7"),
        ):
            with pytest.raises(SystemExit) as exc:
                main(["--input", FIXTURE, "--mode", "peel", flag, value])
            assert exc.value.code == 1
            assert flag in capsys.readouterr().err

    def test_run_config_validation(self):
        with pytest.raises(ParameterError):
            RunConfig(input_path="x.csv", mode="nope")
        with pytest.raises(ParameterError):
            RunConfig(input_path="x.csv", alpha=0.0)
        with pytest.raises(ParameterError):
            RunConfig(input_path="x.csv", lam=-1.0)
        with pytest.raises(ParameterError):
            RunConfig(input_path="x.csv", output_format="xml")
        for alpha in (True, "0.05", None, math.nan, math.inf):
            with pytest.raises(ParameterError):
                RunConfig(input_path="x.csv", alpha=alpha)
        for lam in (True, "1e-6", math.nan, math.inf):
            with pytest.raises(ParameterError):
                RunConfig(input_path="x.csv", lam=lam)
        for max_rounds in (0, True, 2.0, "5", None):
            with pytest.raises(ParameterError):
                RunConfig(input_path="x.csv", max_rounds=max_rounds)
        for trials in (999, True, 1000.0, "1000", None, math.inf):
            with pytest.raises(ParameterError):
                RunConfig(input_path="x.csv", trials=trials)

    def test_run_reports_ingest_errors(self, capsys, tmp_path):
        path = write_csv(tmp_path, "region,period,count,population\nA,1,-3,10\n")
        code = run(RunConfig(input_path=path))
        captured = capsys.readouterr()
        assert code == 1
        assert ":2:" in captured.err
