"""Tests for panel ingestion and the command-line front end."""

import json
import math
import re

import pytest

from extreme_sentinel.cli import (
    ENV_SEED,
    RunConfig,
    _fmt_sig2,
    ingest,
    main,
    run,
    write_panel,
)
from extreme_sentinel.errors import PanelFormatError, ParameterError
from extreme_sentinel.surveillance import (
    CountPanel,
    PanelCell,
    listeriosis_fixture_path,
)

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
        assert sum(c.count for c in panel.cells) == 35

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

    def test_duplicate_key_names_both_lines(self, tmp_path):
        body = "region,period,count,population\nA,1,0,10\nA,1,2,10\n"
        with pytest.raises(PanelFormatError, match=r":3:.*line 2"):
            ingest(write_csv(tmp_path, body))

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
        assert ingest(write_csv(tmp_path, body)).cells[0].count == 3

    def test_nonpositive_population(self, tmp_path):
        body = "region,period,count,population\nA,1,0,0\n"
        with pytest.raises(PanelFormatError, match=":2:.*positive"):
            ingest(write_csv(tmp_path, body))

    def test_excluded_region_zero_count_kept_inert(self, tmp_path):
        body = "region,period,count,population\nA,1,3,10\nSO,1,0,5\n"
        panel = ingest(write_csv(tmp_path, body), excluded_regions={"SO"})
        assert panel.n == 1
        assert [c.included for c in panel.cells] == [True, False]

    def test_excluded_region_with_cases_rejected(self, tmp_path):
        body = "region,period,count,population\nA,1,3,10\nSO,1,1,5\n"
        with pytest.raises(PanelFormatError, match=":3:.*excluded"):
            ingest(write_csv(tmp_path, body), excluded_regions={"SO"})


class TestWritePanel:
    def test_round_trip_fixture(self, tmp_path):
        panel = ingest(FIXTURE)
        out = tmp_path / "copy.csv"
        write_panel(panel, out)
        assert ingest(out) == panel

    def test_round_trip_fractional_population(self, tmp_path):
        panel = CountPanel((PanelCell("A", "1", 2, 123456.78),))
        out = tmp_path / "frac.csv"
        write_panel(panel, out)
        assert ingest(out) == panel


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
        assert rounds[0]["flagged_region"] == "BG"
        assert rounds[1]["rejected"] is False
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

    def test_seed_required(self, capsys):
        code, _, err = run_main(capsys, "--input", FIXTURE, "--mode", "simulate-null")
        assert code == 1
        assert "seed" in err

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

    def test_run_reports_ingest_errors(self, capsys, tmp_path):
        path = write_csv(tmp_path, "region,period,count,population\nA,1,-3,10\n")
        code = run(RunConfig(input_path=path))
        captured = capsys.readouterr()
        assert code == 1
        assert ":2:" in captured.err
