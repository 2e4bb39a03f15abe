"""The ``extreme-sentinel`` executable, run as its own process.

Every other test calls ``cli.main`` in process.  These check what only a
process boundary shows: the exit status the shell sees, argparse's help
text, and an error that reaches stderr without a traceback.  They skip
where the executable is not on PATH.  To run them from a checkout, put a
shim on PATH that runs ``python -m extreme_sentinel.cli "$@"`` (README,
"Install and test").
"""

import json
import os
import shutil
import subprocess

import pytest

from extreme_sentinel.cli import ENV_SEED
from extreme_sentinel.surveillance import listeriosis_fixture_path

EXECUTABLE = shutil.which("extreme-sentinel")
pytestmark = pytest.mark.skipif(
    EXECUTABLE is None, reason="no extreme-sentinel executable on PATH"
)

FIXTURE = str(listeriosis_fixture_path())
PUBLISHED = ("--alpha", "0.01", "--lambda", "9.703e-7")


def run(*args):
    env = {k: v for k, v in os.environ.items() if k != ENV_SEED}
    return subprocess.run(
        [EXECUTABLE, *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_fixture_flags_bergamo_2010():
    done = run("--input", FIXTURE, *PUBLISHED, "--format", "json")
    assert done.returncode == 2, done.stderr
    report = json.loads(done.stdout)
    assert (report["flagged_region"], report["flagged_period"]) == ("BG", "2010")


def test_fixture_peel_flags_bergamo_2010_then_stops():
    done = run("--input", FIXTURE, "--mode", "peel", *PUBLISHED, "--seed", "7", "--format", "json")
    assert done.returncode == 2, done.stderr
    rounds = json.loads(done.stdout)["rounds"]
    assert [(r["flagged_region"], r["flagged_period"]) for r in rounds] == [
        ("BG", "2010"),
        ("BG", "2011"),
    ]
    assert [r["rejected"] for r in rounds] == [True, False]


def test_help_lists_every_flag():
    done = run("--help")
    assert done.returncode == 0, done.stderr
    flags = ("--input", "--mode", "--alpha", "--lambda", "--seed", "--max-rounds", "--format")
    for flag in (*flags, "--trials"):
        assert f"{flag} " in done.stdout, flag


def test_simulate_null_line_on_the_fixture():
    # The harness's pinned result, whether its pieces run inline or on the kept pool.
    done = run("--input", FIXTURE, "--mode", "simulate-null", "--seed", "1", "--trials", "1000")
    assert done.returncode == 0, done.stderr
    assert "trials=1000  rejection rate=0.05  std error=0.006892024376045111" in (
        done.stdout.splitlines()
    )


@pytest.mark.parametrize(
    "body, args, says",
    [
        (
            "region,period,count,population\nA,1,0,10\nA,1,2,10\n",
            (),
            ":3: duplicate key, first seen at line 2",
        ),
        (
            None,
            ("--mode", "simulate-null", "--seed", "1", "--trials", str(10**30)),
            "n_trials is too large to allocate",
        ),
    ],
    ids=["duplicate row", "trial count too large to allocate"],
)
def test_a_bad_input_exits_one_without_a_traceback(tmp_path, body, args, says):
    path = FIXTURE
    if body is not None:
        path = tmp_path / "bad.csv"
        path.write_text(body, encoding="utf-8")
    done = run("--input", str(path), *args)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("error:") and says in done.stderr
    assert "Traceback" not in done.stderr
