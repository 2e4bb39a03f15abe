"""README code stays runnable: every ```python block runs, and the quick start prints what it says."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md block {index}", "exec"), {})


def test_quick_start_prints_the_documented_values(capsys):
    exec(compile(BLOCKS[0], "README.md block 0", "exec"), {})
    lower_upper, branch, phi = capsys.readouterr().out.splitlines()
    lower, upper = lower_upper.split()
    assert lower.startswith("0.0419")
    assert upper.startswith("0.1208")
    assert branch == "randomized"
    assert phi.startswith("0.0993")


def test_hard_decision_example_rejects(capsys):
    (block,) = [b for b in BLOCKS if "phi_randomized" in b]
    exec(compile(block, "README.md hard decision", "exec"), {})
    survival, decision = capsys.readouterr().out.splitlines()
    assert survival.startswith("[1.29") and survival.endswith("e-18]")
    assert decision == "1"
