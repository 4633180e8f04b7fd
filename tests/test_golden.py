"""The CLI's stdout and exit codes match the recorded golden files byte for byte.

tests/cli_golden.py lists the commands and rewrites the files.
"""

import json
import shlex
from pathlib import Path

import pytest

import cli_golden
from brouwer import fleeing


@pytest.fixture
def golden_cwd(monkeypatch):
    monkeypatch.chdir(cli_golden.GOLDEN)
    monkeypatch.delenv("BW_DIGIT_LIMIT", raising=False)
    monkeypatch.setenv("COLUMNS", cli_golden.COLUMNS)
    monkeypatch.setattr(fleeing, "_default_oracle", None)


def test_the_readme_cli_block_is_the_golden_readme_list():
    # one list feeds the goldens, the bench's cold rows and the README
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()
                if line.startswith("brouwer ")]
    assert commands == [["brouwer", *argv] for argv in cli_golden.README]


@pytest.mark.parametrize("group", sorted(cli_golden.GROUPS))
def test_cli_outputs_match_the_golden_file(group, golden_cwd):
    expected = json.loads(cli_golden.path(group).read_text(encoding="utf-8"))
    assert [case["argv"] for case in expected] == cli_golden.GROUPS[group]
    for case in expected:
        assert cli_golden.run(case["argv"]) == case, case["argv"]


def test_sweep_grid_matches_its_hashes(golden_cwd):
    expected = json.loads(cli_golden.path("sweep_grid").read_text(encoding="utf-8"))
    assert [case["argv"] for case in expected] == cli_golden.SWEEP_GRID
    for case in expected:
        assert cli_golden.digest(case["argv"]) == case, case["argv"]


def test_a_non_ascii_stage_index_is_a_syntax_error(golden_cwd):
    # beside branches.json's syntax_error.txt: a refusal, not a bare ValueError from int()
    reason = "line 7: bad formula '[\u00b2]p -> p': malformed stage index (at offset 1)"
    text = cli_golden.run(["derive", "check", "stage_index.txt"])
    assert (text["exit"], text["stdout"], text["stderr"]) == (1, f"syntax error: {reason}\n", "")
    payload = cli_golden.run(["derive", "check", "stage_index.txt", "--json"])
    assert payload["exit"] == 1 and payload["stderr"] == ""
    assert json.loads(payload["stdout"]) == {
        "command": "derive-check", "reason": reason, "script": "stage_index.txt", "seed": 0,
        "status": "syntax-error",
    }
