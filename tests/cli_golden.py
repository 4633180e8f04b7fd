"""Golden CLI outputs: the commands whose output and exit code are pinned.

Each golden file under tests/golden/ lists one group of commands with
their recorded stdout, stderr and exit code, text and --json alike, one
command per line. Commands run in-process through
``cli.main`` with tests/golden/ as the working directory (so no
brouwer.toml applies and the README's model.json resolves) and without
BW_DIGIT_LIMIT.

    python tests/cli_golden.py        rewrite every golden file

Rewrite only when an output is meant to change, and review the diff.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"

README = [
    ["pi", "digits", "20"],
    ["pi", "find", "--pattern", "999999", "--limit", "2000"],
    ["fleeing", "critical", "--digit", "3", "--run", "1"],
    ["spread", "sample", "--seed", "11", "--stages", "9"],
    ["real", "cmp", "--lhs", "berlin-s", "--rhs", "zero", "--lhs-trace", "never",
     "--horizon", "100"],
    ["drift", "run", "--drift", "two-winged-mixed", "--kind", "osc", "--trace", "false:2"],
    ["logic", "eval", "--model", "model.json", "--at", "root", "--formula", "<*>q -> q"],
    ["logic", "sweep", "--schema", "cs5", "--nodes", "4", "--atoms", "2"],
    ["derive", "check", "conditional-ks"],
    ["derive", "ks-report"],
    ["replay", "vienna-9"],
]
REPLAYS = ("vienna-9", "drift-11", "ks-12", "cambridge-13")
SCRIPTS = ("vienna-dense", "drift-direct", "conditional-ks", "cambridge-reduced")
DRIFTS = ("rational-right", "two-winged-mixed", "berlin")
KINDS = ("direct", "osc", "oscillatory", "cond", "conditional")
TRACES = ("never", "true:3", "false:2")
POINTS = ("zero", "one", "half", "berlin-s", "berlin-r", "vienna-e")


def _both(commands):
    return [argv + flag for argv in commands for flag in ([], ["--json"])]


GROUPS = {
    "readme": _both(
        README
        + [["replay", name] for name in REPLAYS]
        + [["derive", "check", name] for name in SCRIPTS]
    ),
    "drift_run": _both(
        [["drift", "run", "--drift", d, "--kind", k, "--trace", t]
         for d in DRIFTS for k in KINDS for t in TRACES]
    ),
    "real_cmp": _both(
        [["real", "cmp", "--lhs", lhs, "--rhs", rhs, "--lhs-trace", t, "--rhs-trace", t,
          "--horizon", "40"]
         for lhs in POINTS for rhs in POINTS for t in TRACES]
    ),
}


def run(argv):
    """{"argv", "exit", "stdout", "stderr"} of one in-process CLI run."""
    from brouwer.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def path(group):
    return GOLDEN / f"{group}.json"


def render(results):
    return "[\n" + ",\n".join(json.dumps(r) for r in results) + "\n]\n"


def rewrite():
    os.chdir(GOLDEN)
    os.environ.pop("BW_DIGIT_LIMIT", None)
    for group, commands in GROUPS.items():
        path(group).write_text(render([run(argv) for argv in commands]), encoding="utf-8")
        print(f"{path(group)}: {len(commands)} commands")


if __name__ == "__main__":
    sys.path.insert(0, str(GOLDEN.parent.parent / "src"))
    rewrite()
