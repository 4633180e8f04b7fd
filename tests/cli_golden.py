"""Golden CLI outputs: the commands whose output and exit code are pinned.

Each golden file under tests/golden/ lists one group of commands with
their recorded stdout, stderr and exit code, text and --json alike, one
command per line; sweep_grid.json holds instead one sha256 of exit code,
stdout and stderr per ``logic sweep --json`` of a fixed grid of bounds.
Commands run in-process through ``cli.main`` with tests/golden/ as the
working directory (so no brouwer.toml applies and the README's model.json
resolves), without BW_DIGIT_LIMIT and with COLUMNS set, so that argparse
wraps help and usage lines the same on any terminal.

    python tests/cli_golden.py        rewrite every golden file

Rewrite only when an output is meant to change, and review the diff.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
COLUMNS = "80"  # argparse wraps --help and usage lines to the terminal's width

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
PARSERS = (
    [], ["pi"], ["pi", "digits"], ["pi", "find"], ["fleeing"], ["fleeing", "critical"],
    ["spread"], ["spread", "sample"], ["real"], ["real", "cmp"], ["drift"], ["drift", "run"],
    ["logic"], ["logic", "eval"], ["logic", "sweep"], ["derive"], ["derive", "check"],
    ["derive", "ks-report"], ["replay"],
)
EVAL = ["logic", "eval", "--model", "model.json"]
# the output branches the README, drift and real groups leave out
BRANCHES = [
    ["logic", "sweep", "--schema", "ic1", "--nodes", "3"],
    ["logic", "sweep", "--schema", "ic1", "--nodes", "12"],
    EVAL + ["--at", "root", "--formula", "q"],
    EVAL + ["--at", "later", "--formula", "q"],
    EVAL + ["--at", "nowhere", "--formula", "q"],
    EVAL + ["--at", "root", "--formula", "q &"],
    EVAL + ["--at", "later", "--formula", "| q -> ( q )|"],  # the spaced pipe sugar
    ["spread", "sample", "--law", "universal"],
    ["pi", "find", "--pattern", "0000000", "--limit", "500"],
    ["fleeing", "critical", "--digit", "0", "--run", "6", "--horizon", "300"],
    ["derive", "check", "rejected.txt"],
    ["derive", "check", "syntax_error.txt"],
    ["derive", "check", "missing.txt"],
    # past the stage cap (spreads.DEFAULT_STAGE_CAP), each stage count refuses
    ["real", "cmp", "--lhs", "half", "--rhs", "zero", "--horizon", "20001"],
    ["spread", "sample", "--stages", "20001"],
    ["drift", "run", "--drift", "berlin", "--kind", "osc", "--trace", "true:2", "--terms", "20001"],
    ["drift", "run", "--trace", "true:²"],  # a trace stage is ASCII digits
]
USAGE_ERRORS = [
    [],
    ["pi"],
    ["pi", "digits", "many"],
    ["pi", "find"],
    ["logic", "sweep", "--schema", "zz"],
    ["replay", "vienna-9", "--bogus"],
]


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
    "branches": _both(BRANCHES) + USAGE_ERRORS + [argv + ["--help"] for argv in PARSERS],
}


# every schema at nodes 1-4, atoms 1-3, stage index 1-3, operand depth 0-2: 648
# sweeps, 3-4.5 s in process on a 2-core VM; nodes up to 5 took ~6.5 s
SWEEP_GRID = [
    ["logic", "sweep", "--schema", schema, "--nodes", str(nodes), "--atoms", str(atoms),
     "--box", str(box), "--depth", str(depth), "--json"]
    for schema in ("ic1", "ic2", "ic3", "md", "cs4", "cs5")
    for nodes in (1, 2, 3, 4) for atoms in (1, 2, 3) for box in (1, 2, 3) for depth in (0, 1, 2)
]


def run(argv):
    """{"argv", "exit", "stdout", "stderr"} of one in-process CLI run; argparse's
    exit (a usage error or --help) is recorded like main's own."""
    from brouwer.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def digest(argv):
    """{"argv", "sha256"} of one in-process CLI run's exit code, stdout and stderr."""
    r = run(argv)
    text = json.dumps([r["exit"], r["stdout"], r["stderr"]])
    return {"argv": argv, "sha256": hashlib.sha256(text.encode()).hexdigest()}


def path(group):
    return GOLDEN / f"{group}.json"


def render(results):
    return "[\n" + ",\n".join(json.dumps(r) for r in results) + "\n]\n"


def rewrite():
    os.chdir(GOLDEN)
    os.environ.pop("BW_DIGIT_LIMIT", None)
    os.environ["COLUMNS"] = COLUMNS
    for group, commands in GROUPS.items():
        path(group).write_text(render([run(argv) for argv in commands]), encoding="utf-8")
        print(f"{path(group)}: {len(commands)} commands")
    path("sweep_grid").write_text(render([digest(argv) for argv in SWEEP_GRID]), encoding="utf-8")
    print(f"{path('sweep_grid')}: {len(SWEEP_GRID)} sweeps")


if __name__ == "__main__":
    sys.path.insert(0, str(GOLDEN.parent.parent / "src"))
    rewrite()
