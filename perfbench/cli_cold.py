"""cli-cold: the 11 README commands, each with --json in a fresh process.

Each job runs one `python -m brouwer.cli ... --json` subprocess and waits
for it, so every job pays interpreter start, import and the digit oracle's
self-test, as a user at a shell does. A cycle is one seeded permutation of
the 11 commands. Every stdout must match the stored expected JSON byte for
byte, and its content must agree with facts computed independently.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

import refs
from spans import CLI_COMMANDS

NAME = "cli-cold"
CYCLE_JOBS = len(CLI_COMMANDS)
NOMINAL_CYCLE_S = 1.5  # 13 cycles in a 20 s run: process start-up is noisy
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
MODEL_PATH = "perfbench/_work/model.json"  # relative to the checkout root: it shows in stdout
MODEL = {"nodes": [{"id": "root", "atoms": []}, {"id": "later", "parent": "root", "atoms": ["q"]}]}
EXPECTED_PATH = os.path.join(HERE, "expected_cli.json")

ARGS = {
    "pi-digits": ["pi", "digits", "20"],
    "pi-find": ["pi", "find", "--pattern", "999999", "--limit", "2000"],
    "fleeing-critical": ["fleeing", "critical", "--digit", "3", "--run", "1"],
    "spread-sample": ["spread", "sample", "--seed", "11", "--stages", "9"],
    "real-cmp": ["real", "cmp", "--lhs", "berlin-s", "--rhs", "zero", "--lhs-trace", "never",
                 "--horizon", "100"],
    "drift-run": ["drift", "run", "--drift", "two-winged-mixed", "--kind", "osc",
                  "--trace", "false:2"],
    "logic-eval": ["logic", "eval", "--model", MODEL_PATH, "--at", "root",
                   "--formula", "<*>q -> q"],
    "logic-sweep": ["logic", "sweep", "--schema", "cs5", "--nodes", "4", "--atoms", "2"],
    "derive-check": ["derive", "check", "conditional-ks"],
    "derive-ks-report": ["derive", "ks-report"],
    "replay": ["replay", "vienna-9"],
}


def plan(seed, cycles):
    jobs = []
    for c in range(cycles):
        order = list(CLI_COMMANDS)
        random.Random(f"{NAME}:{seed}:{c}").shuffle(order)
        jobs.extend(order)
    return jobs


def setup(jobs):
    # a process that starts and imports the CLI, as every job does, so that
    # set-up time moves with the import cost; it runs in a child because a
    # child's peak memory includes this process's at the spawn, and the
    # children's peak is the figure reported
    subprocess.run([sys.executable, "-c", "import brouwer.cli"], cwd=ROOT, check=True)
    write_model()


def write_model():
    """The model file `logic eval` reads."""
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(ROOT, MODEL_PATH), "w", encoding="utf-8") as fh:
        json.dump(MODEL, fh)


def _spawn(argv):
    done = subprocess.run(argv, cwd=ROOT, capture_output=True)
    return (done.returncode, done.stdout.decode())


def run(command):
    return _spawn([sys.executable, "-m", "brouwer.cli", *ARGS[command], "--json"])


def run_traced(command, tracer):
    """The same command through clishim.py, which records the child's spans."""
    path = os.path.join(WORK, "cli-spans.json")
    with tracer.span("cli.cmd", {"command": command}) as span:
        out = _spawn([sys.executable, os.path.join(HERE, "clishim.py"), path,
                      *ARGS[command], "--json"])
    with open(path, encoding="utf-8") as fh:
        tracer.adopt(json.load(fh)["spans"], span[0], tracer.job)
    return out


# --- expectations --------------------------------------------------------


def _model_of(doc):
    ids = [n["id"] for n in doc["nodes"]]
    parents = tuple(ids.index(n["parent"]) if "parent" in n else None for n in doc["nodes"])
    return ids, parents, tuple(frozenset(n["atoms"]) for n in doc["nodes"])


def _refuted(cm, schema):
    """The countermodel's instance fails at its node under the set semantics."""
    if not cm["phi"].isalpha():
        return False
    phi = ("atom", cm["phi"])
    if schema == "cs5":
        inst = ("imp", ("some", phi), phi)
    else:
        box = ("box", cm["indices"]["n"], phi)
        inst = ("or", box, ("imp", box, ("bot",)))
    ids, parents, val = _model_of(cm["model"])
    return ids.index(cm["node"]) not in refs.truth_sets(parents, val, inst)


def _spread_sample(seed, stages):
    rng = random.Random(seed)
    out = [rng.randint(-4, 4)]
    while len(out) < stages:
        out.append(rng.choice((2 * out[-1], 2 * out[-1] + 1, 2 * out[-1] + 2)))
    return out


def _verdict(v):
    return {"value": v[0], "witness": v[1], "direction": v[2], "horizon": 100}


def facts(command, doc, digits):
    """Independent checks of one command's JSON payload."""
    if command == "pi-digits":
        return doc["digits"] == digits[:20]
    if command == "pi-find":
        return doc["position"] == refs.SIX_NINES_AT and doc["verdict"] == "found-at:762"
    if command == "fleeing-critical":
        return doc["found_at"] == refs.least_run(digits, 3, 1, doc["horizon"])
    if command == "spread-sample":
        return doc["prefix"] == _spread_sample(11, 9)
    if command == "real-cmp":
        a = refs.indices(("berlin_s", ("never", None)), 100, digits)
        b = refs.indices(("zero",), 100, digits)
        want = {"lt": refs.ref_lt(a, b), "gt": refs.ref_lt(b, a),
                "apart": refs.ref_apart(a, b), "coincide": refs.ref_coincide(a, b)}
        return doc["verdicts"] == {k: _verdict(v) for k, v in want.items()}
    if command == "drift-run":
        # oscillatory: a refutation at stage 2 switches to the irrational left wing
        return (doc["terms"] == ["c"] + ["l_2"] * 7 and doc["limit"] == "l_2"
                and doc["limit_class"] == {"kind": "irrational"})
    if command == "logic-eval":
        _, parents, val = _model_of(MODEL)
        f = ("imp", ("some", ("atom", "q")), ("atom", "q"))
        return doc["forces"] == (0 in refs.truth_sets(parents, val, f))
    if command == "logic-sweep":
        cm = doc["countermodel"]
        return doc["status"] == "countermodel" and len(cm["model"]["nodes"]) == 2 \
            and _refuted(cm, "cs5")
    if command == "derive-check":
        return (doc["status"], doc["conclusion"], doc["steps"], doc["warnings"]) == \
            ("verified", "~~rat_f", 14, [])
    if command == "derive-ks-report":
        blocked = doc["blocked"]
        return ([b["schema"] for b in blocked] == ["cs4", "cs5"]
                and [len(b["countermodel"]["model"]["nodes"]) for b in blocked] == [3, 2]
                and all(_refuted(b["countermodel"], b["schema"]) for b in blocked))
    return doc["ok"] is True and all(c["ok"] for c in doc["checks"])


def check(jobs, outcomes):
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        expected = json.load(fh)
    digits = refs.pi_digits(2000)
    flags = []
    for command, out in zip(jobs, outcomes):
        ok = out[0] == "ok" and out[1][0] == 0 and out[1][1] == expected[command]
        flags.append(ok and facts(command, json.loads(out[1][1]), digits))
    return flags, {}
