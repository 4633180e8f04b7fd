#!/usr/bin/env python3
"""Time every layer of the workbench, cross-check it, and write one record.

    python benchmarks/bench.py OUT.json [CHECKOUT ...]

CHECKOUT defaults to the checkout that holds this script; give two (a copy
of the parent commit and this one, say) for a before and an after in one
file. Every section runs in fresh child processes whose working directory
is the checkout and whose PYTHONPATH is its src/, with BW_DIGIT_LIMIT
unset. checks, tier1 and perfbench run whole; the others run five rounds
of one child per row (a pi size, a horizon, a script, ...) and checkout,
the checkouts taking turns and the first side flipping from row to row and
round to round, so that both sides share the machine's drift. Each timed
key of a row gets its median over the rounds, ``<key>_iqr`` and, with two
checkouts, ``<key>_better_in``: the rounds in which the second read lower,
ties to neither. The other keys must repeat. In a child each time is the
median of three runs, which must give the same answer.
The sections:

- checks: the Machin enclosure (to 5*10**4 digits), and from
  tests/references.py the enclosure from Gregory's series and the spigot
  (to 10**4, their costs are quadratic) and Chudnovsky ending in one
  ``decimal`` division (to 10**6), must equal
  ``chudnovsky_digits(n)`` at every pi size up to their tops; each is timed
  once. It runs first, once per checkout, so a wrong route stops the run
  before any timing.
- pi: ``chudnovsky_digits(n)``; as ``tail_s``, a second
  ``chudnovsky_digits(n, series)`` on a series the first read filled, which
  redoes only the square root, the quotient and the string; and a fresh
  ``DigitOracle()`` (its 1000-digit self-test included) scanning
  ``critical_number(run_property(0, 6), n)``. Pi has no run of six zeros
  below 10**6, so the scan must answer none-below:n; it reads the series
  once past the self-test, to the end of its window, since a 6-digit
  search reads up to 10**6 digits at a time. ``selftest_s`` is one fresh
  ``DigitOracle()`` alone, the same in every row: its 1000-digit
  Chudnovsky read and the Machin enclosure that proves it.
- streams: per horizon h, ``prefix(h)`` of a fresh point: the centred value
  1/3, that point through the identity, negation and delay maps (delay
  reads its base to 2h), the point recentred below stage 16, vienna_e and
  berlin_s on a trace that never resolves, the other four ``real cmp``
  point specs (zero, one, half, and berlin_r on the first run of six 9s in
  pi, its defaults), and the centred sqrt(2)/2, the point
  ``validate_drift`` builds for an irrational kernel; and the negation
  image of a fresh 1/3 grown by reads of 16 stages up to h, for what many
  short reads of one point cost. vienna_e's target at stage n is a
  fraction over 2^(n+1): taken by a division per stage, the stream would
  cost O(h^3). Term n is an n-bit integer, so even a linear stream costs
  more per stage as h grows.
- verdicts: ``lt_at``, ``apart_at`` and ``abs_diff_lt`` (bound 2^-20) at
  horizon h, each on two fresh points: a pair whose order shows within a
  few stages and one that stays unknown, of value points (1/3 against 1/2,
  and against itself), of switch points (zero against berlin_s proved at
  stage 5, and on a trace that never resolves) and of mapped points (the
  negation and the identity of 1/3, against 1/3). Equal points decide
  ``abs_diff_lt`` early and stay unknown to the other two, so each row
  records the verdict it timed.
- sweep: ``principle_suite`` (all six schemata, stage indices up to 3) at
  fixed (nodes, atoms, operand depth), with the root classes the sweep's
  class tables list, checked against every model's root class (from
  tests/references.py), and the distinct formula masks per model: the size
  of the mask algebra the sweep closes on each model, against the formula
  count. ``models_per_s`` is taken at the median seconds.
- schemas: ``validity_sweep`` of one schema at the bounds of perfbench's
  logic-proofs sweeps, with its counts.
- parse: ``derivation.parse_script`` on each bundled script, and
  ``logic.parse`` on a fixed list of 200 formula texts (seeded random trees
  of operand depth 1 to 4, every operand parenthesised, as perfbench's
  logic-proofs writes them), in microseconds per script (over 100 reads)
  or per formula. Each child first checks its readings against the
  reference parser of tests/references.py.
- cold: a bare interpreter, ``import argparse, json, fractions`` (what the
  CLI needs before any brouwer module) and each README command of
  tests/cli_golden.py with --json, started from a scratch directory that
  holds a copy of tests/golden/model.json and no brouwer.toml; its stdout
  must repeat.
- tier1: the Tier-1 pytest run: wall time, counts, the ten slowest tests
  and each acceptance criterion's time against its budget.
- perfbench: ``perfbench/report.py`` at seed 7 and 20 s per workload, whole.

The record also holds the settings that decide a cold start: the Python
version, whether it writes bytecode (with PYTHONDONTWRITEBYTECODE set every
start compiles the sources), the site .pth files that run an import at
every start, and whether gmpy2 is importable. It prints one table per
section and checkout and writes the same figures to OUT.json, keys sorted.
A failing cross-check or Tier-1 run stops it before it writes anything.
"""

import argparse
import collections
import functools
import glob
import importlib.util
import json
import operator
import os
import platform
import random
import re
import shlex
import shutil
import site
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# the tests of this script's own tree: the README commands, the model file
# they read and the reference routes no production path calls
TESTS = os.path.join(os.path.dirname(HERE), "tests")
if TESTS not in sys.path:
    sys.path.insert(0, TESTS)
import cli_golden  # noqa: E402

PI_DIGITS = (1_000, 10_000, 50_000, 100_000, 200_000, 1_000_000)
REPEATS = 3
HORIZONS = (1_000, 4_000, 16_000)
VERDICT_HORIZONS = (32, 512, 16_000)
BOUNDS = ((3, 2, 2), (5, 2, 2), (4, 3, 2), (6, 2, 2), (5, 3, 1), (6, 2, 1), (7, 2, 1))
# single-schema sweeps at the bounds of perfbench's logic-proofs jobs
SCHEMA_SWEEPS = (("ic1", 6, 2, 1), ("ic2", 6, 2, 1), ("ic1", 5, 2, 1), ("ic1", 4, 3, 1),
                 ("ic1", 4, 2, 2))
PARSE_ROWS = ("vienna-dense", "drift-direct", "conditional-ks", "cambridge-reduced",
              "200 formulas")
PARSE_LOOPS = 100

COLD = {"python -c pass": ["-c", "pass"],
        "import argparse, json, fractions": ["-c", "import argparse, json, fractions"],
        **{shlex.join(argv): ["-m", "brouwer.cli", *argv, "--json"] for argv in cli_golden.README}}
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors")


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def timed_median(fn, *args):
    """fn's result, which every run must repeat, and its median seconds."""
    runs = [timed(fn, *args) for _ in range(REPEATS)]
    out = runs[0][0]
    assert all(other == out for other, _ in runs), f"{fn.__name__} changed its answer"
    return out, statistics.median(seconds for _, seconds in runs)


def checks(sizes=PI_DIGITS) -> dict:
    """Each pi reference route against Chudnovsky, at every size up to its
    top, each timed once."""
    import references
    from brouwer import _pi_backends

    routes = {"machin": (_pi_backends.machin_digits, 50_000),
              "gregory": (references.gregory_digits, 10_000),
              "spigot": (references.spigot_digits, 10_000),
              "division": (references.division_digits, 1_000_000)}
    rows = []
    for route, (digits, top) in routes.items():
        for n in (n for n in sizes if n <= top):
            out, seconds = timed(digits, n)
            assert out == _pi_backends.chudnovsky_digits(n), f"{route} diverged at {n} digits"
            rows.append({"route": route, "digits": n, "seconds": seconds})
    return {"rows": rows}


def pi(sizes=PI_DIGITS) -> dict:
    from brouwer import _pi_backends
    from brouwer.fleeing import DigitOracle, critical_number, run_property

    rows = []
    for n in sizes:
        _, chudnovsky = timed_median(_pi_backends.chudnovsky_digits, n)
        series = _pi_backends.ChudnovskySeries()
        _pi_backends.chudnovsky_digits(n, series)
        _, tail = timed_median(_pi_backends.chudnovsky_digits, n, series)
        search, critical = timed_median(
            lambda: str(critical_number(run_property(0, 6, DigitOracle()), n)))
        assert search == f"none-below:{n}", f"a run of six zeros below {n}"
        _, selftest = timed_median(lambda: DigitOracle().digits(1))
        rows.append({"digits": n, "chudnovsky_s": chudnovsky, "tail_s": tail,
                     "critical_s": critical, "selftest_s": selftest})
    return {"backend": _pi_backends.BACKEND, "rows": rows}


def streams(horizons=HORIZONS) -> dict:
    from fractions import Fraction

    from brouwer import drift, fleeing, reals, spreads

    def third():
        return reals.value_point(Fraction(1, 3))

    points = {
        "value(1/3)": third,
        "identity(value)": lambda: reals.mapped_point(reals.identity_map(), third()),
        "negation(value)": lambda: reals.mapped_point(reals.negation_map(), third()),
        "delay(value)": lambda: reals.mapped_point(reals.delay_map(), third()),
        "centered(value,16)": lambda: reals.centered_point(third(), 16),
        "vienna_e(never)": lambda: drift.vienna_e(spreads.never_trace()),
        "berlin_s(never)": lambda: drift.berlin_s(spreads.never_trace()),
        "zero": reals.zero_point,
        "one": reals.one_point,
        "half": lambda: reals.value_point(Fraction(1, 2)),
        "berlin_r(9,6)": lambda: fleeing.berlin_r(fleeing.run_property(9, 6)),
        "value(sqrt2/2)": lambda: reals.value_point(drift.Sqrt2Value(Fraction(1, 2))),
    }
    reads = {name: lambda h, build=build: build().prefix(h) for name, build in points.items()}

    def grown(h):
        image = reals.mapped_point(reals.negation_map(), third())
        for n in range(16, h + 16, 16):
            image.prefix(min(n, h))

    reads["negation(value) by 16"] = grown
    rows = []
    for h in horizons:
        for name, read in reads.items():
            _, seconds = timed_median(read, h)
            rows.append({"point": name, "stages": h, "ms": seconds * 1e3,
                         "us_per_stage": seconds * 1e6 / h})
    return {"rows": rows}


def verdicts(horizons=VERDICT_HORIZONS) -> dict:
    from fractions import Fraction

    from brouwer import drift, reals, spreads

    def third():
        return reals.value_point(Fraction(1, 3))

    pairs = {
        "value early": (third, lambda: reals.value_point(Fraction(1, 2))),
        "value unknown": (third, third),
        "switch early": (reals.zero_point, lambda: drift.berlin_s(spreads.proved_at(5))),
        "switch unknown": (reals.zero_point, lambda: drift.berlin_s(spreads.never_trace())),
        "mapped early": (lambda: reals.mapped_point(reals.negation_map(), third()), third),
        "mapped unknown": (lambda: reals.mapped_point(reals.identity_map(), third()), third),
    }
    bound = Fraction(1, 1 << 20)
    tests = {"lt_at": reals.lt_at, "apart_at": reals.apart_at,
             "abs_diff_lt": lambda a, b, h: reals.abs_diff_lt(a, b, bound, h)}
    rows = []
    for h in horizons:
        for pair, (a, b) in pairs.items():
            for name, test in tests.items():
                verdict, seconds = timed_median(lambda: test(a(), b(), h).as_dict())
                rows.append({"pair": pair, "verdict": name, "horizon": h, "value": verdict["value"],
                             "witness": verdict["witness"], "us": seconds * 1e6})
    return {"rows": rows}


def _classes_and_masks(bounds) -> tuple:
    """The root classes, as the sweep's class tables list them, and each
    model's distinct mask count from the sweep's own closure. The classes
    are checked against the root class of every model."""
    import references as ref
    from brouwer import logic

    closure = functools.partial(logic._mask_set, depth=bounds.max_operand_depth)
    types: dict = {}
    memo: dict = {}
    listed, keyed = set(), set()
    counts = []
    codes = [code for n in range(1, bounds.max_nodes + 1) for code in logic._codes(n)]
    for code, (shape, valuations) in zip(codes, ref._valued_shapes(bounds)):
        for label in range(1 << bounds.max_atoms):
            memo[code, label] = logic._class_table(code, label, bounds.max_atoms, types, memo)
            listed.update(memo[code, label])
        tree = logic.StageTree(shape, (frozenset(),) * len(shape))
        masks = logic._Masks(tree, bounds.max_box_index)
        implies = functools.cache(masks.implies_mask)
        for v in valuations:
            keyed.add(ref._root_class(masks.m.children, v, types))
            counts.append(len(closure(v, implies=implies)))
    assert listed == keyed, f"listed classes differ from keyed ones at {bounds}"
    return len(listed), counts


def sweep(bounds=BOUNDS) -> dict:
    from brouwer.logic import SweepBounds, _level_starts, principle_suite

    def suite(b):
        # the answer in values that compare equal across runs (a countermodel's tree does not)
        report = principle_suite(b)
        return report.monotone_ok, [(r.models_checked, r.instances_checked)
                                    for r in report.results.values()]

    rows = []
    for nodes, atoms, depth in bounds:
        b = SweepBounds(max_nodes=nodes, max_atoms=atoms, max_operand_depth=depth)
        (monotone_ok, checked), seconds = timed_median(suite, b)
        models = max(m for m, _ in checked)
        classes, counts = _classes_and_masks(b)
        assert len(counts) == models and monotone_ok, f"sweep at {b}"
        rows.append({
            "bounds": f"({nodes},{atoms},{depth})", "formulas": _level_starts(b)[-1],
            "models": models, "classes": classes, "seconds": seconds,
            "masks_mean": sum(counts) / len(counts), "masks_max": max(counts),
        })
    return {"rows": rows}


def schemas(sweeps=SCHEMA_SWEEPS) -> dict:
    from brouwer.logic import SweepBounds, validity_sweep

    def alone(name, b):
        r = validity_sweep(name, b)
        return r.models_checked, r.instances_checked, r.valid_up_to_bounds

    rows = []
    for name, nodes, atoms, depth in sweeps:
        b = SweepBounds(max_nodes=nodes, max_atoms=atoms, max_operand_depth=depth)
        (models, instances, valid), seconds = timed_median(alone, name, b)
        rows.append({"schema": name, "bounds": f"({nodes},{atoms},{depth})", "models": models,
                     "instances": instances, "valid": valid, "ms": seconds * 1e3})
    return {"rows": rows}


def formula_texts(count=200, seed=35) -> list:
    """count formula texts fixed by seed: random trees of operand depth 1 to
    4, with [n] and <*> over stage-free operands, every operand in parentheses."""
    rng = random.Random(seed)

    def text(depth, staged):
        if depth == 0 or rng.random() < 0.2:
            return "_|_" if rng.random() < 0.08 else rng.choice(("p", "q", "r", "alpha", "e_hits"))
        r = rng.random()
        if staged and r < 0.3:
            op = f"[{rng.randint(1, 3)}]" if rng.random() < 0.5 else "<*>"
            return f"{op}({text(depth - 1, False)})"
        if r < 0.42:
            return f"~({text(depth - 1, staged)})"
        op = rng.choice(("&", "|", "->"))
        return f"({text(depth - 1, staged)}) {op} ({text(depth - 1, staged)})"

    return [text(1 + i % 4, True) for i in range(count)]


def parse(rows=PARSE_ROWS) -> dict:
    import references as refs
    from brouwer import derivation, logic

    texts = formula_texts()
    out = []
    for row in rows:
        if row in derivation.BUNDLED_SCRIPTS:
            text = derivation.BUNDLED_SCRIPTS[row]
            script = derivation.parse_script(text)
            assert script == refs.reference_parse_script(text), f"{row} reads unlike the reference"
            formulas = len(script.premises) + len(script.defaxioms) + len(script.steps)
            read, batch = derivation.parse_script, [text] * PARSE_LOOPS
        else:
            assert list(map(logic.parse, texts)) == list(map(refs.reference_parse, texts)), \
                "formulas read unlike the reference"
            read, formulas, batch = logic.parse, len(texts), texts
        _, seconds = timed_median(lambda: collections.deque(map(read, batch), maxlen=0))
        out.append({"text": row, "formulas": formulas, "us": seconds * 1e6 / len(batch)})
    return {"rows": out}


def cold(lines=tuple(COLD)) -> dict:
    with tempfile.TemporaryDirectory() as cwd:
        shutil.copy(os.path.join(TESTS, "golden", "model.json"), cwd)

        def start(line):
            done = subprocess.run([sys.executable, *COLD[line]], cwd=cwd, capture_output=True,
                                  text=True)
            assert done.returncode == 0, f"{line} exited {done.returncode}: {done.stderr}"
            return done.stdout

        return {"rows": [{"command": line, "ms": timed_median(start, line)[1] * 1e3}
                         for line in lines]}


def tier1() -> dict:
    done, wall = timed(subprocess.run, [sys.executable, *TIER1], capture_output=True, text=True)
    assert done.returncode == 0, done.stdout[-5000:] + done.stderr
    summary = done.stdout.strip().splitlines()[-1]
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (passed|failed)", summary)}
    slowest = re.findall(r"^([\d.]+)s (\w+) +(\S+)$", done.stdout, re.M)
    criteria = re.findall(r"PASS criterion (\d+) \[ *([\d.]+)s / ([\d.]+)s\]", done.stdout)
    return {
        "command": "python " + " ".join(TIER1), "wall_s": wall,
        "passed": counts.get("passed", 0), "failed": counts.get("failed", 0),
        "slowest": [{"seconds": float(s), "phase": p, "test": t} for s, p, t in slowest],
        "criteria": [{"criterion": int(c), "seconds": float(s), "budget_s": float(b)}
                     for c, s, b in criteria],
    }


def perfbench() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        args = ["perfbench/report.py", "--seed", "7", "--seconds", "20", "--out", out]
        done = subprocess.run([sys.executable, *args], capture_output=True, text=True)
        assert done.returncode == 0, done.stdout[-5000:] + done.stderr
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
    failing = [w for w, r in report["workloads"].items() if not r["correct"] or r["failed"]]
    assert not failing, f"perfbench workloads failed: {failing}"
    return report


def environment() -> dict:
    hooks = []
    for folder in site.getsitepackages() + [site.getusersitepackages()]:
        for path in sorted(glob.glob(os.path.join(folder, "*.pth"))):
            with open(path, encoding="utf-8", errors="replace") as fh:
                if any(line.startswith(("import ", "import\t")) for line in fh):
                    hooks.append(os.path.basename(path))
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
        "site_pth_hooks": hooks,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
    }


def child_env(checkout: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "BW_DIGIT_LIMIT"}
    env["PYTHONPATH"] = os.path.join(checkout, "src")
    return env


def run_child(checkout: str, section: str, *args) -> dict:
    code = (f"import json, sys; sys.path.insert(0, {HERE!r}); import bench; "
            f"print(json.dumps(bench.{section}(*{args!r})))")
    done = subprocess.run([sys.executable, "-c", code], cwd=checkout, env=child_env(checkout),
                          capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{section} failed in {checkout}, nothing written:\n{done.stderr}")
    return json.loads(done.stdout)


def spread(values: list, sides: list) -> tuple:
    """The median and interquartile range of values, and the rounds in which
    the last side read lower than the first."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q3 - q1, sum(map(operator.lt, sides[-1], sides[0]))


def row_rounds(checkouts: list, section: str, rows: tuple, keys: tuple, rounds=5) -> list:
    """One record per checkout, from rounds of one child per row and
    checkout; a child may return several rows for its row."""
    sides, runs = range(len(checkouts)), {}
    for r in range(rounds):
        for j, row in enumerate(rows):  # the first side flips from row to row and round to round
            for k in sides if (r + j) % 2 == 0 else reversed(sides):
                runs[r, j, k] = run_child(checkouts[k], section, (row,))
    # per checkout, each row a child returned, as read in every round
    taken = [[reads for j in range(len(rows))
              for reads in zip(*(runs[r, j, k]["rows"] for r in range(rounds)))] for k in sides]
    untimed = dict.fromkeys(keys)
    records = [{**runs[0, 0, k], "rounds": rounds, "rows": []} for k in sides]
    for k, mine in enumerate(taken):
        for i, reads in enumerate(mine):
            assert all({**r, **untimed} == {**reads[0], **untimed} for r in reads), \
                f"{section} changed its counts"
            records[k]["rows"].append(row := dict(reads[0]))
            for key in keys:
                values = [[r[key] for r in side[i]] for side in taken]
                row[key], row[f"{key}_iqr"], better = spread(values[k], values)
                if len(taken) == 2:
                    row[f"{key}_better_in"] = better
            if section == "sweep":
                row["models_per_s"] = row["models"] / row["seconds"]
    return records


# each section timed row by row: the rows its children take, and the keys they time
ROWS = {
    "pi": (PI_DIGITS, ("chudnovsky_s", "tail_s", "critical_s", "selftest_s")),
    "streams": (HORIZONS, ("ms", "us_per_stage")),
    "verdicts": (VERDICT_HORIZONS, ("us",)),
    "sweep": (BOUNDS, ("seconds",)),
    "schemas": (SCHEMA_SWEEPS, ("ms",)),
    "parse": (PARSE_ROWS, ("us",)),
    "cold": (tuple(COLD), ("ms",)),
}
SECTIONS = ("checks", *ROWS, "tier1", "perfbench")


def run_section(section: str, checkouts: list) -> list:
    """The section's record for each checkout; checks, tier1 and perfbench run whole."""
    if section in ROWS:
        return row_rounds(checkouts, section, *ROWS[section])
    return [run_child(checkout, section) for checkout in checkouts]


def cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.3f}" if abs(value) < 100 else f"{value:.0f}"
    return str(value)


def show(section: str, results: list) -> None:
    """Print each checkout's result: its lists of rows as tables, the rest as lines."""
    for k, result in enumerate(results):
        print(f"\n== {section} [{k}]")
        if section == "perfbench":
            result = {"env": result["env"], "workloads": [
                {"workload": w, **{f: r[f] for f in ("correct", "attempted", "failed")},
                 **{m: v["value"] for m, v in r["end_to_end"].items()}}
                for w, r in result["workloads"].items()]}
        for key, value in result.items():
            if not (isinstance(value, list) and value and isinstance(value[0], dict)):
                print(f"{key}: {cell(value)}")
                continue
            cells = [list(value[0])] + [[cell(v) for v in row.values()] for row in value]
            widths = [max(map(len, column)) for column in zip(*cells)]
            for line in cells:
                print("  ".join(c.rjust(w) for c, w in zip(line, widths)))
    sys.stdout.flush()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", metavar="OUT.json")
    ap.add_argument("checkouts", nargs="*", default=[os.path.dirname(HERE)], metavar="CHECKOUT")
    args = ap.parse_args()
    checkouts = [os.path.abspath(c) for c in args.checkouts]
    record = {"environment": environment(), "checkouts": [os.path.relpath(c) for c in checkouts]}
    for k, checkout in enumerate(record["checkouts"]):
        print(f"[{k}] {checkout}")
    for section in SECTIONS:
        record[section] = run_section(section, checkouts)
        show(section, record[section])
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
