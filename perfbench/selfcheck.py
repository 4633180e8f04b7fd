"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py [--seed N]

1. BENCHMARK.json names exactly the workloads worker.py runs and the
   metrics run.py prints, with the same units and directions.
2. Two traced runs of each workload with one seed repeat every exact count
   (spans.EXACT_COUNTS) to the last unit.
3. Each cli-cold command prints byte-identical stdout in two fresh
   processes; that stdout matches expected_cli.json and the facts that
   cli_cold.facts computes independently. expected_cli.json is fixed
   reference data: it is edited by hand, never written from the program's
   output.
Exit status 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import cli_cold
import refs
from run import END_TO_END, HERE, ROOT, invoke
from spans import EXACT_COUNTS, PER_LAYER
from worker import WORKLOADS


def bench_file_problems():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("workload names differ from the benchmark's")
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        if listed != table:
            problems.append(f"{key} differs: {sorted(set(listed.items()) ^ set(table.items()))}")
    return problems


def traced_counts(workload, seed):
    metrics = invoke(workload, seed, 1, 1)[1]["metrics"]
    return {k: metrics[k]["value"] for k in EXACT_COUNTS}


def cli_outputs():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), HERE]))
    env.pop("BW_DIGIT_LIMIT", None)
    cli_cold.write_model()
    out = {}
    for command in cli_cold.ARGS:
        done = subprocess.run(
            [sys.executable, "-m", "brouwer.cli", *cli_cold.ARGS[command], "--json"],
            cwd=ROOT, env=env, capture_output=True)
        out[command] = (done.returncode, done.stdout.decode())
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    problems = []
    digits = refs.pi_digits(2000)

    first, second = cli_outputs(), cli_outputs()
    for command, (code, text) in first.items():
        if code != 0 or not cli_cold.facts(command, json.loads(text), digits):
            problems.append(f"cli {command}: exit {code} or facts do not hold")
        if second[command] != (code, text):
            problems.append(f"cli {command}: stdout differs between two runs")
    with open(cli_cold.EXPECTED_PATH, encoding="utf-8") as fh:
        expected = json.load(fh)
    problems += [f"cli {c}: stdout differs from expected_cli.json"
                 for c, (_, t) in first.items() if expected.get(c) != t]

    problems += bench_file_problems()
    for workload in WORKLOADS:
        a, b = traced_counts(workload, args.seed), traced_counts(workload, args.seed)
        print(f"{workload}: {json.dumps(a, sort_keys=True)}")
        problems += [f"{workload}: {k} {a[k]} then {b[k]}" for k in EXACT_COUNTS if a[k] != b[k]]

    for p in problems:
        print("FAIL", p)
    print("selfcheck:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
