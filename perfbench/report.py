"""Every metric of every workload, by name, with unit and sample count.

    python3 perfbench/report.py [--seed N] [--seconds S] [--out FILE]

Runs run.py once untraced and once traced per workload, prints the
environment and one table per workload, and the tracing overhead as traced
against untraced jobs_per_s. The whole result, environment included, goes
to FILE (default perfbench/_work/report-<seed>.json) for compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from run import HERE, invoke
from worker import WORKLOADS


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--out")
    args = ap.parse_args()

    report = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for workload in WORKLOADS:
        info, e2e = invoke(workload, args.seed, args.seconds, 0)
        _, layers = invoke(workload, args.seed, args.seconds, 1)
        report["env"] = {k: v for k, v in info["env"].items() if k != "workload"}
        report["workloads"][workload] = {
            "correct": e2e["correct"], "attempted": e2e["attempted"], "failed": e2e["failed"],
            "samples": info["samples"], "failures": info["failures"],
            "end_to_end": e2e["metrics"], "per_layer": layers["metrics"],
        }

    print("environment:", json.dumps(report["env"], sort_keys=True))
    for workload, r in report["workloads"].items():
        s = r["samples"]
        print(f"\n== {workload}: {r['attempted']} jobs, {r['failed']} failed, "
              f"{s['beyond_p90']} beyond p90, setup sampled {s['setups']}x")
        for name, m in r["end_to_end"].items():
            print(f"  {name:<36} {m['value']:>14.6g} {m['unit']:<9} n={r['attempted']}")
        for name, m in r["per_layer"].items():
            print(f"  {name:<36} {m['value']:>14.6g} {m['unit']:<9} n={r['attempted']} traced")
        plain = r["end_to_end"]["jobs_per_s"]["value"]
        traced = r["per_layer"]["trace.jobs_per_s"]["value"]
        print(f"  tracing overhead: {traced:.4g}/s traced vs {plain:.4g}/s untraced "
              f"({plain / traced:.3f}x)")
        for job, out in r["failures"]:
            print(f"  failed job {job}: {out}")

    path = args.out or os.path.join(HERE, "_work", f"report-{args.seed}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print(f"\nwritten to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
