"""Compare two report.py results, metric by metric.

    python3 perfbench/compare.py BASE.json NEW.json

Refuses (exit 3) when the two were measured on different pi backends, on
different numbers of cores or Python versions: their times do not compare.
Otherwise prints, per workload, each end-to-end metric's change as a share
of the base, marking changes worse than the bound in BENCHMARK.json, and
any exact count that differs. One report holds one run per workload, so a
mark is a prompt to measure properly (several seeds, alternating sides),
not a verdict.
"""

from __future__ import annotations

import json
import os
import sys

from run import ROOT
from spans import EXACT_COUNTS

SAME = ("backend", "nproc", "python")


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.load(open(p, encoding="utf-8")) for p in sys.argv[1:])
    differ = [k for k in SAME if base["env"].get(k) != new["env"].get(k)]
    if differ:
        for k in differ:
            print(f"refused: {k} is {base['env'].get(k)!r} in the base and "
                  f"{new['env'].get(k)!r} in the new result", file=sys.stderr)
        return 3
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    for workload, b in base["workloads"].items():
        n = new["workloads"][workload]
        print(f"== {workload}")
        for name, m in b["end_to_end"].items():
            old, cur = m["value"], n["end_to_end"][name]["value"]
            change = (cur - old) / old
            worse = -change if spec[name]["better"] == "higher" else change
            mark = "  WORSE THAN BOUND" if worse > spec[name]["bound"] else ""
            print(f"  {name:<14} {old:>12.5g} -> {cur:<12.5g} {change:+.3f}{mark}")
        for name in EXACT_COUNTS:
            old, cur = b["per_layer"][name]["value"], n["per_layer"][name]["value"]
            if old != cur:
                print(f"  count {name}: {old} -> {cur}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
