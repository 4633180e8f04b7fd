"""``benchmarks/bench.py`` loaded as a module, so that tests can run its
sections in-process at their smallest sizes, and its rounds with a
stand-in for the child processes.

The Tier-1 and perfbench sections take minutes, so only ``python
benchmarks/bench.py`` runs them.
"""

import importlib.util
import json
from pathlib import Path

SPEC = importlib.util.spec_from_file_location(
    "bench", Path(__file__).resolve().parent.parent / "benchmarks" / "bench.py"
)
bench = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench)


def survives_json(record: dict) -> bool:
    # a child process hands its section's record over as JSON
    return json.loads(json.dumps(record)) == record
