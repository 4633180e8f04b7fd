#!/usr/bin/env python3
"""Time cold starts: the median wall time of fresh processes, per command.

Two baselines come first, a bare ``python -c pass`` and ``import argparse,
json, fractions`` (what the CLI needs before any brouwer module), then each
README command with ``--json`` run as ``python -m brouwer.cli``. Each row is
the median of N fresh processes, started one after another; with several
source trees the runs alternate between them command by command, so a
before/after comparison shares the machine's drift. The commands run in a
scratch directory holding the README's model.json and no brouwer.toml.

The environment that decides a cold start is printed first: the Python
version, PYTHONDONTWRITEBYTECODE (set, every start compiles the sources),
the site .pth files that run an import at every start, and whether gmpy2
is importable.

Usage: python benchmarks/cold_start.py [-n N] [--json] [SRC ...]

SRC defaults to this checkout's src/; give two trees to compare them.
``measure()`` returns the same figures as the --json output, for a writer
that records them with other benchmarks.
"""

import argparse
import glob
import importlib.util
import json
import os
import platform
import shlex
import site
import statistics
import subprocess
import sys
import tempfile
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

MODEL = '{"nodes": [{"id": "root", "atoms": []}, {"id": "later", "parent": "root", "atoms": ["q"]}]}'

BASELINES = {
    "python -c pass": ["-c", "pass"],
    "import argparse, json, fractions": ["-c", "import argparse, json, fractions"],
}
README = {
    "pi digits": "pi digits 20",
    "pi find": "pi find --pattern 999999 --limit 2000",
    "fleeing critical": "fleeing critical --digit 3 --run 1",
    "spread sample": "spread sample --seed 11 --stages 9",
    "real cmp": "real cmp --lhs berlin-s --rhs zero --lhs-trace never --horizon 100",
    "drift run": "drift run --drift two-winged-mixed --kind osc --trace false:2",
    "logic eval": "logic eval --model model.json --at root --formula '<*>q -> q'",
    "logic sweep": "logic sweep --schema cs5 --nodes 4 --atoms 2",
    "derive check": "derive check conditional-ks",
    "derive ks-report": "derive ks-report",
    "replay": "replay vienna-9",
}


def environment() -> dict:
    """The settings that change what a cold start costs."""
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
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE", ""),
        "site_pth_hooks": hooks,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
    }


def _commands() -> dict:
    argv = {label: args for label, args in BASELINES.items()}
    for label, line in README.items():
        argv[label] = ["-m", "brouwer.cli", *shlex.split(line), "--json"]
    return argv


def _run_ms(args: list, env: dict, cwd: str) -> float:
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *args], env=env, cwd=cwd, capture_output=True)
    elapsed = (time.perf_counter() - start) * 1e3
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited {done.returncode}: {done.stderr.decode()}")
    return elapsed


def measure(srcs=(SRC,), repeats: int = 7) -> dict:
    """{"environment", "repeats", "srcs", "median_ms": {command: [ms per src]}}."""
    envs = [dict(os.environ, PYTHONPATH=os.path.abspath(src)) for src in srcs]
    for env in envs:
        env.pop("BW_DIGIT_LIMIT", None)
    times = {label: [[] for _ in srcs] for label in _commands()}
    with tempfile.TemporaryDirectory() as cwd:
        with open(os.path.join(cwd, "model.json"), "w", encoding="utf-8") as fh:
            fh.write(MODEL)
        for _ in range(repeats):
            for label, args in _commands().items():
                for k, env in enumerate(envs):
                    times[label][k].append(_run_ms(args, env, cwd))
    return {
        "environment": environment(),
        "repeats": repeats,
        "srcs": [os.path.abspath(src) for src in srcs],
        "median_ms": {
            label: [round(statistics.median(runs), 1) for runs in per_src]
            for label, per_src in times.items()
        },
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("srcs", nargs="*", default=[SRC], metavar="SRC")
    ap.add_argument("-n", "--repeats", type=int, default=7)
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args()
    result = measure(args.srcs, args.repeats)
    if args.json:
        print(json.dumps(result, indent=2))
        return
    for key, value in result["environment"].items():
        print(f"{key}: {value}")
    print(f"median of {result['repeats']} fresh processes, ms")
    for k, src in enumerate(result["srcs"]):
        print(f"  [{k}] {src}")
    width = max(map(len, result["median_ms"]))
    for label, medians in result["median_ms"].items():
        print(f"{label:<{width}}  " + "  ".join(f"{ms:8.1f}" for ms in medians))


if __name__ == "__main__":
    main()
