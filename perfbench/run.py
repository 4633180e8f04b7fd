"""Benchmark entry point for the brouwer workbench.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the program is imported from ./src.
Workloads: pi-cold, points-warm, logic-proofs, cli-cold (see README.md in
this directory). Each run starts the workload in fresh interpreters:
SETUP_SAMPLES times in all, the last of which also runs the jobs, and
setup_s is the median of their start-to-first-job times. Times are at
reference speed (calib.py); the raw wall-clock figures are printed too.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 a separate run with layer spans gives the per-layer metrics. The
line before it records the environment, the seed and the sample counts.
Exit status 2 means the program's sources are missing.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import calib
from worker import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 5
TIMEOUT_S = 170
END_TO_END = {  # name: (unit, better)
    "setup_s": ("s", "lower"),
    "jobs_per_s": ("1/s", "higher"),
    "job_p50_ms": ("ms", "lower"),
    "job_p90_ms": ("ms", "lower"),
    "ok_ratio": ("ratio", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int, workload: str, backend: str) -> dict:
    return {
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "backend": backend,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "workload": workload,
        "seed": seed,
    }


class Worker:
    """One worker.py process, timed from spawn to its READY line."""

    def __init__(self, argv, env):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), *argv],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - t0
        if line.strip() != "READY":
            self.stop()
            raise RuntimeError(f"worker failed during set-up (exit {self.proc.returncode})")

    def finish(self) -> str:
        try:
            out, _ = self.proc.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.stop()
            raise
        if self.proc.returncode:
            raise RuntimeError(f"worker exited with {self.proc.returncode}")
        return out

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


def end_to_end(result, setups):
    lat_ms = [1000 * t for t in result["latencies_s"]]
    p90 = calib.hd_quantile(lat_ms, 0.9)
    jobs = result["jobs"]
    values = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": jobs / sum(result["latencies_s"]),
        "job_p50_ms": calib.hd_quantile(lat_ms, 0.5),
        "job_p90_ms": p90,
        "ok_ratio": 1 - result["failed"] / jobs,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    samples = {"jobs": jobs, "beyond_p90": sum(1 for t in lat_ms if t > p90),
               "setups": len(setups)}
    return values, samples


def invoke(workload, seed, seconds, trace):
    """Run this script in a subprocess; return its environment line and its result line."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip().splitlines()
    return json.loads(out[-2]), json.loads(out[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=tuple(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "brouwer", "__init__.py")):
        print(f"error: no program sources under {src}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.pop("BW_DIGIT_LIMIT", None)  # the workloads set their own digit limits
    env["PYTHONPATH"] = os.pathsep.join([src, HERE])
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]

    setups, raw_setups = [], []
    starts = 1 if args.trace else SETUP_SAMPLES
    for i in range(starts):
        f = calib.factor([calib.probe() for _ in range(5)])
        w = Worker(argv if i == starts - 1 else argv + ["--setup-only"], env)
        raw_setups.append(w.setup_s)
        setups.append(w.setup_s * f)
        out = w.finish()
    result = json.loads(out.strip().splitlines()[-1])

    if args.trace:
        from spans import PER_LAYER

        metrics = {k: {"value": v, "unit": PER_LAYER[k][0]} for k, v in result["per_layer"].items()}
        samples = {"jobs": result["jobs"]}
    else:
        values, samples = end_to_end(result, setups)
        metrics = {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in values.items()}
    raw_ms = [1000 * t for t in result["raw_latencies_s"]]
    raw = {"setup_s": statistics.median(raw_setups),
           "jobs_per_s": result["jobs"] / result["elapsed_s"],
           "job_p50_ms": calib.hd_quantile(raw_ms, 0.5),
           "job_p90_ms": calib.hd_quantile(raw_ms, 0.9),
           "probe_ms": result["probe_ms"]}
    print(json.dumps({"env": environment(args.seed, args.workload, result["backend"]),
                      "samples": samples, "raw": raw, "failures": result["failures"],
                      "known_defects": result.get("known_defects", {})}))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["jobs"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
