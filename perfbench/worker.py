"""One benchmark run of one workload, in a fresh interpreter.

Started by run.py, which times it from process start to the READY line
(set-up: import, input generation, warm-up) and reads the result JSON it
prints last. Jobs run one at a time, each waiting for the previous verdict
(a closed loop with one client); the calibration loop of calib.py runs
before each job (with the big-int share the workload module names in
PROBE_BIGINT_SHARE, if any), and each latency is scaled by the probes
around it.
Outcomes are checked against independent expectations only after the
timed phase.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import calib

WORKLOADS = {
    "pi-cold": "pi_cold",
    "points-warm": "points_warm",
    "logic-proofs": "logic_proofs",
    "cli-cold": "cli_cold",
}
MIN_JOBS = 110  # p90 then has at least ten samples beyond it
PROBE_RUNS = 5


def cycles_for(mod, seconds):
    """Plan length: whole cycles filling about `seconds` on the reference machine."""
    return max(math.ceil(MIN_JOBS / mod.CYCLE_JOBS), round(seconds / mod.NOMINAL_CYCLE_S))


def _probe_ms(code):
    """Median wall time of `python -c code`, in ms."""
    times = []
    for _ in range(PROBE_RUNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, capture_output=True)
        times.append(time.perf_counter() - t0)
    return 1000 * statistics.median(times)


def cli_probes():
    """Bare interpreter, import of the CLI, and the oracle self-test, in ms."""
    interp = _probe_ms("pass")
    imported = _probe_ms("import brouwer.cli")
    selftest = []
    for _ in range(PROBE_RUNS):
        out = subprocess.run(
            [sys.executable, "-c",
             "import time, brouwer.cli\nfrom brouwer.fleeing import DigitOracle\n"
             "t = time.perf_counter(); DigitOracle(); print(time.perf_counter() - t)"],
            check=True, capture_output=True, text=True)
        selftest.append(float(out.stdout))
    return {"cli.interp_ms": interp, "cli.import_ms": imported - interp,
            "cli.selftest_ms": 1000 * statistics.median(selftest)}


def outcome(run, job):
    try:
        return ("ok", run(job))
    except Exception as e:  # every outcome is judged later, refusals included
        # matched by name: this module imports no program code, since run.py
        # imports it (for WORKLOADS) without the program on its path
        if type(e).__name__ == "ResourceLimitError":
            return ("refused",)
        return ("error", f"{type(e).__name__}: {e}")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    mod = importlib.import_module(WORKLOADS[args.workload])
    jobs = mod.plan(args.seed, cycles_for(mod, args.seconds))
    mod.setup(jobs)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    run = mod.run
    if args.trace:
        from spans import Tracer, install_program_wrappers

        tracer = Tracer()
        if hasattr(mod, "run_traced"):
            run = lambda job: mod.run_traced(job, tracer)  # noqa: E731
        else:
            install_program_wrappers(tracer)

    bigint_share = getattr(mod, "PROBE_BIGINT_SHARE", 0.0)
    latencies, outcomes, probes = [], [], []
    start = time.perf_counter()
    for i, job in enumerate(jobs):
        probes.append(calib.probe(bigint_share))
        root = tracer.start_job(i) if tracer else None
        t0 = time.perf_counter()
        outcomes.append(outcome(run, job))
        latencies.append(time.perf_counter() - t0)
        if tracer:
            tracer.end_job(root)
    elapsed = time.perf_counter() - start
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()

    flags, needs = mod.check(jobs, outcomes)
    from brouwer import _pi_backends

    result = {
        "jobs": len(jobs),
        "failed": flags.count(False),
        "elapsed_s": elapsed,
        "latencies_s": calib.scale(latencies, probes),
        "raw_latencies_s": latencies,
        "probe_ms": 1000 * statistics.median(probes),
        "peak_rss_mb": peak_rss_mb,
        "backend": _pi_backends.BACKEND,
        "failures": [[repr(j), repr(o)] for j, o, ok in zip(jobs, outcomes, flags) if not ok][:20],
    }
    if hasattr(mod, "known_defects"):
        result["known_defects"] = mod.known_defects()
    if tracer:
        from spans import layer_metrics

        work = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_work")
        os.makedirs(work, exist_ok=True)
        tracer.dump(os.path.join(work, f"spans-{args.workload}-{args.seed}.json"))
        result["per_layer"] = layer_metrics(tracer, sum(latencies), len(jobs), needs,
                                            cli_probes(), calib.factor(probes))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
