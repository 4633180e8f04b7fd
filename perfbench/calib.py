"""Machine-speed calibration for the timed metrics.

The reference machine is a shared 2-core VM whose speed drifts: two-second
medians of one fixed 500-digit spigot computation ranged from 14.5 to
24.8 ms within two minutes, in phases lasting ten seconds and more. Raw
wall times of a 20-second run inherit that drift. So the benchmark times
a fixed calibration loop (no program code) before every job and scales
each job's wall time by REF_PROBE_S over the median of the probes taken
around it, giving times at the reference speed. On that machine this cut
the run-to-run spread of throughput from about 20% to a few percent; the
raw figures are printed alongside.

A workload whose time goes mostly into big-int multiplication (pi-cold's
Chudnovsky sums) follows the machine's drift differently from bytecode,
so it mixes a big-int part into its probe (probe(bigint_share)); on that
machine a half share cut the spread over ten seeds of pi-cold's
throughput from 9% to 4% and of its p90 from 13% to 3%.
"""

from __future__ import annotations

import math
import statistics
import time

PROBE_LOOPS = 12_000
REF_PROBE_S = 0.002
REF_BIGINT_S = 0.0032  # the big-int part, at the speed where the loop takes REF_PROBE_S
_BIG_A = 7**9000
_BIG_B = 3**11000


def probe(bigint_share: float = 0.0) -> float:
    """Wall time of the calibration loop, in seconds at REF_PROBE_S scale.

    Two halves: small-integer arithmetic and dict and tuple churn, which
    track the interpreter-bound spread, sweep and checker code (each
    measured against the workloads' own calls on this machine). With
    bigint_share > 0 that share of the result comes from multiplying
    ints of about 10,000 digits instead.
    """
    loop = _loop()
    if not bigint_share:
        return loop
    t0 = time.perf_counter()
    x = _BIG_A
    for _ in range(4):
        x = (x * _BIG_B) % _BIG_A + _BIG_B
    big = (time.perf_counter() - t0) * REF_PROBE_S / REF_BIGINT_S
    return (1 - bigint_share) * loop + bigint_share * big


def _loop() -> float:
    t0 = time.perf_counter()
    x = 0
    for i in range(PROBE_LOOPS):
        x = (x * 31 + i) % 1_000_003
    table = {}
    for i in range(PROBE_LOOPS // 3):
        x = (x * 31 + i) % 1_000_003
        table[x & 1023] = (i, x)
    sorted(table.items())
    return time.perf_counter() - t0


def factor(probes) -> float:
    """Multiplier taking wall times measured alongside `probes` to reference speed."""
    return REF_PROBE_S / statistics.median(probes)


def scale(latencies, probes, half_window=5):
    """Each latency at reference speed, by the probes of the jobs around it."""
    return [t * factor(probes[max(0, i - half_window) : i + half_window + 1])
            for i, t in enumerate(latencies)]


def hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A Beta(p(n+1), (1-p)(n+1))-weighted mean of all order statistics: it
    tracks the same quantile as the sample quantile with a fraction of its
    run-to-run variance when single jobs are noisy.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 16
    total = weight = 0.0
    for i, x in enumerate(xs):
        h = 1 / (n * steps)
        w = 0.0
        for k in range(steps):
            t = (i + (k + 0.5) / steps) / n
            w += math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t)) * h
        total += w * x
        weight += w
    return total / weight
