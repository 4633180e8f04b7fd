#!/usr/bin/env python3
"""Time reading points to a horizon: whole milliseconds and per stage.

For each horizon h (10^3, 4*10^3 and 1.6*10^4 stages) it builds a fresh
point and reads its prefix to h: the centred value 1/3, that point
through each of the three bundled prefix maps (identity, negation and
delay, which reads the base to 2h), and the same point recentred below
stage 16. It prints the best of three reads in ms and in microseconds per
stage. The terms are h-bit integers, so even a linear stream costs more
per stage as h grows.

Usage: python benchmarks/point_streams.py [max_stages]
"""

import sys
import time
from fractions import Fraction

from brouwer.reals import (
    centered_point,
    delay_map,
    identity_map,
    mapped_point,
    negation_map,
    value_point,
)

HORIZONS = (1_000, 4_000, 16_000)
REPEATS = 3


def third():
    return value_point(Fraction(1, 3))


POINTS = {
    "value(1/3)": third,
    "identity(value)": lambda: mapped_point(identity_map(), third()),
    "negation(value)": lambda: mapped_point(negation_map(), third()),
    "delay(value)": lambda: mapped_point(delay_map(), third()),
    "centered(value,16)": lambda: centered_point(third(), 16),
}


def best_read_s(build, h: int) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        point = build()
        t0 = time.perf_counter()
        point.prefix(h)
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> int:
    max_stages = int(sys.argv[1]) if len(sys.argv) > 1 else max(HORIZONS)
    print(f"{'point':>18}  {'stages':>6}  {'ms':>9}  {'us/stage':>8}")
    for h in HORIZONS:
        if h > max_stages:
            continue
        for name, build in POINTS.items():
            seconds = best_read_s(build, h)
            print(f"{name:>18}  {h:>6}  {seconds * 1e3:>9.2f}  {seconds * 1e6 / h:>8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
