#!/usr/bin/env python3
"""Time the pi digit routes and check that they agree.

The production path is Chudnovsky binary splitting on the standard
library: Python ints at the leaves of the splitting, libmpdec ``decimal``
integers above them. This script times it, plus the two cross-check
routes (the certified Machin enclosure that ``DigitOracle`` checks it
against on construction, at mid sizes; the spigot stream at small sizes,
where its quadratic cost is still tolerable), and asserts that both agree
with it.

The "critical" column times what a caller of the oracle pays for a scan
of n positions: a fresh ``DigitOracle()`` (its 1000-digit self-test
included) and ``critical_number(run_property(0, 6), n)``, which finds no
run of six zeros below 10**6, so the search grows one series up to the
end of its window.

Usage: python benchmarks/pi_backends.py [max_digits]
"""

import sys
import time

from brouwer._pi_backends import chudnovsky_digits, machin_digits, spigot_digits
from brouwer.fleeing import DigitOracle, critical_number, run_property


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def critical_scan(n):
    return critical_number(run_property(0, 6, DigitOracle()), n)


def main() -> int:
    max_digits = int(sys.argv[1]) if len(sys.argv) > 1 else 200_000
    sizes = [n for n in (1_000, 10_000, 50_000, 200_000, 1_000_000) if n <= max_digits]

    print(f"{'digits':>9}  {'chudnovsky':>10}  {'critical':>10}  {'machin':>10}  {'spigot':>10}")

    for n in sizes:
        reference, t_chud = timed(chudnovsky_digits, n)
        search, t_crit = timed(critical_scan, n)
        assert str(search) == f"none-below:{n}", f"a run of six zeros below {n}"
        row = [f"{n:>9}", f"{t_chud:>9.3f}s", f"{t_crit:>9.3f}s"]

        if n <= 50_000:
            mac, t_mac = timed(machin_digits, n)
            assert mac == reference, f"Machin diverged at {n} digits"
            row.append(f"{t_mac:>9.3f}s")
        else:
            row.append(f"{'-':>10}")

        if n <= 10_000:
            spig, t_spig = timed(spigot_digits, n)
            assert spig == reference, f"spigot diverged at {n} digits"
            row.append(f"{t_spig:>9.3f}s")
        else:
            row.append(f"{'-':>10}")

        print("  ".join(row))

    print("the Machin enclosure and the spigot agree with Chudnovsky on every size tried")
    return 0


if __name__ == "__main__":
    sys.exit(main())
