"""pi-cold: every job pays a fresh DigitOracle() self-test, then one query.

Per cycle of 20 jobs: 14 README-sized queries (log-uniform 20..2,000
digits, one per stratum), 5 large ones (log-uniform 10^4..10^5, one per
stratum) and 1 query against DigitOracle(limit=L) that needs more than L
digits, so refusing is the only correct answer. Query kinds (digits,
find_pattern, critical_number) rotate over the strata, so every run holds
the same mix and the same sizes, so runs with different seeds do the same
amount of work; the seed draws the patterns, the run properties, the
digit limits of the refusal jobs and the job order.

Refusal jobs alternate between digits and critical_number. find_pattern
past an oracle limit answers None instead of refusing (ROADMAP item 2),
so it is kept out of the timed mix, where every job must succeed, and
probed once per run instead by known_defects().
"""

from __future__ import annotations

import hashlib
import random

NAME = "pi-cold"
CYCLE_JOBS = 20
NOMINAL_CYCLE_S = 3.0
KINDS = ("digits", "find", "critical")
REFUSAL_KINDS = ("digits", "critical")
GOLDEN = 0.6180339887498949
PROBE_BIGINT_SHARE = 0.5  # most job time is big-int multiplication (see calib.py)


def _digits_of(rng, length):
    return "".join(rng.choice("0123456789") for _ in range(length))


def _query(rng, kind, n, large):
    if kind == "digits":
        return ("digits", None, n)
    if kind == "find":
        if large:
            return ("find", None, _digits_of(rng, rng.randint(7, 8)), n)
        pattern = "999999" if rng.random() < 0.2 else _digits_of(rng, rng.randint(2, 6))
        return ("find", None, pattern, n)
    if large:
        return ("critical", None, rng.randint(0, 8), 6, n)
    return ("critical", None, rng.randint(0, 9), rng.randint(1, 6), n)


def _refusal(rng, kind):
    if kind == "digits":
        limit = rng.randint(200, 900)
        return ("digits", limit, rng.randint(limit + 1, 2 * limit))
    limit = rng.randint(200, 900)
    return ("critical", limit, rng.randint(0, 8), 6, rng.randint(limit + 1, 2000))


def plan(seed, cycles):
    jobs = []
    for c in range(cycles):
        rng = random.Random(f"{NAME}:{seed}:{c}")
        # a golden-ratio sequence spreads sizes evenly over each stratum
        frac = c * GOLDEN % 1
        cycle = []
        for i in range(14):
            n = int(20 * 100 ** ((i + frac) / 14))
            cycle.append(_query(rng, KINDS[(i + c) % 3], n, False))
        for i in range(5):
            n = int(10 ** (4 + (i + frac) / 5))
            cycle.append(_query(rng, KINDS[(i + c) % 3], n, True))
        cycle.append(_refusal(rng, REFUSAL_KINDS[c % 2]))
        rng.shuffle(cycle)
        jobs.extend(cycle)
    return jobs


def setup(jobs):
    import brouwer.fleeing  # noqa: F401  (import cost belongs to set-up)


def _sha(text):
    return hashlib.sha1(text.encode()).hexdigest()


def run(job):
    from brouwer import fleeing

    kind, limit = job[0], job[1]
    oracle = fleeing.DigitOracle(limit=limit)
    if kind == "digits":
        out = oracle.digits(job[2])
        return (len(out), _sha(out))
    if kind == "find":
        return fleeing.find_pattern(job[2], job[3], oracle)
    return fleeing.critical_number(fleeing.run_property(job[2], job[3], oracle), job[4]).found_at


def known_defects():
    """Whether find_pattern still over-claims past an oracle limit (ROADMAP item 2).

    The six nines sit at 762, beyond the limit of 500, so the honest
    answer is a refusal; None claims there is no match up to 1000.
    """
    from brouwer import ResourceLimitError, fleeing

    try:
        found = fleeing.find_pattern("999999", 1000, fleeing.DigitOracle(limit=500))
    except ResourceLimitError:
        return {"find_pattern_overclaim": False}
    return {"find_pattern_overclaim": found is None}


def _reach(job):
    """Digits a full answer reads, before any oracle limit applies."""
    if job[0] == "digits":
        return job[2]
    if job[0] == "find":
        return job[3] + len(job[2]) - 1
    return job[4] + job[3] - 1


def check(jobs, outcomes):
    """Per-job verdicts against mpmath digits, plus the digits each job needed."""
    from refs import least_run, pi_digits

    ref = pi_digits(max(_reach(j) for j in jobs) + 10)
    flags, needed = [], 0
    for job, out in zip(jobs, outcomes):
        limit = job[1] if job[1] is not None else 10**12
        reach, found_need = _reach(job), None
        if job[0] == "digits":
            answer = (job[2], _sha(ref[: job[2]]))
        else:
            if job[0] == "find":
                pattern = job[2]
                i = ref.find(pattern)
                answer = i + 1 if i != -1 and i + 1 <= job[3] else None
            else:
                pattern = str(job[2]) * job[3]
                answer = least_run(ref, job[2], job[3], job[4])
            if answer is not None:
                found_need = answer + len(pattern) - 1
        if reach <= limit:
            allowed = {("ok", answer)}
        elif found_need is not None and found_need <= limit:
            # the witness lies inside the limit: reporting it or refusing are both honest
            allowed = {("ok", answer), ("refused",)}
        else:
            allowed = {("refused",)}
        flags.append(out in allowed)
        needed += max(min(found_need or reach, limit), min(1000, limit))
    return flags, {"digits_needed": needed}
