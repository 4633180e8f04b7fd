"""points-warm: verdicts on points while the digit oracle is already filled.

Set-up fills the default oracle to the widest window any planned job reads,
so the jobs exercise prefix emission (spreads), interval relations (dyadic),
three-valued verdicts (reals), drift validation (drift) and the oracle's
read path, never its write path.

Per cycle of 20 jobs:
  10 `real cmp`-style verdict sets (lt both ways, apart, coincide_refute) on a
     pair of points, one pair kind per horizon stratum (log-uniform 32..512);
   5 abs_diff_lt / continuity_modulus jobs on a mapped (identity, negation,
     delay) or centered point, one per horizon stratum;
   2 validate_drift calls on a bundled drift;
   3 warm critical_number scans, log-uniform 10^3..5*10^4 positions.
Pair kinds rotate over the horizon strata from cycle to cycle, and
alternate between traces or run properties that resolve within the horizon
and ones that never do, so ten cycles meet every pairing once and runs with
different seeds do the same work. The seed draws the rationals, the
resolution stages and outcomes, the digits and the order.
"""

from __future__ import annotations

import random
from fractions import Fraction

from refs import checking_switch

NAME = "points-warm"
CYCLE_JOBS = 20
NOMINAL_CYCLE_S = 1.5
DRIFTS = ("rational-right", "two-winged-mixed", "berlin")
MAPS = ("identity", "negation", "delay")
VALIDATE_DEPTH = 4
GOLDEN = 0.6180339887498949


def _value(rng):
    return ("value", Fraction(rng.randint(-40, 40), rng.choice((3, 5, 7, 9, 11, 16, 24))))


def _trace(rng, resolved=True):
    if not resolved:
        return ("never", None)
    return (rng.choice(("proved", "refuted")), rng.randint(1, 12))


def _prop(rng, resolved):
    # every digit shows up by position 32, the least horizon; no run of six
    # equal digits other than nines starts below 10^5
    return (rng.randint(0, 9), 1) if resolved else (rng.randint(0, 8), 6)


def _checking(rng, resolved):
    while True:
        drift = rng.choice(("berlin", "two-winged-mixed"))
        kind = rng.choice(("direct", "oscillatory", "conditional"))
        trace = _trace(rng, resolved)
        ref = checking_switch(kind, trace)
        # keep targets rational: the mixed drift's left wing is irrational
        rational = not (drift == "two-winged-mixed" and ref and ref.startswith("l"))
        if rational and (ref is not None) == resolved:
            return ("checking", drift, kind, trace)


def _fixed(rng, kind):
    return ("zero",) if kind == 0 else ("one",) if kind == 1 else ("int", rng.randint(-3, 3))


# pair kinds; `res` says whether the trace or run property resolves within
# the horizon, which decides whether coincidence gets refuted early, and `c`
# picks the cheaper or dearer partner point by turns
PAIRS = (
    lambda r, res, c: (_value(r), _value(r)),
    lambda r, res, c: (_value(r), _fixed(r, c % 3)),
    lambda r, res, c: (("berlin_s", _trace(r, res)), ("zero",)),
    lambda r, res, c: (("vienna_e", _trace(r, res)), ("value", Fraction(1, 2))),
    lambda r, res, c: (_checking(r, res), ("zero",) if c % 2 else _value(r)),
    lambda r, res, c: (("berlin_r",) + _prop(r, res), ("zero",)),
    lambda r, res, c: (("cambridge_c",) + _prop(r, res), ("zero",)),
    lambda r, res, c: (("veldman_f2",) + _prop(r, res), _value(r)),
    lambda r, res, c: (("berlin_s", _trace(r, res)), ("berlin_s", _trace(r, res))),
    lambda r, res, c: (("int", r.randint(-2, 2)), _value(r)),
)


def _base(rng, turn):
    # lawlike points memoise their terms, process points recompute them on
    # every prefix call, more dearly once resolved; so the kind and the
    # resolution go by turns, not by draw
    if turn % 3 == 0:
        return _value(rng)
    return ("berlin_s" if turn % 3 == 1 else "vienna_e", _trace(rng, turn // 3 % 2 == 0))


def _map_job(rng, slot, c, frac):
    h = int(32 * 16 ** (((slot + 2 * c) % 5 + frac) / 5))
    base = _base(rng, slot + c)
    other = ("zero",) if (slot + c) % 2 else _value(rng)
    bound = Fraction(1, 1 << rng.randint(1, 24))
    if slot < 3:
        return ("absdiff", ("mapped", MAPS[slot], base), other, bound, h)
    if slot == 3:
        return ("absdiff", ("centered", base, rng.randint(1, 16)), other, bound, h)
    return ("modulus", MAPS[c % 3], base, 1 + int(30 * frac), 64)


def plan(seed, cycles):
    jobs = []
    for c in range(cycles):
        rng = random.Random(f"{NAME}:{seed}:{c}")
        # a golden-ratio sequence spreads horizons evenly over each stratum
        frac = c * GOLDEN % 1
        cycle = []
        for k, pair in enumerate(PAIRS):
            h = int(32 * 16 ** (((k + 3 * c) % 10 + frac) / 10))
            cycle.append(("cmp",) + pair(rng, (c + k) % 2 == 0, c) + (h,))
        for slot in range(5):
            cycle.append(_map_job(rng, slot, c, frac))
        for i in range(2):
            cycle.append(("validate", DRIFTS[(2 * c + i) % 3]))
        for i in range(3):
            horizon = int(1000 * 50 ** ((i + frac) / 3))
            cycle.append(("critical", rng.randint(0, 8), 6, horizon))
        rng.shuffle(cycle)
        jobs.extend(cycle)
    return jobs


def _window(job):
    """Widest digit position a job can read from the default oracle."""
    if job[0] == "critical":
        return job[3] + job[2] - 1
    specs = [s for s in job[1:3] if isinstance(s, tuple)]
    reads = [job[-1] + s[2] - 1 for s in specs
             if s[0] in ("berlin_r", "cambridge_c", "veldman_f2")]
    return max(reads, default=0)


def setup(jobs):
    from brouwer import fleeing

    fleeing.default_oracle().digits(max(_window(j) for j in jobs))


# --- program side -------------------------------------------------------


def _trace_obj(trace):
    from brouwer import spreads

    kind, k = trace
    if kind == "never":
        return spreads.never_trace()
    return spreads.proved_at(k) if kind == "proved" else spreads.refuted_at(k)


def build(spec):
    from brouwer import drift, fleeing, reals

    kind = spec[0]
    if kind == "value":
        return reals.value_point(spec[1])
    if kind == "zero":
        return reals.zero_point()
    if kind == "one":
        return reals.one_point()
    if kind == "int":
        return reals.int_point(spec[1])
    if kind == "berlin_s":
        return drift.berlin_s(_trace_obj(spec[1]))
    if kind == "vienna_e":
        return drift.vienna_e(_trace_obj(spec[1]))
    if kind == "checking":
        ckind = drift.KIND_ALIASES[spec[2]]
        return drift.flatten_checking(drift.bundled_drift(spec[1]), ckind, _trace_obj(spec[3]))
    if kind == "mapped":
        fmap = getattr(reals, f"{spec[1]}_map")()
        return reals.mapped_point(fmap, build(spec[2]))
    if kind == "centered":
        return reals.centered_point(build(spec[1]), spec[2])
    prop = fleeing.run_property(spec[1], spec[2])
    if kind == "berlin_r":
        return fleeing.berlin_r(prop)
    return getattr(fleeing, kind)(fleeing.geometric_family(), prop)


def _v(verdict):
    return (verdict.value.value, verdict.witness, verdict.direction)


def run(job):
    from brouwer import drift, fleeing, reals

    kind = job[0]
    if kind == "cmp":
        x, y, h = build(job[1]), build(job[2]), job[3]
        return (_v(reals.lt_at(x, y, h)), _v(reals.lt_at(y, x, h)),
                _v(reals.apart_at(x, y, h)), _v(reals.coincide_refute(x, y, h)))
    if kind == "absdiff":
        return _v(reals.abs_diff_lt(build(job[1]), build(job[2]), job[3], job[4]))
    if kind == "modulus":
        fmap = getattr(reals, f"{job[1]}_map")()
        q = reals.continuity_modulus(fmap, build(job[2]), job[3], job[4])
        return _v(q) if isinstance(q, reals.Verdict) else ("radius", q.num, q.exp)
    if kind == "validate":
        verdicts = drift.validate_drift(drift.bundled_drift(job[1]), VALIDATE_DEPTH)
        return tuple((v.value.value, v.direction) for v in verdicts)
    return fleeing.critical_number(fleeing.run_property(job[1], job[2]), job[3]).found_at


# --- expectations --------------------------------------------------------


def _stages_needed(job):
    """Stages a job needs if each point's stream were emitted once."""
    kind = job[0]
    if kind == "cmp":
        return 2 * job[3]
    if kind == "absdiff":
        mapped, h = job[1], job[4]
        return (2 * h if mapped[:2] == ("mapped", "delay") else h) + h
    if kind == "modulus":
        return (2 if job[1] == "delay" else 1) * (job[3] + 2)
    if kind == "validate":
        return (VALIDATE_DEPTH + 16) + VALIDATE_DEPTH * (VALIDATE_DEPTH + 20)
    return 0


def check(jobs, outcomes):
    import refs

    digits = refs.pi_digits(max(_window(j) for j in jobs) + 10)
    flags = []
    for job, out in zip(jobs, outcomes):
        kind = job[0]
        if kind == "cmp":
            a, b = refs.indices(job[1], job[3], digits), refs.indices(job[2], job[3], digits)
            want = (refs.ref_lt(a, b), refs.ref_lt(b, a), refs.ref_apart(a, b),
                    refs.ref_coincide(a, b))
        elif kind == "absdiff":
            h = job[4]
            want = refs.ref_abs_diff_lt(refs.indices(job[1], h, digits),
                                        refs.indices(job[2], h, digits), job[3])
        elif kind == "modulus":
            want = refs.ref_continuity(job[1], job[3], job[4])
        elif kind == "validate":
            want = tuple(("holds", d) for d in refs.ref_validate_drift(job[1], VALIDATE_DEPTH))
        else:
            want = refs.least_run(digits, job[1], job[2], job[3])
        flags.append(out == ("ok", want))
    return flags, {"stages_needed": sum(_stages_needed(j) for j in jobs)}
