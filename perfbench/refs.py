"""Independent expectations for every job kind.

Nothing here calls the program under test. Pi digits come from mpmath;
interval sequences are re-derived from each point's exact target values
with Fraction arithmetic (nearest admissible midpoint, ties to the smaller
index); formulas are evaluated by a separate set-based semantics.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from math import isqrt

SIX_NINES_AT = 762  # first run of six nines in the decimal expansion of pi


# --- pi ---------------------------------------------------------------------


def pi_digits(n: int) -> str:
    """First n decimals of pi from mpmath, checked against known facts."""
    import mpmath

    sys.set_int_max_str_digits(0)
    guard = 30
    while True:
        with mpmath.workdps(n + guard + 10):
            s = mpmath.nstr(mpmath.pi, n + guard, strip_zeros=False)
        tail = s[2 + n : 2 + n + guard - 5]
        if tail.strip("9") and tail.strip("0"):
            break
        guard *= 2
    digits = s[2 : 2 + n]
    if not digits.startswith("1415926535"[: n]):
        raise RuntimeError("mpmath pi reference is wrong at the start")
    if n >= SIX_NINES_AT + 5 and digits.find("999999") + 1 != SIX_NINES_AT:
        raise RuntimeError("mpmath pi reference misses the six nines at 762")
    return digits


def least_run(digits: str, d: int, length: int, horizon: int):
    """Least n <= horizon where positions n..n+length-1 all read d, else None."""
    i = digits.find(str(d) * length)
    return i + 1 if i != -1 and i + 1 <= horizon else None


# --- points: index sequences from exact targets ------------------------------


def centered_indices(target_at, h: int) -> list[int]:
    out: list[int] = []
    for n in range(1, h + 1):
        t = target_at(n)
        if out:
            a = out[-1]
            cands = (2 * a, 2 * a + 1, 2 * a + 2)
        else:
            f = math.floor(2 * t)
            cands = (f - 1, f)
        out.append(min(cands, key=lambda c: (abs(Fraction(c + 1, 1 << n) - t), c)))
    return out


def _resolution_target(before, after, trace):
    """Target `before(stage)` until the trace resolves at k, then `after(kind, k)`."""
    kind, k = trace

    def target(stage):
        if kind != "never" and stage >= k:
            return after(kind, k)
        return before(stage)

    return target


def _berlin_wing(ref: str) -> Fraction:
    side, v = ref.split("_")
    return Fraction(1 if side == "r" else -1, 1 << int(v))


def _counting_ref(v: int) -> str:
    # two-winged enumeration r_1, l_1, r_2, l_2, ...
    return f"r_{(v + 1) // 2}" if v % 2 else f"l_{v // 2}"


def checking_switch(kind: str, trace):
    """The wing ref a two-winged checking number switches to, or None."""
    res, k = trace
    if res == "never":
        return None
    if kind == "oscillatory":
        return f"{'r' if res == 'proved' else 'l'}_{k}"
    if kind == "conditional" and res == "refuted":
        return None
    return _counting_ref(k)


def target_fn(spec, digits: str):
    """Exact per-stage target of a centering point spec."""
    kind = spec[0]
    if kind == "value":
        return lambda stage: spec[1]
    if kind == "berlin_s":
        return target_fn(("checking", "berlin", "oscillatory", spec[1]), digits)
    if kind == "vienna_e":
        member = lambda v: Fraction(1, 2) - Fraction(1, 1 << (v + 1))
        return _resolution_target(member, lambda res, k: member(k), spec[1])
    if kind == "checking":
        _, drift, ckind, trace = spec
        ref = checking_switch(ckind, trace)
        if ref is None:
            return lambda stage: Fraction(0)
        value = _berlin_wing(ref)
        if drift == "two-winged-mixed" and ref.startswith("l"):
            raise ValueError("irrational wing has no Fraction target")
        return _resolution_target(lambda s: Fraction(0), lambda r, k: value, trace)
    if kind in ("berlin_r", "cambridge_c", "veldman_f2"):
        _, d, length = spec
        w = least_run(digits, d, length, 10**9)
        if kind == "berlin_r":
            early, late = (lambda s: Fraction(0)), (lambda k: Fraction((-1) ** k, 1 << k))
        elif kind == "cambridge_c":
            early, late = (lambda s: Fraction(1, 1 << s)), (lambda k: Fraction(1, 1 << k))
        else:
            early, late = (lambda s: Fraction(0)), (lambda k: Fraction(1, 1 << k))
        return lambda stage: late(w) if w is not None and w <= stage else early(stage)
    raise ValueError(f"no target for {spec!r}")


def indices(spec, h: int, digits: str) -> list[int]:
    """Terms 1..h of the point a spec describes."""
    kind = spec[0]
    if kind == "zero":
        return [0] * h
    if kind == "one":
        return [(1 << n) - 2 for n in range(1, h + 1)]
    if kind == "int":
        return [spec[1] * (1 << n) - 1 for n in range(1, h + 1)]
    if kind == "mapped":
        _, fmap, base = spec
        seq = indices(base, h, digits)
        return [-a - 2 for a in seq] if fmap == "negation" else seq
    if kind == "centered":
        _, base, n = spec
        seq = indices(base, max(h, n), digits)
        for k in range(n - 1, 0, -1):
            seq[k - 1] = (seq[k] - 1) // 2
        return seq[:h]
    return centered_indices(target_fn(spec, digits), h)


def ref_lt(a, b):
    for n, (x, y) in enumerate(zip(a, b), start=1):
        if x + 2 < y:
            return ("holds", n, None)
    return ("unknown-at-horizon", None, None)


def ref_apart(a, b):
    lt, gt = ref_lt(a, b), ref_lt(b, a)
    if lt[1] is not None and (gt[1] is None or lt[1] <= gt[1]):
        return ("holds", lt[1], "lt")
    if gt[1] is not None:
        return ("holds", gt[1], "gt")
    return ("unknown-at-horizon", None, None)


def ref_coincide(a, b):
    """Least h with some i <= h whose intervals a_i, b_h (or a_h, b_i) are disjoint.

    Running extremes of the endpoints make this one pass: an earlier interval
    of a is disjoint from b_h iff the least upper end so far lies below b_h's
    lower end, or b_h's upper end lies below the greatest lower end so far.
    """
    lo_a = lo_b = None
    hi_a = hi_b = None
    for n, (x, y) in enumerate(zip(a, b), start=1):
        ax, ay = Fraction(x, 1 << n), Fraction(x + 2, 1 << n)
        bx, by = Fraction(y, 1 << n), Fraction(y + 2, 1 << n)
        lo_a = ax if lo_a is None else max(lo_a, ax)
        hi_a = ay if hi_a is None else min(hi_a, ay)
        lo_b = bx if lo_b is None else max(lo_b, bx)
        hi_b = by if hi_b is None else min(hi_b, by)
        if hi_a < bx or by < lo_a or hi_b < ax or ay < lo_b:
            return ("fails", n, None)
    return ("unknown-at-horizon", None, None)


def ref_abs_diff_lt(a, b, bound: Fraction):
    for n, (x, y) in enumerate(zip(a, b), start=1):
        if Fraction(abs(x - y) + 2, 1 << n) < bound:
            return ("holds", n, None)
    return ("unknown-at-horizon", None, None)


def ref_continuity(fmap: str, m0: int, horizon: int):
    """Closed form: the modulus input length is m0+2, doubled by the delay map."""
    n0 = (2 if fmap == "delay" else 1) * (m0 + 2)
    return ("radius", 1, n0 + 2) if n0 <= horizon else ("unknown-at-horizon", None, None)


# --- drifts: exact values with sqrt(2) parts ---------------------------------


def drift_value(name: str, ref: str):
    """(rational part, sqrt2 coefficient) of a bundled drift's term ref."""
    if ref == "c":
        return (Fraction(0), Fraction(1, 2) if name == "rational-right" else Fraction(0))
    side, v = ref.split("_")
    v = int(v)
    if name == "rational-right":
        return (Fraction(isqrt(1 << (2 * v - 1)) + 2, 1 << v), Fraction(0))
    if side == "r":
        return (Fraction(1, 1 << v), Fraction(0))
    if name == "two-winged-mixed":
        return (Fraction(0), Fraction(-1, 1 << (v + 1)))
    return (Fraction(-1, 1 << v), Fraction(0))


def sign_of(q: Fraction, c: Fraction) -> int:
    """Sign of q + c*sqrt(2), exactly."""
    sq, sc = (q > 0) - (q < 0), (c > 0) - (c < 0)
    if sc == 0 or sq == sc:
        return sq or sc
    if sq == 0:
        return sc
    return sq if q * q > 2 * c * c else sc


def drift_refs(name: str, depth: int) -> list[str]:
    if name == "rational-right":
        return [f"c_{v}" for v in range(1, depth + 1)]
    return [_counting_ref(v) for v in range(1, depth + 1)]


def ref_validate_drift(name: str, depth: int) -> list[str]:
    """Directions validate_drift must report: kernel pairs, then counting pairs."""
    refs = drift_refs(name, depth)

    def direction(x, y):
        (qx, cx), (qy, cy) = drift_value(name, x), drift_value(name, y)
        return "lt" if sign_of(qx - qy, cx - cy) < 0 else "gt"

    out = [direction("c", r) for r in refs]
    for i, r1 in enumerate(refs):
        out.extend(direction(r1, r2) for r2 in refs[i + 1 :])
    return out


# --- stage-modal formulas ---------------------------------------------------
#
# A formula is a nested tuple: ("atom", name) | ("bot",) | (op, l, r) with op
# in {"and", "or", "imp"} | ("box", n, f) | ("some", f).


def formula_text(f) -> str:
    tag = f[0]
    if tag == "atom":
        return f[1]
    if tag == "bot":
        return "_|_"
    if tag == "box":
        return f"[{f[1]}]({formula_text(f[2])})"
    if tag == "some":
        return f"<*>({formula_text(f[1])})"
    if tag == "imp" and f[2] == ("bot",):
        return f"~({formula_text(f[1])})"
    sym = {"and": "&", "or": "|", "imp": "->"}[tag]
    return f"({formula_text(f[1])}) {sym} ({formula_text(f[2])})"


def truth_sets(parents, valuation, f) -> frozenset:
    """Nodes forcing f: implication over descendants-or-self, [n] over nodes
    exactly n steps ahead with leaves looping, <*> as the union of [1..depth+1]."""
    size = len(parents)
    children = [[c for c in range(size) if parents[c] == w] for w in range(size)]

    def below(w):
        out, stack = set(), [w]
        while stack:
            u = stack.pop()
            out.add(u)
            stack.extend(children[u])
        return out

    ups = [below(w) for w in range(size)]

    def depth_of(w):
        return 0 if parents[w] is None else 1 + depth_of(parents[w])

    depth = max(depth_of(w) for w in range(size))

    def ahead(w, n):
        frontier = {w}
        for _ in range(n):
            frontier = {u for v in frontier for u in (children[v] or [v])}
        return frontier

    def ev(g) -> frozenset:
        tag = g[0]
        if tag == "atom":
            return frozenset(w for w in range(size) if g[1] in valuation[w])
        if tag == "bot":
            return frozenset()
        if tag in ("and", "or"):
            left, right = ev(g[1]), ev(g[2])
            return left & right if tag == "and" else left | right
        if tag == "imp":
            left, right = ev(g[1]), ev(g[2])
            return frozenset(w for w in range(size)
                             if all(v not in left or v in right for v in ups[w]))
        if tag == "box":
            inner = ev(g[2])
            return frozenset(w for w in range(size) if ahead(w, g[1]) <= inner)
        inner = ev(g[1])
        return frozenset(w for w in range(size)
                         if any(ahead(w, n) <= inner for n in range(1, depth + 2)))

    return ev(f)
