"""Points of the interval spread and their semi-decidable order relations.

A point is one sequence: a generator over the nested-interval law, bundled
with the event trace that drives it (none for a lawlike generator), read
through one memoised list of terms; a built-in point also has a closed
form, term n alone in O(1) scaled floors. Comparisons probe the horizon and
bisect on the terms, and return three-valued verdicts: the strict order
and apartness can only ever Hold or stay unknown at the horizon,
coincidence can only ever Fail or stay unknown. Witnesses are always the
least index found.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import partial
from itertools import repeat
from operator import sub
from typing import Callable, NamedTuple, Optional, Sequence, Union

from ._record import Record, _set
from .dyadic import Dyadic, Interval, lambda_interval, scaled_floor
from .spreads import (
    EventTrace,
    Generator,
    Lawlike,
    Process,
    charge_stages,
    emit_prefix,
    parse_trace,
    rng_spread,
    switch_terms,
)


class Point(Record):
    """A generator over the interval law, bundled with its trace; a
    generator under any other law is refused.

    Keeps one append-only list of terms, and a read past it is one
    ``emit_prefix`` from the list, so each stage is emitted once; sound
    because emission is a pure function of (generator, trace). A read that
    raised keeps the stages before the failure, and a later read refuses at
    the same stage again. A built-in point's closed form (``_point``) gives
    ``term`` the stages past those held."""

    __slots__ = ("generator", "trace", "_terms", "_closed", "_memo")
    _fields = ("generator", "trace")

    def __init__(self, generator: Generator, trace: Optional[EventTrace] = None) -> None:
        if generator.law is not rng_spread():
            raise ValueError(f"a point needs the rng law, not {generator.law.name!r}")
        _set(self, "generator", generator)
        _set(self, "trace", trace)
        _set(self, "_terms", [])
        _set(self, "_closed", None)
        _set(self, "_memo", {})

    def _stream(self, n: int) -> list[int]:
        if not 0 < n <= len(self._terms):  # emit_prefix also vets n and the trace
            emit_prefix(self.generator, n, self.trace, self._terms)
        return self._terms

    def prefix(self, n: int) -> tuple[int, ...]:
        return tuple(self._stream(n)[:n])

    def term(self, n: int) -> int:
        if n < 1:
            raise ValueError("term indices are 1-based")
        if n <= len(self._terms):
            return self._terms[n - 1]
        if self._closed is None:
            return self._stream(n)[n - 1]
        memo = self._memo  # the verdicts probe some stages again
        if n not in memo:
            memo[n] = self._closed(n)
        return memo[n]

    def interval(self, n: int) -> Interval:
        return lambda_interval(n, self.term(n))


def _point(name: str, kind, closed, trace: Optional[EventTrace] = None) -> Point:
    """A point whose term n is also closed(n) (None: no closed form), equal
    to the stream's term and refusing where a read to n refuses."""
    point = Point(Generator(rng_spread(), kind, name=name), trace)
    _set(point, "_closed", closed)
    return point


class VerdictValue(Enum):
    HOLDS = "holds"
    FAILS = "fails"
    UNKNOWN = "unknown-at-horizon"


class Verdict(Record):
    __slots__ = ("value", "horizon", "witness", "direction")

    def __init__(
        self,
        value: VerdictValue,
        horizon: int,
        witness: Optional[int] = None,
        direction: Optional[str] = None,  # apartness only: "lt" | "gt"
    ) -> None:
        if value is VerdictValue.UNKNOWN:
            if witness is not None:
                raise ValueError("unknown verdicts carry no witness")
        else:
            if witness is None or not (1 <= witness <= horizon):
                raise ValueError("decided verdicts need a witness within the horizon")
        _set(self, "value", value)
        _set(self, "horizon", horizon)
        _set(self, "witness", witness)
        _set(self, "direction", direction)

    @property
    def holds(self) -> bool:
        return self.value is VerdictValue.HOLDS

    def as_dict(self) -> dict:
        return {
            "value": self.value.value,
            "horizon": self.horizon,
            "witness": self.witness,
            "direction": self.direction,
        }


def _unknown(horizon: int) -> Verdict:
    return Verdict(VerdictValue.UNKNOWN, horizon)


def _holds(horizon: int, n: Optional[int], direction: Optional[str] = None) -> Verdict:
    """Holds with witness n, or unknown when n is None."""
    return _unknown(horizon) if n is None else Verdict(VerdictValue.HOLDS, horizon, n, direction)


# --- canonical lawlike points ---


def _shifted(name: str, m: int, c: int) -> Point:
    """The lawlike point a_n = m*2^n - c."""
    terms = lambda prefix, trace, n: map(sub, map(m.__lshift__, range(len(prefix) + 1, n + 1)),
                                         repeat(c))
    return _point(name, Lawlike(terms), lambda n: (m << n) - c)


def zero_point() -> Point:
    """The constant-0 generator: intervals [0, 2^(1-n)]."""
    return _point("zero", Lawlike(lambda prefix, trace, n: repeat(0, n - len(prefix))), lambda n: 0)


def one_point() -> Point:
    """a_n = 2^n - 2: intervals [1 - 2^(1-n), 1]."""
    return _shifted("one", 1, 2)


def _nearest(negated, n: int) -> int:
    """Stage n's index with midpoint nearest the target t, given -t:
    (C_n >> 1) - 1, C_n = ceil(t*2^(n+1)) = -floor(-t*2^(n+1))."""
    return (-scaled_floor(negated, n + 1) >> 1) - 1


def _switch_point(name: str, before, after, switch_at, trace: Optional[EventTrace] = None) -> Point:
    """The one construction behind every centred point: term n centres
    before (a value, or before(n)) until switch_at(n, trace, end) shows a
    switch s (a witness, a resolution), then after(s) forever; see
    ``spreads.switch_terms``. A point on a trace is a process; any other is
    lawlike, its switch found by switch_at alone.

    The closed form, on which the verdicts bisect: before the switch, the
    index nearest the target, which is admissible from the last for a value
    or a member of a family with ceiling_drops (any other callable before
    has none). After a switch at stage s, stage n = s - 1 + k reaches only
    a*2^k .. (a+2)*2^k - 2 from a = term s-1, and takes after(s)'s nearest
    index clamped to that range.
    """
    terms = partial(switch_terms, before, after, switch_at)
    kind = Lawlike(terms) if trace is None else Process(terms)
    if callable(before) and not hasattr(before, "ceiling_drops"):
        return _point(name, kind, None, trace)
    negated = (lambda n: -before(n)) if callable(before) else (lambda n, t=-before: t)
    switched = None  # (s, -after(s), term s-1) once the switch has shown

    def closed(n: int) -> int:
        nonlocal switched
        if switched is None:
            switch = switch_at(n, trace, n)[0]
            if switch is None:
                return _nearest(negated(n), n)
            s = getattr(switch, "stage", switch)  # a resolution, or the witness itself
            switched = s, -after(switch), _nearest(negated(s - 1), s - 1) if s > 1 else None
        s, target, a = switched
        if n < s:
            return _nearest(negated(n), n)
        index, k = _nearest(target, n), n - s + 1
        return index if a is None else min(max(index, a << k), ((a + 2) << k) - 2)

    return _point(name, kind, closed, trace)


def value_point(value, name: str = "") -> Point:
    """Lawlike point centering a fixed exact value at every stage: a switch
    point whose switch never shows."""
    return _switch_point(name or f"value({value})", value, None, lambda n, trace, end: (None, None))


def int_point(m: int) -> Point:
    """a_n = m*2^n - 1: intervals centered exactly on the integer m."""
    return _shifted(f"int({m})", m, 1)


# --- order relations ---
#
# A verdict's witness is the least n <= h whose terms pass a test, and a
# test passed at n is passed at every later stage: the intervals nest, so
# D_n = b_n - a_n has D_(n+1) = 2D_n + (j_b - j_a) with steps j in 0..2;
# once D_n > 2, D_(n+1) >= 2D_n - 2 > 2 (likewise below -2), and neither
# (|D_n| + 2)/2^n nor the upper end (a_n + 2)/2^n ever increases. So a
# verdict probes the horizon, then halves 1..h: O(log h) terms a point. A
# closed form emits nothing; any other point emits its prefix to h at the
# first probe (b before a for lt_at, a before b for the rest), so a verdict
# refuses where reading those prefixes whole refuses.


def _least(horizon: int, passes, *points: Point) -> Optional[int]:
    """The least n in 1..horizon that passes(n), reading the points' terms
    n, else None."""
    if horizon < 1:
        for p in points:
            p.prefix(horizon)  # refuses a negative horizon, or a process without a trace
        return None
    lo, hi = 1, horizon
    if not passes(hi):
        return None
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if passes(mid) else (mid + 1, hi)
    return lo


def lt_at(a: Point, b: Point, horizon: int) -> Verdict:
    """a < b iff some index n has a_n + 2 < b_n. Never Fails."""
    return _holds(horizon, _least(horizon, lambda n: b.term(n) - a.term(n) > 2, b, a))


def _as_fraction(r) -> Fraction:
    if isinstance(r, Dyadic):
        return r.as_fraction()
    return Fraction(r)


def lt_rational(a: Point, r, horizon: int) -> Verdict:
    """a < r iff some index n has (a_n + 2)/2^n < r."""
    rv = _as_fraction(r)
    num, den = rv.numerator, rv.denominator
    return _holds(horizon, _least(horizon, lambda n: den * (a.term(n) + 2) < num << n, a))


def _apart(a: Point, b: Point, horizon: int) -> Optional[int]:
    """The least n <= horizon whose intervals are disjoint, |a_n - b_n| > 2."""
    return _least(horizon, lambda n: abs(a.term(n) - b.term(n)) > 2, a, b)


def apart_at(a: Point, b: Point, horizon: int) -> Verdict:
    """a # b iff a < b or b < a; the found direction is recorded. The least n
    with |a_n - b_n| > 2 witnesses one direction: lt if a_n < b_n, else gt."""
    n = _apart(a, b, horizon)
    if n is None:
        return _unknown(horizon)
    return _holds(horizon, n, "lt" if a.term(n) < b.term(n) else "gt")


def coincide_refute(a: Point, b: Point, horizon: int) -> Verdict:
    """Coincidence is refuted by any disjoint pair of intervals within the horizon.

    The witness is the least h such that indices i, j <= h exhibit disjointness.
    Never Holds: coincidence itself is not finitely affirmable.
    Points have nested intervals, so stages i and j disjoint makes stage
    max(i, j) disjoint: the witness is ``apart_at``'s.
    """
    h = _apart(a, b, horizon)
    return _unknown(horizon) if h is None else Verdict(VerdictValue.FAILS, horizon, witness=h)


def abs_diff_lt(a: Point, b: Point, bound, horizon: int) -> Verdict:
    """|a - b| < bound iff some n has (|a_n - b_n| + 2)/2^n < bound."""
    bv = _as_fraction(bound)
    num, den = bv.numerator, bv.denominator
    gap = lambda n: abs(a.term(n) - b.term(n))
    return _holds(horizon, _least(horizon, lambda n: den * (gap(n) + 2) < num << n, a, b))


# --- centering ---


def center(prefix: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Recenter a prefix below index n: a'_k = floor((a'_{k+1} - 1) / 2).

    Terms at index n and beyond are kept; every rewritten interval contains
    the original interval at index n, and the output is admissible.
    """
    if not 1 <= n <= len(prefix):
        raise ValueError(f"center index {n} out of range for prefix of length {len(prefix)}")
    out = list(prefix)
    for k in range(n - 1, 0, -1):
        out[k - 1] = (out[k] - 1) // 2
    return tuple(out)


def _image_point(name: str, a: Point, term, need, closed=None) -> Point:
    """Term k is term(a's terms, k), read once a holds need(k) terms; its
    closed form is closed(k) when a has one.

    A read to stage n reads a once, to need(n), and maps term over a's
    list. If a refuses, the image first yields the stages a still covers,
    so it keeps the stages a per-stage read keeps, then raises."""

    def terms(prefix, trace, n):
        base, m = a._terms, n
        try:
            a._stream(need(n))
        except Exception:
            while need(m) > len(base):
                m -= 1
            yield from map(term, repeat(base), range(len(prefix) + 1, m + 1))
            raise
        yield from map(term, repeat(base), range(len(prefix) + 1, n + 1))

    return _point(name, Lawlike(terms), None if a._closed is None else closed)


def centered_point(a: Point, n: int) -> Point:
    """Same tail as a, first n terms rewritten by the centering recursion,
    which reads term n alone."""
    head = center((0,) * (n - 1) + (a.term(n),), n)
    name = f"centered({a.generator.name or '?'},{n})"
    closed = lambda k: head[k - 1] if k <= n else a.term(k)
    return _image_point(name, a, lambda p, k: head[k - 1] if k <= n else p[k - 1], _same, closed)


# --- continuous prefix maps ---


class PrefixMap(NamedTuple):
    """Monotone map on admissible prefixes, read term by term.

    term(p, n) is output term n, read off an admissible input prefix p of
    at least min_input_for(n) terms; it reads p and must not mutate it.
    min_input_for(n) is the least such length, nondecreasing and unbounded
    in n. The terms must make the output admissible whenever p is.
    """

    name: str
    term: Callable[[Sequence[int], int], int]
    min_input_for: Callable[[int], int]

    def apply(self, p: Sequence[int]) -> tuple[int, ...]:
        """The output prefix p determines: every term it is long enough for."""
        m = 0
        while self.min_input_for(m + 1) <= len(p):
            m += 1
        return tuple(self.term(p, n) for n in range(1, m + 1))


_same = lambda m: m
_IDENTITY = PrefixMap("identity", lambda p, n: p[n - 1], _same)
_NEGATION = PrefixMap("negation", lambda p, n: -p[n - 1] - 2, _same)
_DELAY = PrefixMap("delay", _IDENTITY.term, lambda m: 2 * m)


def identity_map() -> PrefixMap:
    return _IDENTITY


def negation_map() -> PrefixMap:
    """Mirror map a_n -> -a_n - 2; sends the interval of x to that of -x."""
    return _NEGATION


def delay_map() -> PrefixMap:
    """Commits one output term per two input terms: term n needs 2n inputs."""
    return _DELAY


def mapped_point(f: PrefixMap, a: Point) -> Point:
    """The image point: term n read off a's own stream, min_input_for(n)
    long. Over a base with a closed form, the built-in maps' images have one
    too, the delay image probing a at 2n as its reads do."""
    closed = None
    if f == _IDENTITY:
        closed = a.term
    elif f == _NEGATION:
        closed = lambda n: -2 - a.term(n)
    elif f == _DELAY:  # a read of n delayed terms meets a's refusals up to stage 2n
        closed = lambda n: (a.term(2 * n), a.term(n))[1]
    return _image_point(f"{f.name}({a.generator.name or '?'})", a, f.term, f.min_input_for, closed)


def cpf_modulus(f: PrefixMap, a: Point, m: int, horizon: int) -> Verdict:
    """Least input length n <= horizon whose output already has length >= m.

    The output of n input terms reaches length m exactly when n is at
    least min_input_for(m), so a is probed once: at that n, or at the
    horizon when n lies beyond it.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be non-negative, got {horizon}")
    n = max(f.min_input_for(m), 1)
    if horizon:
        a.term(min(n, horizon))
    if n > horizon:
        return _unknown(horizon)
    return Verdict(VerdictValue.HOLDS, horizon, witness=n)


def continuity_modulus(
    f: PrefixMap, a: Point, m0: int, horizon: int = 64
) -> Union[Dyadic, Verdict]:
    """Uniform-continuity radius q = 2^(-n0-2) with n0 = cpf_modulus(f, a, m0+2).

    Any point within q of a (checked at finite precision) maps to within
    2^(-m0) of f(a). Propagates the unknown verdict when the scan runs out.
    """
    v = cpf_modulus(f, a, m0 + 2, horizon)
    if not v.holds:
        return v
    return Dyadic(1, v.witness + 2)


# --- virtual order ---


class PairRelation(Enum):
    EQ = "eq"
    LT = "lt"
    GT = "gt"


class UndecidedPairError(Exception):
    """A needed pairwise verdict stayed unknown at the horizon."""


class OrderViolation(NamedTuple):
    condition: int
    pair: tuple
    detail: str


class OrderReport(NamedTuple):
    ok: bool
    violations: tuple[OrderViolation, ...]


def decide_pairs(
    points: list[Point],
    horizon: int,
    coincident: frozenset[tuple[int, int]] = frozenset(),
) -> dict[tuple[int, int], PairRelation]:
    """Pairwise relation table from apartness verdicts plus declared equalities."""
    table: dict[tuple[int, int], PairRelation] = {}
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if (i, j) in coincident or (j, i) in coincident:
                table[(i, j)] = PairRelation.EQ
                continue
            v = apart_at(points[i], points[j], horizon)
            if not v.holds:
                raise UndecidedPairError(
                    f"pair ({i},{j}) undecided at horizon {horizon}"
                )
            table[(i, j)] = PairRelation.LT if v.direction == "lt" else PairRelation.GT
    return table


def _rel(table: dict, i: int, j: int) -> Optional[PairRelation]:
    if i == j:
        return PairRelation.EQ
    if (i, j) in table:
        return table[(i, j)]
    r = table.get((j, i))
    if r is PairRelation.LT:
        return PairRelation.GT
    if r is PairRelation.GT:
        return PairRelation.LT
    return r


def virtual_order_check(size: int, table: dict[tuple[int, int], PairRelation]) -> OrderReport:
    """Brute-force audit of the five virtual-order conditions on a finite sample.

    1. equality and the two strict directions are mutually exclusive;
    2. the strict order is a congruence for equality;
    3. not greater and not equal forces less;
    4. not greater and not less forces equal;
    5. less is transitive.

    Conditions 1-4 are checked per pair against the decided table (3 and 4
    amount to the table being total over {eq, lt, gt}); 5 over all triples.
    The table is read once, into a relation matrix and each point's equals.
    """
    EQ, LT, GT = PairRelation.EQ, PairRelation.LT, PairRelation.GT
    points = range(size)
    rel = [[_rel(table, i, j) for j in points] for i in points]
    lt = [[r is LT for r in row] for row in rel]
    eq = [[j for j in points if row[j] is EQ] for row in rel]
    violations = [
        OrderViolation(c, (i, j), "no relation decided for the pair")
        for i in points for j in points if rel[i][j] is None for c in (3, 4)
    ]
    # 2. congruence: i=u, j=v, i<j  =>  u<v
    violations += [
        OrderViolation(2, (i, j, u, v), "equal replacements flip the strict order")
        for i in points for u in eq[i] for j in points if lt[i][j]
        for v in eq[j] if not lt[u][v]
    ]
    # 5. transitivity
    violations += [
        OrderViolation(5, (i, j, k), "less-than chain does not compose")
        for i in points for j in points if lt[i][j]
        for k in points if lt[j][k] and not lt[i][k]
    ]
    # 1. mutual exclusion is structural for a single-valued table, but guard
    # against both orientations being stored inconsistently.
    for i in points:
        for j in range(i + 1, size):
            pair = table.get((i, j)), table.get((j, i))
            if None not in pair and pair not in ((EQ, EQ), (LT, GT), (GT, LT)):
                violations.append(OrderViolation(1, (i, j), "pair stored with clashing relations"))
    return OrderReport(ok=not violations, violations=tuple(violations))


# the `real cmp` command's point specs and handler, which brouwer.cli.main runs and prints
def _build_point(spec: str, trace: EventTrace, digit: int, run: int):
    # each spec imports what it builds from: only berlin-r needs the pi oracle
    if spec == "zero":
        return zero_point()
    if spec == "one":
        return one_point()
    if spec == "half":
        return value_point(Fraction(1, 2))
    if spec == "berlin-s":
        from .drift import berlin_s

        return berlin_s(trace)
    if spec == "berlin-r":
        from .fleeing import berlin_r, run_property

        return berlin_r(run_property(digit, run))
    if spec == "vienna-e":
        from .drift import vienna_e

        return vienna_e(trace)
    raise ValueError(f"unknown point spec {spec!r}")


def _cmd_real(args, cfg) -> tuple[int, dict, str]:
    horizon = charge_stages(args.horizon if args.horizon is not None else cfg["horizon"])
    lhs_trace = parse_trace(args.lhs_trace)
    rhs_trace = parse_trace(args.rhs_trace)
    x = _build_point(args.lhs, lhs_trace, args.digit, args.run)
    y = _build_point(args.rhs, rhs_trace, args.digit, args.run)
    verdicts = {
        "lt": lt_at(x, y, horizon),
        "gt": lt_at(y, x, horizon),
        "apart": apart_at(x, y, horizon),
        "coincide": coincide_refute(x, y, horizon),
    }
    payload = {"command": "real-cmp", "lhs": args.lhs, "rhs": args.rhs, "horizon": horizon,
               "verdicts": {k: v.as_dict() for k, v in verdicts.items()}}
    lines = []
    for name, v in verdicts.items():
        extras = [f"horizon={v.horizon}"]
        if v.witness is not None:
            extras.append(f"witness={v.witness}")
        if v.direction is not None:
            extras.append(f"direction={v.direction}")
        lines.append(f"{name}: {v.value.value} ({', '.join(extras)})")
    return 0, payload, "\n".join(lines)
