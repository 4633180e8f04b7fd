"""Drifts and checking numbers.

A drift is a lawlike kernel together with lawlike counting numbers
converging to it while staying apart from it and from each other, on one
wing (all left / all right of the kernel) or two. A checking number walks
the drift under an event trace:

* direct     - switches to the counting number indexed by the resolution
               stage, whether the assertion was proved or refuted;
* oscillatory - (two-winged only) proofs switch to the right wing,
               refutations to the left;
* conditional - only proofs switch; refutations are deliberately ignored.

Switches fire at the resolution stage inclusive: a resolution at stage k
changes terms k, k+1, ... All term values are exact; the mixed drift's
irrational wing runs on integer square roots, not floats.

A drift holds exact values only. Rationality is read off them: a value
is irrational exactly when it is a nonzero multiple of sqrt(2). Every
point is derived from a value the same way, by centring it
(``value_point`` in ``validate_drift``, the follower of a flattened
checking number), so one value has one lawlike point.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import repeat
from math import isqrt
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

from ._record import Record, _set
from .spreads import NEVER, PROVED, EventTrace, Resolution, charge_stages, parse_trace

# the point builders and validate_drift import reals when called, so a
# checking sequence read as refs (`drift run`) loads no point machinery
if TYPE_CHECKING:
    from .reals import Point, Verdict


class Sqrt2Value(Record):
    """coef * sqrt(2), exactly."""

    __slots__ = ("coef",)

    def __init__(self, coef: Fraction) -> None:
        _set(self, "coef", coef)

    def scaled_floor(self, k: int) -> int:
        p, q = self.coef.numerator, self.coef.denominator
        floor = isqrt(2 * (p << k) ** 2) // q
        # floor(-y) = -ceil(y) and y = sqrt(2)*|p|*2^k/q is never an integer
        return floor if p >= 0 else -floor - 1

    def __neg__(self) -> "Sqrt2Value":
        return Sqrt2Value(-self.coef)

    def __str__(self) -> str:
        return f"{self.coef}*sqrt2"


class Wing(Enum):
    LEFT = "left"
    RIGHT = "right"
    TWO = "two"


class Tag(Enum):
    RATIONAL = "rational"
    IRRATIONAL = "irrational"


def _tag(value) -> Tag:
    return Tag.IRRATIONAL if isinstance(value, Sqrt2Value) and value.coef else Tag.RATIONAL


class Drift(Record):
    """A kernel value and one counting family, v -> exact value of the v-th
    counting number, per wing it has."""

    __slots__ = ("name", "kernel_value", "right", "left")

    def __init__(
        self,
        name: str,
        kernel_value: object,
        right: Optional[Callable[[int], object]] = None,
        left: Optional[Callable[[int], object]] = None,
    ) -> None:
        if right is None and left is None:
            raise ValueError("a drift needs at least one counting family")
        _set(self, "name", name)
        _set(self, "kernel_value", kernel_value)
        _set(self, "right", right)
        _set(self, "left", left)

    @property
    def kernel_tag(self) -> Tag:
        return _tag(self.kernel_value)

    @property
    def wing(self) -> Wing:
        if self.left is None:
            return Wing.RIGHT
        return Wing.LEFT if self.right is None else Wing.TWO

    def counting_ref(self, v: int) -> str:
        """The v-th counting number in the drift's enumeration.

        Single wing: c_v is that wing's v-th member. Two wings: the
        enumeration interleaves, r_1, l_1, r_2, l_2, ...
        """
        if v < 1:
            raise ValueError("counting indices are 1-based")
        if self.wing is Wing.TWO:
            fam, idx = ("r", (v + 1) // 2) if v % 2 else ("l", v // 2)
            return f"{fam}_{idx}"
        return f"c_{v}"

    def resolve_ref(self, ref: str):
        """(exact value, tag) for a term ref ('c', 'c_3', 'r_2', 'l_1').

        c_v is the v-th counting number of the enumeration, ``counting_ref(v)``.
        """
        if ref == "c":
            return self.kernel_value, self.kernel_tag
        head, _, idx = ref.partition("_")
        v = int(idx) if idx.isascii() and idx.isdecimal() else 0
        if v < 1:
            raise ValueError(f"term ref {ref!r} needs a counting index >= 1")
        if head == "c":
            if self.wing is Wing.TWO:
                return self.resolve_ref(self.counting_ref(v))
            fam = self.right if self.wing is Wing.RIGHT else self.left
        elif head == "r":
            fam = self.right
        elif head == "l":
            fam = self.left
        else:
            raise ValueError(f"unknown term ref {ref!r}")
        if fam is None:
            raise ValueError(f"ref {ref!r} names a wing this drift does not have")
        value = fam(v)
        return value, _tag(value)

    def convergence_modulus(self, eps) -> int:
        """Least V with |c_v - kernel| < eps for every v >= V.

        All bundled families keep |c_v - kernel| <= 2^(1-v).
        """
        e = eps if isinstance(eps, Fraction) else Fraction(eps)
        if e <= 0:
            raise ValueError("epsilon must be positive")
        v = 1
        while Fraction(2, 1 << v) >= e:
            v += 1
        return v


class DriftValidationError(Exception):
    pass


def validate_drift(drift: Drift, depth: int = 4) -> list[Verdict]:
    """Check apartness of (kernel, c_v) pairs and of counting pairs, with
    wing direction, for v up to depth. Raises when any verdict fails to hold."""
    from .reals import apart_at, value_point

    verdicts = []
    refs = [drift.counting_ref(v) for v in range(1, depth + 1)]
    kernel = value_point(drift.kernel_value, name="kernel")
    pts = {}
    for ref in refs:
        pts[ref] = pt = value_point(drift.resolve_ref(ref)[0], name=ref)
        horizon = depth + 16
        v = apart_at(kernel, pt, horizon)
        if not v.holds:
            raise DriftValidationError(f"kernel not apart from {ref} at horizon {horizon}")
        want = "gt" if ref.startswith("l") else "lt"
        if drift.wing is Wing.LEFT:
            want = "gt"
        if v.direction != want:
            raise DriftValidationError(f"{ref} sits on the wrong side of the kernel")
        verdicts.append(v)
    for i, r1 in enumerate(refs):
        for r2 in refs[i + 1 :]:
            horizon = depth + 20
            v = apart_at(pts[r1], pts[r2], horizon)
            if not v.holds:
                raise DriftValidationError(
                    f"counting numbers {r1}, {r2} not apart at horizon {horizon}"
                )
            verdicts.append(v)
    return verdicts


# --- bundled drifts ---


def rational_right_drift() -> Drift:
    """Irrational kernel sqrt(2)/2 with rational counting numbers from above:
    c_v = (floor(kernel * 2^v) + 2) / 2^v, strictly decreasing to the kernel."""
    kernel = Sqrt2Value(Fraction(1, 2))

    def value_at(v: int) -> Fraction:
        return Fraction(kernel.scaled_floor(v) + 2, 1 << v)

    return Drift("rational-right", kernel, right=value_at)


def two_winged_mixed_drift() -> Drift:
    """Kernel 0; rational right wing r_v = 2^-v, irrational left wing
    l_v = -sqrt(2)/2^(v+1)."""
    return Drift(
        "two-winged-mixed",
        Fraction(0),
        right=lambda v: Fraction(1, 1 << v),
        left=lambda v: Sqrt2Value(Fraction(-1, 1 << (v + 1))),
    )


def berlin_drift() -> Drift:
    """Kernel 0, r_m = 2^-m, l_m = -2^-m; the two-winged dyadic drift."""
    return Drift(
        "berlin",
        Fraction(0),
        right=lambda v: Fraction(1, 1 << v),
        left=lambda v: Fraction(-1, 1 << v),
    )


BUNDLED_DRIFTS = {
    "rational-right": rational_right_drift,
    "two-winged-mixed": two_winged_mixed_drift,
    "berlin": berlin_drift,
}


def bundled_drift(name: str) -> Drift:
    try:
        return BUNDLED_DRIFTS[name]()
    except KeyError:
        raise ValueError(
            f"unknown drift {name!r}; pick from {sorted(BUNDLED_DRIFTS)}"
        ) from None


# --- checking numbers ---


class CheckingKind(Enum):
    DIRECT = "direct"
    OSCILLATORY = "oscillatory"
    CONDITIONAL = "conditional"


KIND_ALIASES = {
    "direct": CheckingKind.DIRECT,
    "osc": CheckingKind.OSCILLATORY,
    "oscillatory": CheckingKind.OSCILLATORY,
    "cond": CheckingKind.CONDITIONAL,
    "conditional": CheckingKind.CONDITIONAL,
}


class CheckingRun(NamedTuple):
    drift: Drift
    kind: CheckingKind
    trace: EventTrace
    terms: tuple[str, ...]
    limit: str


def _switch_ref(drift: Drift, kind: CheckingKind, r: Resolution) -> Optional[str]:
    """The ref the run switches to on resolution r, or None to stay at the kernel."""
    if kind is CheckingKind.OSCILLATORY and drift.wing is not Wing.TWO:
        raise ValueError("an oscillatory checking number needs a two-winged drift")
    if r.kind == NEVER:
        return None
    if kind is CheckingKind.DIRECT:
        return drift.counting_ref(r.stage)
    if kind is CheckingKind.OSCILLATORY:
        return f"{'r' if r.kind == PROVED else 'l'}_{r.stage}"
    # conditional: refutations are ignored
    if r.kind == PROVED:
        return drift.counting_ref(r.stage)
    return None


def checking_sequence(
    drift: Drift, kind: CheckingKind, trace: EventTrace, terms: int
) -> CheckingRun:
    """Symbolic run of the checking number: term refs plus the limit ref."""
    switch = _switch_ref(drift, kind, trace.resolution)
    if terms < 0:
        raise ValueError("term count must be non-negative")
    stage = trace.resolution.stage
    out = []
    for n in range(1, terms + 1):
        if switch is not None and n >= stage:
            out.append(switch)
        else:
            out.append("c")
    limit = switch if switch is not None else "kernel"
    return CheckingRun(drift, kind, trace, tuple(out), limit)


def rationality_descriptor(drift: Drift, kind: CheckingKind, trace: EventTrace) -> dict:
    """Classify the run's limit: the switched-to value's tag, or the
    kernel class when no switch ever fires."""
    switch = _switch_ref(drift, kind, trace.resolution)
    if switch is None:
        return {"kind": "kernel-class", "kernel_tag": drift.kernel_tag.value}
    return {"kind": drift.resolve_ref(switch)[1].value}


def _visible(stage: int, trace: EventTrace, end: int) -> tuple[Optional[Resolution], Optional[int]]:
    """The switch_at of a trace-driven switch point: the resolution once
    visible, else None and the stage before it fires (None: it never does)."""
    r = trace.visible_at(stage)
    fires = trace.resolution.stage  # None for a never-resolution
    return (r, None) if r is not None else (None, None if fires is None else fires - 1)


def flatten_checking(drift: Drift, kind: CheckingKind, trace: EventTrace) -> Point:
    """The checking number as a single point: term n centers the exact value
    of the n-th checking term (nearest-midpoint emitter)."""
    from .reals import _switch_point

    _switch_ref(drift, kind, trace.resolution)  # refuses a kind the drift's wings cannot carry

    def after(r: Resolution):
        switch = _switch_ref(drift, kind, r)
        return drift.kernel_value if switch is None else drift.resolve_ref(switch)[0]

    name = f"checking[{drift.name},{kind.value}]"
    return _switch_point(name, drift.kernel_value, after, _visible, trace)


def berlin_s(trace: EventTrace) -> Point:
    """Oscillatory checking of the dyadic two-winged drift, flattened:
    centers 0, then 2^-m from stage m on a proof, -2^-m on a refutation."""
    return flatten_checking(berlin_drift(), CheckingKind.OSCILLATORY, trace)


# --- the dense-family construction ---


class IncreasingFamily(NamedTuple):
    """Lawlike values a_v strictly increasing toward a rational bound."""

    name: str
    bound: Fraction
    member: Callable[[int], Fraction]


def vienna_family() -> IncreasingFamily:
    """a_v = 1/2 - 2^-(v+1), increasing to 1/2. ceil(a_v*2^(v+1)) = 2^v - 1,
    so a member's ceiling at its own stage drops by 2(2^(v-1) - 1) - (2^v - 1) = -1."""
    member = lambda v: Fraction((1 << v) - 1, 1 << (v + 1))
    member.ceiling_drops = lambda k: repeat(-1)  # see spreads.switch_terms
    return IncreasingFamily("vienna", Fraction(1, 2), member)


def vienna_run(trace: EventTrace, terms: int) -> tuple[str, ...]:
    """Symbolic terms: follows a_n, freezes at a_v when the trace resolves at v."""
    if terms < 0:
        raise ValueError("term count must be non-negative")
    out = []
    for n in range(1, terms + 1):
        r = trace.visible_at(n)
        out.append(f"a_{r.stage}" if r else f"a_{n}")
    return tuple(out)


def vienna_e(trace: EventTrace) -> Point:
    """The family follower as a point: term n centers a_n until any
    resolution at stage v freezes the target at a_v."""
    from .reals import _switch_point

    fam = vienna_family()
    name = f"vienna_e[{fam.name}]"
    return _switch_point(name, fam.member, lambda r: fam.member(r.stage), _visible, trace)


# the `drift run` command's handler, which brouwer.cli.main runs and prints
def _cmd_drift(args, cfg) -> tuple[int, dict, str]:
    charge_stages(args.terms)
    drift = bundled_drift(args.drift)
    kind = KIND_ALIASES[args.kind]
    trace = parse_trace(args.trace)
    run = checking_sequence(drift, kind, trace, args.terms)
    lc = rationality_descriptor(drift, kind, trace)
    payload = {"command": "drift-run", "drift": args.drift, "kind": kind.value,
               "trace": args.trace, "terms": list(run.terms), "limit": run.limit,
               "limit_class": lc}
    text = (f"terms: {' '.join(run.terms)}\nlimit: {run.limit}\n"
            f"class: {', '.join(f'{k}={v}' for k, v in sorted(lc.items()))}")
    return 0, payload, text
