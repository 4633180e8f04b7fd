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

A drift holds values and tags only. A point is derived from a value and
its tag where one is read (``validate_drift``): ``value_point`` for a
rational value, ``floor_point`` for an irrational one. A flattened
checking number centres the exact values themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import isqrt
from typing import Callable, Optional

from .dyadic import scaled_floor
from .reals import Point, Verdict, apart_at, value_point
from .spreads import (
    NEVER,
    PROVED,
    EventTrace,
    Generator,
    Lawlike,
    Process,
    centering_strategy,
    rng_spread,
)


@dataclass(frozen=True)
class Sqrt2Value:
    """coef * sqrt(2), exactly."""

    coef: Fraction

    def scaled_floor(self, k: int) -> tuple[int, bool]:
        if self.coef == 0:
            return 0, True
        p = self.coef.numerator << k
        q = self.coef.denominator
        if p >= 0:
            return isqrt(2 * p * p) // q, False
        # floor(-y) = -ceil(y) and y = sqrt(2)*|p|/q is never an integer
        return -(isqrt(2 * p * p) // q + 1), False

    def __neg__(self) -> "Sqrt2Value":
        return Sqrt2Value(-self.coef)

    def __str__(self) -> str:
        return f"{self.coef}*sqrt2"


def floor_point(value, name: str = "") -> Point:
    """Lawlike point a_n = floor(x*2^n) - 1 for an exact value x that is
    never a dyadic rational.

    floor(2t) is 2*floor(t) or 2*floor(t)+1, so successive indices are
    admissible; non-dyadicity keeps x strictly inside every interval.
    """

    def rule(n: int) -> int:
        f, exact = scaled_floor(value, n)
        if exact:
            raise ValueError(
                f"floor_point hit the exact dyadic value {value} at stage {n}"
            )
        return f - 1

    return Point(Generator(rng_spread(), Lawlike(rule), name=name or f"floor({value})"))


class Wing(Enum):
    LEFT = "left"
    RIGHT = "right"
    TWO = "two"


class Tag(Enum):
    RATIONAL = "rational"
    IRRATIONAL = "irrational"


@dataclass(frozen=True)
class CountingFamily:
    """v -> exact value of the v-th counting number of one wing, with a tag."""

    value_at: Callable[[int], object]
    tag: Tag


@dataclass(frozen=True)
class Drift:
    """A kernel value and one counting family per wing it has."""

    name: str
    kernel_value: object
    kernel_tag: Tag
    right: Optional[CountingFamily] = None
    left: Optional[CountingFamily] = None

    def __post_init__(self) -> None:
        if self.right is None and self.left is None:
            raise ValueError("a drift needs at least one counting family")

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
        v = int(idx) if idx.isdecimal() else 0
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
        return fam.value_at(v), fam.tag

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


def _point(value, tag: Tag, name: str) -> Point:
    """The lawlike point of an exact value: centred on it when rational,
    the floor construction when irrational."""
    if tag is Tag.RATIONAL:
        return value_point(value, name=name)
    return floor_point(value, name=name)


def validate_drift(drift: Drift, depth: int = 4) -> list[Verdict]:
    """Check apartness of (kernel, c_v) pairs and of counting pairs, with
    wing direction, for v up to depth. Raises when any verdict fails to hold."""
    verdicts = []
    refs = [drift.counting_ref(v) for v in range(1, depth + 1)]
    kernel = _point(drift.kernel_value, drift.kernel_tag, "kernel")
    pts = {}
    for ref in refs:
        pts[ref] = pt = _point(*drift.resolve_ref(ref), name=ref)
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
        f, _ = kernel.scaled_floor(v)
        return Fraction(f + 2, 1 << v)

    return Drift(
        "rational-right", kernel, Tag.IRRATIONAL, right=CountingFamily(value_at, Tag.RATIONAL)
    )


def two_winged_mixed_drift() -> Drift:
    """Kernel 0; rational right wing r_v = 2^-v, irrational left wing
    l_v = -sqrt(2)/2^(v+1)."""
    return Drift(
        "two-winged-mixed",
        Fraction(0),
        Tag.RATIONAL,
        right=CountingFamily(lambda v: Fraction(1, 1 << v), Tag.RATIONAL),
        left=CountingFamily(lambda v: Sqrt2Value(Fraction(-1, 1 << (v + 1))), Tag.IRRATIONAL),
    )


def berlin_drift() -> Drift:
    """Kernel 0, r_m = 2^-m, l_m = -2^-m; the two-winged dyadic drift."""
    return Drift(
        "berlin",
        Fraction(0),
        Tag.RATIONAL,
        right=CountingFamily(lambda v: Fraction(1, 1 << v), Tag.RATIONAL),
        left=CountingFamily(lambda v: Fraction(-1, 1 << v), Tag.RATIONAL),
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


@dataclass(frozen=True)
class CheckingRun:
    drift: Drift
    kind: CheckingKind
    trace: EventTrace
    terms: tuple[str, ...]
    limit: str


def _switch_ref(drift: Drift, kind: CheckingKind, trace: EventTrace) -> Optional[str]:
    """The ref the run switches to, or None when it stays at the kernel."""
    if kind is CheckingKind.OSCILLATORY and drift.wing is not Wing.TWO:
        raise ValueError("an oscillatory checking number needs a two-winged drift")
    r = trace.resolution
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
    switch = _switch_ref(drift, kind, trace)
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


@dataclass(frozen=True)
class LimitClass:
    kind: str  # "rational" | "irrational" | "kernel-class"
    kernel_tag: Optional[Tag] = None

    def as_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.kernel_tag is not None:
            d["kernel_tag"] = self.kernel_tag.value
        return d


def rationality_descriptor(
    drift: Drift, kind: CheckingKind, trace: EventTrace
) -> LimitClass:
    """Classify the run's limit: the switched-to family's tag, or the
    kernel class when no switch ever fires."""
    switch = _switch_ref(drift, kind, trace)
    if switch is None:
        return LimitClass("kernel-class", drift.kernel_tag)
    _, tag = drift.resolve_ref(switch)
    return LimitClass(tag.value)


def flatten_checking(drift: Drift, kind: CheckingKind, trace: EventTrace) -> Point:
    """The checking number as a single point: term n centers the exact value
    of the n-th checking term (nearest-midpoint emitter)."""
    _switch_ref(drift, kind, trace)  # refuses a kind the drift's wings cannot carry
    switched: dict[EventTrace, object] = {}  # per trace: the value switched to, else the kernel's

    def target_at(stage: int, tr: EventTrace):
        if tr not in switched:
            switch = _switch_ref(drift, kind, tr)
            switched[tr] = drift.kernel_value if switch is None else drift.resolve_ref(switch)[0]
        return switched[tr] if tr.visible_at(stage) else drift.kernel_value

    g = Generator(
        rng_spread(),
        Process(centering_strategy(target_at)),
        name=f"checking[{drift.name},{kind.value}]",
    )
    return Point(g, trace=trace)


def berlin_s(trace: EventTrace) -> Point:
    """Oscillatory checking of the dyadic two-winged drift, flattened:
    centers 0, then 2^-m from stage m on a proof, -2^-m on a refutation."""
    return flatten_checking(berlin_drift(), CheckingKind.OSCILLATORY, trace)


# --- the dense-family construction ---


@dataclass(frozen=True)
class IncreasingFamily:
    """Lawlike values a_v strictly increasing toward a rational bound."""

    name: str
    bound: Fraction
    member: Callable[[int], Fraction]


def vienna_family() -> IncreasingFamily:
    """a_v = 1/2 - 2^-(v+1), increasing to 1/2."""
    return IncreasingFamily("vienna", Fraction(1, 2), lambda v: Fraction((1 << v) - 1, 1 << (v + 1)))


def vienna_run(
    family: IncreasingFamily, trace: EventTrace, terms: int
) -> tuple[str, ...]:
    """Symbolic terms: follows a_n, freezes at a_v when the trace resolves at v."""
    out = []
    for n in range(1, terms + 1):
        r = trace.visible_at(n)
        out.append(f"a_{r.stage}" if r else f"a_{n}")
    return tuple(out)


def vienna_e(trace: EventTrace, family: Optional[IncreasingFamily] = None) -> Point:
    """The family follower as a point: term n centers a_n until any
    resolution at stage v freezes the target at a_v."""
    fam = family or vienna_family()

    def target_at(stage: int, tr: EventTrace):
        r = tr.visible_at(stage)
        return fam.member(r.stage) if r else fam.member(stage)

    g = Generator(
        rng_spread(), Process(centering_strategy(target_at)), name=f"vienna_e[{fam.name}]"
    )
    return Point(g, trace=trace)
