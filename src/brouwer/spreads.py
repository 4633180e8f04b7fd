"""Spread laws, generators, event traces, and prefix emission.

A spread law says which integers may start a sequence and which may follow
a given prefix. Generators are stateless descriptions: a lawlike rule maps
the 1-based term index to a value, a process strategy additionally consults
an event trace (the record of when an assertion got decided, if ever).
Emitting a prefix is a pure function of (generator, trace) and appends to
one list, so a caller that keeps the list (``reals.Point``, one per
generator and trace) extends it from where it stopped; a generator reading
anything else (a random source) must be read through ``emit_prefix`` alone.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional, Sequence, Union

from ._record import Record, _set
from .dyadic import is_admissible_successor, scaled_floor


class AdmissibilityError(Exception):
    """A generator emitted a value its spread law refuses."""

    def __init__(self, stage: int, value: int, prefix: tuple[int, ...]):
        self.stage = stage
        self.value = value
        self.prefix = prefix
        super().__init__(
            f"inadmissible term {value} at stage {stage} after prefix {list(prefix)}"
        )


class SpreadLaw(NamedTuple):
    name: str
    admits_first: Callable[[int], bool]
    admits_next: Callable[[Sequence[int], int], bool]

    def admits(self, prefix: Sequence[int], value: int) -> bool:
        if not prefix:
            return self.admits_first(value)
        return self.admits_next(prefix, value)


def universal_spread() -> SpreadLaw:
    """Admits every natural number everywhere."""
    return SpreadLaw(
        name="universal",
        admits_first=lambda v: v >= 0,
        admits_next=lambda prefix, v: v >= 0,
    )


def rng_spread() -> SpreadLaw:
    """Nested lambda-interval law: any first index, then z in {2a, 2a+1, 2a+2}."""
    return SpreadLaw(
        name="rng",
        admits_first=lambda v: True,
        admits_next=lambda prefix, v: is_admissible_successor(prefix[-1], v),
    )


# --- event traces ---

NEVER = "never"
PROVED = "proved"
REFUTED = "refuted"


class Resolution(Record):
    __slots__ = ("kind", "stage")

    def __init__(self, kind: str, stage: Optional[int] = None) -> None:
        if kind not in (NEVER, PROVED, REFUTED):
            raise ValueError(f"unknown resolution kind {kind!r}")
        if kind == NEVER:
            if stage is not None:
                raise ValueError("a never-resolution carries no stage")
        elif stage is None or stage < 1:
            raise ValueError("resolution stage must be a positive integer")
        _set(self, "kind", kind)
        _set(self, "stage", stage)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.kind == other.kind and self.stage == other.stage
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.kind, self.stage))


class EventTrace(NamedTuple):
    """When (if ever) the watched assertion was proved or refuted."""

    resolution: Resolution
    lawlike_flag: bool = False

    def visible_at(self, stage: int) -> Optional[Resolution]:
        """The resolution if it has fired at or before this stage."""
        r = self.resolution
        if r.kind != NEVER and r.stage <= stage:
            return r
        return None


def never_trace() -> EventTrace:
    return EventTrace(Resolution(NEVER))


def proved_at(stage: int) -> EventTrace:
    return EventTrace(Resolution(PROVED, stage))


def refuted_at(stage: int) -> EventTrace:
    return EventTrace(Resolution(REFUTED, stage))


def format_trace(trace: EventTrace) -> str:
    r = trace.resolution
    if r.kind == NEVER:
        body = "never"
    else:
        body = f"{'true' if r.kind == PROVED else 'false'}:{r.stage}"
    return body + (" lawlike" if trace.lawlike_flag else "")


def parse_trace(text: str) -> EventTrace:
    parts = text.strip().split()
    if not parts or len(parts) > 2:
        raise ValueError(f"malformed trace line: {text!r}")
    lawlike = parts[1:] == ["lawlike"]
    if len(parts) == 2 and not lawlike:
        raise ValueError(f"malformed trace flag: {parts[1]!r}")
    body = parts[0]
    if body == "never":
        return EventTrace(Resolution(NEVER), lawlike)
    head, sep, stage = body.partition(":")
    if sep != ":" or head not in ("true", "false") or not stage.isdigit():
        raise ValueError(f"malformed trace line: {text!r}")
    kind = PROVED if head == "true" else REFUTED
    return EventTrace(Resolution(kind, int(stage)), lawlike)


# --- generators ---


class Lawlike(Record):
    """Term n is rule(n), independent of any trace."""

    __slots__ = ("rule",)

    def __init__(self, rule: Callable[[int], int]) -> None:
        _set(self, "rule", rule)


class Process(Record):
    """Term n is strategy(prefix, trace) with stage = len(prefix) + 1.

    The prefix is the emitter's own list of the terms so far: a strategy
    reads it and must not mutate it."""

    __slots__ = ("strategy",)

    def __init__(self, strategy: Callable[[Sequence[int], EventTrace], int]) -> None:
        _set(self, "strategy", strategy)


class Generator(NamedTuple):
    law: SpreadLaw
    kind: Union[Lawlike, Process]
    name: str = ""


def emit_prefix(
    g: Generator, n: int, trace: Optional[EventTrace] = None, head: Optional[list[int]] = None
) -> tuple[int, ...]:
    """Terms len(head)+1 .. n of g, validating admissibility stage by stage.

    Appends each validated term to head, a fresh list by default, so the
    stages before a refused one stay there; returns the newly emitted terms.
    The head must hold the first terms of g under the trace.
    """
    if n < 0:
        raise ValueError("prefix length must be non-negative")
    lawlike = isinstance(g.kind, Lawlike)
    if not lawlike and trace is None:
        raise ValueError(f"process generator {g.name or '?'} requires a trace")
    step = g.kind.rule if lawlike else g.kind.strategy
    admits_first, admits_next = g.law.admits_first, g.law.admits_next
    prefix = [] if head is None else head
    start = len(prefix)
    for stage in range(start + 1, n + 1):
        value = step(stage) if lawlike else step(prefix, trace)
        if not (admits_next(prefix, value) if prefix else admits_first(value)):
            raise AdmissibilityError(stage, value, tuple(prefix))
        prefix.append(value)
    return tuple(prefix[start:])


# --- nearest-midpoint centering emitter ---
#
# The choice at stage n is the admissible index a whose interval midpoint
# (a+1)/2^n lies nearest the target value; ties go to the smaller index.
# Indices b and b+1 have midpoints (b+1)/2^n and (b+2)/2^n, equally near
# their mean (2b+3)/2^(n+1); so with t = target*2^(n+1), b is at least as
# near exactly when t <= 2b+3. After a previous index a the candidates 2a,
# 2a+1, 2a+2 split at t = 4a+3 and t = 4a+5. At stage 1 the target lies
# between the midpoints of g-1 and g, g = floor(t/2), which split at
# t = 2g+1. So one scaled_floor of the target decides a stage, since
# t <= s exactly when ceil(t) <= s. Targets are exact values supporting
# scaled_floor (Dyadic, Fraction, int, or sqrt2-multiples from the drift
# module).


def centered_term(target, prefix: Sequence[int]) -> int:
    """Admissible next index whose midpoint is nearest the target value."""
    floor, exact = scaled_floor(target, len(prefix) + 2)
    ceil = floor if exact else floor + 1
    if not prefix:
        g = floor >> 1
        return g - 1 if ceil <= 2 * g + 1 else g
    a = prefix[-1]
    if ceil <= 4 * a + 3:
        return 2 * a
    return 2 * a + 1 if ceil <= 4 * a + 5 else 2 * a + 2


def centering_strategy(target_at: Callable[[int, EventTrace], object]):
    """Process strategy centering a per-stage target value."""

    def strategy(prefix: Sequence[int], trace: EventTrace) -> int:
        return centered_term(target_at(len(prefix) + 1, trace), prefix)

    return strategy


def centering_rule(target_at: Callable[[int], object]) -> Callable[[int], int]:
    """Lawlike rule centering a per-stage target value.

    Keeps the chain emitted so far in one append-only list and extends it on
    demand, so term n is a pure function of n. The target is asked for
    stages 1, 2, 3, ... in increasing order, each once unless it raised; the
    witness-switch points in ``fleeing`` rely on that order.
    """
    terms: list[int] = []

    def rule(n: int) -> int:
        while len(terms) < n:
            terms.append(centered_term(target_at(len(terms) + 1), terms))
        return terms[n - 1]

    return rule


def constant_zero_rule(n: int) -> int:
    return 0
