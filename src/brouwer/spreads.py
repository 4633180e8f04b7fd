"""Spread laws, generators, event traces, and prefix emission.

A spread law says which integers may start a sequence and which may follow
a given prefix. A generator is a stream of terms: terms(prefix, trace, n)
yields the terms after an emitted prefix up to stage n, in turn, a lawlike
one ignoring the trace, a process one reading the event trace (the record
of when an assertion got decided, if ever). Emitting a prefix is a pure
function of (generator, trace) and appends to one list, so a caller that
keeps the list (``reals.Point``, one per generator and trace) extends it
from where it stopped with a fresh stream; a generator reading anything
else (a random source) must be read through ``emit_prefix`` alone.
"""

from __future__ import annotations

from itertools import islice, repeat
from operator import add, sub
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Union

from ._record import Record, _set
from .dyadic import ceiling_drops
from .errors import ResourceLimitError


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


_RNG = SpreadLaw(
    name="rng",
    admits_first=lambda v: True,
    admits_next=lambda prefix, v: 0 <= v - 2 * prefix[-1] <= 2,
)


def rng_spread() -> SpreadLaw:
    """Nested lambda-interval law: any first index, then z in {2a, 2a+1, 2a+2}.
    Always the one law object, which ``emit_prefix`` vets in one pass."""
    return _RNG


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
    # the stage is ASCII digits: str.isdigit alone also admits '²' and '٣'
    if sep != ":" or head not in ("true", "false") or not (stage.isascii() and stage.isdigit()):
        raise ValueError(f"malformed trace line: {text!r}")
    kind = PROVED if head == "true" else REFUTED
    return EventTrace(Resolution(kind, int(stage)), lawlike)


# --- generators ---


class _Kind(Record):
    """A generator's one field, terms(prefix, trace, n): its stream to stage n.

    The stream yields the terms after an emitted prefix up to stage n, in
    turn, and reads nothing a later stage needs. prefix is the emitter's
    own list, which grows as the terms are emitted; a stream reads it and
    must not mutate it."""

    __slots__ = ("terms",)

    def __init__(self, terms: Callable[[list[int], Optional[EventTrace], int], Iterator[int]]) -> None:
        _set(self, "terms", terms)


class Lawlike(_Kind):
    """A generator free of any trace: its stream never reads one."""

    __slots__ = ()

    @classmethod
    def of(cls, rule: Callable[[int], int]) -> "Lawlike":
        """Term k is rule(k), for k = len(prefix) + 1 .. n."""
        return cls(lambda prefix, trace, n: map(rule, range(len(prefix) + 1, n + 1)))


class Process(_Kind):
    """A generator driven by an event trace, which its stream may read at
    any stage."""

    __slots__ = ()

    @classmethod
    def of(cls, strategy: Callable[[Sequence[int], EventTrace], int]) -> "Process":
        """Each term is strategy(prefix, trace) on the emitter's own list of
        the terms so far."""
        return cls(lambda prefix, trace, n:
                   map(strategy, repeat(prefix, n - len(prefix)), repeat(trace)))


class Generator(NamedTuple):
    law: SpreadLaw
    kind: Union[Lawlike, Process]
    name: str = ""


DEFAULT_STAGE_CAP = 20_000  # an rng-spread point of h stages holds ~h*h/16 bytes


def charge_stages(n: int) -> int:
    """n, a horizon or stage count asked for before any emission, within the cap."""
    if n > DEFAULT_STAGE_CAP:
        cap = DEFAULT_STAGE_CAP
        raise ResourceLimitError(f"requested {n} stages, limit is {cap}", requested=n, limit=cap)
    return n


def emit_prefix(
    g: Generator, n: int, trace: Optional[EventTrace] = None,
    head: Optional[list[int]] = None,
) -> tuple[int, ...]:
    """Terms len(head)+1 .. n of g, every one vetted against its spread law.

    Appends the terms of one stream, g.kind.terms(head, trace, n), to head,
    a fresh list by default, then vets the run it appended, in one pass
    under the rng law: at the first refused term, also when the stream
    raised later in the read, it cuts head back to the stages before it and
    raises AdmissibilityError there; a stream ending short of n raises
    RuntimeError. Returns the newly emitted terms. The head must hold the
    first terms of g under the trace.
    """
    if n < 0:
        raise ValueError("prefix length must be non-negative")
    if trace is None and isinstance(g.kind, Process):
        raise ValueError(f"process generator {g.name or '?'} requires a trace")
    prefix = [] if head is None else head
    start = len(prefix)
    try:
        prefix.extend(islice(g.kind.terms(prefix, trace, n), max(n - start, 0)))
    finally:
        bad = _first_refused(g.law, prefix, start)
        if bad is not None:
            value = prefix[bad]
            del prefix[bad:]
            raise AdmissibilityError(bad + 1, value, tuple(prefix))
    if len(prefix) < n:
        raise RuntimeError(f"generator {g.name or '?'} ended after stage {len(prefix)} of {n}")
    return tuple(prefix[start:])


def _first_refused(law: SpreadLaw, prefix: list[int], start: int) -> Optional[int]:
    """The index in prefix of the first term from start that law refuses."""
    if law is _RNG:  # every step b - 2a in 0..2, checked in C
        lo = max(start, 1)
        before = prefix[lo - 1 : -1]
        if set(map(sub, prefix[lo:], map(add, before, before))) <= {0, 1, 2}:
            return None
    seen = prefix[:start]
    for value in prefix[start:]:
        if not law.admits(seen, value):
            return len(seen)
        seen.append(value)
    return None


# --- nearest-midpoint centering emitter ---
#
# The choice at stage n is the admissible index a whose interval midpoint
# (a+1)/2^n lies nearest the target value; ties go to the smaller index.
# With C_n = ceil(target*2^(n+1)), index b is at least as near as b+1
# exactly when C_n <= 2b+3, so after index a the candidates 2a, 2a+1, 2a+2
# split at C_n = 4a+3 and 4a+5. The stage-0 index (C_0 >> 1) - 1 makes the
# same split give stage 1's nearest index, (C_1 - 2) >> 1.
#
# A stream keeps the residual e = C_n - 2a_n; whatever the targets, the
# next choice compares d = C_(n+1) - 4a_n = 2e - b with 3 and 5, where b is
# the drop 2C_n - C_(n+1); only the new index 2a + j is a big-int
# operation. A fixed target's drops into stages n+1 .. n+k are the low k
# bits of one floor of the negated target (``dyadic.ceiling_drops``), so a
# block of stages costs one scaled floor. After a target change e is taken
# from the new target's ceiling, and d may lie far outside 0..7.
# A block runs to the read's end, or to the stage before the switch may
# show: switch_at(n, trace, end), end the read's last stage, returns the
# switch visible at stage n, or None and the last stage known to show none,
# n or later (None: never), from what it holds without looking past end. A
# callable before(n) is a moving target, asked once per stage, unless it
# yields its members' drops itself through ceiling_drops(n), the drops into
# stages n, n+1, ... (vienna's C_n = 2^n - 1 drops by -1). Targets are
# exact values (Dyadic, Fraction, int, or sqrt2-multiples from the drift
# module); the per-stage reference is ``centered_term`` in
# tests/references.py.


def switch_terms(before, after, switch_at, prefix: Sequence[int], trace, end: int) -> Iterator[int]:
    """The centred terms after prefix up to stage end: stage n centres before
    (a value, or before(n) when callable) until switch_at(n, trace, end)
    shows a switch s, then the value after(s) at every stage on.

    after is taken once per stream and switch_at once per block; a callable
    before is asked once per stage in order, or at the first stage only when
    it has ceiling_drops (see above).
    """
    n, a, e = len(prefix), (prefix[-1] if prefix else None), 0
    target, member_drops, switch, quiet = before, None, None, None
    while n < end:
        if switch is None:
            switch, quiet = switch_at(n + 1, trace, end)
            if switch is not None:
                target, member_drops, quiet = after(switch), None, None
        k = (end if quiet is None else min(end, quiet)) - n
        if member_drops is not None:
            drops = islice(member_drops, k)
        else:
            value = target
            if callable(target):
                k, value = 1, target(n + 1)
                if hasattr(target, "ceiling_drops"):
                    member_drops = target.ceiling_drops(n + 2)
            ceil, drops = ceiling_drops(value, n + 1, k)
            if a is None:
                a = (ceil >> 1) - 1
            e = ceil - 2 * a
        for b in drops:
            d = 2 * e - b
            j = 0 if d <= 3 else 1 if d <= 5 else 2
            a = 2 * a + j
            e = d - 2 * j
            yield a
        n += k


# the `spread sample` command's handler, which brouwer.cli.main runs and prints
def _cmd_spread(args, cfg) -> tuple[int, dict, str]:
    import random

    charge_stages(args.stages)
    seed = args.seed if args.seed is not None else cfg["seed"]
    law = rng_spread() if args.law == "rng" else universal_spread()
    rng = random.Random(seed)

    def strategy(prefix, trace):
        if not prefix:
            return rng.randint(-4, 4) if args.law == "rng" else rng.randint(0, 8)
        if args.law == "rng":
            a = prefix[-1]
            return rng.choice((2 * a, 2 * a + 1, 2 * a + 2))
        return rng.randint(0, 8)

    g = Generator(law, Process.of(strategy), name=f"sample[{args.law}]")
    prefix = emit_prefix(g, args.stages, never_trace())
    payload = {"command": "spread-sample", "law": args.law, "stages": args.stages,
               "prefix": list(prefix), "seed": seed}
    return 0, payload, " ".join(map(str, prefix))
