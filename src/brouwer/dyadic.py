"""Exact dyadic-rational arithmetic and the lambda-interval kernel.

Everything in this module is arbitrary-precision integer arithmetic; no
floating point anywhere. Intervals are closed on both ends, so intervals
that merely touch at an endpoint still count as overlapping.
"""

from __future__ import annotations

import re
from enum import Enum
from fractions import Fraction

from ._record import Record, _set


class Dyadic(Record):
    """num / 2**exp, kept canonical (num odd, or exp == 0)."""

    __slots__ = ("num", "exp")

    def __init__(self, num: int, exp: int = 0) -> None:
        if exp < 0:
            raise ValueError("exponent must be non-negative")
        if exp and not num & 1:
            # drop the trailing zero bits that the exponent can absorb
            shift = min((num & -num).bit_length() - 1, exp) if num else exp
            num >>= shift
            exp -= shift
        _set(self, "num", num)
        _set(self, "exp", exp)

    # --- arithmetic ---

    def __add__(self, other: "Dyadic") -> "Dyadic":
        e = max(self.exp, other.exp)
        return Dyadic(
            (self.num << (e - self.exp)) + (other.num << (e - other.exp)), e
        )

    def __sub__(self, other: "Dyadic") -> "Dyadic":
        return self + (-other)

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.num, self.exp)

    def __mul__(self, other: "Dyadic") -> "Dyadic":
        return Dyadic(self.num * other.num, self.exp + other.exp)

    def __abs__(self) -> "Dyadic":
        return Dyadic(abs(self.num), self.exp)

    # --- comparison (exact) ---

    def _cmp(self, other: "Dyadic") -> int:
        # a against b << d for d > 0 (and the mirror): when b << d has more
        # bits than a, b's sign decides; else the shift is no longer than a
        a, b, d = self.num, other.num, self.exp - other.exp
        if d > 0:
            if b and b.bit_length() + d > a.bit_length():
                return -1 if b > 0 else 1
            b <<= d
        elif d < 0:
            if a and a.bit_length() - d > b.bit_length():
                return 1 if a > 0 else -1
            a <<= -d
        return (a > b) - (a < b)

    def __lt__(self, other: "Dyadic") -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: "Dyadic") -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: "Dyadic") -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: "Dyadic") -> bool:
        return self._cmp(other) >= 0

    # --- conversions ---

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, 1 << self.exp)

    def __str__(self) -> str:
        return f"{self.num}/2^{self.exp}"


_DYADIC_RE = re.compile(r"^(-?[0-9]+)/2\^([0-9]+)$")


def parse_dyadic(text: str) -> Dyadic:
    m = _DYADIC_RE.match(text.strip())
    if not m:
        raise ValueError(f"not a dyadic literal: {text!r}")
    return Dyadic(int(m.group(1)), int(m.group(2)))


class IntervalRelation(Enum):
    DISJOINT = "disjoint"
    OVERLAP = "overlap"
    CONTAINS = "contains"
    CONTAINED_IN = "contained-in"


class Interval(Record):
    """Closed interval [lo, hi] with dyadic endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Dyadic, hi: Dyadic) -> None:
        _set(self, "lo", lo)
        _set(self, "hi", hi)
        if lo > hi:
            raise ValueError(f"empty interval: {self}")

    @property
    def length(self) -> Dyadic:
        return self.hi - self.lo

    def contains_fraction(self, value: Fraction) -> bool:
        return self.lo.as_fraction() <= value <= self.hi.as_fraction()

    def __str__(self) -> str:
        return f"[{self.lo},{self.hi}]"


def parse_interval(text: str) -> Interval:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"not an interval literal: {text!r}")
    lo, _, hi = text[1:-1].partition(",")
    return Interval(parse_dyadic(lo), parse_dyadic(hi))


def lambda_interval(n: int, a: int) -> Interval:
    """The n-th level interval [a/2^n, (a+2)/2^n]; n must be >= 1."""
    if n < 1:
        raise ValueError(f"interval level must be >= 1, got {n}")
    return Interval(Dyadic(a, n), Dyadic(a + 2, n))


def admissible_successors(a: int) -> tuple[int, int, int]:
    """The three next-level indices whose intervals nest inside level a."""
    return (2 * a, 2 * a + 1, 2 * a + 2)


def interval_relate(p: Interval, q: Interval) -> IntervalRelation:
    """Classify p against q. Equal intervals report CONTAINS.

    Checked in order: disjoint, contains, contained-in, overlap; endpoints
    touching is enough for overlap because intervals are closed.
    """
    if p.hi < q.lo or q.hi < p.lo:
        return IntervalRelation.DISJOINT
    if p.lo <= q.lo and q.hi <= p.hi:
        return IntervalRelation.CONTAINS
    if q.lo <= p.lo and p.hi <= q.hi:
        return IntervalRelation.CONTAINED_IN
    return IntervalRelation.OVERLAP


def scaled_floor(value, k: int) -> int:
    """floor(value * 2**k), for k >= 0.

    Accepts Dyadic, Fraction, int, or any object with a scaled_floor(k)
    method (used by exact irrational values elsewhere). A Fraction whose
    denominator is a power of two is shifted like a Dyadic, not divided.
    """
    if isinstance(value, Dyadic):
        num, exp = value.num, value.exp
    elif isinstance(value, int):
        return value << k
    elif not isinstance(value, Fraction):
        return value.scaled_floor(k)
    elif (den := value.denominator) & (den - 1):
        return (value.numerator << k) // den
    else:
        num, exp = value.numerator, den.bit_length() - 1
    return num << (k - exp) if k >= exp else num >> (exp - k)


_BIT_VALUES = bytes.maketrans(b"01", b"\0\1")


def ceiling_drops(value, k: int, m: int) -> tuple[int, bytes]:
    """ceil(value * 2**k) and, for j = k+1 .. k+m in turn, the drop
    2*ceil(value * 2**(j-1)) - ceil(value * 2**j), 0 or 1, all read off one
    floor f of -value at scale k+m: ceil(value * 2**j) = -(f >> (k+m-j)), so
    the drops are f's low m bits, most significant first. value must also
    negate; m must be positive.
    """
    f = scaled_floor(-value, k + m)
    return -(f >> m), format(f & ((1 << m) - 1), f"0{m}b").encode().translate(_BIT_VALUES)
