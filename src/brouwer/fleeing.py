"""Fleeing properties, the digit oracle, and the lawlike switch constructions.

A fleeing property is decidable at every index, has no known witness, and
no proof that a witness is impossible. The digit oracle backs the concrete
examples: properties of the decimal expansion of pi. The oracle checks its
production algorithm (Chudnovsky) against digits the Machin enclosure proves
on construction, caches a single growing prefix, and refuses requests beyond
a configurable bound. It owns one Chudnovsky series, so growing the prefix
sums only the terms the new digits add. A digit pattern is searched for with
``str.find`` over that prefix, grown fourfold at a time, and to at least
10**w digits for a w-digit pattern, until the first match and never past
the search window, so ``find_pattern`` and
``critical_number`` read no digit past the horizon they answer for. The
switch constructions (berlin_r, veldman_f2, cambridge_c) are switch points
(``reals._switch_point``) whose target changes once the least witness of a
property shows.
"""

from __future__ import annotations

import os
from fractions import Fraction
from itertools import repeat
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

from . import _pi_backends
from .errors import ResourceLimitError, SettingError

# The switch constructions import reals and spreads when called, so digit
# queries load neither.
if TYPE_CHECKING:
    from .reals import Point

DEFAULT_DIGIT_LIMIT = 2_000_000
_ENV_LIMIT = "BW_DIGIT_LIMIT"


def _env_limit() -> int:
    """BW_DIGIT_LIMIT when set, else DEFAULT_DIGIT_LIMIT; refuses anything
    but a non-negative integer."""
    env = os.environ.get(_ENV_LIMIT)
    if not env:
        return DEFAULT_DIGIT_LIMIT
    # str.isdecimal alone also admits '٣' and other non-ASCII digits
    if not (env.isascii() and env.strip().isdecimal()):
        raise SettingError(f"{_ENV_LIMIT} must be a non-negative integer, got {env!r}")
    return int(env)


class DigitOracle:
    """Prefix-cached decimal digits of pi, positions 1-based.

    Every construction checks the production algorithm (Chudnovsky binary
    splitting on Python ints and ``decimal``) against the digits the Machin
    enclosure proves, ``_pi_backends.machin_digits``, on the first
    min(self_test_digits, limit) digits; a disagreement raises
    AssertionError. That check is the first read of the oracle's one
    ``_pi_backends.ChudnovskySeries``, and every later growth extends it.
    limit caps the digits it will ever hold; it defaults to
    ``BW_DIGIT_LIMIT`` from the environment, else DEFAULT_DIGIT_LIMIT.
    """

    def __init__(self, self_test_digits: int = 1000, limit: Optional[int] = None):
        self.limit = _env_limit() if limit is None else limit
        if self.limit < 0:
            raise ValueError(f"digit limit must be non-negative, got {self.limit}")
        if self_test_digits < 0:
            raise ValueError(f"self-test digit count must be non-negative, got {self_test_digits}")
        self._series = _pi_backends.ChudnovskySeries()
        self._cache = ""
        if self_test_digits:
            n = min(self_test_digits, self.limit)
            fast = _pi_backends.chudnovsky_digits(n, self._series)
            if fast != _pi_backends.machin_digits(n):
                raise AssertionError(
                    f"pi backends disagree within the first {n} digits"
                )
            self._cache = fast

    def _cover(self, n: int) -> None:
        """Make the cache hold at least n decimals, or refuse past the limit."""
        if n > self.limit:
            raise ResourceLimitError(
                f"requested {n} digits, limit is {self.limit}",
                requested=n,
                limit=self.limit,
            )
        if n > len(self._cache):
            # grow geometrically so position-by-position probing stays near-linear
            self._grow(min(max(n, 2 * len(self._cache), 64), self.limit))

    def _grow(self, n: int) -> None:
        """Hold exactly n decimals; n is above the cache and within the limit."""
        self._cache = _pi_backends.chudnovsky_digits(n, self._series)

    def digits(self, n: int) -> str:
        """The first n decimals, '1415...'."""
        if n < 0:
            raise ValueError("digit count must be non-negative")
        self._cover(n)
        return self._cache[:n]

    def digit_at(self, position: int) -> int:
        if position < 1:
            raise ValueError("digit positions are 1-based")
        self._cover(position)
        return int(self._cache[position - 1])


_default_oracle: Optional[DigitOracle] = None


def default_oracle() -> DigitOracle:
    global _default_oracle
    if _default_oracle is None:
        _default_oracle = DigitOracle()
    return _default_oracle


class DecidableProperty(NamedTuple):
    """A property of positions, decidable by inspection of finitely many digits.

    holds(n) tests one position; least(horizon) is the least position at or
    below the horizon where it holds, else None. held(lo, hi) computes no
    digit: of the positions lo..hi that the digits already held decide, it
    returns the least where the property holds, else None, and the last it
    decides.
    """

    name: str
    holds: Callable[[int], bool]
    least: Callable[[int], Optional[int]]
    held: Callable[[int, int], tuple[Optional[int], int]]


def run_property(
    digit: int, run_length: int, oracle: Optional[DigitOracle] = None
) -> DecidableProperty:
    """Holds at n iff positions n .. n+L-1 all carry the given digit."""
    if not 0 <= digit <= 9:
        raise ValueError("digit must be 0..9")
    if run_length < 1:
        raise ValueError("run length must be positive")
    pattern = pattern_property(str(digit) * run_length, oracle)
    return pattern._replace(name=f"run({digit}x{run_length})")


_NEAR_END = 8  # a read ending within 1/_NEAR_END of the window end reads to it


def _check_pattern(pattern: str) -> None:
    # str.isdigit also admits '²' and other non-ASCII digits, which never match
    if not pattern or set(pattern) - set("0123456789"):
        raise ValueError(f"pattern must be one or more decimal digits 0-9, got {pattern!r}")


def pattern_property(
    pattern: str, oracle: Optional[DigitOracle] = None
) -> DecidableProperty:
    """Holds at n iff the decimal expansion matches the pattern starting at n.

    least(horizon) reads pi until the first match, never past the window
    end (horizon + width - 1) or the oracle limit. Every read recomputes
    all the digits it returns, so each grows the prefix fourfold and to at
    least 10**width: a given width-digit pattern starts at a position with
    odds 10**-width, so a shorter read almost never holds it, and the read
    after it would pay for the division again; so a read that would end
    within an eighth of the window end reads to the end. The cost falls on
    a match far before 10**width past a small cache: a 6-digit match at 300
    in a 10**5 window, past a 100-digit self-test, reads to the window end
    where fourfold steps stop at 400.
    """
    _check_pattern(pattern)
    orc = oracle or default_oracle()
    width = len(pattern)

    def holds(n: int) -> bool:
        if n < 1:
            raise ValueError("positions are 1-based")
        orc._cover(n + width - 1)
        return orc._cache[n - 1 : n + width - 1] == pattern

    def least(horizon: int) -> Optional[int]:
        # A match starting at or below the horizon ends by its window end.
        # The prefix grows up to that end or the oracle limit, whichever is
        # first, and stops at the first match; when the limit cut the window
        # short, the oracle refuses the whole window.
        if horizon < 0:
            raise ValueError(f"horizon must be non-negative, got {horizon}")
        if horizon == 0:
            return None
        end = horizon + width - 1
        stop = min(end, orc.limit)
        # 10**width >= stop once width reaches stop's digit count
        reach = 10**width if width < len(str(stop)) else stop
        have = min(len(orc._cache), stop)
        i = orc._cache.find(pattern, 0, have)
        while i == -1 and have < stop:
            start = max(0, have - width + 1)
            have = min(max(4 * have, 64, reach), stop)
            if (stop - have) * _NEAR_END < stop:
                have = stop  # one more read to the end would redo this one
            if have > len(orc._cache):
                orc._grow(have)
            i = orc._cache.find(pattern, start, have)
        if i != -1:
            return i + 1
        orc._cover(end)  # refuses when the limit cut the window short
        return None

    def held(lo: int, hi: int) -> tuple[Optional[int], int]:
        end = min(hi + width - 1, len(orc._cache))
        i = orc._cache.find(pattern, lo - 1, end)
        return (None if i == -1 else i + 1), end - width + 1

    return DecidableProperty(f"pattern({pattern})", holds, least, held)


def find_pattern(pattern: str, limit: int, oracle: Optional[DigitOracle] = None) -> Optional[int]:
    """1-based position of the first match starting at or below limit, else None;
    refuses when the oracle's limit cuts the window short of an answer."""
    _check_pattern(pattern)
    if limit < 0:
        raise ValueError(f"search limit must be non-negative, got {limit}")
    return pattern_property(pattern, oracle).least(limit)


class CriticalSearch(NamedTuple):
    property: DecidableProperty
    horizon: int
    found_at: Optional[int]  # least witness, or None when none exists below horizon

    def __str__(self) -> str:
        if self.found_at is None:
            return f"none-below:{self.horizon}"
        return f"found-at:{self.found_at}"


def critical_number(p: DecidableProperty, horizon: int) -> CriticalSearch:
    """The least witness of p up to the horizon, inclusive."""
    return CriticalSearch(p, horizon, p.least(horizon))


def _least_witness_scan(p: DecidableProperty) -> Callable[..., tuple[Optional[int], Optional[int]]]:
    """The switch_at of a lawlike switch point (``spreads.switch_terms``;
    it takes no trace): at a stage asked in any order, the least witness of
    p visible there, else None and the last stage known to show none.

    It first searches, with p.held, the digits the oracle already holds, up
    to the end of the read asked for. Past them it tests each position in
    turn, as a stage needs it, and retests one that raised; so it computes
    no digit that testing stage by stage would not, and refuses at the same
    stage."""
    found, tested = None, 0

    def upto(stage: int, trace, end: int) -> tuple[Optional[int], Optional[int]]:
        nonlocal found, tested
        if found is None and tested < end:
            found, last = p.held(tested + 1, end)
            tested = max(tested, last)
        while found is None and tested < stage:
            if p.holds(tested + 1):
                found = tested + 1
            tested += 1
        if found is not None and found <= stage:
            return found, None
        return None, (tested if found is None else found - 1)

    return upto


def _witness_point(name: str, p: DecidableProperty, before, after) -> Point:
    """The switch point that switches on the least witness k of p."""
    from .reals import _switch_point

    return _switch_point(f"{name}[{p.name}]", before, after, _least_witness_scan(p))


def berlin_r(p: DecidableProperty) -> Point:
    """Centers 0 until the least witness K of p is visible, then (-2)^(-K) forever."""
    return _witness_point("berlin_r", p, 0, lambda k: Fraction((-1) ** k, 1 << k))


class ConvergentFamily(NamedTuple):
    """Lawlike values xi_v, v >= 1, converging to the limit value."""

    name: str
    limit: Fraction
    member: Callable[[int], Fraction]


def geometric_family() -> ConvergentFamily:
    """xi_v = 2^(-v), decreasing to 0. ceil(xi_v*2^(v+1)) = 2, so a
    member's ceiling at its own stage drops by 2*2 - 2 = 2."""
    member = lambda v: Fraction(1, 1 << v)
    member.ceiling_drops = lambda k: repeat(2)  # see spreads.switch_terms
    return ConvergentFamily("geometric", Fraction(0), member)


def veldman_f2(family: ConvergentFamily, p: DecidableProperty) -> Point:
    """Centers the limit value until the least witness k of p is visible,
    then re-anchors admissibly and centers xi_k forever."""
    return _witness_point("veldman_f2", p, family.limit, family.member)


def cambridge_c(family: ConvergentFamily, p: DecidableProperty) -> Point:
    """Follows the family values a_n until the least witness K is visible,
    then stays at a_K: term n centers a_min(n, K)."""
    return _witness_point("cambridge_c", p, family.member, family.member)


# the `pi` and `fleeing` commands' handlers, which brouwer.cli.main runs and prints
def _cmd_pi(args, cfg) -> tuple[int, dict, str]:
    oracle = default_oracle()
    if args.pi_cmd == "digits":
        n = args.n if args.n is not None else cfg["digits"]
        digits = oracle.digits(n)
        return 0, {"command": "pi-digits", "n": n, "digits": digits}, digits
    limit = args.limit
    pos = find_pattern(args.pattern, limit, oracle)
    verdict = f"found-at:{pos}" if pos is not None else f"none-below:{limit}"
    payload = {"command": "pi-find", "pattern": args.pattern, "limit": limit, "position": pos,
               "verdict": verdict}
    return 0, payload, verdict


def _cmd_fleeing(args, cfg) -> tuple[int, dict, str]:
    horizon = args.horizon if args.horizon is not None else cfg["horizon"]
    search = critical_number(run_property(args.digit, args.run), horizon)
    payload = {"command": "fleeing-critical", "digit": args.digit, "run": args.run,
               "horizon": horizon, "found_at": search.found_at, "verdict": str(search)}
    return 0, payload, str(search)
