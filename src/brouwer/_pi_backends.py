"""Decimal digit backends for pi, all on the standard library.

Two routes, independent of each other:

* Chudnovsky binary splitting - the production path. Python ints at the
  leaves of the splitting, libmpdec (``decimal``) integers above them, a
  multiplication-only Newton iteration for 1/sqrt(10005) and a quotient
  from multiplications too, a Newton reciprocal at half the precision
  and one Karp-Markstein step. Python int division and int-to-string are
  quadratic; libmpdec multiplies with a number-theoretic transform and
  prints in linear time. The leaves fold their terms in one at a time
  and divide out the factors P and the next term's q share, and they hand
  Q to libmpdec with its trailing zeros in the exponent, so the sums above
  them carry shorter integers. The split sums live in a
  ``ChudnovskySeries`` that a caller may keep: the exact P, Q, T of the
  first N terms combine with those of terms N..N'-1 into the same sums one
  split of the first N' terms gives, equal T/Q and P/Q, so a read at a
  higher precision splits only the new terms and redoes just the square
  root, the quotient and the string.
* Certified Machin enclosure (16 atan 1/5 - 4 atan 1/239) - the
  self-test of ``fleeing.DigitOracle`` and the cross-check of the tests.
  Integers lo < 10**m * pi < hi from Euler's series of positive terms,
  one short division each, every floor's error counted, so the digits it
  returns are proved, not guarded; quadratic, about 0.7 ms for a thousand
  digits, three times what Chudnovsky takes.

Both return the decimal expansion after the leading integer part, so
digits(5) == "14159". The tests and ``benchmarks/`` check them against
routes that no production path calls, in ``tests/references.py``: a
streaming spigot, exact digit by digit with no guard digits, the Machin
enclosure from Gregory's alternating series, and Chudnovsky ending in one
correctly rounded ``decimal`` division.

BACKEND names the Chudnovsky core in benchmark records. It is always
"int": the Chudnovsky route above, on Python ints and libmpdec.
"""

from __future__ import annotations

import decimal
from decimal import Decimal
from functools import lru_cache
from math import gcd, sqrt

BACKEND = "int"


# --- Chudnovsky binary splitting ---

_CH_A = 13591409
_CH_B = 545140134
_CH_C3_24 = 640320**3 // 24  # 10939058860032000


def _chud_split(a: int, b: int) -> tuple[int, int, int]:
    """P, Q, T of terms a..b-1 on Python ints, folded in one term at a time.

    Term k, with p_k = (6k-5)(2k-1)(6k-1), q_k = k**3 * 640320**3 / 24 and
    t_k = (-1)**k * p_k * (13591409 + 545140134k), joins as
    (P*p_k, Q*q_k, T*q_k + P*t_k). Before it does, g = gcd(P, q_k) is
    divided out of P and q_k, which divides the new P, Q and T all by g:
    T/Q and P/Q, the sums a caller reads, stay exact, while Q and T lose
    every factor the p's so far share with q_k. The integers therefore
    depend on where a range starts, the ratios do not.
    """
    p = q = 1
    t = 0
    for k in range(a, b):
        if k:  # term 0 has p_0 = q_0 = 1
            qk = k * k * k * _CH_C3_24
            g = gcd(p, qk)
            qk //= g
            p = p // g * ((6 * k - 5) * (2 * k - 1) * (6 * k - 1))
            q *= qk
            t *= qk
        # add P*t_k; p already holds P*p_k
        tk = p * (_CH_A + _CH_B * k)
        t = t - tk if k & 1 else t + tk
    return p, q, t


# Ranges of up to this many terms are folded on Python ints, with common
# factors removed, and converted once: at their sizes ints multiply faster
# than libmpdec, and converting larger ints to Decimal takes quadratic
# time. Above them nothing is removed, since libmpdec has no gcd and an
# exact division costs several multiplications.
_LEAF_TERMS = 32

# Exact integer arithmetic on libmpdec: any rounding at all raises.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.InvalidOperation, decimal.Inexact, decimal.Rounded],
)


def _merge(p1, q1, t1, p2, q2, t2) -> tuple[Decimal, Decimal, Decimal]:
    """P, Q, T of terms a..b-1 from those of a..m-1 and m..b-1."""
    mul = _EXACT.multiply
    return mul(p1, p2), mul(q1, q2), _EXACT.add(mul(t1, q2), mul(p1, t2))


def _chud_split_dec(a: int, b: int) -> tuple[Decimal, Decimal, Decimal]:
    """P, Q, T of terms a..b-1 as exact Decimal integers.

    Each q_k ends in three zeros, so a leaf's Q is normalized: its powers
    of ten go to the exponent, where products add them exactly, and the
    coefficients multiplied above the leaves are shorter by that much.
    """
    if b - a <= _LEAF_TERMS:
        p, q, t = _chud_split(a, b)
        return Decimal(p), Decimal(q).normalize(_EXACT), Decimal(t)
    m = (a + b) // 2
    return _merge(*_chud_split_dec(a, m), *_chud_split_dec(m, b))


@lru_cache(maxsize=64)  # each rung of a Newton ladder takes one
def _rounding(digits: int) -> decimal.Context:
    """Round-half-even to the given significant digits, any exponent."""
    return decimal.Context(
        prec=digits,
        Emax=decimal.MAX_EMAX,
        Emin=decimal.MIN_EMIN,
        traps=[decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow],
    )


def _newton(step, y: Decimal, digits: int) -> Decimal:
    """y, within 10**-15 relative, refined by Newton's ``step(y, ctx)`` to
    within 10**-(digits - 2). A step at p digits that turns an error e into
    less than 1.5*e**2 + 16*10**-p turns 10**-(q - 2) into 10**-(p - 2)
    whenever p <= 2*q - 6; from the start's q = 17 the precisions double
    under that rule."""
    if digits > 2 * 17 - 6:
        y = _newton(step, y, (digits + 7) // 2)
    return step(y, _rounding(digits))


def _inv_sqrt(a: int, digits: int) -> Decimal:
    """1/sqrt(a) with relative error below 10**-(digits - 2), by multiplications:
    y += y*(1 - a*y*y)/2 turns e into 1.5*e**2 at most, its roundings add
    less than 11*10**-p (the two in a*y*y count half), and the float start
    errs by less than 2**-52."""

    def step(y, ctx):
        r = ctx.subtract(1, ctx.multiply(a, ctx.multiply(y, y)))
        return ctx.add(y, ctx.multiply(ctx.multiply(y, r), Decimal("0.5")))

    return _newton(step, Decimal(1 / sqrt(a)), digits)


def _quotient(n: Decimal, t: Decimal, digits: int) -> Decimal:
    """n/t with relative error below 11*10**-digits, by multiplications only.

    z += z*(1 - t*z), t rounded to the step's p digits, turns t*z = 1 + d
    into 1 - d*d plus roundings below 16*10**-p (those of t, t*z and the
    sum; the rest count times d). Run to h = (digits + 7) // 2, it leaves
    |d| < 10**-(h - 2). x = n*z at h digits, n rounded first, is
    n/t*(1 + d)*(1 + r), |r| < 1.01*10**-(h - 1), and the Karp-Markstein
    step x + z*(n - t*x) is n/t*(1 - d*d - d*r - d*d*r): within
    1.12*10**-(digits + 2), as digits <= 2h - 6. At digits, its roundings
    of t*x and of the sum cost 5*10**-digits each, with a few percent to
    spare, the others 10**-(h - 2) of that. The start, 1/t of t's leading
    17 digits in a float, errs by less than 3*10**-16; it is scaled in
    ``_EXACT``, since the default context ends at 10**-999999.
    """

    def step(z, ctx):
        e = ctx.subtract(1, ctx.multiply(ctx.plus(t), z))
        return ctx.add(z, ctx.multiply(z, e))

    shift = t.adjusted()
    start = _EXACT.scaleb(Decimal(1 / float(_rounding(17).scaleb(t, -shift))), -shift)
    half = (digits + 7) // 2
    z = _newton(step, start, half)
    x = _rounding(half).multiply(_rounding(half).plus(n), z)
    ctx = _rounding(digits)
    return ctx.add(x, ctx.multiply(z, ctx.subtract(n, ctx.multiply(t, x))))


class ChudnovskySeries:
    """The exact P, Q, T of the first ``terms`` Chudnovsky terms, grown in place.

    Splitting is associative: P, Q, T of terms a..m-1 and m..b-1 combine as
    (P1*P2, Q1*Q2, T1*Q2 + P1*T2) into those of a..b-1, and a triple
    divided through by a common factor stands for the same sums. So
    extending the first N terms by N..N'-1 gives the same sums one split of
    the first N' terms gives: equal T/Q and P/Q, though the integers may
    differ where the leaves' removed factors differ. A fresh series is the
    empty sum, (1, 1, 0).
    """

    __slots__ = ("terms", "p", "q", "t")

    def __init__(self):
        self.terms = 0
        self.p = self.q = Decimal(1)
        self.t = Decimal(0)

    def extend(self, terms: int) -> None:
        """Sum at least the first ``terms`` terms."""
        if terms <= self.terms:
            return
        p, q, t = _chud_split_dec(self.terms, terms)
        if self.terms:
            p, q, t = _merge(self.p, self.q, self.t, p, q, t)
        self.terms, self.p, self.q, self.t = terms, p, q, t


def _chudnovsky_str(prec: int, series: ChudnovskySeries) -> str:
    """Digits of pi, '31415...', with error below 10**-(prec + 7).

    The series is extended to enough terms that the tail it leaves is
    below 10**-(prec + 14); its sums are exact. The rest runs at prec + 10
    significant digits, where a rounding costs at most 5*10**-(prec + 10)
    relative: 1/sqrt(10005) carries less than 10**-(prec + 8), the four
    roundings of the scale, Q, T and scale*Q add at most 2*10**-(prec + 9),
    and ``_quotient`` adds less than 1.1*10**-(prec + 9). The relative
    error stays below 1.32*10**-(prec + 8), the absolute one, pi being
    below 4, below 10**-(prec + 7).
    """
    series.extend(max(2, int(prec / 14.18) + 2))
    ctx = _rounding(prec + 10)
    # 426880*sqrt(10005) = 426880*10005 / sqrt(10005)
    scale = ctx.multiply(426880 * 10005, _inv_sqrt(10005, prec + 10))
    pi = _quotient(ctx.multiply(scale, ctx.plus(series.q)), ctx.plus(series.t), prec + 10)
    return str(pi).replace(".", "")


def chudnovsky_digits(n: int, series: ChudnovskySeries | None = None) -> str:
    """First n decimals of pi via Chudnovsky binary splitting.

    Each pass reads x = ``_chudnovsky_str(n + guard, series)``, within
    10**-(n + guard + 7) of pi. If digits n+1..n+10 of x are neither all 9
    nor all 0, the fractional part of x*10**n lies in [10**-10, 1 - 10**-10),
    so an error below 10**-(n + 10) cannot carry across the cut and x's
    first n digits are pi's. Any guard >= 3 gives that error, and the guard
    starts at 20; when the ten digits are all 9 or all 0 it doubles and the
    pass repeats.

    A caller that reads again at a larger n passes the same series, which
    then sums only the terms the larger n adds; without one, a fresh series
    is read once.
    """
    if n < 1:
        return ""
    if series is None:
        series = ChudnovskySeries()
    guard = 20
    while True:
        s = _chudnovsky_str(n + guard, series)
        tail = s[1 + n : 1 + n + 10]
        if tail != "9" * 10 and tail != "0" * 10:
            return s[1 : 1 + n]
        guard *= 2


# --- Machin enclosure ---


def _atan_inv_floor(x: int, one: int) -> tuple[int, int]:
    """(s, b) with 0 <= one * atan(1/x) - s < b, for integers x, one >= 1.

    Euler's series: with y = 1 + x*x, atan(1/x) = sum_n T_n, T_0 = x/y and
    T_n = T_{n-1} * 2n / ((2n+1) * y), all positive. In fixed point
    t_0 = one*x // y and t_n = t_{n-1} * 2n // ((2n+1) * y): one product by
    a small int and one division by a single CPython digit (below 2**30 up
    to n ~ 2*10**7 for x = 5; for x = 239 to n = 9,398, near 44,700 digits).
    The loop stops at the first N with t_N = 0; s sums t_0..t_N. Each floor
    drops some d_n in [0, 1), which term n + j, kept or omitted, carries on
    scaled by less than y**-j: d_n adds at most d_n * y/(y - 1) to
    one * atan(1/x) - s. So every error is one-sided, s is a lower bound,
    and the N + 1 floors leave a shortfall below (N + 1) * y/(y - 1) < b.
    """
    y = 1 + x * x
    t = s = one * x // y
    n = 0
    while t:
        n += 1
        t = t * (2 * n) // ((2 * n + 1) * y)
        s += t
    return s, (n + 1) * y // (y - 1) + 1


def _machin_enclosure(m: int) -> tuple[int, int]:
    """Integers lo < 10**m * pi < hi from pi = 16 atan(1/5) - 4 atan(1/239).

    With s5 <= 10**m atan(1/5) < s5 + b5 and the same for 239
    (``_atan_inv_floor``), 16*s5 - 4*(s239 + b239) is below 10**m * pi and
    16*(s5 + b5) - 4*s239 above it. The width, 16*b5 + 4*b239, is about
    12.6*m: near a thousand digits, the last five of the m are uncertain.
    """
    one = 10**m
    s5, b5 = _atan_inv_floor(5, one)
    s239, b239 = _atan_inv_floor(239, one)
    return 16 * s5 - 4 * (s239 + b239), 16 * (s5 + b5) - 4 * s239


def machin_digits(n: int) -> str:
    """First n decimals of pi, proved digit by digit by the Machin enclosure.

    With cut = 10**guard, lo < 10**(n + guard) * pi < hi gives
    lo // cut <= floor(10**n * pi) <= hi // cut, so when the two ends agree
    their common value is floor(10**n * pi), '3' and the n decimals. When
    they differ - pi's expansion runs through many nines or zeros after
    digit n, as it does at the six nines from position 762 - the guard
    doubles and the enclosure is recomputed. No Chudnovsky code, no guard
    heuristic and no ``decimal`` arithmetic is involved; ``Decimal`` only
    prints the integer, past ``str(int)``'s digit cap.
    """
    if n < 1:
        return ""
    guard = 10
    while True:
        lo, hi = _machin_enclosure(n + guard)
        cut = 10**guard
        if lo // cut == hi // cut:
            return str(Decimal(lo // cut))[1:]
        guard *= 2
