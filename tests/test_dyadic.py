import copy
import pickle
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from brouwer.drift import Sqrt2Value
from brouwer.dyadic import (
    Dyadic,
    Interval,
    IntervalRelation,
    admissible_successors,
    ceiling_drops,
    interval_relate,
    lambda_interval,
    parse_dyadic,
    parse_interval,
    scaled_floor,
)
from brouwer.spreads import rng_spread
from references import ceil_scaled

dyadics = st.builds(Dyadic, st.integers(-10**6, 10**6), st.integers(0, 40))


def test_canonical_form():
    assert Dyadic(4, 2) == Dyadic(1, 0)
    assert Dyadic(6, 3) == Dyadic(3, 2)
    assert Dyadic(0, 7) == Dyadic(0, 0)
    d = Dyadic(12, 4)
    assert d.num == 3 and d.exp == 2


@given(st.integers(-10**9, 10**9), st.integers(0, 60))
def test_canonical_form_keeps_the_value(num, exp):
    d = Dyadic(num, exp)
    assert d.as_fraction() == Fraction(num, 1 << exp)
    assert d.exp == 0 or d.num % 2 == 1


def test_records_compare_within_their_class():
    d = Dyadic(3, 2)
    assert d == Dyadic(6, 3) and hash(d) == hash(Dyadic(6, 3))
    assert d != (3, 2) and d != Fraction(3, 4)
    iv = Interval(Dyadic(1, 2), d)
    assert iv == lambda_interval(2, 1) and len({iv, lambda_interval(2, 1)}) == 1
    assert repr(iv) == "Interval(lo=Dyadic(num=1, exp=2), hi=Dyadic(num=3, exp=2))"
    with pytest.raises(AttributeError, match="cannot assign to field 'num'"):
        d.num = 5
    assert pickle.loads(pickle.dumps(iv)) == iv and copy.copy(d) == d


@given(dyadics, dyadics)
def test_arithmetic_matches_fractions(a, b):
    # Fraction is the independent oracle for every operation
    fa, fb = a.as_fraction(), b.as_fraction()
    assert (a + b).as_fraction() == fa + fb
    assert (a - b).as_fraction() == fa - fb
    assert (a * b).as_fraction() == fa * fb
    assert (-a).as_fraction() == -fa
    assert abs(a).as_fraction() == abs(fa)
    assert (a < b) == (fa < fb)
    assert (a <= b) == (fa <= fb)
    assert (a == b) == (fa == fb)


# numerators near powers of two and exponents close together: the binary
# orders of the two sides often tie, and the comparison must shift
near_orders = st.builds(lambda sign, bits, delta, exp: Dyadic(sign * ((1 << bits) + delta), exp),
                        st.sampled_from([-1, 0, 1]), st.integers(0, 70), st.integers(-3, 3),
                        st.integers(0, 70))


@given(near_orders, near_orders)
def test_comparisons_match_fractions_where_the_orders_tie(a, b):
    fa, fb = a.as_fraction(), b.as_fraction()
    assert (a < b, a <= b, a > b, a >= b) == (fa < fb, fa <= fb, fa > fb, fa >= fb)


@pytest.mark.parametrize("text", ["[1/2^10000000, 1/2^1]", "[-1/2^1, -1/2^10000000]",
                                  "[1/2^10000000, 3/2^10000000]"])
def test_comparing_far_exponents_stays_small(text):
    # shifting each numerator by the other's exponent builds a 10**7-bit
    # integer, 1.3 MB; the orders decide these without a shift
    tracemalloc.start()
    try:
        iv = parse_interval(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert iv.lo < iv.hi and peak < 64_000


@given(dyadics)
def test_string_roundtrip(d):
    assert parse_dyadic(str(d)) == d


def test_parse_rejects_junk():
    # the digits are ASCII: '\u0663' is an Arabic-Indic three
    for bad in ["", "3/4", "1/2^", "x/2^3", "1/3^2", "2^3", "\u0663/2^\u0661", "3/2^\u0661"]:
        with pytest.raises(ValueError):
            parse_dyadic(bad)


def test_lambda_interval_shape():
    iv = lambda_interval(3, 5)
    assert iv.lo == Dyadic(5, 3) and iv.hi == Dyadic(7, 3)
    assert iv.length.as_fraction() == Fraction(1, 4)
    with pytest.raises(ValueError):
        lambda_interval(0, 1)


def test_interval_parse_roundtrip():
    iv = lambda_interval(4, -9)
    assert parse_interval(str(iv)) == iv
    with pytest.raises(ValueError):
        Interval(Dyadic(1, 0), Dyadic(0, 0))


@given(st.integers(1, 16), st.integers(-64, 64))
def test_successors_nest(n, a):
    parent = lambda_interval(n, a)
    succ = admissible_successors(a)
    assert succ == (2 * a, 2 * a + 1, 2 * a + 2)
    for z in succ:
        child = lambda_interval(n + 1, z)
        assert interval_relate(child, parent) is IntervalRelation.CONTAINED_IN
    # and nothing else in the neighborhood nests
    for z in range(2 * a - 3, 2 * a + 6):
        nested = interval_relate(lambda_interval(n + 1, z), parent) in (
            IntervalRelation.CONTAINED_IN,
            IntervalRelation.CONTAINS,
        )
        assert nested == rng_spread().admits_next((a,), z)


def test_relations_exhaustive():
    base = Interval(Dyadic(0, 0), Dyadic(4, 0))
    assert interval_relate(base, base) is IntervalRelation.CONTAINS
    assert interval_relate(base, Interval(Dyadic(1, 0), Dyadic(2, 0))) is IntervalRelation.CONTAINS
    assert interval_relate(Interval(Dyadic(1, 0), Dyadic(2, 0)), base) is IntervalRelation.CONTAINED_IN
    assert interval_relate(base, Interval(Dyadic(5, 0), Dyadic(6, 0))) is IntervalRelation.DISJOINT
    # sharing only an endpoint is still overlap: the intervals are closed
    assert interval_relate(base, Interval(Dyadic(4, 0), Dyadic(6, 0))) is IntervalRelation.OVERLAP
    assert interval_relate(base, Interval(Dyadic(3, 0), Dyadic(6, 0))) is IntervalRelation.OVERLAP


@given(st.fractions(min_value=-100, max_value=100), st.integers(0, 20))
def test_scaled_floor_matches_fraction_floor(x, k):
    assert scaled_floor(x, k) == x * (1 << k) // 1


@given(dyadics, st.integers(0, 20))
def test_scaled_floor_on_dyadics(d, k):
    assert scaled_floor(d, k) == scaled_floor(d.as_fraction(), k)


def division_floor(value: Fraction, k: int) -> int:
    """floor(value * 2**k) by long division, the route scaled_floor takes
    for a Fraction whose denominator is not a power of two."""
    return (value.numerator << k) // value.denominator


@given(st.integers(-(2**200), 2**200), st.integers(0, 300), st.integers(0, 300))
def test_scaled_floor_shifts_dyadic_fractions_as_the_division_would(num, exp, k):
    value = Fraction(num, 1 << exp)
    assert scaled_floor(value, k) == division_floor(value, k)


floor_targets = st.one_of(
    st.fractions(max_denominator=10**9),
    st.builds(Dyadic, st.integers(-(2**80), 2**80), st.integers(0, 90)),
    st.integers(-(2**70), 2**70),
    st.builds(Sqrt2Value, st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)),
)


@given(floor_targets, st.integers(0, 120))
@settings(max_examples=300)
def test_scaled_floor_of_the_negation_is_the_negated_ceiling(value, k):
    assert scaled_floor(-value, k) == -ceil_scaled(value, k)


@given(floor_targets, st.integers(0, 120), st.integers(1, 160))
@settings(max_examples=300)
def test_ceiling_drops_hold_to_a_fresh_ceiling_at_every_scale(value, k, m):
    # one floor at scale k+m, read as drops, against a fresh ceiling per scale
    ceil, drops = ceiling_drops(value, k, m)
    assert ceil == ceil_scaled(value, k)
    for j, drop in enumerate(drops, k + 1):
        assert drop in (0, 1)
        ceil = 2 * ceil - drop
        assert ceil == ceil_scaled(value, j), (value, j)
    assert j == k + m


def cmp_scaled(value, k: int, target: int) -> int:
    """Sign of (value * 2**k - target), exactly, from the floors of value and
    of -value: the comparison the reference centering emitter
    (tests/test_spreads.py) is built on."""
    above = -scaled_floor(-value, k) > target  # ceil(value * 2**k) > target
    return above - (scaled_floor(value, k) < target)


@given(st.fractions(min_value=-50, max_value=50), st.integers(0, 12), st.integers(-800, 800))
def test_cmp_scaled_consistent(x, k, t):
    c = cmp_scaled(x, k, t)
    diff = x * (1 << k) - t
    assert c == (0 if diff == 0 else (1 if diff > 0 else -1))
