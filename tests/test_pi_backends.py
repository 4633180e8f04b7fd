"""The standard-library Chudnovsky route against the independent routes,
and the digits the Machin enclosure proves against the spigot."""

import ast
import decimal
import shutil
import sys
from decimal import Decimal
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import bench_writer
from brouwer import _pi_backends
from brouwer.fleeing import DigitOracle
from brouwer._pi_backends import (
    _EXACT,
    _LEAF_TERMS,
    _atan_inv_floor,
    _chud_split,
    _chud_split_dec,
    _inv_sqrt,
    _machin_enclosure,
    _quotient,
    _rounding,
    ChudnovskySeries,
    chudnovsky_digits,
    machin_digits,
)
import references

SPIGOT_1001 = references.spigot_digits(1001)


def _reference_split(a, b):
    """P, Q, T of terms a..b-1 by the plain recursive split on Python ints,
    no common factor removed: the reference the production sums must equal."""
    if b - a == 1:
        if a == 0:
            p = q = 1
        else:
            p = (6 * a - 5) * (2 * a - 1) * (6 * a - 1)
            q = a * a * a * (640320**3 // 24)
        t = p * (13591409 + 545140134 * a)
        return p, q, -t if a & 1 else t
    m = (a + b) // 2
    p1, q1, t1 = _reference_split(a, m)
    p2, q2, t2 = _reference_split(m, b)
    return p1 * p2, q1 * q2, t1 * q2 + p1 * t2


def _same_ratio(x, y, rx, ry):
    """x/y == rx/ry, cross-multiplied exactly on libmpdec."""
    x, y, rx, ry = map(Decimal, (x, y, rx, ry))
    return _EXACT.multiply(x, ry) == _EXACT.multiply(rx, y)


def _same_sums(split, reference):
    """Two P, Q, T triples have equal T/Q and P/Q."""
    (p, q, t), (rp, rq, rt) = split, reference
    return _same_ratio(t, q, rt, rq) and _same_ratio(p, q, rp, rq)


def test_stdlib_route_matches_machin():
    n = 20_000
    assert chudnovsky_digits(n) == machin_digits(n)


def test_stdlib_route_matches_spigot_at_the_six_nines():
    # cuts at and inside the run of six nines at positions 762..767
    spigot = references.spigot_digits(800)
    for n in range(760, 769):
        assert chudnovsky_digits(n) == spigot[:n], n


def _ambiguous_first_pass(monkeypatch, n, fill, series):
    """Make the first read show ten equal guard digits after position n,
    checking that every pass reads the given series; returns the
    precisions read."""
    real = _pi_backends._chudnovsky_str
    asked = []

    def ambiguous_first_pass(prec, passed):
        asked.append(prec)
        assert series is None or passed is series
        s = real(prec, passed)
        return s[: 1 + n] + fill * 10 + s[1 + n + 10 :] if len(asked) == 1 else s

    monkeypatch.setattr(_pi_backends, "_chudnovsky_str", ambiguous_first_pass)
    return asked


@pytest.mark.parametrize("fill", ["9", "0"])
@pytest.mark.parametrize("n", [1, 50, 1000])
def test_stdlib_route_widens_its_guard_past_an_ambiguous_tail(n, fill, monkeypatch):
    # the first pass reads ten equal guard digits after position n, where a
    # carry could cross the cut; the guard doubles and the second pass is kept
    asked = _ambiguous_first_pass(monkeypatch, n, fill, None)
    assert chudnovsky_digits(n) == machin_digits(n)
    assert asked == [n + 20, n + 40]


@pytest.mark.parametrize("grown_from", [1, 500])
@pytest.mark.parametrize("fill", ["9", "0"])
@pytest.mark.parametrize("n", [1, 50, 1000])
def test_a_series_read_before_widens_its_guard_the_same_way(n, fill, grown_from, monkeypatch):
    # both passes extend the series the caller keeps, larger or smaller than n
    series = ChudnovskySeries()
    chudnovsky_digits(grown_from, series)
    asked = _ambiguous_first_pass(monkeypatch, n, fill, series)
    assert chudnovsky_digits(n, series) == machin_digits(n)
    assert asked == [n + 20, n + 40]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 400), min_size=1, max_size=6))
def test_an_extended_series_is_one_split_of_the_whole_range(counts):
    # extending through any term counts, in any order, leaves the sums of one
    # split of the largest range asked for: T/Q and P/Q equal the plain
    # split's, though the factors the leaves remove change the integers
    series = ChudnovskySeries()
    for i, k in enumerate(counts):
        series.extend(k)
        whole = max(counts[: i + 1])
        assert series.terms == whole
        assert _same_sums((series.p, series.q, series.t), _reference_split(0, whole))


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.just(0), st.integers(0, 2_000)), st.integers(1, 300))
def test_folded_sums_equal_the_plain_split_on_any_range(a, terms):
    # the int fold with its per-term gcd, alone and under the Decimal levels
    reference = _reference_split(a, a + terms)
    assert _same_sums(_chud_split(a, a + terms), reference)
    assert _same_sums(_chud_split_dec(a, a + terms), reference)


@cache
def _machin_prefix():
    return machin_digits(14 * 1_500 + 100)


@settings(max_examples=10, deadline=None)
@given(st.lists(st.integers(1, 1_500), min_size=1, max_size=4))
def test_a_series_grown_across_many_leaves_reads_the_certified_digits(counts):
    # term counts up to ~2*10**4 digits, each read a few terms past the last
    # extension, so the leaves fall at many different boundaries
    series = ChudnovskySeries()
    for k in counts:
        series.extend(k)
        n = 14 * k
        assert chudnovsky_digits(n, series) == _machin_prefix()[:n]


def test_the_leaves_keep_q_well_below_the_plain_split():
    # at 708 terms (10**4 digits) Q's coefficient has 12,649 digits against
    # the plain split's 16,468: the removed factors and the leaves' powers
    # of ten, which sit in the exponent
    _, q, _ = _chud_split_dec(0, 708)
    _, reference_q, _ = _reference_split(0, 708)
    assert len(q.as_tuple().digits) <= 4 / 5 * len(Decimal(reference_q).as_tuple().digits)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 1001), min_size=1, max_size=5))
def test_reads_of_one_series_are_exact_in_any_order(sizes):
    # a series read before at other sizes, larger or smaller, still gives
    # exactly the digits the certified enclosure proves
    series = ChudnovskySeries()
    for n in sizes:
        assert chudnovsky_digits(n, series) == SPIGOT_1001[:n]


@pytest.mark.parametrize("n", range(755, 771))
def test_growing_reads_are_exact_around_the_six_nines(n):
    # reached through growth from smaller reads: the series' own and the
    # oracle's, whose limit stops its last growth exactly at n
    series = ChudnovskySeries()
    for m in (64, n // 2, n - 1, n):
        assert chudnovsky_digits(m, series) == machin_digits(m)
    orc = DigitOracle(self_test_digits=n // 3, limit=n)
    for m in (n // 3 + 1, n - 5, n):
        assert orc.digits(m) == machin_digits(m)
    assert len(orc._cache) == n


def _enclosure_passes(monkeypatch):
    """Record the size of every enclosure machin_digits computes."""
    sizes = []

    def recording(m):
        sizes.append(m)
        return _machin_enclosure(m)

    monkeypatch.setattr(_pi_backends, "_machin_enclosure", recording)
    return sizes


@pytest.mark.parametrize("n", [*range(61), *range(755, 771), 999, 1000, 1001])
def test_certified_digits_match_the_spigot(n, monkeypatch):
    passes = _enclosure_passes(monkeypatch)
    assert machin_digits(n) == SPIGOT_1001[:n]
    # one pass with a guard of 10, but at 761 the guard digits are the six
    # nines and 8372: the enclosure, some 2*10**4 wide, straddles a multiple
    # of 10**10, and the guard doubles to 20
    assert passes == ([] if n == 0 else [n + 10, n + 20][: 1 + (n == 761)])


def test_self_test_runs_past_the_str_int_digit_cap():
    # CPython refuses str(int) beyond 4300 digits; the enclosure prints via Decimal
    orc = DigitOracle(self_test_digits=5000)
    assert orc.digits(5000) == chudnovsky_digits(5000)


def _flip_last_digit(digits):
    return digits[:-1] + str((int(digits[-1]) + 1) % 10) if digits else digits


@pytest.mark.parametrize("kwargs", [{}, {"limit": 300}, {"self_test_digits": 40}])
def test_self_test_catches_a_wrong_digit_on_every_construction(kwargs, monkeypatch):
    real = _pi_backends.chudnovsky_digits
    monkeypatch.setattr(
        _pi_backends, "chudnovsky_digits", lambda n, series=None: _flip_last_digit(real(n, series))
    )
    checks = []
    machin = _pi_backends.machin_digits
    monkeypatch.setattr(_pi_backends, "machin_digits", lambda n: checks.append(n) or machin(n))
    for _ in range(2):
        with pytest.raises(AssertionError, match="disagree"):
            DigitOracle(**kwargs)
    n = min(kwargs.get("self_test_digits", 1000), kwargs.get("limit", 10**9))
    assert checks == [n, n]


def test_building_an_oracle_leaves_the_spigot_alone(monkeypatch):
    def refuse(n):
        raise AssertionError("the spigot is a test reference only")

    # the spigot lives with the tests' references, where no production
    # path can reach it
    assert not any("spigot" in name for name in vars(_pi_backends))
    monkeypatch.setattr(references, "spigot_digits", refuse)
    assert DigitOracle().digits(20) == SPIGOT_1001[:20]


@pytest.mark.parametrize("x", [2, 5, 239])
@pytest.mark.parametrize("m", [0, 1, 7, 40])
def test_atan_floor_sum_error_bound(x, m):
    # 200 exact terms: the tail they leave is below 10**-60 for every case here
    one = 10**m
    s, b = _atan_inv_floor(x, one)
    exact = sum(
        Fraction((-1) ** k * one, (2 * k + 1) * x ** (2 * k + 1)) for k in range(200)
    )
    assert abs(exact - s) < b - Fraction(1, 10**60)


def test_machin_enclosure_brackets_pi():
    ref = int("3" + SPIGOT_1001[:1000])  # floor(10**1000 * pi)
    for m in (0, 5, 300, 1000):
        lo, hi = _machin_enclosure(m)
        floor_pi = ref // 10 ** (1000 - m)
        assert lo <= floor_pi < hi


@pytest.mark.parametrize("digits", [3, 17, 28, 29, 30, 100, 1031, 5000])
def test_inv_sqrt_error_bound(digits):
    # relative error e of y gives a*y*y = (1 + e)**2, so |a*y*y - 1| < 2.1*|e|
    y = _inv_sqrt(10005, digits)
    residual = abs(_EXACT.subtract(_EXACT.multiply(10005, _EXACT.multiply(y, y)), 1))
    assert residual < Decimal("2.1").scaleb(2 - digits)


def _within_quotient_bound(n, t, x, digits, units=11):
    """|t*x - n| < units*10**-digits * |n|, that is, x is n/t within that
    relative error; exact on libmpdec."""
    residual = _EXACT.abs(_EXACT.subtract(_EXACT.multiply(t, x), n))
    return residual <= _EXACT.multiply(_EXACT.abs(n), Decimal(units).scaleb(-digits, _EXACT))


def _pi_operands(digits):
    """The numerator and divisor ``_chudnovsky_str`` hands ``_quotient``."""
    series = ChudnovskySeries()
    series.extend(max(2, int(digits / 14.18) + 2))
    ctx = _rounding(digits)
    scale = ctx.multiply(426880 * 10005, _inv_sqrt(10005, digits))
    return ctx.multiply(scale, ctx.plus(series.q)), ctx.plus(series.t)


@pytest.mark.parametrize("digits", [3, 17, 27, 28, 29, 30, 49, 50, 51, 52, 100, 1031, 5000])
@pytest.mark.parametrize("operands", ["pi", "nines"])
def test_quotient_error_bound(digits, operands):
    # on both sides of the ladders' steps: the square root's gains its
    # second rung past 28 digits, the reciprocal's, run to h = (digits + 7)
    # // 2, past 50, and h leaves 17 past 28; the nines put the divisor's
    # leading digits next to a power of ten
    if operands == "pi":
        n, t = _pi_operands(digits)
    else:
        n, t = Decimal(1), _EXACT.subtract(Decimal(f"1E{digits}"), 1)
    assert _within_quotient_bound(n, t, _quotient(n, t, digits), digits)


def _decimals(max_digits):
    return st.builds(lambda m, e: Decimal(m).scaleb(e, _EXACT),
                     st.integers(-10**max_digits, 10**max_digits),
                     st.one_of(st.integers(-40, 40), st.integers(-2 * 10**6, 2 * 10**6)))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 120), st.data())
def test_quotient_is_within_its_bound_of_the_division(digits, data):
    # the reference is correctly rounded, within 5*10**-digits of n/t, so
    # the two differ by less than 16*10**-digits of n/t
    n = data.draw(_decimals(2 * digits))
    t = data.draw(_decimals(2 * digits).filter(bool))
    x = _quotient(n, t, digits)
    assert _within_quotient_bound(n, t, x, digits)
    reference = references.quotient(n, t, digits)
    gap = _EXACT.abs(_EXACT.multiply(t, _EXACT.subtract(x, reference)))
    assert gap <= _EXACT.multiply(_EXACT.abs(n), Decimal(16).scaleb(-digits, _EXACT))


def test_a_quotient_past_the_default_exponent_range():
    # the default context's exponents end at 10**-999999: a start scaled in
    # it underflows to zero, and every step after keeps the zero
    n, t = Decimal(3), _EXACT.add(Decimal("7E1500000"), 3)
    x = _quotient(n, t, 50)
    assert x.adjusted() == -1_500_001 and _within_quotient_bound(n, t, x, 50)
    # a context that traps every rounding: an operation that fell back on it
    # would raise
    hostile = decimal.Context(prec=1, traps=[decimal.Inexact, decimal.Rounded])
    with decimal.localcontext(hostile):
        assert _quotient(n, t, 50) == x
        assert chudnovsky_digits(1000) == SPIGOT_1001[:1000]


def test_division_reference_reads_the_same_digits():
    # the division tail and the quotient agree past both guard protocols'
    # cuts, the six nines included
    for n in (1, 761, 767, 1001, 20_000):
        assert references.division_digits(n) == chudnovsky_digits(n)


def test_no_decimal_division_in_the_pi_module():
    # ``decimal`` divides only in tests/references.py; the module's ``/`` are
    # float and int ones
    tree = ast.parse(Path(_pi_backends.__file__).read_text(encoding="utf-8"))
    assert not {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)} & {
        "divide", "divide_int", "divmod", "remainder", "remainder_near", "sqrt", "ln", "log10"}


@pytest.mark.parametrize("k", [1, 2, _LEAF_TERMS - 1, _LEAF_TERMS, _LEAF_TERMS + 1, 65, 300])
def test_decimal_split_matches_int_split(k):
    # the integers depend on where the leaves fall, the sums do not: the int
    # fold and the Decimal split both have the plain split's T/Q and P/Q
    _, rq, rt = reference = _reference_split(0, k)
    assert _same_sums(_chud_split(0, k), reference)
    _, q_dec, t_dec = split = _chud_split_dec(0, k)
    assert _same_ratio(t_dec, q_dec, rt, rq)
    assert _same_sums(split, reference)


def test_benchmark_script_runs():
    record = bench_writer.bench.pi((1_000,))
    (row,) = record["rows"]
    assert list(row) == ["digits", "chudnovsky_s", "tail_s", "critical_s"]
    assert row["digits"] == 1_000
    assert all(isinstance(row[k], float) for k in list(row)[1:])
    assert bench_writer.survives_json(record)


def test_benchmark_checks_each_reference_route_up_to_its_top():
    # 10,001 digits is past the spigot's top, not Machin's; 60,000 is past
    # Machin's too, not the division tail's
    record = bench_writer.bench.checks((1_000, 10_001, 60_000))
    assert [(r["route"], r["digits"]) for r in record["rows"]] == [
        ("machin", 1_000), ("machin", 10_001), ("spigot", 1_000),
        ("division", 1_000), ("division", 10_001), ("division", 60_000)]
    assert all(isinstance(r["seconds"], float) for r in record["rows"])
    assert bench_writer.survives_json(record)


@pytest.mark.parametrize("module,patch,first,stop", [
    # a checkout whose Machin route is wrong: the checks stop the run before
    # pi, whose oracle self-test would refuse it
    ("_pi_backends.py", "def machin_digits(n):\n    return '0' * n\n", "checks",
     "machin diverged at 1000 digits"),
    # a checkout whose critical-number search finds a run of six zeros at
    # once; its checks pass (in ~10 s at full size), so the run starts at pi
    ("fleeing.py", "def critical_number(prop, limit):\n    return 'found-at:1'\n", "pi",
     "a run of six zeros below 1000"),
], ids=["machin", "critical"])
def test_a_failing_cross_check_stops_the_benchmark_before_it_writes(
        tmp_path, monkeypatch, module, patch, first, stop):
    bench = bench_writer.bench
    src = Path(bench.HERE).parent / "src" / "brouwer"
    shutil.copytree(src, tmp_path / "src" / "brouwer", ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "brouwer" / module, "a", encoding="utf-8") as fh:
        fh.write("\n\n" + patch)
    out = tmp_path / "out.json"
    monkeypatch.setattr(sys, "argv", ["bench.py", str(out), str(tmp_path)])
    monkeypatch.setattr(bench, "SECTIONS", bench.SECTIONS[bench.SECTIONS.index(first):])
    with pytest.raises(SystemExit) as ei:
        bench.main()
    message = str(ei.value.code)
    assert message.startswith(f"{first} failed in") and stop in message and not out.exists()
