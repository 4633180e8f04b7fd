import os
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from brouwer import _pi_backends
from brouwer.errors import ResourceLimitError, SettingError
from brouwer.fleeing import (
    ConvergentFamily,
    DecidableProperty,
    DigitOracle,
    berlin_r,
    cambridge_c,
    critical_number,
    default_oracle,
    find_pattern,
    geometric_family,
    pattern_property,
    run_property,
    veldman_f2,
)
from brouwer.reals import (
    Point,
    VerdictValue,
    abs_diff_lt,
    apart_at,
    coincide_refute,
    value_point,
    zero_point,
)
from brouwer.spreads import (
    Generator,
    Lawlike,
    rng_spread,
)
from references import centered_term, centering_rule

# [PAPER]-anchored landmark, reproduced by the oracle itself at import
SIX_NINES_AT = 762


def scan_reference(p: DecidableProperty, horizon: int) -> Optional[int]:
    """The least witness of p up to the horizon, testing one position at a
    time with p.holds: the reference for the pattern search behind
    critical_number and find_pattern."""
    if horizon < 0:
        raise ValueError(f"horizon must be non-negative, got {horizon}")
    for n in range(1, horizon + 1):
        if p.holds(n):
            return n
    return None


def test_known_digits():
    orc = default_oracle()
    assert orc.digits(12) == "141592653589"
    assert orc.digit_at(1) == 1
    assert orc.digit_at(13) == 7


def test_prefix_cache_consistency():
    orc = default_oracle()
    d200 = orc.digits(200)
    assert orc.digits(50) == d200[:50]
    assert orc.digits(120) == d200[:120]


def test_resource_limit():
    orc = DigitOracle(limit=500)
    with pytest.raises(ResourceLimitError):
        orc.digits(501)
    assert len(orc.digits(500)) == 500


def test_reads_either_side_of_the_oracle_limit():
    # the last position inside the limit reads from the cache; one past it
    # refuses, naming the digits it would need
    orc = DigitOracle(self_test_digits=0, limit=770)
    expected = default_oracle().digits(770)
    assert orc.digit_at(770) == int(expected[769])
    with pytest.raises(ResourceLimitError) as err:
        orc.digit_at(771)
    assert (err.value.requested, err.value.limit) == (771, 770)
    nines = pattern_property("999999", orc)
    assert nines.holds(SIX_NINES_AT)
    assert not nines.holds(765)  # its window 765..770 ends on the limit
    with pytest.raises(ResourceLimitError) as err:
        nines.holds(766)
    assert (err.value.requested, err.value.limit) == (771, 770)
    assert orc.digits(770) == expected


def test_env_limit(monkeypatch):
    monkeypatch.setenv("BW_DIGIT_LIMIT", "123")
    orc = DigitOracle()
    assert orc.limit == 123


@pytest.mark.parametrize("value", ["abc", "-5", "1.5", "12abc", "٣٠٠"])
def test_env_limit_must_be_a_non_negative_integer(monkeypatch, value):
    monkeypatch.setenv("BW_DIGIT_LIMIT", value)
    with pytest.raises(SettingError, match="BW_DIGIT_LIMIT"):
        DigitOracle()


def test_env_limit_zero_is_a_limit(monkeypatch):
    monkeypatch.setenv("BW_DIGIT_LIMIT", "0")
    assert DigitOracle().limit == 0


def test_negative_limit_is_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        DigitOracle(limit=-1)
    with pytest.raises(ValueError, match="non-negative"):
        DigitOracle(self_test_digits=0, limit=-1)
    with pytest.raises(ValueError, match="non-negative"):
        DigitOracle(self_test_digits=-5)


def test_six_nines_landmark():
    assert find_pattern("999999", 1000) == SIX_NINES_AT
    assert find_pattern("999999", SIX_NINES_AT - 1) is None


def test_find_pattern_refuses_past_the_oracle_limit():
    # the six nines lie beyond a 500-digit oracle: no answer below 1000 is honest
    with pytest.raises(ResourceLimitError) as err:
        find_pattern("999999", 1000, DigitOracle(limit=500))
    assert (err.value.requested, err.value.limit) == (1005, 500)
    # a match inside the clamped window is still an answer
    assert find_pattern("999999", 1000, DigitOracle(limit=800)) == SIX_NINES_AT
    assert find_pattern("999999", SIX_NINES_AT - 1, DigitOracle(limit=766)) is None


def _answer_or_refusal(search):
    try:
        return search()
    except ResourceLimitError as err:
        return ("refused", err.requested, err.limit)


def _answer_or_refused(search):
    found = _answer_or_refusal(search)
    return "refused" if isinstance(found, tuple) else found


@settings(max_examples=200, deadline=None)
@given(
    limit=st.integers(1, 1000),
    pattern=st.text("0123456789", min_size=1, max_size=3) | st.sampled_from(["999999", "14159"]),
    horizon=st.integers(1, 1000),
)
def test_find_pattern_agrees_with_critical_number(limit, pattern, horizon):
    # same least witness, or both refuse naming the same window, whatever
    # the oracle limit
    orc = DigitOracle(self_test_digits=0, limit=limit)
    found = _answer_or_refusal(lambda: find_pattern(pattern, horizon, orc))
    scanned = _answer_or_refusal(
        lambda: critical_number(pattern_property(pattern, orc), horizon).found_at
    )
    assert found == scanned


PI_5000 = _pi_backends.machin_digits(5000)


def _read_ends(held, width, upto):
    """Where a search for a width-digit pattern ends its reads below upto,
    from an oracle holding `held` digits: the cache's end, then fourfold
    steps of at least 64 and 10**width digits, as in ``least``, while a
    step ends at least an eighth of upto short of it."""
    ends = [held] if held else []
    while (held := max(4 * held, 64, 10**width)) < upto and (upto - held) * 8 >= upto:
        ends.append(held)
    return ends


# (self-test size, pattern width, read end) for every read that ends inside
# the first 4500 digits: a width-w search reads up to 10**w at once, so from
# 4 digits on the only end left there is the self-test's
STEP_ENDS = [
    (self_test, width, edge)
    for self_test in (0, 500, 1000)
    for width in range(2, 9)
    for edge in _read_ends(self_test, width, 4500)
]


@st.composite
def _searches(draw):
    """(pattern, horizon, limit, self-test size): random patterns, and
    patterns cut from pi across the end of a read the search makes."""
    self_test, width, edge = draw(st.sampled_from(STEP_ENDS))
    cut = edge - draw(st.integers(1, width - 1))
    pattern = draw(
        st.text("0123456789", min_size=1, max_size=7) | st.just(PI_5000[cut : cut + width])
    )
    horizon = draw(st.integers(0, 4500) | st.integers(edge - width, edge + width))
    limit = draw(
        st.integers(0, 5000) | st.integers(edge - width, edge + width) | st.just(10**6)
    )
    return pattern, horizon, limit, self_test


@pytest.mark.parametrize(
    "self_test, edge", [(0, 1024), (0, 4096), (500, 500), (500, 2000), (1000, 1000), (1000, 4000)]
)
@pytest.mark.parametrize("before", range(1, 8))
def test_a_match_across_a_step_end_is_found(self_test, edge, before, monkeypatch):
    # an 8-digit pattern starting `before` digits ahead of a read's end
    # first matches there, half in one read and half in the next. Below
    # 10**8 the only end such a search has is the cache's, so the oracle
    # first grows from its self-test to hold `edge` digits
    pattern = PI_5000[edge - before : edge - before + 8]
    orc = DigitOracle(self_test_digits=self_test)
    orc.digits(edge)
    assert len(orc._cache) == edge and _read_ends(edge, 8, edge + 15) == [edge]
    sizes = _computed_digits(monkeypatch)
    assert pattern_property(pattern, orc).least(edge + 8) == edge - before + 1
    assert sizes == [edge + 15]
    assert scan_reference(pattern_property(pattern), edge + 8) == edge - before + 1


# patterns whose first match in pi crosses the end of a growth read from an
# empty cache: the read of 10**3 at 3 digits, the 10**4 one at 4. The window
# ends at twice the read's end, far enough for that read not to be the last
@pytest.mark.parametrize("width, edge, before", [(3, 1000, 2), (4, 10**4, 3)])
def test_a_match_across_a_growth_read_end_is_found(width, edge, before, monkeypatch):
    start = edge - before
    pattern = default_oracle().digits(start + width)[start:]
    horizon = 2 * edge
    assert edge in _read_ends(0, width, horizon + width - 1)
    orc = DigitOracle(self_test_digits=0)
    sizes = _computed_digits(monkeypatch)
    assert pattern_property(pattern, orc).least(horizon) == start + 1
    assert sizes == [edge, horizon + width - 1]
    assert scan_reference(pattern_property(pattern), horizon) == start + 1


@settings(max_examples=150, deadline=None)
@given(_searches())
def test_pattern_search_agrees_with_the_position_by_position_scan(search):
    # same least witness, or both refuse; each side on a fresh oracle, so
    # the search grows its own prefix from the self-test's
    pattern, horizon, limit, self_test = search

    def fresh():
        return pattern_property(pattern, DigitOracle(self_test_digits=self_test, limit=limit))

    expected = _answer_or_refused(lambda: scan_reference(fresh(), horizon))
    assert _answer_or_refused(lambda: fresh().least(horizon)) == expected
    assert _answer_or_refused(lambda: critical_number(fresh(), horizon).found_at) == expected
    orc = DigitOracle(self_test_digits=self_test, limit=limit)
    assert _answer_or_refused(lambda: find_pattern(pattern, horizon, orc)) == expected


def _computed_digits(monkeypatch):
    """Record the size of every Chudnovsky read."""
    sizes = []
    real = _pi_backends.chudnovsky_digits

    def recording(n, series=None):
        sizes.append(n)
        return real(n, series)

    monkeypatch.setattr(_pi_backends, "chudnovsky_digits", recording)
    return sizes


@settings(max_examples=100, deadline=None)
@given(_searches())
def test_a_search_computes_no_digit_past_its_window(search):
    pattern, horizon, limit, self_test = search
    orc = DigitOracle(self_test_digits=self_test, limit=limit)
    held = len(orc._cache)
    with pytest.MonkeyPatch.context() as mp:
        sizes = _computed_digits(mp)
        _answer_or_refusal(lambda: pattern_property(pattern, orc).least(horizon))
    bound = min(horizon + len(pattern) - 1, limit)
    assert all(n <= bound for n in sizes)
    assert len(orc._cache) <= max(held, bound)


def test_a_found_witness_stops_the_search(monkeypatch):
    # the six nines lie inside the self-test's digits: a horizon of 10**6
    # reads nothing more, with either entry point
    orc = DigitOracle()
    sizes = _computed_digits(monkeypatch)
    assert find_pattern("999999", 10**6, orc) == SIX_NINES_AT
    assert critical_number(run_property(9, 6, orc), 10**6).found_at == SIX_NINES_AT
    assert sizes == [] and len(orc._cache) == 1000
    # past a 100-digit self-test a 6-digit search reads up to 10**6 at
    # once, so its one read stops at the end of the window, 770 + 6 - 1
    orc = DigitOracle(self_test_digits=100)
    assert critical_number(run_property(9, 6, orc), 770).found_at == SIX_NINES_AT
    assert sizes == [100, 775]


def test_a_search_reads_once_below_ten_to_its_width(monkeypatch):
    # no six zeros start in the first 5000 digits: the search reads past the
    # 1000-digit self-test once, to the end of its window
    orc = DigitOracle()
    sizes = _computed_digits(monkeypatch)
    assert critical_number(run_property(0, 6, orc), 5000).found_at is None
    assert sizes == [5005]
    # "68" first starts at 605: a 2-digit search from an empty cache still
    # grows fourfold from 10**2, then stops at the end of its window
    orc = DigitOracle(self_test_digits=0)
    assert find_pattern("68", 604, orc) is None
    assert find_pattern("68", 605, orc) == 605
    assert sizes == [5005, 100, 400, 605, 606]


def test_a_read_near_the_window_end_reads_to_it(monkeypatch):
    # a read that would end less than an eighth short of the window end
    # reads the whole window instead: "68" first starts at 605, so a 2-digit
    # search whose window ends at 103 reads once, not 10**2 and then 103
    sizes = _computed_digits(monkeypatch)
    assert find_pattern("68", 102, DigitOracle(self_test_digits=0)) is None
    assert sizes == [103]
    # the same for a fourfold step: "662" first starts at 4066, and the step
    # after 10**3 would end at 4000, 402 short of the window's 4402
    assert find_pattern("662", 4400, DigitOracle(self_test_digits=0)) == 4066
    assert sizes == [103, 1000, 4402]


def test_horizon_zero_explores_nothing_whatever_the_limit():
    # the window of a horizon-0 search is empty, so no limit can cut it short
    orc = DigitOracle(self_test_digits=0, limit=3)
    assert find_pattern("999999", 0, orc) is None
    assert str(critical_number(pattern_property("999999", orc), 0)) == "none-below:0"
    assert orc._cache == ""


def test_both_searches_refuse_naming_the_whole_window():
    # the window of horizon h for a pattern of width w ends at h + w - 1
    for search in (
        lambda orc: find_pattern("999999", 1000, orc),
        lambda orc: critical_number(run_property(9, 6, orc), 1000),
    ):
        with pytest.raises(ResourceLimitError) as err:
            search(DigitOracle(limit=500))
        assert (err.value.requested, err.value.limit) == (1005, 500)


@pytest.mark.parametrize("bad", ["", "²", "1²", "٣", "12a", " 1", "-1"])
def test_patterns_must_be_ascii_digits(bad):
    # str.isdigit accepts '²' and '٣'; neither can ever match a decimal digit
    orc = DigitOracle(self_test_digits=0, limit=100)
    with pytest.raises(ValueError, match="digits 0-9"):
        pattern_property(bad, orc)
    with pytest.raises(ValueError, match="digits 0-9"):
        find_pattern(bad, 5, orc)


def test_pattern_and_run_properties_agree():
    p_run = run_property(9, 6)
    p_pat = pattern_property("999999")
    for n in (1, 100, SIX_NINES_AT, SIX_NINES_AT + 1):
        assert p_run.holds(n) == p_pat.holds(n)
    assert p_run.holds(SIX_NINES_AT)


def test_critical_number_format():
    search = critical_number(run_property(9, 6), 1000)
    assert search.found_at == SIX_NINES_AT
    assert str(search) == f"found-at:{SIX_NINES_AT}"
    search = critical_number(run_property(9, 6), 100)
    assert search.found_at is None
    assert str(search) == "none-below:100"


def test_negative_horizon_and_limit_are_refused():
    # a verdict names the bound it explored; a negative bound explores nothing
    orc = DigitOracle(self_test_digits=0, limit=100)
    with pytest.raises(ValueError):
        critical_number(run_property(9, 6, orc), -3)
    for pattern in ("999", "9"):
        with pytest.raises(ValueError):
            find_pattern(pattern, -1, orc)
    assert str(critical_number(run_property(9, 6, orc), 0)) == "none-below:0"
    assert find_pattern("14", 0, orc) is None


def test_berlin_r_before_witness_centers_zero():
    # digit 9, run 6: no witness below 762, so 60 stages all center 0
    pt = berlin_r(run_property(9, 6))
    assert pt.prefix(60) == (-1,) * 60
    assert apart_at(pt, zero_point(), 60).value is VerdictValue.UNKNOWN


def test_berlin_r_after_witness_jumps():
    # digit 3, run 1: least witness is position 9 (3.14159265_3_)
    p = run_property(3, 1)
    assert critical_number(p, 20).found_at == 9
    pt = berlin_r(p)
    assert pt.prefix(8) == (-1,) * 8
    # target becomes (-2)^(-9) = -1/512 from stage 9 on
    v = abs_diff_lt(pt, value_point(Fraction(-1, 512)), Fraction(1, 10**6), 60)
    assert v.holds
    v = apart_at(pt, zero_point(), 60)
    assert v.holds and v.direction == "lt"


def test_berlin_r_even_witness_positive():
    # digit 5, run 1: witness at position 4 -> target (-2)^-4 = +1/16
    p = run_property(5, 1)
    assert critical_number(p, 10).found_at == 4
    pt = berlin_r(p)
    v = abs_diff_lt(pt, value_point(Fraction(1, 16)), Fraction(1, 10**6), 50)
    assert v.holds
    v = apart_at(pt, zero_point(), 50)
    assert v.holds and v.direction == "gt"


def test_berlin_r_admissible():
    law = rng_spread()
    prefix = berlin_r(run_property(3, 1)).prefix(30)
    for k in range(1, len(prefix)):
        assert law.admits(prefix[:k], prefix[k])


def test_veldman_copies_then_reanchors():
    fam = geometric_family()
    p = run_property(3, 1)  # witness 9
    pt = veldman_f2(fam, p)
    follower = value_point(Fraction(0))
    # before stage 9 the prefix copies the follower exactly
    assert pt.prefix(8) == follower.prefix(8)
    # afterwards it settles on xi_9 = 2^-9
    v = abs_diff_lt(pt, value_point(Fraction(1, 512)), Fraction(1, 10**6), 60)
    assert v.holds
    law = rng_spread()
    prefix = pt.prefix(40)
    for k in range(1, len(prefix)):
        assert law.admits(prefix[:k], prefix[k])


def per_stage_witness(p: DecidableProperty):
    """The least witness of p visible at a stage, found as the switch
    constructions found it stage by stage: each position tested once, in
    turn, at the first stage that needs it."""
    found, tested = None, 0

    def upto(stage: int) -> Optional[int]:
        nonlocal found, tested
        while found is None and tested < stage:
            if p.holds(tested + 1):
                found = tested + 1
            tested += 1
        return found if found is not None and found <= stage else None

    return upto


@pytest.mark.parametrize("self_test", [0, 100])
@pytest.mark.parametrize("limit", [300, 5000])
@pytest.mark.parametrize("pattern", ["999999", "0123456", "26535", "3"])
def test_a_witness_point_computes_the_digits_a_per_stage_scan_computes(pattern, limit, self_test):
    # after each read the oracle holds as many digits as after testing the
    # same stages one by one, and a read past the limit refuses at the same stage
    orc, ref_orc = (DigitOracle(self_test_digits=self_test, limit=limit) for _ in range(2))
    pt = berlin_r(pattern_property(pattern, orc))
    witness = per_stage_witness(pattern_property(pattern, ref_orc))
    for n in (1, 5, 40, 70, 64, 200, 290, 400, 1500):
        refused = None
        try:
            for stage in range(1, n + 1):
                witness(stage)
        except ResourceLimitError:
            refused = stage
        if refused is None:
            assert len(pt.prefix(n)) == n
        else:
            with pytest.raises(ResourceLimitError):
                pt.prefix(n)
            assert len(pt._terms) == refused - 1
        assert len(orc._cache) == len(ref_orc._cache), n


def test_held_digits_decide_only_the_positions_asked_for():
    # the six nines start at 762; held computes no digit and answers within lo..hi
    orc = DigitOracle(self_test_digits=1000, limit=10**4)
    p = pattern_property("999999", orc)
    assert p.held(1, 10) == (None, 10)
    assert p.held(1, 800) == (762, 800)
    assert p.held(763, 2000) == (None, 995)  # the last position 1000 digits decide
    assert len(orc._cache) == 1000


def veldman_f2_reference(
    family: ConvergentFamily, p: DecidableProperty, follower: Optional[Point] = None
) -> Point:
    """Reference for veldman_f2: a private term list that reads the
    follower's terms (by default, centering the limit) until the witness k
    shows, then centers xi_k on its own terms."""
    if follower is not None and not isinstance(follower.generator.kind, Lawlike):
        raise ValueError("the follower must be lawlike")
    witness = per_stage_witness(p)
    base_rule = (
        follower.term
        if follower is not None
        else centering_rule(lambda stage: family.limit)
    )
    terms: list[int] = []

    def rule(n: int) -> int:
        while len(terms) < n:
            stage = len(terms) + 1
            k = witness(stage)
            terms.append(base_rule(stage) if k is None else centered_term(family.member(k), terms))
        return terms[n - 1]

    return Point(
        Generator(rng_spread(), Lawlike.of(rule), name=f"veldman_f2[{p.name}]")
    )


def berlin_r_reference(p: DecidableProperty) -> Point:
    """Reference for berlin_r: centers 0 until the least witness K of p is
    visible, then (-2)^(-K) forever."""
    witness = per_stage_witness(p)

    def target(stage: int):
        k = witness(stage)
        if k is None:
            return 0
        return Fraction((-1) ** k, 1 << k)

    rule = centering_rule(target)
    return Point(Generator(rng_spread(), Lawlike.of(rule), name=f"berlin_r[{p.name}]"))


def cambridge_c_reference(family: ConvergentFamily, p: DecidableProperty) -> Point:
    """Reference for cambridge_c: follows the family values a_n until the
    least witness K is visible, then stays at a_K."""
    witness = per_stage_witness(p)

    def target(stage: int):
        k = witness(stage)
        if k is None:
            return family.member(stage)
        return family.member(k)

    rule = centering_rule(target)
    return Point(
        Generator(rng_spread(), Lawlike.of(rule), name=f"cambridge_c[{p.name}]")
    )


SWITCH_CONSTRUCTIONS = [  # (construction, its reference), both as f(family, p)
    (lambda family, p: berlin_r(p), lambda family, p: berlin_r_reference(p)),
    (veldman_f2, veldman_f2_reference),
    (cambridge_c, cambridge_c_reference),
]


VELDMAN_FAMILIES = [
    geometric_family(),
    ConvergentFamily("third", Fraction(1, 3), lambda v: Fraction(1, 3) + Fraction((-1) ** v, 3 * v + 1)),
    ConvergentFamily("minus-one", Fraction(-1), lambda v: Fraction(-1) - Fraction(1, 1 << v)),
    ConvergentFamily("steps", Fraction(5, 2), lambda v: Fraction(5, 2) + Fraction(7, 8 + v)),
]
VELDMAN_PROPERTIES = [  # (property, least witness within 300 stages)
    (lambda: run_property(3, 1), 9),
    (lambda: run_property(1, 2), 94),
    (lambda: run_property(9, 6), None),  # the six nines start at 762
    (lambda: pattern_property("4"), 2),
    (lambda: pattern_property("1"), 1),
    (lambda: pattern_property("26535"), 6),
    (lambda: pattern_property("0123456"), None),
]


@pytest.mark.parametrize("family", VELDMAN_FAMILIES, ids=lambda f: f.name)
@pytest.mark.parametrize("make, witness", VELDMAN_PROPERTIES)
def test_veldman_matches_the_reference(family, make, witness):
    # berlin_r, veldman_f2 and cambridge_c each against its own reference
    assert critical_number(make(), 300).found_at == witness
    for construction, reference in SWITCH_CONSTRUCTIONS:
        pt, ref = construction(family, make()), reference(family, make())
        assert pt.generator.name == ref.generator.name
        assert pt.prefix(300) == ref.prefix(300)


def test_veldman_unwitnessed_follows_limit():
    fam = geometric_family()
    pt = veldman_f2(fam, run_property(9, 6))  # witness far beyond any horizon here
    v = coincide_refute(pt, value_point(Fraction(0)), 50)
    assert v.value is VerdictValue.UNKNOWN


def test_cambridge_freezes_at_witness():
    fam = geometric_family()
    p = run_property(3, 1)  # witness 9
    pt = cambridge_c(fam, p)
    # stays at a_9 = 2^-9 once the witness is visible
    v = abs_diff_lt(pt, value_point(Fraction(1, 512)), Fraction(1, 10**6), 60)
    assert v.holds
    # without a witness in range it tracks a_n toward the limit 0
    pt2 = cambridge_c(fam, run_property(9, 6))
    v = abs_diff_lt(pt2, zero_point(), Fraction(1, 1024), 60)
    assert v.holds


def test_oracle_cross_check_runs_once():
    # construction self-test compares two independent digit algorithms
    orc = DigitOracle(self_test_digits=50, limit=10**4)
    assert orc.digits(50) == default_oracle().digits(50)
