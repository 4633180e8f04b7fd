import pytest
from hypothesis import given, settings, strategies as st

from brouwer.drift import Sqrt2Value
from brouwer.dyadic import Dyadic, interval_relate, IntervalRelation, lambda_interval, scaled_floor
from brouwer.reals import center, value_point, zero_point
from brouwer.spreads import (
    AdmissibilityError,
    EventTrace,
    Generator,
    Lawlike,
    Process,
    Resolution,
    emit_prefix,
    format_trace,
    never_trace,
    parse_trace,
    proved_at,
    refuted_at,
    rng_spread,
    switch_terms,
    universal_spread,
)
from fractions import Fraction

import references
from references import centered_term

from test_dyadic import cmp_scaled


def test_universal_admits_naturals_only():
    law = universal_spread()
    assert law.admits((), 0) and law.admits((3,), 17)
    assert not law.admits((), -1)


def test_rng_law():
    law = rng_spread()
    assert law.admits((), -7)           # any starting index
    assert law.admits((3,), 6) and law.admits((3,), 7) and law.admits((3,), 8)
    assert not law.admits((3,), 5) and not law.admits((3,), 9)
    assert law.admits((6,), 12)


def test_trace_validation_and_roundtrip():
    with pytest.raises(ValueError):
        Resolution("proved", 0)
    with pytest.raises(ValueError):
        Resolution("sideways", 3)
    for trace in (never_trace(), proved_at(4), refuted_at(1)):
        assert parse_trace(format_trace(trace)) == trace
    assert format_trace(never_trace()) == "never"
    assert format_trace(proved_at(4)) == "true:4"
    assert format_trace(refuted_at(1)) == "false:1"
    # a stage is ASCII digits, though str.isdigit also admits '٣' and '²'
    for text in ("maybe:2", "true:\u0663", "true:\u00b2"):
        with pytest.raises(ValueError, match="^malformed trace line: "):
            parse_trace(text)


def test_lawlike_flag_roundtrip():
    trace = parse_trace("true:3 lawlike")
    assert trace == EventTrace(Resolution("proved", 3), lawlike_flag=True)
    assert format_trace(trace) == "true:3 lawlike"
    assert parse_trace(format_trace(trace)) == trace
    with pytest.raises(ValueError):
        parse_trace("true:3 sideways")


def test_trace_visibility():
    tr = proved_at(3)
    assert tr.visible_at(2) is None
    assert tr.visible_at(3) is not None
    assert tr.visible_at(9).kind == "proved"
    assert never_trace().visible_at(10**6) is None


def test_lawlike_emission_checks_admissibility():
    # constant index 0 is always admissible (successors of 0 are {0,1,2})
    assert emit_prefix(Generator(rng_spread(), Lawlike.of(lambda n: 0), "z"), 5) == (0,) * 5
    # a_n = n derails at stage 3: successors of 2 are {4,5,6}, not 3
    bad = Generator(rng_spread(), Lawlike.of(lambda n: n))
    with pytest.raises(AdmissibilityError) as ei:
        emit_prefix(bad, 4)
    assert ei.value.stage == 3


def refusing_stream(terms, raise_at=None):
    """A lawlike stream of the given terms; at stage raise_at it raises."""

    def stream(prefix, trace, end):
        for n in range(len(prefix) + 1, end + 1):
            if n == raise_at:
                raise RuntimeError(f"stream fails at stage {n}")
            yield terms[n - 1]

    return Generator(rng_spread(), Lawlike(stream), "refusing")


@pytest.mark.parametrize("bad", [-1, 3, 7])
@pytest.mark.parametrize("raise_at", [None, 6, 9])
@pytest.mark.parametrize("start", [0, 1, 2])
def test_emission_keeps_the_stages_before_a_refused_term(bad, raise_at, start):
    # stage 4 is no successor of 0 (those are 0, 1, 2); the stream may fail
    # after it in the same read
    terms = [0, 0, 0, bad] + [bad << k for k in range(1, 6)]
    g = refusing_stream(terms, raise_at)
    head = terms[:start]
    with pytest.raises(AdmissibilityError) as err:
        emit_prefix(g, 9, head=head)
    assert (err.value.stage, err.value.value, err.value.prefix) == (4, bad, (0, 0, 0))
    assert head == [0, 0, 0]
    # a read that stops before the refused term keeps what it read
    head = terms[:start]
    assert emit_prefix(g, 3, head=head) == (0,) * (3 - start) and head == [0, 0, 0]


def test_emission_lets_a_stream_error_through_when_every_term_read_is_admissible():
    g = refusing_stream([0] * 9, raise_at=6)
    head: list[int] = []
    with pytest.raises(RuntimeError, match="stage 6"):
        emit_prefix(g, 9, head=head)
    assert head == [0] * 5


def test_emission_refuses_a_stream_that_ends_short_of_the_read():
    g = Generator(rng_spread(), Lawlike(lambda prefix, trace, n: iter([0] * (5 - len(prefix)))), "five")
    head: list[int] = []
    with pytest.raises(RuntimeError, match="five ended after stage 5 of 9"):
        emit_prefix(g, 9, head=head)
    assert head == [0] * 5
    assert emit_prefix(g, 5) == (0,) * 5


def test_emission_vets_a_first_term_and_any_other_law():
    # the universal law refuses a negative term, first or later
    for terms, stage in (([-1, 0], 1), ([3, 2, -4, 0], 3)):
        g = Generator(universal_spread(), Lawlike.of(lambda n, terms=terms: terms[n - 1]))
        head: list[int] = []
        with pytest.raises(AdmissibilityError) as err:
            emit_prefix(g, len(terms), head=head)
        assert err.value.stage == stage and head == terms[: stage - 1]


def test_process_requires_trace():
    g = Generator(rng_spread(), Process.of(lambda prefix, tr: 0), "p")
    with pytest.raises(ValueError):
        emit_prefix(g, 3)
    assert emit_prefix(g, 3, never_trace()) == (0, 0, 0)


@given(st.integers(-8, 8), st.lists(st.integers(0, 2), min_size=0, max_size=12))
def test_random_walks_admissible(start, moves):
    # every walk through the successor fan is admissible; emit_prefix agrees
    law = rng_spread()
    prefix = (start,)
    for m in moves:
        prefix += (2 * prefix[-1] + m,)
    g = Generator(law, Lawlike.of(lambda n: prefix[n - 1]), "walk")
    assert emit_prefix(g, len(prefix)) == prefix


def test_centering_zero_is_constant_minus_one():
    assert value_point(0).prefix(7) == (-1,) * 7


def test_centering_constant_target_contains_value():
    for target in (Fraction(1, 3), Fraction(-2, 7), Fraction(5, 8), 0, 1):
        prefix = value_point(target).prefix(19)
        law = rng_spread()
        for n, a in enumerate(prefix, start=1):
            if n > 1:
                assert law.admits(prefix[: n - 1], a)
            iv = lambda_interval(n, a)
            assert iv.contains_fraction(Fraction(target))


@given(st.fractions(min_value=-4, max_value=4))
def test_centered_term_picks_nearest_midpoint(t):
    # stage 1 from scratch, then three stages of successors
    prefix = ()
    for n in range(1, 5):
        a = centered_term(t, prefix)
        if prefix:
            assert a in (2 * prefix[-1], 2 * prefix[-1] + 1, 2 * prefix[-1] + 2)
        # chosen index has midpoint at distance <= 2^-(n+1) + slack of ties
        mid = Fraction(a + 1, 1 << n)
        others = (
            (2 * prefix[-1], 2 * prefix[-1] + 1, 2 * prefix[-1] + 2)
            if prefix
            else (a - 1, a, a + 1)
        )
        for other in others:
            omid = Fraction(other + 1, 1 << n)
            assert abs(mid - t) <= abs(omid - t)
        prefix += (a,)


def _nearer_reference(target, n, a_small, a_big):
    # midpoints are (a+1)/2^n; compare target*2^(n+1) against their sum
    return a_small if cmp_scaled(target, n + 1, (a_small + 1) + (a_big + 1)) <= 0 else a_big


def centered_term_reference(target, prefix):
    """The centering emitter as first written: two pairwise midpoint
    comparisons per stage, each taking its own scaled floor."""
    n = len(prefix) + 1
    if not prefix:
        f = scaled_floor(target, 1)
        return _nearer_reference(target, 1, f - 1, f)
    a = prefix[-1]
    best = 2 * a
    for cand in (2 * a + 1, 2 * a + 2):
        best = _nearer_reference(target, n, best, cand)
    return best


centering_targets = st.one_of(
    st.fractions(min_value=-50, max_value=50),
    st.builds(Dyadic, st.integers(-10**6, 10**6), st.integers(0, 40)),
    st.integers(-50, 50),
    st.builds(Sqrt2Value, st.fractions(min_value=-50, max_value=50)),
)


@given(
    centering_targets,
    st.integers(0, 60),
    st.integers(-70, 70),
    st.lists(st.integers(0, 2), max_size=60),
)
@settings(max_examples=400)
def test_centered_term_matches_the_reference(target, centred, start, moves):
    # a centred chain of up to 60 stages, then an arbitrary walk, so the
    # prefix ends anywhere from on the target to far away from it
    prefix = []
    while True:
        want = centered_term_reference(target, prefix)
        assert centered_term(target, prefix) == want, (target, prefix)
        if len(prefix) < centred:
            prefix.append(want)
        elif moves and len(prefix) < 60:
            prefix.append(2 * prefix[-1] + moves.pop() if prefix else start)
        else:
            break


def no_switch(stage, trace, end):
    return None, None


@given(
    st.lists(st.tuples(centering_targets, st.integers(1, 30)), min_size=1, max_size=6),
    st.integers(0, 100),
)
@settings(max_examples=200)
def test_a_stream_matches_one_centered_term_per_stage(runs, resume_at):
    # each target holds for a run of stages as one object, so the stream
    # steps its floor state, then changes at a random stage; the last holds
    schedule = [t for t, length in runs for _ in range(length)]
    h = len(schedule) + 40

    def target_at(n: int):
        return schedule[min(n, len(schedule)) - 1]

    want = references.centred_prefix(target_at, h)
    assert tuple(switch_terms(target_at, None, no_switch, (), None, h)) == want
    # a stream started after any emitted prefix continues it
    m = min(resume_at, h)
    assert tuple(switch_terms(target_at, None, no_switch, want[:m], None, h)) == want[m:]


def test_process_strategy_sees_trace():
    def strategy(prefix, trace):
        seen = trace.visible_at(len(prefix) + 1)
        base = prefix[-1] * 2 if prefix else 0
        return base + (2 if seen else 0)

    g = Generator(rng_spread(), Process.of(strategy), "switcher")
    assert emit_prefix(g, 4, never_trace()) == (0, 0, 0, 0)
    assert emit_prefix(g, 4, proved_at(3)) == (0, 0, 2, 6)


def test_a_centering_process_matches_the_value_point():
    # the strategy reads the emitter's own list, which grows stage by stage
    strategy = lambda prefix, trace: centered_term(Fraction(1, 3), prefix)
    g = Generator(rng_spread(), Process.of(strategy), "c13")
    assert emit_prefix(g, 10, never_trace()) == value_point(Fraction(1, 3)).prefix(10)


def test_zero_point_takes_index_zero_at_every_stage():
    # intervals [0, 2^(1-n)], the point zero
    assert zero_point().prefix(4) == (0, 0, 0, 0)


def test_center_recursion_reference():
    assert center((0, 0, 0), 3) == (-1, -1, 0)
    # the recentered prefix is admissible and its early intervals contain
    # the interval at the pivot index
    law = rng_spread()
    for prefix, n in [((0, 0, 0), 3), ((5, 11, 24, 50), 4), ((-3, -5, -9), 2)]:
        out = center(prefix, n)
        assert out[n - 1 :] == prefix[n - 1 :]
        for k in range(1, len(out)):
            assert law.admits(out[:k], out[k])
        pivot = lambda_interval(n, prefix[n - 1])
        for k in range(1, n):
            assert interval_relate(pivot, lambda_interval(k, out[k - 1])) in (
                IntervalRelation.CONTAINED_IN,
                IntervalRelation.CONTAINS,
            )
