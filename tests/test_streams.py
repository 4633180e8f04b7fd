"""One memoised term stream per point, and the one-pass coincidence refutation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from brouwer.dyadic import IntervalRelation, interval_relate, lambda_interval
from brouwer.fleeing import geometric_family, pattern_property, veldman_f2
from brouwer.reals import Point, Verdict, VerdictValue, coincide_refute, value_point
from brouwer.spreads import (
    AdmissibilityError,
    Generator,
    Lawlike,
    Process,
    centering_rule,
    emit_prefix,
    never_trace,
    proved_at,
    refuted_at,
    rng_spread,
    universal_spread,
)


def pairwise_coincide_refute(a: Point, b: Point, horizon: int) -> Verdict:
    """Reference oracle: the least h at which some pair i, j <= h is disjoint."""
    ia = [lambda_interval(n, x) for n, x in enumerate(a.prefix(horizon), 1)]
    ib = [lambda_interval(n, y) for n, y in enumerate(b.prefix(horizon), 1)]
    for h in range(1, horizon + 1):
        for i in range(1, h + 1):
            if (
                interval_relate(ia[i - 1], ib[h - 1]) is IntervalRelation.DISJOINT
                or interval_relate(ia[h - 1], ib[i - 1]) is IntervalRelation.DISJOINT
            ):
                return Verdict(VerdictValue.FAILS, horizon, witness=h)
    return Verdict(VerdictValue.UNKNOWN, horizon)


def sequence_point(law, terms: list[int]) -> Point:
    return Point(Generator(law, Lawlike(lambda n: terms[n - 1]), name="seq"))


def walk_terms(start: int, moves: list[int]) -> list[int]:
    terms = [start]
    for m in moves:
        terms.append(2 * terms[-1] + m)
    return terms


HORIZON = 24
moves = st.lists(st.integers(0, 2), min_size=HORIZON - 1, max_size=HORIZON - 1)


def walk_pairs(starts):
    """Two admissible walks on the rng spread (nested intervals) from one
    start, sharing their first `shared` moves, so refutations come early
    and late."""
    return st.tuples(starts, moves, moves, st.integers(0, HORIZON - 1)).map(
        lambda w: (walk_terms(w[0], w[1]), walk_terms(w[0], w[1][: w[3]] + w[2][w[3] :]))
    )


# the same kind of pairs on the universal spread, some terms knocked off
# course, so neither side's intervals nest
jolts = st.lists(st.sampled_from((0,) * 6 + (-2, -1, 1, 2)), min_size=HORIZON, max_size=HORIZON)
rough_pairs = st.tuples(walk_pairs(st.integers(0, 3)), jolts, jolts).map(
    lambda w: tuple([max(0, x + j) for x, j in zip(terms, js)] for terms, js in zip(w[0], w[1:]))
)


@given(walk_pairs(st.integers(-3, 3)), st.integers(0, HORIZON))
@settings(max_examples=300)
def test_coincide_matches_pairwise_scan_on_walks(pair, h):
    a, b = (sequence_point(rng_spread(), terms) for terms in pair)
    assert coincide_refute(a, b, h) == pairwise_coincide_refute(a, b, h)
    assert coincide_refute(b, a, h) == pairwise_coincide_refute(b, a, h)


@given(rough_pairs, st.integers(0, HORIZON))
@settings(max_examples=300)
def test_coincide_matches_pairwise_scan_without_nesting(pair, h):
    a, b = (sequence_point(universal_spread(), terms) for terms in pair)
    assert coincide_refute(a, b, h) == pairwise_coincide_refute(a, b, h)
    assert coincide_refute(b, a, h) == pairwise_coincide_refute(b, a, h)


def test_coincide_sees_an_early_stage_against_a_late_one():
    # the stage-1 intervals touch and the stage-2 ones overlap, but a's
    # [0, 1] at stage 1 misses b's [5/4, 7/4] at stage 2
    a = sequence_point(universal_spread(), [0, 4])
    b = sequence_point(universal_spread(), [2, 5])
    assert interval_relate(a.interval(2), b.interval(2)) is IntervalRelation.OVERLAP
    assert pairwise_coincide_refute(a, b, 2).witness == 2
    assert coincide_refute(a, b, 2).witness == 2


def counting_point(rule, calls: list[int]) -> Point:
    def counted(n: int) -> int:
        calls.append(n)
        return rule(n)

    return Point(Generator(rng_spread(), Lawlike(counted), name="counted"))


def test_lawlike_rule_called_once_per_stage():
    calls: list[int] = []
    p = counting_point(lambda n: (1 << n) - 2, calls)
    assert p.prefix(5) == (0, 2, 6, 14, 30)
    assert p.term(3) == 6
    assert p.interval(8) == lambda_interval(8, 254)
    assert p.term(12) == 4094 and p.prefix(0) == ()
    assert calls == list(range(1, 13))


def test_centering_rule_asks_its_target_in_order():
    asked: list[int] = []

    def target(stage: int):
        asked.append(stage)
        return Fraction(1, 3)

    rule = centering_rule(target)
    assert rule(6) == emit_prefix(Generator(rng_spread(), Lawlike(rule)), 6)[-1]
    rule(3), rule(9)
    assert asked == list(range(1, 10))


def test_veldman_rule_reads_its_chain_in_any_order():
    # "4" first shows at position 2: the chain centers the limit, then re-anchors
    rule = veldman_f2(geometric_family(), pattern_property("4")).generator.kind.rule
    fresh = veldman_f2(geometric_family(), pattern_property("4")).prefix(9)
    assert [rule(n) for n in (6, 2, 9, 1)] == [fresh[n - 1] for n in (6, 2, 9, 1)]


def switcher_strategy(prefix, trace):
    seen = trace.visible_at(len(prefix) + 1)
    base = prefix[-1] * 2 if prefix else 0
    return base + (2 if seen else 0)


def test_process_point_keeps_a_stream_per_trace():
    g = Generator(rng_spread(), Process(switcher_strategy), "switcher")
    for trace in (never_trace(), proved_at(3), refuted_at(2)):
        p = Point(g, trace)
        for n in (5, 3, 8, 7, 9):
            want = emit_prefix(g, n, trace)
            assert p.prefix(n) == want
            assert p.term(n) == want[-1]
    assert Point(g, proved_at(3)).prefix(8) == (0, 0, 2, 6, 14, 30, 62, 126)
    # a continuation from a list head equals the same stages emitted fresh
    head = list(emit_prefix(g, 4, proved_at(3)))
    fresh = emit_prefix(g, 9, proved_at(3))
    assert emit_prefix(g, 9, proved_at(3), head) == fresh[4:]
    assert tuple(head) == fresh


def test_process_point_without_trace_still_refuses():
    p = Point(Generator(rng_spread(), Process(switcher_strategy), "switcher"))
    with pytest.raises(ValueError, match="requires a trace"):
        p.prefix(0)
    with pytest.raises(ValueError, match="non-negative"):
        value_point(Fraction(1, 3)).prefix(-1)


def test_derailed_rule_raises_at_its_stage_every_time():
    k = 5
    calls: list[int] = []
    p = counting_point(lambda n: 0 if n < k else 7, calls)
    for _ in range(2):
        with pytest.raises(AdmissibilityError) as err:
            p.prefix(k + 3)
        assert (err.value.stage, err.value.value, err.value.prefix) == (k, 7, (0,) * (k - 1))
    with pytest.raises(AdmissibilityError) as err:
        p.term(k)
    assert err.value.stage == k
    assert p.prefix(k - 1) == (0,) * (k - 1)
    assert p.prefix(k - 1) == (0,) * (k - 1)
    assert calls.count(k - 1) == 1  # the stages before the refused one stay in the stream


@pytest.mark.parametrize("n", [0, -1, -5])
def test_term_and_interval_indices_are_one_based(n):
    # a negative index would otherwise read the stream from its end
    p = value_point(Fraction(1, 3))
    p.prefix(8)
    for read in (p.term, p.interval):
        with pytest.raises(ValueError, match="1-based"):
            read(n)
