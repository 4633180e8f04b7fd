from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import bench_writer
from brouwer.reals import (
    PairRelation,
    Point,
    UndecidedPairError,
    Verdict,
    VerdictValue,
    abs_diff_lt,
    apart_at,
    center,
    centered_point,
    coincide_refute,
    continuity_modulus,
    cpf_modulus,
    decide_pairs,
    delay_map,
    identity_map,
    int_point,
    lt_at,
    lt_rational,
    mapped_point,
    negation_map,
    one_point,
    value_point,
    virtual_order_check,
    zero_point,
)
from brouwer.drift import berlin_s, vienna_e
from brouwer.errors import ResourceLimitError
from brouwer.fleeing import DigitOracle, berlin_r, pattern_property
from brouwer.spreads import (
    AdmissibilityError,
    Generator,
    Lawlike,
    Process,
    never_trace,
    proved_at,
    refuted_at,
    rng_spread,
)
import references
from references import gt_rational


def walk_point(start: int, moves: tuple[int, ...], name: str = "walk") -> Point:
    def rule(n: int) -> int:
        a = start
        for m in moves[: n - 1]:
            a = 2 * a + m
        return a

    return Point(Generator(rng_spread(), Lawlike.of(rule), name=name))


walks = st.tuples(
    st.integers(-4, 4), st.lists(st.integers(0, 2), min_size=30, max_size=30).map(tuple)
)


def test_zero_lt_one_witness():
    # a_n + 2 < b_n first at n = 3: (-? ) zero has a_n = 0, one has 2^n - 2
    v = lt_at(zero_point(), one_point(), 10)
    assert v.holds and v.witness == 3
    v = lt_at(one_point(), zero_point(), 10)
    assert v.value is VerdictValue.UNKNOWN and v.horizon == 10


def test_verdict_validation():
    with pytest.raises(ValueError):
        Verdict(VerdictValue.HOLDS, 5)          # a holding verdict needs a witness
    with pytest.raises(ValueError):
        Verdict(VerdictValue.UNKNOWN, 5, witness=2)


def test_rational_comparisons():
    v = lt_rational(zero_point(), Fraction(1, 3), 10)
    assert v.holds and v.witness == 3
    v = gt_rational(one_point(), Fraction(1, 3), 10)
    assert v.holds
    v = lt_rational(zero_point(), Fraction(0), 10)
    assert not v.holds


def test_apartness_and_coincidence():
    half = value_point(Fraction(1, 2))
    v = apart_at(zero_point(), half, 20)
    assert v.holds and v.direction == "lt"
    v = apart_at(half, zero_point(), 20)
    assert v.holds and v.direction == "gt"
    # coincidence is refutable only: distinct points refute, equal ones stay unknown
    v = coincide_refute(zero_point(), half, 20)
    assert v.value is VerdictValue.FAILS
    v = coincide_refute(zero_point(), zero_point(), 20)
    assert v.value is VerdictValue.UNKNOWN


def test_same_value_two_generators_coincide():
    a = value_point(Fraction(1, 3))
    b = centered_point(walk_point(0, (1,) * 40), 2)
    v = apart_at(a, value_point(Fraction(1, 3)), 30)
    assert v.value is VerdictValue.UNKNOWN
    assert coincide_refute(a, value_point(Fraction(1, 3)), 30).value is VerdictValue.UNKNOWN
    assert b.prefix(3)  # smoke: centered rewrite emits


@given(walks, walks, st.integers(5, 25))
@settings(max_examples=60)
def test_verdict_monotone_in_horizon(wa, wb, h):
    a, b = walk_point(*wa), walk_point(*wb)
    early = lt_at(a, b, h)
    late = lt_at(a, b, h + 5)
    if early.holds:
        # once found, the least witness never changes
        assert late.holds and late.witness == early.witness
    v_ap = apart_at(a, b, h)
    v_ap2 = apart_at(a, b, h + 5)
    if v_ap.holds:
        assert v_ap2.holds
        assert v_ap2.witness == v_ap.witness and v_ap2.direction == v_ap.direction


@given(walks, walks, st.integers(5, 20))
@settings(max_examples=60)
def test_apartness_symmetric_with_flipped_direction(wa, wb, h):
    a, b = walk_point(*wa), walk_point(*wb)
    ab = apart_at(a, b, h)
    ba = apart_at(b, a, h)
    assert ab.value == ba.value
    if ab.holds:
        assert ab.witness == ba.witness
        assert {ab.direction, ba.direction} == {"lt", "gt"}


def _first_hit(hits):
    return next((n for n, hit in enumerate(hits, 1) if hit), None)


@given(walks, walks, st.integers(1, 30), st.integers(-1, 3), st.integers(1, 30))
@settings(max_examples=300)
def test_rational_verdicts_match_fraction_arithmetic(wa, wb, k, shift, h):
    # bounds on or next to an interval end at stage k, where < and <= part
    a, b = walk_point(*wa), walk_point(*wb)
    pa, pb = a.prefix(30), b.prefix(30)
    r = Fraction(pa[k - 1] + shift, 1 << k)
    want = _first_hit(Fraction(x + 2, 1 << n) < r for n, x in enumerate(pa[:h], 1))
    assert lt_rational(a, r, h).witness == want
    want = _first_hit(Fraction(x, 1 << n) > r for n, x in enumerate(pa[:h], 1))
    assert gt_rational(a, r, h).witness == want
    bound = Fraction(abs(pa[k - 1] - pb[k - 1]) + 1 + shift, 1 << k)
    pairs = enumerate(zip(pa[:h], pb[:h]), 1)
    want = _first_hit(Fraction(abs(x - y) + 2, 1 << n) < bound for n, (x, y) in pairs)
    assert abs_diff_lt(a, b, bound, h).witness == want


def test_int_point_and_abs_diff():
    three = int_point(3)
    v = abs_diff_lt(three, value_point(3), Fraction(1, 100), 20)
    assert v.holds
    v = abs_diff_lt(three, value_point(Fraction(7, 2)), Fraction(1, 4), 20)
    assert v.value is VerdictValue.UNKNOWN  # |3 - 3.5| = 1/2 is not < 1/4
    v = abs_diff_lt(three, value_point(Fraction(7, 2)), Fraction(3, 4), 20)
    assert v.holds


def test_center_reference_values():
    assert center((0, 0, 0), 3) == (-1, -1, 0)
    with pytest.raises(ValueError):
        center((0, 0), 3)


@given(walks, st.integers(1, 12))
@settings(max_examples=40)
def test_centered_point_coincides(w, n):
    a = walk_point(*w)
    c = centered_point(a, n)
    # same point: coincidence can never be refuted
    assert coincide_refute(a, c, 25).value is VerdictValue.UNKNOWN
    # and the tail is literally shared
    assert c.prefix(20)[n:] == a.prefix(20)[n:]


@given(walks, st.integers(-3, 9), st.integers(1, 30), st.booleans())
@settings(max_examples=60)
def test_a_centred_head_is_the_recentred_prefix(w, num, n, closed):
    # the head is read off term n alone; the recursion over the whole prefix
    # is the reference
    base = (lambda: value_point(Fraction(num, 7))) if closed else (lambda: walk_point(*w))
    assert centered_point(base(), n).prefix(n) == center(base().prefix(n), n)


@pytest.mark.parametrize("name", ["value(1/3)", "zero", "berlin_s(proved at 5)"])
def test_a_centred_image_over_a_closed_form_leaves_its_base_unread(name):
    build = {"value(1/3)": lambda: value_point(Fraction(1, 3)), "zero": zero_point,
             "berlin_s(proved at 5)": lambda: berlin_s(proved_at(5))}[name]
    base = build()
    assert base._closed is not None
    image = centered_point(base, 40)
    assert base._terms == []
    assert [image.term(k) for k in range(1, 41)] == list(center(build().prefix(40), 40))
    assert base._terms == []
    for n in (0, -2):
        with pytest.raises(ValueError):
            centered_point(base, n)


def test_cpf_moduli():
    a = value_point(Fraction(1, 3))
    for m in (1, 3, 6):
        v = cpf_modulus(identity_map(), a, m, 40)
        assert v.holds and v.witness == m
        v = cpf_modulus(delay_map(), a, m, 40)
        assert v.holds and v.witness == 2 * m
        v = cpf_modulus(negation_map(), a, m, 40)
        assert v.holds and v.witness == m
    v = cpf_modulus(delay_map(), a, 30, 40)
    assert not v.holds and v.value is VerdictValue.UNKNOWN


def test_continuity_modulus_closed_forms():
    a = value_point(Fraction(1, 3))
    for m0 in (2, 3, 4):
        q_id = continuity_modulus(identity_map(), a, m0)
        assert q_id.as_fraction() == Fraction(1, 2 ** (m0 + 4))
        q_neg = continuity_modulus(negation_map(), a, m0)
        assert q_neg == q_id
        q_del = continuity_modulus(delay_map(), a, m0)
        assert q_del.as_fraction() == Fraction(1, 2 ** (2 * m0 + 6))
    # a scan that runs out hands its unknown verdict on
    v = continuity_modulus(identity_map(), a, 30, 20)
    assert v.value is VerdictValue.UNKNOWN and v.horizon == 20


def test_moduli_refuse_a_negative_horizon():
    a = value_point(Fraction(1, 3))
    with pytest.raises(ValueError):
        cpf_modulus(identity_map(), a, 3, -4)
    with pytest.raises(ValueError):
        continuity_modulus(identity_map(), a, 3, -4)
    v = cpf_modulus(identity_map(), a, 3, 0)
    assert v.value is VerdictValue.UNKNOWN and v.horizon == 0


def test_negation_map_mirrors():
    a = value_point(Fraction(1, 3))
    na = mapped_point(negation_map(), a)
    v = abs_diff_lt(na, value_point(Fraction(-1, 3)), Fraction(1, 1000), 40)
    assert v.holds


def test_delay_map_tracks_value():
    a = value_point(Fraction(1, 3))
    d = mapped_point(delay_map(), a)
    v = abs_diff_lt(d, value_point(Fraction(1, 3)), Fraction(1, 1000), 60)
    assert v.holds


# the three maps as first written: whole-prefix functions, and the image
# point's rule that re-applied its map to a fresh base prefix per term
REFERENCE_MAPS = {
    "identity": (lambda p: p, lambda m: m),
    "negation": (lambda p: tuple(-a - 2 for a in p), lambda m: m),
    "delay": (lambda p: p[: len(p) // 2], lambda m: 2 * m),
}
MAPS = {"identity": identity_map, "negation": negation_map, "delay": delay_map}


def mapped_point_reference(name: str, a: Point) -> Point:
    apply, min_input_for = REFERENCE_MAPS[name]

    def rule(n: int) -> int:
        need = max(min_input_for(n), 1)
        out = apply(a.prefix(need))
        while len(out) < n:
            need += 1
            out = apply(a.prefix(need))
        return out[n - 1]

    return Point(Generator(rng_spread(), Lawlike.of(rule), name=f"{name}({a.generator.name})"))


def _trace(kind: str, stage: int):
    return {"never": never_trace(), "proved": proved_at(stage), "refuted": refuted_at(stage)}[kind]


# a walk of 400 moves covers the 2h base stages the delay map reads at h = 200
map_bases = st.one_of(
    st.fractions(min_value=-8, max_value=8).map(lambda v: lambda: value_point(v)),
    st.tuples(st.integers(-4, 4), st.lists(st.integers(0, 2), min_size=400, max_size=400))
    .map(lambda w: lambda: walk_point(w[0], tuple(w[1]))),
    st.builds(
        lambda kind, stage: lambda: berlin_s(_trace(kind, stage)),
        st.sampled_from(["never", "proved", "refuted"]),
        st.integers(1, 40),
    ),
)


@given(st.sampled_from(sorted(MAPS)), map_bases, st.integers(0, 200))
@settings(max_examples=120, deadline=None)
def test_mapped_point_matches_the_reference(name, base, h):
    f = MAPS[name]()
    assert mapped_point(f, base()).prefix(h) == mapped_point_reference(name, base()).prefix(h)
    apply = REFERENCE_MAPS[name][0]
    p = base().prefix(h)
    for k in {*range(0, h + 1, 13), h}:
        assert f.apply(p[:k]) == apply(p[:k])


@given(st.sampled_from(sorted(MAPS)), map_bases, st.integers(-2, 70), st.integers(0, 130))
@settings(max_examples=120, deadline=None)
def test_cpf_modulus_matches_the_reference(name, base, m, horizon):
    # the scan as first written: apply the map to every prefix length in turn
    apply = REFERENCE_MAPS[name][0]
    a, ref = base(), base()
    want = next((n for n in range(1, horizon + 1) if len(apply(ref.prefix(n))) >= m), None)
    assert cpf_modulus(MAPS[name](), a, m, horizon).witness == want
    # a stream base is read as far as the scan reads it; a closed form emits nothing
    assert len(a._terms) == (0 if a._closed is not None else len(ref._terms))


def test_points_compare_without_their_stream():
    g = zero_point().generator
    a, b = Point(g), Point(g, None)
    a.prefix(5)
    assert a == b and hash(a) == hash(b) and a != Point(g, never_trace())
    assert repr(a) == f"Point(generator={g!r}, trace=None)"


@pytest.mark.parametrize("name", [*sorted(MAPS), "centred"])
def test_mapped_point_reads_only_the_base_it_needs(name):
    # a centred point recentres 16 terms off the base's closed term 16, so
    # its base holds only what the image reads
    calls = []
    base = value_point(Fraction(1, 3))
    if name == "centred":
        image, need = centered_point(base, 16), lambda h: h
        assert base._terms == []
    else:
        f = MAPS[name]()

        def term(p, n):
            calls.append(n)
            return f.term(p, n)

        image, need = mapped_point(f._replace(term=term), base), f.min_input_for
    most = 0  # a read below the longest one so far reads no base
    for h in (1, 2, 7, 64, 30, 300):
        image.prefix(h)
        most = max(most, h)
        assert len(base._terms) == need(most)
        assert need(most) == {"delay": 2 * most}.get(name, most)
    assert calls == ([] if name == "centred" else list(range(1, 301)))


@pytest.mark.parametrize("name", [*sorted(MAPS), "centred"])
@pytest.mark.parametrize("k", [2, 5, 9])
def test_a_derailed_base_refuses_at_its_stage_through_a_map(name, k):
    # index 0 at every stage, then 5 at stage k: not a successor of 0
    def derailed():
        return Point(Generator(rng_spread(), Lawlike.of(lambda n: 5 if n == k else 0)))

    h = k  # delay reads 2h >= k base stages
    if name == "centred":  # recentred below the stage before the derailment
        images = (centered_point(derailed(), k - 1),)
    else:
        images = (mapped_point(MAPS[name](), derailed()), mapped_point_reference(name, derailed()))
    for image in images:
        for _ in range(2):
            with pytest.raises(AdmissibilityError) as e:
                image.prefix(h)
            assert e.value.stage == k


def test_point_streams_script_runs():
    record = bench_writer.bench.streams((1_000,))
    assert [list(r) for r in record["rows"]] == [["point", "stages", "ms", "us_per_stage"]] * 13
    assert [(r["point"], r["stages"]) for r in record["rows"]] == [
        (name, 1_000)
        for name in ("value(1/3)", "identity(value)", "negation(value)", "delay(value)",
                     "centered(value,16)", "vienna_e(never)", "berlin_s(never)", "zero", "one",
                     "half", "berlin_r(9,6)", "value(sqrt2/2)", "negation(value) by 16")
    ]
    assert bench_writer.survives_json(record)


def test_rounds_take_each_rows_median_and_quartile_spread(monkeypatch):
    # a child may return several rows: each timed key of each row takes its
    # median and interquartile range over the rounds and, with two
    # checkouts, the rounds in which the second read lower; the child's other
    # keys are kept
    bench, calls = bench_writer.bench, []

    def child(checkout, section, horizons):
        (h,) = horizons
        calls.append((checkout, h))
        r = calls.count((checkout, h)) - 1  # the round
        ms = r if checkout == "a" else 4 - r  # "b" reads lower in rounds 3 and 4, ties in 2
        return {"backend": checkout, "rows": [
            {"point": p, "stages": h, "ms": ms + j, "us_per_stage": (ms + j) / h}
            for j, p in enumerate("xy")]}

    monkeypatch.setattr(bench, "run_child", child)
    records = bench.row_rounds(["a", "b"], "streams", (4, 8), ("ms", "us_per_stage"))
    # the first side flips from row to row and from round to round
    assert calls == [(c, h) for r in range(5) for j, h in enumerate((4, 8))
                     for c in ("ab" if (r + j) % 2 == 0 else "ba")]
    # reads 0..4 (plus the row's index): median 2, quartiles 0.5 and 3.5
    rows = [
        {"point": "x", "stages": 4, "ms": 2, "ms_iqr": 3.0, "ms_better_in": 2,
         "us_per_stage": 0.5, "us_per_stage_iqr": 0.75, "us_per_stage_better_in": 2},
        {"point": "y", "stages": 4, "ms": 3, "ms_iqr": 3.0, "ms_better_in": 2,
         "us_per_stage": 0.75, "us_per_stage_iqr": 0.75, "us_per_stage_better_in": 2},
        {"point": "x", "stages": 8, "ms": 2, "ms_iqr": 3.0, "ms_better_in": 2,
         "us_per_stage": 0.25, "us_per_stage_iqr": 0.375, "us_per_stage_better_in": 2},
        {"point": "y", "stages": 8, "ms": 3, "ms_iqr": 3.0, "ms_better_in": 2,
         "us_per_stage": 0.375, "us_per_stage_iqr": 0.375, "us_per_stage_better_in": 2},
    ]
    assert records == [{"backend": c, "rounds": 5, "rows": rows} for c in "ab"]
    # one checkout: no count of better rounds
    calls.clear()
    [record] = bench.row_rounds(["a"], "streams", (4, 8), ("ms", "us_per_stage"))
    assert record["rows"][0] == {"point": "x", "stages": 4, "ms": 2, "ms_iqr": 3.0,
                                 "us_per_stage": 0.5, "us_per_stage_iqr": 0.75}
    # the sweep's rate is taken at its median seconds
    seconds = iter([3.0, 1.0, 2.0, 6.0, 4.0])
    monkeypatch.setattr(bench, "run_child", lambda checkout, section, rows: {
        "rows": [{"models": 6, "seconds": next(seconds)}]})
    [record] = bench.row_rounds(["a"], "sweep", ((3, 2, 2),), ("seconds",))
    assert record["rows"] == [{"models": 6, "seconds": 3.0, "seconds_iqr": 3.5,
                               "models_per_s": 2.0}]

    # a count that changes between rounds stops the run
    def drifting(checkout, section, rows):
        calls.append(checkout)
        return {"rows": [{"models": len(calls), "ms": 1.0}]}

    monkeypatch.setattr(bench, "run_child", drifting)
    with pytest.raises(AssertionError, match="schemas changed its counts"):
        bench.row_rounds(["a"], "schemas", (4,), ("ms",))
    # the checks run first; every section but checks, tier1 and perfbench is
    # timed row by row
    monkeypatch.setattr(bench, "row_rounds", lambda checkouts, section, rows, keys: "rows")
    monkeypatch.setattr(bench, "run_child", lambda checkout, section: "whole")
    assert [(s, bench.run_section(s, ["a"])) for s in bench.SECTIONS] == [
        ("checks", ["whole"]), ("pi", "rows"), ("streams", "rows"), ("verdicts", "rows"),
        ("sweep", "rows"), ("schemas", "rows"), ("parse", "rows"), ("cold", "rows"),
        ("tier1", ["whole"]), ("perfbench", ["whole"])]


def test_verdict_script_runs():
    record = bench_writer.bench.verdicts((32,))
    pairs = ("value early", "value unknown", "switch early", "switch unknown", "mapped early",
             "mapped unknown")
    assert [(r["pair"], r["verdict"]) for r in record["rows"]] == [
        (pair, verdict) for pair in pairs for verdict in ("lt_at", "apart_at", "abs_diff_lt")
    ]
    # an early pair's order shows, an equal pair's distance falls below the bound
    assert [r["value"] for r in record["rows"]] == ["holds", "holds", "unknown-at-horizon",
                                                    "unknown-at-horizon", "unknown-at-horizon",
                                                    "holds"] * 3
    assert bench_writer.survives_json(record)


# --- closed forms, and verdicts that bisect on them ---

IMAGES = {
    "identity": lambda a: mapped_point(identity_map(), a),
    "negation": lambda a: mapped_point(negation_map(), a),
    "delay": lambda a: mapped_point(delay_map(), a),
    "centred": lambda a: centered_point(a, 7),
}


@pytest.mark.parametrize("make", [zero_point, one_point, lambda: int_point(-3), lambda: int_point(5)])
def test_a_fixed_points_closed_form_matches_its_stream(make):
    pt, want, stages = make(), make().prefix(300), range(300, 0, -1)
    assert [pt.term(n) for n in stages] == [want[n - 1] for n in stages]
    assert pt._terms == []


@given(st.sampled_from(sorted(IMAGES)), map_bases, st.lists(st.integers(1, 200), min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_an_images_closed_form_matches_its_stream(name, base, probes):
    # an image has a closed form exactly when its base has one; it emits nothing
    image, want = IMAGES[name](base()), IMAGES[name](base()).prefix(200)
    assert [image.term(n) for n in probes] == [want[n - 1] for n in probes]
    assert (image._closed is None) == (base()._closed is None)
    assert image._terms == [] or image._closed is None


def process_walk(start: int, moves: tuple[int, ...]) -> Point:
    """A user process walking the moves from start, whatever its trace."""
    step = lambda prefix, trace: 2 * prefix[-1] + moves[len(prefix) - 1] if prefix else start
    return Point(Generator(rng_spread(), Process.of(step), name="process"), never_trace())


# closed forms (values, int points, switch points, images) and streams (user
# lawlike rules and processes): any two make a closed, stream or mixed pair
verdict_points = st.one_of(
    map_bases,
    st.builds(lambda w: lambda: process_walk(w[0], tuple(w[1])), walks),
    st.builds(lambda m: lambda: int_point(m), st.integers(-3, 3)),
    st.builds(lambda kind, stage: lambda: vienna_e(_trace(kind, stage)),
              st.sampled_from(["never", "proved", "refuted"]), st.integers(1, 40)),
    st.builds(lambda name, v: lambda: IMAGES[name](value_point(v)),
              st.sampled_from(sorted(IMAGES)), st.fractions(min_value=-2, max_value=2)),
)


@given(verdict_points, verdict_points, st.integers(0, 30), st.integers(-1, 3), st.integers(1, 30))
@settings(max_examples=150, deadline=None)
def test_bisected_verdicts_match_the_linear_scans(make_a, make_b, h, shift, k):
    # bounds on or next to an interval end at stage k, where < and <= part
    ref_a, ref_b = make_a(), make_b()
    x, y = ref_a.prefix(30)[k - 1], ref_b.prefix(30)[k - 1]
    r, bound = Fraction(x + shift, 1 << k), Fraction(abs(x - y) + 1 + shift, 1 << k)
    a, b = make_a(), make_b()
    assert lt_at(a, b, h) == references.lt_at(ref_a, ref_b, h)
    assert lt_at(b, a, h) == references.lt_at(ref_b, ref_a, h)
    assert apart_at(a, b, h) == references.scan_apart_at(ref_a, ref_b, h)
    assert coincide_refute(a, b, h) == references.coincide_refute(ref_a, ref_b, h)
    assert lt_rational(a, r, h) == references.lt_rational(ref_a, r, h)
    assert abs_diff_lt(a, b, bound, h) == references.abs_diff_lt(ref_a, ref_b, bound, h)


def test_verdicts_between_closed_forms_start_no_stream():
    h = 20_000
    pairs = [
        (lambda: value_point(Fraction(1, 3)), lambda: value_point(Fraction(1, 3))),
        (lambda: berlin_s(proved_at(9)), zero_point),
        (lambda: mapped_point(negation_map(), vienna_e(never_trace())), one_point),
    ]
    for make_a, make_b in pairs:
        a, b = make_a(), make_b()
        got = [lt_at(a, b, h), apart_at(a, b, h), coincide_refute(a, b, h),
               abs_diff_lt(a, b, Fraction(1, 10**9), h)]
        for p in (a, b):
            assert p._terms == []
        a, b = make_a(), make_b()
        assert got == [references.lt_at(a, b, h), references.scan_apart_at(a, b, h),
                       references.coincide_refute(a, b, h),
                       references.abs_diff_lt(a, b, Fraction(1, 10**9), h)]


VERDICTS = {
    "lt_at": lambda a, b, h: lt_at(a, b, h),
    "lt_at reversed": lambda a, b, h: lt_at(b, a, h),
    "lt_rational": lambda a, b, h: lt_rational(a, Fraction(-1), h),
    "apart_at": apart_at,
    "coincide_refute": coincide_refute,
    "abs_diff_lt": lambda a, b, h: abs_diff_lt(a, b, Fraction(1, 10**9), h),
}


@pytest.mark.parametrize("verdict", sorted(VERDICTS))
def test_a_verdict_on_a_witness_point_refuses_as_its_prefix_does(verdict):
    # the six nines start at 762: a 300-digit oracle refuses at position 296
    def witness_point():
        return berlin_r(pattern_property("999999", DigitOracle(self_test_digits=0, limit=300)))

    with pytest.raises(ResourceLimitError) as want:
        witness_point().prefix(400)
    with pytest.raises(ResourceLimitError) as got:
        VERDICTS[verdict](witness_point(), zero_point(), 400)
    assert (got.value.requested, got.value.limit) == (want.value.requested, want.value.limit)
    assert VERDICTS[verdict](witness_point(), zero_point(), 290).horizon == 290


def sample_points():
    return [
        zero_point(),
        one_point(),
        value_point(Fraction(1, 2)),
        value_point(Fraction(1, 3)),
        value_point(Fraction(-3, 4)),
        int_point(2),
    ]


def test_decide_pairs_and_virtual_order():
    pts = sample_points()
    table = decide_pairs(pts, 40)
    assert table[(0, 1)] is PairRelation.LT
    assert table[(2, 5)] is PairRelation.LT  # 1/2 < 2
    report = virtual_order_check(len(pts), table)
    assert report.ok and not report.violations


def test_decide_pairs_needs_coincidence_declared():
    pts = [zero_point(), zero_point()]
    with pytest.raises(UndecidedPairError):
        decide_pairs(pts, 30)
    table = decide_pairs(pts, 30, coincident=frozenset({(0, 1)}))
    assert table[(0, 1)] is PairRelation.EQ
    assert virtual_order_check(2, table).ok


def test_virtual_order_detects_injected_violations():
    pts = sample_points()
    table = decide_pairs(pts, 40)

    # break transitivity-style consistency: claim 0 < 1 and 1 < 0
    broken = dict(table)
    broken[(1, 0)] = PairRelation.LT
    report = virtual_order_check(len(pts), broken)
    assert not report.ok

    # break congruence: 0 = 0' but they compare differently to a third point
    pts2 = [zero_point(), zero_point(), one_point()]
    t2 = decide_pairs(pts2, 30, coincident=frozenset({(0, 1)}))
    t2[(1, 2)] = PairRelation.GT
    report = virtual_order_check(3, t2)
    assert not report.ok
    assert any(v.condition == 2 for v in report.violations)

    # break totality by dropping a pair
    partial = dict(table)
    del partial[(2, 3)]
    assert not virtual_order_check(len(pts), partial).ok


@st.composite
def order_tables(draw):
    """0-6 points, each pair stored in neither, one or both orientations,
    mostly as the order of drawn values gives it, else as any relation."""
    size = draw(st.integers(0, 6))
    values = draw(st.lists(st.integers(0, 2), min_size=size, max_size=size))
    table = {}
    for i in range(size):
        for j in range(size):
            if i != j and draw(st.booleans()):
                x, y = values[i], values[j]
                true = PairRelation.EQ if x == y else PairRelation.LT if x < y else PairRelation.GT
                table[i, j] = draw(st.sampled_from([true, *PairRelation]))
    return size, table


@given(order_tables())
@settings(max_examples=400, deadline=None)
def test_virtual_order_check_matches_the_pairwise_reference(case):
    # equal reports: the same violations in the same order
    size, table = case
    assert virtual_order_check(size, table) == references.virtual_order_check(size, table)


@given(
    st.integers(-2, 2),
    st.one_of(st.none(), st.integers(-2, 2)),
    st.integers(0, 40),
    st.lists(st.integers(0, 2), min_size=40, max_size=40),
    st.lists(st.integers(0, 2), min_size=40, max_size=40),
    st.integers(1, 41),
)
@settings(max_examples=300, deadline=None)
def test_apart_at_matches_the_two_scan_reference(start_a, start_b, shared, moves_a, moves_b, h):
    # the walks share their start (start_b None) and their first `shared` moves
    a = walk_point(start_a, tuple(moves_a))
    b = walk_point(start_a if start_b is None else start_b, tuple(moves_a[:shared] + moves_b[shared:]))
    assert apart_at(a, b, h) == references.apart_at(a, b, h)
