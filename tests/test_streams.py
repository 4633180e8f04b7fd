"""One memoised list of terms per point, one stream a read, and the coincidence refutation."""

from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

import references
from brouwer.drift import (
    BUNDLED_DRIFTS,
    CheckingKind,
    Drift,
    Sqrt2Value,
    Wing,
    berlin_s,
    bundled_drift,
    checking_sequence,
    flatten_checking,
    vienna_e,
    vienna_family,
    vienna_run,
)
from brouwer.dyadic import (
    Dyadic,
    IntervalRelation,
    interval_relate,
    lambda_interval,
)
from brouwer.errors import ResourceLimitError
from brouwer.fleeing import (
    ConvergentFamily,
    DecidableProperty,
    DigitOracle,
    berlin_r,
    cambridge_c,
    geometric_family,
    pattern_property,
    run_property,
    veldman_f2,
)
from brouwer.reals import (
    Point,
    Verdict,
    VerdictValue,
    _as_fraction,
    _switch_point,
    centered_point,
    coincide_refute,
    delay_map,
    identity_map,
    mapped_point,
    negation_map,
    value_point,
)
from brouwer.spreads import (
    AdmissibilityError,
    Generator,
    Lawlike,
    Process,
    emit_prefix,
    never_trace,
    proved_at,
    refuted_at,
    rng_spread,
    switch_terms,
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
    return Point(Generator(law, Lawlike.of(lambda n: terms[n - 1]), name="seq"))


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


@given(walk_pairs(st.integers(-3, 3)), st.integers(0, HORIZON))
@settings(max_examples=300)
def test_coincide_matches_pairwise_scan_on_walks(pair, h):
    a, b = (sequence_point(rng_spread(), terms) for terms in pair)
    assert coincide_refute(a, b, h) == pairwise_coincide_refute(a, b, h)
    assert coincide_refute(b, a, h) == pairwise_coincide_refute(b, a, h)


def test_a_point_refuses_any_law_but_the_interval_law():
    with pytest.raises(ValueError, match="rng law, not 'universal'"):
        sequence_point(universal_spread(), [0, 4])


def counting_point(rule, calls: list[int]) -> Point:
    def counted(n: int) -> int:
        calls.append(n)
        return rule(n)

    return Point(Generator(rng_spread(), Lawlike.of(counted), name="counted"))


def test_lawlike_rule_called_once_per_stage():
    calls: list[int] = []
    p = counting_point(lambda n: (1 << n) - 2, calls)
    assert p.prefix(5) == (0, 2, 6, 14, 30)
    assert p.term(3) == 6
    assert p.interval(8) == lambda_interval(8, 254)
    assert p.term(12) == 4094 and p.prefix(0) == ()
    assert calls == list(range(1, 13))


def never(stage, trace, end):
    return None, None


def test_a_centring_stream_takes_one_target_per_stage_in_order():
    asked: list[int] = []
    target = lambda stage: asked.append(stage) or Fraction(2, 7)
    g = Generator(rng_spread(), Lawlike(partial(switch_terms, target, None, never)), "c27")
    assert emit_prefix(g, 300) == value_point(Fraction(2, 7)).prefix(300)
    assert asked == list(range(1, 301))


def centring_point(target) -> Point:
    return Point(Generator(rng_spread(), Lawlike(partial(switch_terms, target, None, never)), "c"))


def test_a_centring_point_steps_on_and_reads_earlier_stages_from_its_stream():
    # a later stage reads on from the terms kept; an earlier one is read, not replayed
    asked: list[int] = []
    pt = centring_point(lambda stage: asked.append(stage) or Fraction(1, 3))
    want = value_point(Fraction(1, 3)).prefix(9)
    assert [pt.term(n) for n in (6, 6, 3, 9, 1)] == [want[n - 1] for n in (6, 6, 3, 9, 1)]
    assert asked == list(range(1, 10))


def test_a_centring_point_resumes_after_its_target_raises():
    # the next read starts a fresh stream after the stages kept
    asked: list[int] = []
    fail_at = [4]

    def target(stage: int):
        asked.append(stage)
        if stage == fail_at[0]:
            raise ResourceLimitError("no target", requested=stage, limit=stage - 1)
        return Fraction(1, 3)

    pt = centring_point(target)
    with pytest.raises(ResourceLimitError):
        pt.prefix(6)
    assert len(pt._terms) == 3
    fail_at[0] = None
    assert pt.prefix(6) == value_point(Fraction(1, 3)).prefix(6)
    assert asked == [1, 2, 3, 4, 4, 5, 6]


def test_veldman_point_reads_its_chain_in_any_order():
    # "4" first shows at position 2: the chain centres the limit, then re-anchors
    pt = veldman_f2(geometric_family(), pattern_property("4"))
    fresh = veldman_f2(geometric_family(), pattern_property("4")).prefix(9)
    assert [pt.term(n) for n in (6, 2, 9, 1)] == [fresh[n - 1] for n in (6, 2, 9, 1)]


def switcher_strategy(prefix, trace):
    seen = trace.visible_at(len(prefix) + 1)
    base = prefix[-1] * 2 if prefix else 0
    return base + (2 if seen else 0)


def test_process_point_keeps_a_stream_per_trace():
    g = Generator(rng_spread(), Process.of(switcher_strategy), "switcher")
    for trace in (never_trace(), proved_at(3), refuted_at(2)):
        p = Point(g, trace)
        for n in (5, 3, 8, 7, 9):
            want = emit_prefix(g, n, trace)
            assert p.prefix(n) == want
            assert p.term(n) == want[-1]
    assert Point(g, proved_at(3)).prefix(8) == (0, 0, 2, 6, 14, 30, 62, 126)
    # a continuation from a list head equals the same stages emitted fresh,
    # for a process, a lawlike rule and a lawlike switch point alike
    for gen, trace in (
        (g, proved_at(3)),
        (Generator(rng_spread(), Lawlike.of(lambda n: (1 << n) - 2), "one"), None),
        (veldman_f2(geometric_family(), pattern_property("4")).generator, None),
    ):
        head = list(emit_prefix(gen, 4, trace))
        fresh = emit_prefix(gen, 9, trace)
        assert emit_prefix(gen, 9, trace, head) == fresh[4:]
        assert tuple(head) == fresh


def test_process_point_without_trace_still_refuses():
    p = Point(Generator(rng_spread(), Process.of(switcher_strategy), "switcher"))
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


# --- a read hands its stream the stage it ends at ---


def recording_point(asked: list, bad_at=None) -> Point:
    """A lawlike point of zeros, but 7 at stage bad_at, whose stream records
    (the terms held, the stage the read ends at)."""

    def terms(prefix, trace, n):
        asked.append((len(prefix), n))
        return (7 if k == bad_at else 0 for k in range(len(prefix) + 1, n + 1))

    return Point(Generator(rng_spread(), Lawlike(terms), "recorded"))


def test_emission_hands_the_stream_the_reads_end():
    asked: list = []
    g = recording_point(asked).generator
    head: list[int] = []
    assert emit_prefix(g, 5, head=head) == (0,) * 5
    assert emit_prefix(g, 9, None, head) == (0,) * 4
    # a point opens one stream per read that emits, after the terms it holds
    pt = recording_point(asked)
    pt.prefix(3), pt.prefix(2), pt.term(7), pt.prefix(7), pt.interval(9)
    assert asked == [(0, 5), (5, 9), (0, 3), (3, 7), (7, 9)]


def test_no_stream_is_read_past_the_reads_end():
    # each records the stages its stream asks for: a rule's and a strategy's
    # stages, a switch's stages and ends, a witness scan's positions
    rule, strategy, switch, scan = [], [], [], []

    def switch_at(n, trace, end):
        switch.extend((n, end))
        return (n, None) if n >= 40 else (None, min(39, n + 3))

    def holds(n: int) -> bool:
        scan.append(n)
        return n == 40

    witness = DecidableProperty("at(40)", holds, None, lambda lo, hi: scan.append(hi) or (None, lo - 1))
    points = {
        "rule": (Point(Generator(rng_spread(), Lawlike.of(lambda n: rule.append(n) or 0))), rule),
        "strategy": (Point(Generator(rng_spread(), Process.of(
            lambda prefix, trace: strategy.append(len(prefix) + 1) or 0)), never_trace()), strategy),
        "switch": (_switch_point("s", Fraction(1, 3), lambda s: Fraction(1, 5), switch_at), switch),
        "witness": (berlin_r(witness), scan),
    }
    for name, (pt, asked) in points.items():
        reach = 0
        for n in (7, 3, 45, 60):
            pt.prefix(n)
            reach = max(reach, n)
            assert max(asked) <= reach, name
        # the scan stops at the witness it found in the read to 45
        assert max(asked) == (45 if name == "witness" else 60), name


@pytest.mark.parametrize("through", ["identity", "negation", "delay", "centred"])
def test_an_image_read_reads_its_base_once(through):
    asked: list = []
    need = (lambda n: 2 * n) if through == "delay" else (lambda n: n)
    image = IMAGES[through][0](recording_point(asked))
    asked.clear()  # a centred image reads its base's term 3 when built
    for n in (4, 9, 6, 30):
        image.prefix(n)
    assert [end for _, end in asked] == [need(4), need(9), need(30)]
    # a base that refuses is read once too; the image keeps what it covers
    asked.clear()
    image = IMAGES[through][0](recording_point(asked, bad_at=12))
    asked.clear()
    with pytest.raises(AdmissibilityError) as err:
        image.prefix(20)
    assert err.value.stage == 12 and [end for _, end in asked] == [need(20)]
    assert len(image._terms) == (5 if through == "delay" else 11)


# --- every centred construction against one scaled floor per stage ---

STAGES = 512
TRACES = (never_trace(), proved_at(5), refuted_at(3))


# a family with no ceiling_drops: its targets take a scaled floor per stage
THIRDS = ConvergentFamily("thirds", Fraction(0), lambda v: Fraction(1, 3 * v))


def witness_cases():
    # (name, point, target at stage n): the least witness is read off the
    # property directly, at positions 2 and 9 and past the stages (762)
    fam = geometric_family()
    for make in (lambda: pattern_property("4"), lambda: run_property(3, 1), lambda: run_property(9, 6)):
        k = make().least(STAGES)

        def switched(before, after, k=k):
            return lambda n: before(n) if k is None or n < k else after(k)

        yield f"berlin_r@{k}", berlin_r(make()), switched(
            lambda n: 0, lambda k: Fraction((-1) ** k, 1 << k)
        )
        yield f"veldman_f2@{k}", veldman_f2(fam, make()), switched(lambda n: fam.limit, fam.member)
        yield f"cambridge_c@{k}", cambridge_c(fam, make()), switched(fam.member, fam.member)
        yield f"veldman_f2[thirds]@{k}", veldman_f2(THIRDS, make()), switched(
            lambda n: THIRDS.limit, THIRDS.member
        )
        yield f"cambridge_c[thirds]@{k}", cambridge_c(THIRDS, make()), switched(
            THIRDS.member, THIRDS.member
        )


def trace_cases():
    # the symbolic runs name each stage's value
    for name in sorted(BUNDLED_DRIFTS):
        drift = bundled_drift(name)
        kinds = [CheckingKind.DIRECT, CheckingKind.CONDITIONAL]
        kinds += [CheckingKind.OSCILLATORY] if drift.wing is Wing.TWO else []
        for kind in kinds:
            for trace in TRACES:
                refs = checking_sequence(drift, kind, trace, STAGES).terms
                values = [drift.kernel_value if r == "c" else drift.resolve_ref(r)[0] for r in refs]
                yield f"{name},{kind.value},{trace}", flatten_checking(drift, kind, trace), values
    berlin = bundled_drift("berlin")
    for trace in TRACES:
        refs = checking_sequence(berlin, CheckingKind.OSCILLATORY, trace, STAGES).terms
        values = [berlin.kernel_value if r == "c" else berlin.resolve_ref(r)[0] for r in refs]
        yield f"berlin_s,{trace}", berlin_s(trace), values
        fam = vienna_family()
        values = [fam.member(int(r[2:])) for r in vienna_run(trace, STAGES)]
        yield f"vienna_e,{trace}", vienna_e(trace), values


VALUES = (Fraction(1, 3), Fraction(-22, 7), Dyadic(-5, 3), 0, 7,
          Sqrt2Value(Fraction(1, 2)), Sqrt2Value(Fraction(-3, 5)))
CENTRED = [
    *((f"value({v})", lambda v=v: value_point(v), lambda n, v=v: v) for v in VALUES),
    *((name, lambda pt=pt: pt, target) for name, pt, target in witness_cases()),
    *((name, lambda pt=pt: pt, lambda n, vs=vs: vs[n - 1]) for name, pt, vs in trace_cases()),
]


@pytest.mark.parametrize("name, point, target", CENTRED, ids=[c[0] for c in CENTRED])
def test_every_centred_point_matches_one_scaled_floor_per_stage(name, point, target):
    want = references.centred_prefix(target, STAGES)
    pt = point()
    assert emit_prefix(pt.generator, STAGES, pt.trace) == want
    # a point's stream resumes where each read stopped
    fresh = Point(pt.generator, pt.trace)
    for n in (1, 37, 36, 300, STAGES):
        assert fresh.prefix(n) == want[:n]
    # the closed form gives every term alone, in any order, and emits none;
    # a family member without ceiling_drops has none
    assert (pt._closed is None) == name.startswith("cambridge_c[thirds]")
    if pt._closed is not None:
        stages = range(STAGES, 0, -1)
        assert [pt.term(n) for n in stages] == [want[n - 1] for n in stages]
        assert pt._terms == []


def run_at(k):
    """A decidable property whose least witness is k (None: none), decided
    without digits."""
    least = lambda horizon: k if k is not None and k <= horizon else None
    return DecidableProperty(f"at({k})", lambda n: n == k, least,
                             lambda lo, hi: (k if k is not None and lo <= k <= hi else None, hi))


def switch_case(construction: str, stage, proved: bool, pick: int):
    """(the point, its target at stage n) of a switch construction whose
    switch shows at stage (None: never); pick chooses its drift or family."""
    if construction == "value":
        value = (Fraction(-22, 7), Dyadic(5, 9), 3, Sqrt2Value(Fraction(-3, 5)))[pick % 4]
        return value_point(value), lambda n: value
    if construction in ("berlin_r", "veldman_f2", "cambridge_c"):
        fam = (geometric_family(), THIRDS)[pick % 2]
        k = stage

        def switched(before, after):
            return lambda n: before(n) if k is None or n < k else after(k)

        if construction == "berlin_r":
            return berlin_r(run_at(k)), switched(lambda n: 0, lambda k: Fraction((-1) ** k, 1 << k))
        if construction == "veldman_f2":
            return veldman_f2(fam, run_at(k)), switched(lambda n: fam.limit, fam.member)
        fam = geometric_family()  # a THIRDS member has no closed form
        return cambridge_c(fam, run_at(k)), switched(fam.member, fam.member)
    trace = never_trace() if stage is None else (proved_at if proved else refuted_at)(stage)
    if construction == "vienna_e":
        fam = vienna_family()
        return vienna_e(trace), lambda n: fam.member(int(vienna_run(trace, n)[-1][2:]))
    drift = bundled_drift(sorted(BUNDLED_DRIFTS)[pick % 3])
    kinds = [CheckingKind.DIRECT, CheckingKind.CONDITIONAL]
    kinds += [CheckingKind.OSCILLATORY] if drift.wing is Wing.TWO else []
    kind = kinds[pick % len(kinds)]
    if construction == "berlin_s":
        drift, kind = bundled_drift("berlin"), CheckingKind.OSCILLATORY
    pt = berlin_s(trace) if construction == "berlin_s" else flatten_checking(drift, kind, trace)

    def target(n: int):
        ref = checking_sequence(drift, kind, trace, n).terms[-1]
        return drift.kernel_value if ref == "c" else drift.resolve_ref(ref)[0]

    return pt, target


SWITCHES = ("value", "berlin_r", "veldman_f2", "cambridge_c", "berlin_s", "vienna_e", "checking")


@given(st.sampled_from(SWITCHES), st.none() | st.integers(1, 60), st.booleans(),
       st.integers(0, 11), st.lists(st.integers(1, 120), min_size=1, max_size=16))
@settings(max_examples=250, deadline=None)
def test_a_switch_constructions_closed_form_matches_its_stream(construction, stage, proved, pick, probes):
    # the seven switch constructions, switching at stages 1-60 or never
    pt, target = switch_case(construction, stage, proved, pick)
    want = references.centred_prefix(target, 120)
    assert [pt.term(n) for n in probes] == [want[n - 1] for n in probes]
    assert pt._terms == []
    assert Point(pt.generator, pt.trace).prefix(120) == want


@given(st.sampled_from([berlin_r, veldman_f2, cambridge_c]), st.integers(0, 9), st.integers(1, 3),
       st.lists(st.integers(1, 400), min_size=1, max_size=16))
@settings(max_examples=60, deadline=None)
def test_a_witness_points_closed_form_matches_its_stream(construction, digit, run, probes):
    make = (lambda p: berlin_r(p)) if construction is berlin_r else partial(construction, geometric_family())
    pt = make(run_property(digit, run))
    want = make(run_property(digit, run)).prefix(400)
    assert [pt.term(n) for n in probes] == [want[n - 1] for n in probes]
    assert pt._terms == []


# --- a moving target drops from its last ceiling ---

FAMILIES = {"vienna": vienna_family().member, "geometric": geometric_family().member}


@given(st.sampled_from(sorted(FAMILIES)), st.integers(1, 512), st.integers(1, 64))
@settings(max_examples=200, deadline=None)
def test_a_family_drops_its_members_ceilings_at_their_own_stages(name, start, steps):
    # C_n = ceil(member(n) * 2^(n+1)); the drop into stage n is 2C_(n-1) - C_n
    member = FAMILIES[name]
    state = member.ceiling_drops(start)
    for n in range(start, min(start + steps, STAGES + 1)):
        ceil = references.ceil_scaled(member(n), n + 1)
        assert next(state) == 2 * references.ceil_scaled(member(n - 1), n) - ceil, (name, n)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_a_stepped_family_is_asked_for_a_member_once_per_stream(name):
    member, asked = FAMILIES[name], []

    def before(n: int) -> Fraction:
        asked.append(n)
        return member(n)

    before.ceiling_drops = member.ceiling_drops
    want = references.centred_prefix(member, STAGES)
    assert tuple(switch_terms(before, None, never, (), None, STAGES)) == want
    assert tuple(switch_terms(before, None, never, want[:100], None, STAGES)) == want[100:]
    assert asked == [1, 101]
    # each read that emits opens one stream after the terms kept, which asks
    # at its first stage alone; a read of kept terms asks nothing
    asked.clear()
    pt = Point(Generator(rng_spread(), Lawlike(partial(switch_terms, before, None, never))))
    for n in (5, 3, 80, 12, STAGES):
        assert pt.prefix(n) == want[:n]
    assert asked == [1, 6, 81]


# --- a fixed target's blocks of stages against one centered term per stage ---

# a block ends where its read ends; besides its random cuts the test reads
# to stages 16, 48, 112, 240 and 300, that is to scales 17, 49, 113, 241
# and 301: a dyadic with one of those exponents turns exact at a block's
# last stage, one more or less just inside the next or this one; exponent 2
# with an odd numerator ties at stage 1
READ_ENDS = (16, 48, 112, 240)
BLOCK_SCALES = [e + d for e in (2, 17, 49, 113, 241, 301) for d in (-1, 0, 1)]
block_targets = st.one_of(
    st.fractions(min_value=-50, max_value=50, max_denominator=10**6),
    st.builds(Dyadic, st.integers(-(10**6), 10**6).map(lambda v: 2 * v + 1),
              st.sampled_from(BLOCK_SCALES) | st.integers(0, 260)),
    st.integers(-50, 50),
    st.builds(Sqrt2Value, st.fractions(min_value=-50, max_value=50, max_denominator=10**4)),
)


@given(block_targets, block_targets | st.tuples(st.integers(0, 40), st.booleans()),
       st.integers(1, 320), st.integers(1, 300),
       st.lists(st.integers(1, 300), max_size=4))
@settings(max_examples=300, deadline=None)
def test_block_centring_matches_one_centered_term_per_stage(before, after, switch, ahead, cuts):
    # the switch to after shows at its stage; before that the switch_at knows
    # the stages up to `ahead` past the one asked, so blocks are cut short too;
    # an after (k, up) is before +- 2^-k, which the closed form clamps on an
    # edge (a multiple of sqrt(2) first rounded up to a multiple of 2^-k)
    if isinstance(after, tuple):
        k, up = after
        t = Fraction(references.ceil_scaled(before, k), 1 << k)
        t = t if isinstance(before, Sqrt2Value) else _as_fraction(before)
        after = t + Fraction(1 if up else -1, 1 << k)

    def switch_at(n, trace, end):
        return (switch, None) if n >= switch else (None, min(switch - 1, n + ahead))

    h = 300
    want = references.centred_prefix(lambda n: before if n < switch else after, h)
    pt = _switch_point("block", before, lambda s: after, switch_at)
    probes = [n for n in (*cuts, switch - 1, switch, h) if 0 < n <= h]
    assert [pt.term(n) for n in probes] == [want[n - 1] for n in probes]
    for n in sorted({*cuts, *READ_ENDS}) + [h]:  # reads cut at fixed and random points
        assert pt.prefix(n) == want[:n], (before, after, switch, n)
    # a stream started after any emitted prefix continues it
    m = min(cuts, default=0)
    assert tuple(switch_terms(before, lambda s: after, switch_at, want[:m], None, h)) == want[m:]


# --- a stream that refused restarts from the stages kept ---


def refusing_lawlike() -> Point:
    # the witness scan tests position n with n + 5 digits: 296 needs 301
    return berlin_r(pattern_property("999999", DigitOracle(self_test_digits=0, limit=300)))


def refusing_process() -> Point:
    # the switch at stage 7 asks for c_7, which the family refuses
    def counting(v: int) -> Fraction:
        if v >= 7:
            raise ResourceLimitError(f"c_{v} refused", requested=v, limit=6)
        return Fraction(1, 1 << v)

    drift = Drift("refusing", Fraction(0), right=counting)
    return flatten_checking(drift, CheckingKind.DIRECT, proved_at(7))


# through: (the image point of a base, the stages it keeps of the base's kept)
IMAGES = {
    "direct": (lambda a: a, lambda kept: kept),
    "identity": (lambda a: mapped_point(identity_map(), a), lambda kept: kept),
    "negation": (lambda a: mapped_point(negation_map(), a), lambda kept: kept),
    "delay": (lambda a: mapped_point(delay_map(), a), lambda kept: kept // 2),
    "centred": (lambda a: centered_point(a, 3), lambda kept: kept),
}


@pytest.mark.parametrize("make, kept, requested", [
    (refusing_lawlike, 295, 301),
    (refusing_process, 6, 7),
], ids=["lawlike", "process"])
@pytest.mark.parametrize("through", sorted(IMAGES))
def test_a_resumed_stream_refuses_at_the_same_stage_every_time(make, kept, requested, through):
    image, keeps = IMAGES[through]
    pt, kept = image(make()), keeps(kept)
    start = pt.prefix(kept - 2)  # the stream stops mid-read, then resumes
    for n in (kept + 1, kept + 40, kept + 1):
        with pytest.raises(ResourceLimitError) as err:
            pt.prefix(n)
        assert err.value.requested == requested
        assert len(pt._terms) == kept
    assert pt.prefix(kept)[: kept - 2] == start
    assert pt.prefix(kept) == image(make()).prefix(kept)
