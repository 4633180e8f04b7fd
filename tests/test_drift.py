from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from brouwer.drift import (
    BUNDLED_DRIFTS,
    CheckingKind,
    Drift,
    DriftValidationError,
    KIND_ALIASES,
    Sqrt2Value,
    Tag,
    Wing,
    berlin_s,
    bundled_drift,
    checking_sequence,
    flatten_checking,
    rationality_descriptor,
    validate_drift,
    vienna_e,
    vienna_family,
    vienna_run,
)
from brouwer.reals import (
    VerdictValue,
    abs_diff_lt,
    apart_at,
    value_point,
    zero_point,
)
from brouwer import drift as drift_module
from brouwer.spreads import never_trace, proved_at, refuted_at, rng_spread
from references import centered_term


def test_bundled_drifts_validate():
    for name in BUNDLED_DRIFTS:
        validate_drift(bundled_drift(name), depth=4)


def test_bundled_drift_shapes():
    rr = bundled_drift("rational-right")
    assert rr.wing is Wing.RIGHT and rr.kernel_tag is Tag.IRRATIONAL
    tw = bundled_drift("two-winged-mixed")
    assert tw.wing is Wing.TWO and tw.kernel_tag is Tag.RATIONAL
    bl = bundled_drift("berlin")
    assert bl.wing is Wing.TWO and bl.kernel_tag is Tag.RATIONAL
    with pytest.raises(ValueError):
        bundled_drift("sideways")


def test_counting_refs():
    rr = bundled_drift("rational-right")
    assert [rr.counting_ref(v) for v in (1, 2, 3)] == ["c_1", "c_2", "c_3"]
    tw = bundled_drift("two-winged-mixed")
    assert [tw.counting_ref(v) for v in (1, 2, 3, 4)] == ["r_1", "l_1", "r_2", "l_2"]


@pytest.mark.parametrize("name", ["rational-right", "two-winged-mixed", "berlin"])
def test_counting_index_refs_resolve_through_the_enumeration(name):
    drift = bundled_drift(name)
    for v in range(1, 9):
        assert drift.resolve_ref(f"c_{v}") == drift.resolve_ref(drift.counting_ref(v))
    for ref in ("c_0", "r_0", "l_0", "c_-1", "r_-2", "c_x", "c_1.5", "c_", "c_٣"):
        with pytest.raises(ValueError):
            drift.resolve_ref(ref)


def test_counting_index_refs_pinned():
    half = Fraction(1, 2)
    rr, tw, bl = (bundled_drift(n) for n in ("rational-right", "two-winged-mixed", "berlin"))
    # floor(sqrt(2)/2 * 2^v) + 2 over 2^v: 3/2, 1, 7/8
    assert [rr.resolve_ref(f"c_{v}") for v in (1, 2, 3)] == [
        (Fraction(3, 2), Tag.RATIONAL), (Fraction(1), Tag.RATIONAL), (Fraction(7, 8), Tag.RATIONAL),
    ]
    # two wings interleave: c_1 = r_1, c_2 = l_1, c_3 = r_2
    assert [tw.resolve_ref(f"c_{v}") for v in (1, 2, 3)] == [
        (half, Tag.RATIONAL), (Sqrt2Value(Fraction(-1, 4)), Tag.IRRATIONAL), (half / 2, Tag.RATIONAL),
    ]
    assert [bl.resolve_ref(f"c_{v}") for v in (1, 2, 3, 4)] == [
        (half, Tag.RATIONAL), (-half, Tag.RATIONAL), (half / 2, Tag.RATIONAL), (-half / 2, Tag.RATIONAL),
    ]


@pytest.mark.parametrize("drift,message", [
    # counting values sit on the irrational kernel
    (Drift("broken", Sqrt2Value(Fraction(1, 2)), right=lambda v: Sqrt2Value(Fraction(1, 2))),
     "kernel not apart from c_1 at horizon 18"),
    (Drift("below", Fraction(0), right=lambda v: Fraction(-1, v)),
     "c_1 sits on the wrong side of the kernel"),
    (Drift("above", Fraction(0), left=lambda v: Fraction(1, v)),
     "c_1 sits on the wrong side of the kernel"),
    (Drift("flat", Fraction(0), right=lambda v: Fraction(1)),
     "counting numbers c_1, c_2 not apart at horizon 22"),
])
def test_validate_drift_catches_degenerate_counting_numbers(drift, message):
    with pytest.raises(DriftValidationError) as ei:
        validate_drift(drift, depth=2)
    assert str(ei.value) == message


# the tags the bundled drifts declared before tags were read off the values:
# the kernel's, then those of c_1..c_8, r_1..r_8 and l_1..l_8 ("" where the
# drift has no such wing); R is rational, I irrational
DECLARED_TAGS = {
    "rational-right": ("I", "RRRRRRRR", "RRRRRRRR", ""),
    "two-winged-mixed": ("R", "RIRIRIRI", "RRRRRRRR", "IIIIIIII"),
    "berlin": ("R", "RRRRRRRR", "RRRRRRRR", "RRRRRRRR"),
}
LETTER = {Tag.RATIONAL: "R", Tag.IRRATIONAL: "I"}


def read_tags(drift, head: str) -> str:
    try:
        return "".join(LETTER[drift.resolve_ref(f"{head}_{v}")[1]] for v in range(1, 9))
    except ValueError:
        return ""


@pytest.mark.parametrize("name", sorted(BUNDLED_DRIFTS))
def test_tags_read_off_the_values_are_the_declared_ones(name):
    drift = bundled_drift(name)
    assert drift.resolve_ref("c")[1] is drift.kernel_tag
    got = (LETTER[drift.kernel_tag],) + tuple(read_tags(drift, head) for head in "crl")
    assert got == DECLARED_TAGS[name]


def test_a_zero_multiple_of_sqrt2_reads_rational():
    zero = Drift("z", Sqrt2Value(Fraction(0)), right=lambda v: Sqrt2Value(Fraction(0)))
    assert zero.kernel_tag is Tag.RATIONAL
    assert zero.resolve_ref("c_1") == (Sqrt2Value(Fraction(0)), Tag.RATIONAL)
    assert Drift("s", Sqrt2Value(Fraction(-1, 3)), right=lambda v: 0).kernel_tag is Tag.IRRATIONAL


# validate_drift's directions at depths 1-8, '<' for lt and '>' for gt, as
# the drifts read with the floor point for irrational values: centring
# every value moves some witnesses by a stage, never a direction
VALIDATE_DIRECTIONS = {
    "berlin": (
        "<", "<>>", "<><>><", "<><>>>><<>", "<><><>>>><<<>><", "<><><>>>>>><<<<>>><<>",
        "<><><><>>>>>><<<<<>>>><<<>><", "<><><><>>>>>>>><<<<<<>>>>><<<<>>><<>",
    ),
    "rational-right": (
        "<", "<<>", "<<<>>>", "<<<<>>>>>>", "<<<<<>>>>>>>>>>", "<<<<<<>>>>>>>>>>>>>>>",
        "<<<<<<<>>>>>>>>>>>>>>>>>>>>>", "<<<<<<<<>>>>>>>>>>>>>>>>>>>>>>>>>>>>",
    ),
}
VALIDATE_DIRECTIONS["two-winged-mixed"] = VALIDATE_DIRECTIONS["berlin"]


@pytest.mark.parametrize("name", sorted(BUNDLED_DRIFTS))
def test_validate_drift_directions_pinned(name):
    for depth, want in enumerate(VALIDATE_DIRECTIONS[name], 1):
        got = validate_drift(bundled_drift(name), depth)
        assert [(v.value, v.direction) for v in got] == [
            (VerdictValue.HOLDS, "lt" if d == "<" else "gt") for d in want
        ]


def test_convergence_modulus():
    # least v with 2^(1-v) < eps
    rr = bundled_drift("rational-right")
    for eps, stage in [(Fraction(1, 2), 3), (Fraction(1, 8), 5), (Fraction(1, 100), 8)]:
        assert rr.convergence_modulus(eps) == stage


KINDS = (CheckingKind.DIRECT, CheckingKind.OSCILLATORY, CheckingKind.CONDITIONAL)


def drift_for(kind: CheckingKind):
    return bundled_drift("two-winged-mixed" if kind is CheckingKind.OSCILLATORY else "rational-right")


def kinds_of(drift):
    return KINDS if drift.wing is Wing.TWO else (CheckingKind.DIRECT, CheckingKind.CONDITIONAL)


def expected_terms(drift, kind, trace, n):
    if trace.resolution.kind == "never":
        ref = None
    elif kind is CheckingKind.CONDITIONAL and trace.resolution.kind == "refuted":
        ref = None
    elif kind is CheckingKind.DIRECT:
        ref = drift.counting_ref(trace.resolution.stage)
    elif kind is CheckingKind.OSCILLATORY:
        side = "r" if trace.resolution.kind == "proved" else "l"
        ref = f"{side}_{trace.resolution.stage}"
    else:
        ref = drift.counting_ref(trace.resolution.stage)
    if ref is None:
        return ("c",) * n, "kernel"
    s = trace.resolution.stage
    return tuple(ref if i >= s else "c" for i in range(1, n + 1)), ref


@given(st.sampled_from(KINDS), st.integers(1, 7), st.sampled_from(["proved", "refuted", "never"]))
@settings(max_examples=60)
def test_checking_sequence_against_closed_form(kind, stage, res):
    trace = {"proved": proved_at, "refuted": refuted_at}.get(res, lambda s: never_trace())(stage)
    drift = drift_for(kind)
    run = checking_sequence(drift, kind, trace, 9)
    terms, limit = expected_terms(drift, kind, trace, 9)
    assert run.terms == terms
    assert run.limit == limit


def test_oscillatory_needs_two_wings():
    needs = "an oscillatory checking number needs a two-winged drift"
    with pytest.raises(ValueError, match=needs):
        checking_sequence(bundled_drift("rational-right"), CheckingKind.OSCILLATORY, proved_at(2), 4)
    with pytest.raises(ValueError, match=needs):
        flatten_checking(bundled_drift("rational-right"), CheckingKind.OSCILLATORY, proved_at(2))
    with pytest.raises(ValueError, match=needs):
        rationality_descriptor(bundled_drift("rational-right"), CheckingKind.OSCILLATORY, never_trace())


def test_kind_aliases():
    assert KIND_ALIASES["osc"] is CheckingKind.OSCILLATORY
    assert KIND_ALIASES["direct"] is CheckingKind.DIRECT
    assert KIND_ALIASES["cond"] is CheckingKind.CONDITIONAL


def test_rationality_descriptor_is_declarative():
    rr = bundled_drift("rational-right")
    lc = rationality_descriptor(rr, CheckingKind.DIRECT, never_trace())
    assert lc == {"kind": "kernel-class", "kernel_tag": "irrational"}
    lc = rationality_descriptor(rr, CheckingKind.DIRECT, proved_at(4))
    assert lc == {"kind": "rational"}
    lc = rationality_descriptor(rr, CheckingKind.CONDITIONAL, refuted_at(4))
    assert lc == {"kind": "kernel-class", "kernel_tag": "irrational"}
    tw = bundled_drift("two-winged-mixed")
    lc = rationality_descriptor(tw, CheckingKind.OSCILLATORY, refuted_at(3))
    assert lc == {"kind": "irrational"}  # left wing carries the irrationals


def test_flatten_checking_admissible_and_convergent():
    law = rng_spread()
    for name in BUNDLED_DRIFTS:
        drift = bundled_drift(name)
        for kind in kinds_of(drift):
            for trace in (never_trace(), proved_at(3), refuted_at(2)):
                pt = flatten_checking(drift, kind, trace)
                prefix = pt.prefix(25)
                for k in range(1, len(prefix)):
                    assert law.admits(prefix[:k], prefix[k])


def test_a_drift_is_winged_by_its_families():
    right = lambda v: Fraction(1, 1 << v)
    left = lambda v: Fraction(-1, 1 << v)
    assert Drift("r", Fraction(0), right=right).wing is Wing.RIGHT
    assert Drift("l", Fraction(0), left=left).wing is Wing.LEFT
    assert Drift("t", Fraction(0), right, left).wing is Wing.TWO
    with pytest.raises(ValueError):
        Drift("none", Fraction(0))


@pytest.mark.parametrize("name", sorted(BUNDLED_DRIFTS))
def test_flattened_point_centres_the_symbolic_run(name):
    # term n of the point centres the exact value of the n-th symbolic term,
    # the kernel standing for "c"
    horizon = 40
    drift = bundled_drift(name)
    traces = [never_trace()]
    traces += [make(s) for make in (proved_at, refuted_at) for s in range(1, 7)]
    for kind in kinds_of(drift):
        for trace in traces:
            run = checking_sequence(drift, kind, trace, horizon)
            want: list[int] = []
            for ref in run.terms:
                value = drift.kernel_value if ref == "c" else drift.resolve_ref(ref)[0]
                want.append(centered_term(value, want))
            assert flatten_checking(drift, kind, trace).prefix(horizon) == tuple(want)


def test_reading_a_checking_number_builds_no_point(monkeypatch):
    # validate_drift imports value_point from reals when called, so the hook goes there
    built = []
    monkeypatch.setattr(
        "brouwer.reals.value_point", lambda *a, **k: built.append(a) or value_point(*a, **k)
    )
    berlin_s(proved_at(3)).prefix(512)
    mixed = bundled_drift("two-winged-mixed")
    flatten_checking(mixed, CheckingKind.DIRECT, proved_at(3)).prefix(512)
    assert built == []
    # the counters do see the points validation reads: the kernel, r_1 and l_1
    validate_drift(mixed, depth=2)
    assert len(built) == 3


def test_a_checking_point_finds_its_switch_once_per_trace(monkeypatch):
    # the switch ref and its value are fixed by the trace, so a long read
    # derives them once: at construction (the kind check) and at stage 1
    switch_refs, resolved = [], []
    real_switch, real_resolve = drift_module._switch_ref, Drift.resolve_ref
    monkeypatch.setattr(
        drift_module, "_switch_ref", lambda *a: switch_refs.append(a) or real_switch(*a)
    )
    monkeypatch.setattr(Drift, "resolve_ref", lambda self, ref: resolved.append(ref) or real_resolve(self, ref))
    assert len(berlin_s(proved_at(3)).prefix(512)) == 512
    assert len(switch_refs) == 2
    assert resolved == ["r_3"]


def test_berlin_s_is_flattened_oscillatory_berlin():
    z = zero_point()
    assert berlin_s(never_trace()).prefix(6) == (-1,) * 6
    v = apart_at(berlin_s(never_trace()), z, 100)
    assert v.value is VerdictValue.UNKNOWN

    up = berlin_s(proved_at(2))
    v = apart_at(up, z, 40)
    assert v.holds and v.direction == "gt" and v.witness == 4
    # limit is +2^-2
    assert abs_diff_lt(up, value_point(Fraction(1, 4)), Fraction(1, 10**6), 60).holds

    down = berlin_s(refuted_at(2))
    v = apart_at(down, z, 40)
    assert v.holds and v.direction == "lt"
    assert abs_diff_lt(down, value_point(Fraction(-1, 4)), Fraction(1, 10**6), 60).holds


def test_vienna_family_values():
    fam = vienna_family()
    assert fam.member(1) == Fraction(1, 4)
    assert fam.member(3) == Fraction(7, 16)
    assert fam.bound == Fraction(1, 2)


def test_vienna_member_is_half_less_a_power_of_two():
    fam = vienna_family()
    for v in range(301):
        assert fam.member(v) == Fraction(1, 2) - Fraction(1, 1 << (v + 1))


def test_vienna_run_symbolic():
    assert vienna_run(never_trace(), 4) == ("a_1", "a_2", "a_3", "a_4")
    assert vienna_run(proved_at(2), 5) == ("a_1", "a_2", "a_2", "a_2", "a_2")
    assert vienna_run(refuted_at(3), 5) == ("a_1", "a_2", "a_3", "a_3", "a_3")
    assert vienna_run(proved_at(2), 0) == ()


def test_a_negative_term_count_is_refused():
    for run in (
        lambda n: vienna_run(proved_at(2), n),
        lambda n: checking_sequence(bundled_drift("berlin"), CheckingKind.DIRECT, proved_at(2), n),
    ):
        with pytest.raises(ValueError, match="term count must be non-negative"):
            run(-3)


def test_vienna_e_freezes_on_any_resolution():
    for trace, target in [
        (proved_at(3), Fraction(7, 16)),
        (refuted_at(2), Fraction(3, 8)),
        (never_trace(), Fraction(1, 2)),
    ]:
        pt = vienna_e(trace)
        assert pt.interval(25).contains_fraction(target)


def test_sqrt2_value_scaled_floor():
    import math

    s = Sqrt2Value(Fraction(1, 2))
    for k in range(0, 50, 7):
        fl = s.scaled_floor(k)
        # sqrt(2)/2 is never a dyadic rational: its ceiling is one above its floor
        assert -(-s).scaled_floor(k) == fl + 1
        # integer-only oracle: floor(sqrt(2 * 4^k) / 2) computed via isqrt
        want = math.isqrt(2 * (1 << (2 * k))) // 2
        assert fl == want
    neg = -s
    assert neg.scaled_floor(10) == -s.scaled_floor(10) - 1  # strict floor for a non-dyadic negative
