"""Acceptance gate: one timed pass/fail line per shipped guarantee.

Each test is a single numbered criterion with a wall-clock budget; the
verdict line prints even under capture so a full `pytest -v` run shows
the gate outcomes inline.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from brouwer._pi_backends import chudnovsky_digits, machin_digits
from brouwer.derivation import (
    BUNDLED_SCRIPTS,
    Rejected,
    ScriptSyntaxError,
    check_script,
    ks_prerequisite_report,
    parse_script,
)
from brouwer.drift import CheckingKind, berlin_s, bundled_drift, checking_sequence
from brouwer.dyadic import (
    IntervalRelation,
    admissible_successors,
    interval_relate,
    lambda_interval,
)
from brouwer.fleeing import default_oracle, find_pattern
from brouwer.logic import SweepBounds, forces, principle_suite
from brouwer.reals import (
    PairRelation,
    Point,
    abs_diff_lt,
    apart_at,
    continuity_modulus,
    decide_pairs,
    delay_map,
    identity_map,
    lt_at,
    mapped_point,
    negation_map,
    value_point,
    virtual_order_check,
    zero_point,
)
from brouwer.spreads import (
    Generator,
    Lawlike,
    never_trace,
    proved_at,
    refuted_at,
    rng_spread,
)
from brouwer.dyadic import Dyadic


@pytest.fixture
def report(capsys):
    @contextmanager
    def gate(num: int, label: str, budget: float):
        t0 = time.perf_counter()
        try:
            yield
        except BaseException:
            dt = time.perf_counter() - t0
            with capsys.disabled():
                print(f"FAIL criterion {num} [{dt:5.2f}s / {budget:g}s]: {label}")
            raise
        dt = time.perf_counter() - t0
        ok = dt < budget
        with capsys.disabled():
            print(
                f"{'PASS' if ok else 'FAIL'} criterion {num} "
                f"[{dt:5.2f}s / {budget:g}s]: {label}"
            )
        assert ok, f"criterion {num} blew its {budget}s budget: {dt:.2f}s"

    return gate


def test_criterion_1_interval_laws(report):
    with report(1, "interval laws, exhaustive n<=16 |a|<=64", 1.0):
        for n in range(1, 17):
            for a in range(-64, 65):
                iv = lambda_interval(n, a)
                assert iv.length.as_fraction() == Fraction(2, 2 ** n)
                assert iv.lo.as_fraction() == Fraction(a, 2 ** n)
                for z in admissible_successors(a):
                    child = lambda_interval(n + 1, z)
                    assert interval_relate(iv, child) is IntervalRelation.CONTAINS


def test_criterion_2_pi_oracle(report):
    with report(2, "pi oracle: dual algorithms, six-nines, no 0..9 run below 1e6", 30.0):
        assert chudnovsky_digits(1000) == machin_digits(1000)
        oracle = default_oracle()
        own_scan = oracle.digits(1000).find("999999") + 1
        assert own_scan >= 1, "six nines not within the first 1000 digits"
        assert find_pattern("999999", 1000, oracle) == own_scan == 762
        assert find_pattern("0123456789", 10 ** 6, oracle) is None


def test_criterion_3_principle_suite(report):
    with report(3, "principle suite over all models within bounds", 120.0):
        suite = principle_suite(SweepBounds())
        assert suite.monotone_ok, "a swept formula mask was not persistent"
        for name in ("ic1", "ic2", "ic3", "md"):
            result = suite.results[name]
            assert result.valid_up_to_bounds, name
            assert result.models_checked == 1254
        cs4 = suite.results["cs4"].countermodel
        cs5 = suite.results["cs5"].countermodel
        assert cs4 is not None and cs4.model.size <= 3
        assert cs5 is not None and cs5.model.size <= 2
        for cm in (cs4, cs5):
            assert not forces(cm.model, cm.node, cm.instance)


def test_criterion_4_checking_tables(report):
    with report(4, "checking-number prefixes, every kind x trace closed-form", 1.0):
        terms = 8
        traces = [("never", never_trace(), None, None)]
        for k in range(1, 6):
            traces.append((f"proved@{k}", proved_at(k), "proved", k))
            traces.append((f"refuted@{k}", refuted_at(k), "refuted", k))
        plans = [
            (CheckingKind.DIRECT, bundled_drift("rational-right")),
            (CheckingKind.OSCILLATORY, bundled_drift("two-winged-mixed")),
            (CheckingKind.CONDITIONAL, bundled_drift("rational-right")),
        ]
        cases = 0
        for kind, drift in plans:
            for label, trace, outcome, k in traces:
                # closed-form expectation, written out independently:
                # conditional ignores refutations; direct switches on either
                # outcome; oscillatory picks the wing by the outcome
                if outcome is None or (
                    kind is CheckingKind.CONDITIONAL and outcome == "refuted"
                ):
                    switch = None
                elif kind is CheckingKind.OSCILLATORY:
                    switch = ("r_" if outcome == "proved" else "l_") + str(k)
                else:
                    switch = drift.counting_ref(k)
                want = tuple(
                    switch if (switch is not None and n >= k) else "c"
                    for n in range(1, terms + 1)
                )
                run = checking_sequence(drift, kind, trace, terms)
                assert run.terms == want, (kind, label)
                assert run.limit == (switch if switch is not None else "kernel")
                cases += 1
        assert cases == 33  # 3 kinds x (1 never + 5 proved + 5 refuted)


def test_criterion_5_bundled_derivations(report):
    with report(5, "bundled derivations verify; mutations rejected; ks report live", 5.0):
        conclusions = {
            "vienna-dense": "(alpha! | ~alpha!) & ~e_is_half",
            "drift-direct": "~rat_d | ~~rat_d",
            "conditional-ks": "~~rat_f",
            "cambridge-reduced": "alpha! & ~c_is_zero",
        }
        from brouwer.logic import show

        for name, want in conclusions.items():
            result = check_script(BUNDLED_SCRIPTS[name])
            assert result.ok, (name, getattr(result, "reason", None))
            assert show(result.conclusion) == want

        # the conditional argument stands without any stage collapse
        ks = parse_script(BUNDLED_SCRIPTS["conditional-ks"])
        assert all(step.rule != "CS5R-inst" for step in ks.steps)

        # single-step corruption is always caught
        for name, source in BUNDLED_SCRIPTS.items():
            lines = source.splitlines()
            for i, raw in enumerate(lines):
                body = raw.split("#", 1)[0].strip()
                if not body or not body[0].isdigit():
                    continue
                num, _, rest = body.partition(":")
                formula, _, rule = rest.rpartition(";")
                mutated = list(lines)
                mutated[i] = f"{num}: ~({formula.strip()}) ; {rule.strip()}"
                try:
                    verdict = check_script("\n".join(mutated))
                except ScriptSyntaxError:
                    continue
                assert isinstance(verdict, Rejected), (name, i)

        # the classical shortcut's two missing rules have live countermodels
        blocked = ks_prerequisite_report().blocked
        assert [b.schema for b in blocked] == ["cs4", "cs5"]
        for b in blocked:
            cm = b.countermodel
            assert not forces(cm.model, cm.node, cm.instance)


def _random_continuation(base: Point, shared: int, length: int, rng) -> Point:
    head = list(base.prefix(shared))
    while len(head) < length:
        head.append(2 * head[-1] + rng.randint(0, 2))
    terms = tuple(head)
    return Point(Generator(rng_spread(), Lawlike.of(lambda k: terms[k - 1])))


def test_criterion_6_continuity_moduli(report):
    with report(6, "continuity moduli closed forms + sampled soundness", 10.0):
        rng = random.Random(20260815)
        base = _random_continuation(value_point(Fraction(3, 7)), 1, 64, rng)
        maps = {
            "identity": (identity_map(), lambda m0: Dyadic(1, m0 + 4)),
            "negation": (negation_map(), lambda m0: Dyadic(1, m0 + 4)),
            "delay": (delay_map(), lambda m0: Dyadic(1, 2 * m0 + 6)),
        }
        for name, (f, expected_q) in maps.items():
            for m0 in (2, 3, 4):
                q = continuity_modulus(f, base, m0)
                assert q == expected_q(m0), (name, m0, q)
                # soundness: sharing the modulus-length prefix pins the
                # image down to within 2^-m0
                shared = f.min_input_for(m0 + 2)
                fa = mapped_point(f, base)
                bound = Fraction(1, 2 ** m0)
                for _ in range(100):
                    x = _random_continuation(base, shared, 64, rng)
                    fx = mapped_point(f, x)
                    assert abs_diff_lt(fx, fa, bound, 24).holds


def test_criterion_7_checker_verdicts(report):
    with report(7, "unresolved checker: no order verdict; resolved: apart", 1.0):
        zero = zero_point()
        still = berlin_s(never_trace())
        lt = lt_at(still, zero, 100)
        gt = lt_at(zero, still, 100)
        apart = apart_at(still, zero, 100)
        assert not lt.holds and lt.value.value == "unknown-at-horizon"
        assert not gt.holds and gt.value.value == "unknown-at-horizon"
        assert not apart.holds
        for trace in (proved_at(1), proved_at(3), refuted_at(2), refuted_at(5)):
            moved = berlin_s(trace)
            verdict = apart_at(moved, zero, 100)
            assert verdict.holds and verdict.direction in ("lt", "gt")


def test_criterion_8_virtual_order(report):
    with report(8, "virtual-order conditions on a 6-point sample + injections", 1.0):
        values = [0, 1, Fraction(1, 2), Fraction(-3, 4), 2, -1]
        points = [value_point(Fraction(v)) for v in values]
        table = decide_pairs(points, 48)
        clean = virtual_order_check(6, table)
        assert clean.ok and clean.violations == ()

        # injected transitivity break
        broken = dict(table)
        broken[(0, 1)] = PairRelation.GT  # real order has 0 < 1
        damaged = virtual_order_check(6, broken)
        assert not damaged.ok
        assert any(v.condition == 5 for v in damaged.violations)

        # injected missing pair: totality (conditions 3 and 4) fails
        partial = dict(table)
        del partial[(2, 3)]
        gap = virtual_order_check(6, partial)
        assert not gap.ok
        assert {v.condition for v in gap.violations} >= {3, 4}

        # injected bad congruence: declare 0 and 5 coincident, then give
        # them opposite strict relations against the same witness
        merged = dict(table)
        merged[(0, 5)] = PairRelation.EQ
        merged[(0, 4)] = PairRelation.LT
        merged[(4, 5)] = PairRelation.LT  # so 5 > 4 contradicts 0 < 4
        bent = virtual_order_check(6, merged)
        assert not bent.ok
        assert any(v.condition == 2 for v in bent.violations)
