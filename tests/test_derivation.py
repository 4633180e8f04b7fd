"""Derivation scripts: parsing, rule checking, and semantic soundness."""

import functools
import gc
import itertools
import json
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bench_writer
from brouwer.derivation import (
    BUNDLED_SCRIPTS,
    _parse_rule,
    _script_formula,
    Rejected,
    Script,
    ScriptSyntaxError,
    Step,
    Verified,
    check_script,
    ks_prerequisite_report,
    parse_script,
)
from brouwer.errors import ResourceLimitError
from brouwer.logic import (
    BOT,
    And,
    Atom,
    Box,
    Implies,
    Not,
    Or,
    SomeStage,
    StageTree,
    SweepBounds,
    _upclosed_sets,
    atoms_of,
    forces,
    is_stage_free,
    load_model,
    parse,
    show,
    validity_sweep,
)
from references import _parse_rule as reference_parse_rule
from references import _script_formula as reference_script_formula
from references import check_script as reference_check_script
from references import enumerate_shapes, reference_parse_script

EXPECTED = {
    "vienna-dense": ("(alpha! | ~alpha!) & ~e_is_half", 13, 1),
    "drift-direct": ("~rat_d | ~~rat_d", 14, 0),
    "conditional-ks": ("~~rat_f", 14, 0),
    "cambridge-reduced": ("alpha! & ~c_is_zero", 15, 1),
}


@pytest.mark.parametrize("name", sorted(BUNDLED_SCRIPTS))
def test_bundled_scripts_verify(name):
    conclusion, steps, warning_count = EXPECTED[name]
    result = check_script(BUNDLED_SCRIPTS[name])
    assert isinstance(result, Verified), getattr(result, "reason", None)
    assert show(result.conclusion) == conclusion
    assert result.step_count == steps
    assert len(result.warnings) == warning_count
    for w in result.warnings:
        assert "stage collapse" in w and "lawlike" in w
    doc = result.as_dict()
    assert doc["status"] == "verified" and doc["conclusion"] == conclusion
    json.dumps(doc)  # must be serializable as-is


@pytest.mark.parametrize("name", sorted(BUNDLED_SCRIPTS))
def test_checking_a_script_leaves_no_reference_cycle(name):
    # show and the schema matcher recurse through module-level helpers; a
    # nested self-recursive one would leave a cycle at every call
    gc.collect()
    gc.disable()
    try:
        for _ in range(5):
            assert check_script(BUNDLED_SCRIPTS[name]).ok
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0


def test_conditional_ks_avoids_stage_collapse():
    script = parse_script(BUNDLED_SCRIPTS["conditional-ks"])
    assert all(st.rule != "CS5R-inst" for st in script.steps)
    assert check_script(script).warnings == ()


def test_script_parsing_details():
    script = parse_script(BUNDLED_SCRIPTS["vienna-dense"])
    assert script.lawlike == frozenset({"alpha"})
    assert script.declared == {"alpha", "e_hits", "e_is_half", "e_below"}
    assert script.premises == (Atom("e_below"),)
    # <-> expands to the two implications, and lawlike marks stick to atoms
    first_defax = script.defaxioms[0]
    some = SomeStage(parse("alpha! | ~alpha!"))
    assert first_defax == And(
        Implies(some, Atom("e_hits")), Implies(Atom("e_hits"), some)
    )
    assert script.steps[0].formula == first_defax
    assert [st.number for st in script.steps] == list(range(1, 14))


def test_rule_aliases_are_forgiving():
    src = """\
premise p
1: p ; premise
2: p | q ; or_intro(1)
3: (p | q) & p ; AND-INTRO(2, 1)
"""
    result = check_script(src)
    assert result.ok and show(result.conclusion) == "(p | q) & p"


# every rule spelling a script may use, once case, '-' and '_' are set aside
RULE_SPELLINGS = {
    "premise": "Premise", "defaxiom": "DefAxiom", "defax": "DefAxiom", "assume": "Assume",
    "discharge": "Discharge", "mp": "MP", "andintro": "AndIntro", "andelim": "AndElim",
    "orintro": "OrIntro", "contrapos": "ContraPos", "dne": "DNE", "mdinst": "MD-inst",
    "ic1inst": "IC1-inst", "ic2inst": "IC2-inst", "ic3inst": "IC3-inst", "cs5rinst": "CS5R-inst",
}


@pytest.mark.parametrize("spelling", [*RULE_SPELLINGS, "def-ax", "IC1_Inst", "CS5R-INST"])
def test_each_rule_spelling_names_its_rule(spelling):
    key = spelling.lower().replace("-", "").replace("_", "")
    assert _parse_rule(f"{spelling}(1)", 3) == (RULE_SPELLINGS[key], (1,))


@pytest.mark.parametrize("spelling", ["defaxioms", "def", "ic4inst", "cs5inst", "md", "modus"])
def test_no_other_rule_spelling_is_accepted(spelling):
    with pytest.raises(ScriptSyntaxError) as ei:
        _parse_rule(spelling, 3)
    assert str(ei.value) == f"line 3: unknown rule {spelling!r}" and ei.value.line_no == 3


GOOD_HEADER = "assert a lawlike\npremise a\n"
# steps 1 and 2, which a step 3 may cite as MP(1, 2)
MP_STEPS = "premise p\npremise p -> q\n1: p ; Premise\n2: p -> q ; Premise\n"


@pytest.mark.parametrize(
    "src,fragment,line",
    [
        ("1: a! ; Premise", "not '!'", 1),
        ("1: a <-> b <-> c ; Premise", "chained <->", 1),
        ("1: a & ; Premise", "bad formula", 1),
        ("1: a  Premise", "needs ';", 1),
        ("one: a ; Premise", "bad step number", 1),
        # step numbers and references are ASCII digits, which int() alone
        # does not require
        ("premise p\n\u0661: p ; Premise", "bad step number '\u0661'", 2),
        ("premise p\n+1: p ; Premise", "bad step number '+1'", 2),
        (MP_STEPS + "3: q ; MP(\u0661, \u0662)", "must be step numbers: 'MP(\u0661, \u0662)'", 5),
        (MP_STEPS + "3: q ; MP(+1, 0_2)", "must be step numbers: 'MP(+1, 0_2)'", 5),
        ("premise p\n1: p ; Premise\n2: p | q ; OrIntro(-1)", "step numbers: 'OrIntro(-1)'", 3),
        ("1: a ; Conjure", "unknown rule", 1),
        ("1: a ; MP(x)", "step numbers", 1),
        ("1: a ; MP(1", "malformed rule", 1),
        ("assert a\nassert a\n1: a ; Premise", "declared twice", 2),
        ("assert a what\n1: a ; Premise", "expected 'assert", 1),
        ("1: a ; Premise\npremise a", "must precede", 2),
        ("", "no steps", 1),
        # neither a declaration nor a numbered step
        ("premise p\n\n1 p ; Premise", "line 3: cannot parse line '1 p ; Premise'", 3),
    ],
)
def test_script_syntax_errors(src, fragment, line):
    with pytest.raises(ScriptSyntaxError) as ei:
        parse_script(src)
    assert fragment in str(ei.value)
    assert ei.value.line_no == line


# --- the script reader against the reference reader ---


def _read(read, *args):
    """read's result, or its syntax error's message and line."""
    try:
        return read(*args)
    except ScriptSyntaxError as e:
        return str(e), e.line_no


def _negations(text: str):
    """text with each numbered step's formula negated in turn."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        num, colon, rest = line.partition(":")
        if colon and num.strip().isdigit():
            formula, _, rule = rest.rpartition(";")
            negated = f"{num}: ~({formula.strip()}) ; {rule.strip()}"
            yield "\n".join(lines[:i] + [negated] + lines[i + 1 :])


@pytest.mark.parametrize("name", sorted(BUNDLED_SCRIPTS))
def test_script_reader_matches_the_reference_reader(name):
    texts = [BUNDLED_SCRIPTS[name], *_negations(BUNDLED_SCRIPTS[name])]
    outcomes = [_read(parse_script, text) for text in texts]
    assert outcomes == [_read(reference_parse_script, text) for text in texts]
    # a negated <-> step is a syntax error: '<' is no connective inside parentheses
    assert isinstance(outcomes[0], Script) and any(isinstance(o, tuple) for o in outcomes)


_formula_texts = st.builds(
    "".join,
    st.lists(st.sampled_from(["p", "q", " ", "(", ")", "<->", "<", "->", "-", ">", "&", "|", "~",
                              "_|_", "!", "[2]", "<*>"]), max_size=12),
)


@example("p < q <-> r", frozenset())
@example("(p <-> q) <-> ~(r)", frozenset("p"))
@example("p <-> q <-> r", frozenset())
@example("p) <-> (q", frozenset())
@example("p < -> q", frozenset())
@given(_formula_texts, st.frozensets(st.sampled_from("pq")))
def test_script_formulas_read_as_the_reference_reads_them(text, lawlike):
    expected = _read(reference_script_formula, text, lawlike, 3)
    assert _read(_script_formula, text, lawlike, 3) == expected


_rule_texts = st.builds(
    "".join,
    st.lists(
        st.sampled_from(["MP", "mp", "And", "Elim", "-", "_", "CS5R-inst", "(", ")", ",", " ",
                         "\t", "1", "12", "+3", "\u0663", "x", "Premise"]),
        max_size=8,
    ),
)


@example("MP( )")
@example("MP()")
@example(" and-elim( 3 ) ")
@example("MP(1")
@example("MP(1,,2)")
@example("Premise (1)x")
@example("MP(\u0663, 12)")
@example("AndElim( +3 )")
@given(_rule_texts)
def test_rules_read_as_the_reference_reads_them(text):
    assert _read(_parse_rule, text, 3) == _read(reference_parse_rule, text, 3)


def test_comments_and_blank_lines_ignored():
    src = "# leading note\n\npremise p  # trailing\n\n1: p ; Premise  # why not\n"
    assert check_script(src).ok


@pytest.mark.parametrize(
    "src,step,fragment",
    [
        # gate: restricted collapse demands lawlike atoms
        (
            "premise <*>b\n1: <*>b ; Premise\n2: b ; CS5R-inst(1)",
            2,
            "no terminating test",
        ),
        # numbering
        ("premise p\n1: p ; Premise\n3: p | q ; OrIntro(1)", 3, "consecutively"),
        # citing a formula from a closed block
        (
            "premise ~p\n1: ~p ; Premise\n2: p ; Assume\n3: _|_ ; MP(2, 1)\n"
            "4: ~p ; Discharge(3)\n5: p | q ; OrIntro(2)",
            5,
            "closed block",
        ),
        # forward references
        ("1: p | q ; OrIntro(2)\n2: p ; Assume\n3: ~p ; Discharge(1)", 1, "not citable"),
        # discharge needs bottom
        ("premise p\n1: p ; Premise\n2: q ; Assume\n3: ~q ; Discharge(1)", 3, "_|_"),
        # discharge needs an open block, and a _|_ inside it
        ("defax _|_\n1: _|_ ; DefAxiom\n2: ~p ; Discharge(1)", 2, "no open assumption to discharge"),
        (
            "defax _|_\n1: _|_ ; DefAxiom\n2: p ; Assume\n3: ~p ; Discharge(1)",
            3,
            "the _|_ at step 1 is not inside the current block",
        ),
        # discharge must negate the open assumption
        (
            "premise ~p\n1: ~p ; Premise\n2: p ; Assume\n3: _|_ ; MP(2, 1)\n"
            "4: ~q ; Discharge(3)",
            4,
            "must yield",
        ),
        # modus ponens direction
        ("premise p\npremise q -> p\n1: p ; Premise\n2: q -> p ; Premise\n3: q ; MP(1, 2)", 3, "implication"),
        # premise line must be declared up top
        ("premise p\n1: q ; Premise", 1, "not among the premises"),
        ("1: q ; DefAxiom", 1, "not among the definitional axioms"),
        # arity discipline
        ("premise p\n1: p ; Premise\n2: p ; Premise(1)", 2, "exactly 0"),
        # leftover assumption
        ("1: p ; Assume\n2: p | q ; OrIntro(1)", 2, "never discharged"),
        # the stage rules, in axiom form and applied to one reference
        ("1: ~<*>a -> ~b ; MD-inst", 1, "axiom form is ~<*>phi -> ~phi"),
        ("premise ~<*>a\n1: ~<*>a ; Premise\n2: a ; MD-inst(1)", 2, "from ~<*>phi the rule yields ~phi"),
        ("1: [2]a -> [2]a ; IC1-inst", 1, "axiom form is [n]phi -> [n+m]phi"),
        ("premise [2]a\n1: [2]a ; Premise\n2: [1]a ; IC1-inst(1)", 2, "from [n]phi the rule yields [n+m]phi"),
        ("1: ~a -> ~<*>b ; IC2-inst", 1, "axiom form is ~phi -> ~<*>phi"),
        ("premise ~a\n1: ~a ; Premise\n2: <*>~a ; IC2-inst(1)", 2, "from ~phi the rule yields ~<*>phi"),
        ("1: <*>a -> a ; IC3-inst", 1, "axiom form is phi -> <*>phi"),
        ("premise a\n1: a ; Premise\n2: <*>b ; IC3-inst(1)", 2, "from phi the rule yields <*>phi"),
        ("assert a lawlike\n1: <*>a -> ~a ; CS5R-inst", 1, "axiom form is <*>phi -> phi"),
        ("assert a lawlike\npremise <*>a\n1: <*>a ; Premise\n2: ~a ; CS5R-inst(1)", 2, "from <*>phi the rule yields phi"),
        ("1: <*>b -> b ; CS5R-inst", 1, "no terminating test"),
        ("premise a\n1: a ; Premise\n2: <*>a ; IC3-inst(1, 1)", 2, "needs 0 or 1 reference(s), got 2"),
    ],
)
def test_rejections(src, step, fragment):
    result = check_script(src)
    assert isinstance(result, Rejected)
    assert result.step == step
    assert fragment in result.reason
    assert result.as_dict()["status"] == "rejected"


def test_hand_built_script_with_no_steps_is_rejected():
    # parse_script refuses an empty script; one built by hand reaches the checker
    empty = Script(frozenset(), frozenset(), (), (), ())
    assert check_script(empty) == Rejected(0, "script has no steps")


# two nested blocks: step 1 lies outside both, steps 2-6 in the outer block
# and steps 3-4 in the inner one
NESTED = """\
premise ~p
1: ~p ; Premise
2: p ; Assume
3: q ; Assume
4: _|_ ; MP(2, 1)
5: ~q ; Discharge(4)
6: ~q | q ; OrIntro(5)
7: _|_ ; MP(2, 1)
8: ~p ; Discharge(7)
"""


def _nested(*steps: str) -> str:
    """NESTED up to its step 5, then the given steps."""
    return "".join(NESTED.splitlines(keepends=True)[:6]) + "\n".join(steps)


@pytest.mark.parametrize(
    "src, expected",
    [
        # an outer step cited inside the inner block (step 4), the inner
        # Discharge cited outside it (step 6)
        (NESTED, None),
        (_nested("6: q | p ; OrIntro(3)"),
         Rejected(6, "OrIntro: step 3 is not citable here (inside a closed block)")),
        (_nested("6: _|_ | p ; OrIntro(4)"),
         Rejected(6, "OrIntro: step 4 is not citable here (inside a closed block)")),
        # the inner block's Discharge closes with the outer block
        (NESTED + "9: ~q | p ; OrIntro(5)",
         Rejected(9, "OrIntro: step 5 is not citable here (inside a closed block)")),
        (NESTED + "9: p | q ; OrIntro(2)",
         Rejected(9, "OrIntro: step 2 is not citable here (inside a closed block)")),
        (NESTED + "9: ~p | q ; OrIntro(1)", None),
        # a closed block that starts at step 1
        ("1: _|_ ; Assume\n2: ~_|_ ; Discharge(1)\n3: _|_ | p ; OrIntro(1)",
         Rejected(3, "OrIntro: step 1 is not citable here (inside a closed block)")),
        # a _|_ of the outer block does not close the inner one
        ("premise ~p\n1: ~p ; Premise\n2: p ; Assume\n3: _|_ ; MP(2, 1)\n4: q ; Assume\n"
         "5: ~q ; Discharge(3)",
         Rejected(5, "Discharge: the _|_ at step 3 is not inside the current block")),
        # no step 0, no citing the step itself: no suffix (a negative
        # reference is a syntax error, see test_script_syntax_errors)
        ("premise p\n1: p ; Premise\n2: p | q ; OrIntro(0)",
         Rejected(2, "OrIntro: step 0 is not citable here")),
        ("premise p\n1: p ; Premise\n2: p | q ; OrIntro(2)",
         Rejected(2, "OrIntro: step 2 is not citable here")),
    ],
)
def test_blocks_nest_and_close_by_step_number(src, expected):
    result = check_script(src)
    if expected is None:
        assert result.ok, result
    else:
        assert result == expected


ARITIES = {"Premise": 0, "DefAxiom": 0, "Assume": 0, "Discharge": 1, "MP": 2, "AndIntro": 2,
           "AndElim": 1, "OrIntro": 1, "ContraPos": 1, "DNE": 1}


@pytest.mark.parametrize("rule", sorted(ARITIES))
def test_each_rule_counts_its_references_after_citability_and_before_its_own_check(rule):
    k = ARITIES[rule]
    for m in (0, 1, 2, 3):
        refs = f"({', '.join(['1'] * m)})" if m else ""
        result = check_script(f"premise p\n1: p ; Premise\n2: p ; {rule}{refs}")
        if m != k:
            assert result == Rejected(2, f"{rule}: needs exactly {k} reference(s), got {m}")
        else:
            assert "reference(s)" not in getattr(result, "reason", "")
    result = check_script(f"premise p\n1: p ; Premise\n2: p ; {rule}(7, 7, 7)")
    assert result == Rejected(2, f"{rule}: step 7 is not citable here")


def test_small_rules_work():
    src = """\
assert a lawlike
premise a -> b
premise a

1: a -> b ; Premise
2: a ; Premise
3: b ; MP(2, 1)
4: a & b ; AndIntro(2, 3)
5: b ; AndElim(4)
6: ~b -> ~a ; ContraPos(1)
7: <*>b ; IC3-inst(3)
8: [2]a -> [5]a ; IC1-inst
9: a | ~~~~a ; OrIntro(2)
"""
    result = check_script(src)
    assert result.ok and result.step_count == 9


def test_dne_strips_exactly_one_pair():
    src = (
        "premise ~~~p\n1: ~~~p ; Premise\n2: ~p ; DNE(1)\n"
    )
    assert check_script(src).ok
    for bad in ("premise ~~~p\n1: ~~~p ; Premise\n2: p ; DNE(1)\n",
                "premise ~~p\n1: ~~p ; Premise\n2: p ; DNE(1)\n"):
        rej = check_script(bad)
        assert not rej.ok and "triple negation" in rej.reason


def test_cs5r_warns_even_when_lawlike():
    src = "assert a lawlike\npremise <*>a\n1: <*>a ; Premise\n2: a ; CS5R-inst(1)"
    result = check_script(src)
    assert result.ok
    assert len(result.warnings) == 1
    assert "lawlike declaration of a" in result.warnings[0]


def test_axiom_forms_without_references():
    src = """\
assert a lawlike
1: ~a -> ~<*>a ; IC2-inst
2: ~<*>a -> ~a ; MD-inst
3: a -> <*>a ; IC3-inst
4: <*>a -> a ; CS5R-inst
"""
    result = check_script(src)
    assert result.ok and len(result.warnings) == 1


# --- mutation: flipping any single step breaks verification ---


def _mutate_step(source: str, target_line: int) -> str:
    out = []
    for i, raw in enumerate(source.splitlines(), start=1):
        if i == target_line:
            body, _, comment = raw.partition("#")
            num, _, rest = body.partition(":")
            formula, _, rule = rest.rpartition(";")
            raw = f"{num}: ~({formula.strip()}) ; {rule.strip()}"
        out.append(raw)
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("name", sorted(BUNDLED_SCRIPTS))
def test_single_step_mutations_all_fail(name):
    source = BUNDLED_SCRIPTS[name]
    step_lines = [
        i
        for i, raw in enumerate(source.splitlines(), start=1)
        if raw.split("#", 1)[0].strip() and raw.split("#", 1)[0].strip()[0].isdigit()
    ]
    assert len(step_lines) == EXPECTED[name][1]
    for line_no in step_lines:
        mutated = _mutate_step(source, line_no)
        try:
            result = check_script(mutated)
        except ScriptSyntaxError:
            continue  # negating a <-> line is not even well-formed
        assert isinstance(result, Rejected), f"{name}: step line {line_no} slipped through"


# --- semantic soundness of the bundled scripts ---


def _models_over(atoms, max_nodes):
    """Every stage tree up to max_nodes with monotone valuations on atoms."""
    for shape in enumerate_shapes(max_nodes):
        n = len(shape)
        sets = _upclosed_sets(shape)
        for combo in itertools.product(sets, repeat=len(atoms)):
            valuation = tuple(
                frozenset(a for a, mask in zip(atoms, combo) if mask >> w & 1)
                for w in range(n)
            )
            yield StageTree(shape, valuation)


@pytest.mark.parametrize("name", sorted(BUNDLED_SCRIPTS))
def test_conclusion_is_semantically_entailed(name):
    # hypotheses: premises, definitional axioms, and the output of any
    # restricted-collapse step (that rule is assumed, not valid)
    script = parse_script(BUNDLED_SCRIPTS[name])
    result = check_script(script)
    assert result.ok
    hypotheses = list(script.premises) + list(script.defaxioms)
    hypotheses += [st.formula for st in script.steps if st.rule == "CS5R-inst"]
    atoms = sorted({a.name for f in (*hypotheses, result.conclusion) for a in atoms_of(f)})
    max_nodes = 3 if len(atoms) > 2 else 4
    nodes_checked = 0
    for m in _models_over(atoms, max_nodes):
        for w in range(m.size):
            if all(forces(m, w, h) for h in hypotheses):
                assert forces(m, w, result.conclusion), name
                nodes_checked += 1
    assert nodes_checked > 0


def test_entailment_check_catches_a_broken_conclusion():
    # sanity-check the harness itself: drop the collapse hypothesis from
    # the vienna script and its conclusion must stop being entailed
    script = parse_script(BUNDLED_SCRIPTS["vienna-dense"])
    result = check_script(script)
    hypotheses = list(script.premises) + list(script.defaxioms)  # no CS5R output
    atoms = sorted({a.name for f in hypotheses for a in atoms_of(f)})
    holds_everywhere = True
    for m in _models_over(atoms, 3):
        for w in range(m.size):
            if all(forces(m, w, h) for h in hypotheses):
                if not forces(m, w, result.conclusion):
                    holds_everywhere = False
    assert not holds_everywhere


# --- the classical shortcut and its countermodels ---


def test_ks_prerequisite_report():
    bounds = SweepBounds(max_nodes=3, max_atoms=2, max_box_index=2, max_operand_depth=1)
    report = ks_prerequisite_report(bounds)
    assert len(report.available) == 4
    assert [b.schema for b in report.blocked] == ["cs4", "cs5"]
    for blocked in report.blocked:
        cm = blocked.countermodel
        # the countermodel is live: replay it against the semantics
        assert not forces(cm.model, cm.node, cm.instance)
    doc = report.as_dict()
    assert doc["bounds"] == {
        "max_nodes": 3, "max_atoms": 2, "max_box_index": 2, "max_operand_depth": 1,
    }
    text = json.dumps(doc, sort_keys=True)
    assert json.dumps(json.loads(text), sort_keys=True) == text
    m = load_model(json.dumps(doc["blocked"][1]["countermodel"]["model"]))
    inst = parse(doc["blocked"][1]["countermodel"]["instance"])
    assert not forces(m, m.index_of(doc["blocked"][1]["countermodel"]["node"]), inst)


def test_ks_prerequisite_report_refuses_over_the_patched_cap(monkeypatch):
    # the report reads the sweep cap where validity_sweep does, in the engine module
    monkeypatch.setattr("brouwer._masks.DEFAULT_SWEEP_CAP", 1000)
    with pytest.raises(ResourceLimitError) as ei:
        ks_prerequisite_report()
    assert ei.value.requested > ei.value.limit == 1000


@pytest.mark.parametrize("bounds", [
    SweepBounds(3, 1, 2, 1), SweepBounds(3, 2, 2, 1), SweepBounds(4, 2, 3, 2),
    SweepBounds(3, 3, 2, 2), SweepBounds(),
])
def test_ks_report_finds_the_countermodels_each_schema_alone_finds(bounds):
    # the report sweeps both schemata in one pass; each countermodel is the
    # first in enumeration order, the one a sweep of that schema alone finds
    report = ks_prerequisite_report(bounds)
    assert [b.countermodel.as_dict() for b in report.blocked] == [
        validity_sweep(schema, bounds).countermodel.as_dict() for schema in ("cs4", "cs5")
    ]


# --- the stage rules against the hand-written checker they replaced ---


def _reference_destruct_not(f):
    if isinstance(f, Implies) and f.right == BOT:
        return f.left
    return None


def _reference_inst(rule, refs, f) -> bool:
    """Whether the checker's hand-written *-inst branches, which the schema
    templates replaced, accept the step: the branches are kept verbatim, with
    just enough scaffolding around them to run on their own."""
    st = SimpleNamespace(refs=tuple(refs))
    _destruct_not = _reference_destruct_not
    warnings, n = [], 0

    def fail(reason):
        return reason

    def arity(k):
        if len(st.refs) != k:
            return fail(f"needs exactly {k} reference(s), got {len(st.refs)}")
        return None

    err = None
    if rule not in _STAGE_RULES:
        raise ValueError(rule)
    elif rule == "MD-inst":
        if len(st.refs) == 1:
            src = _destruct_not(refs[0])
            if not (isinstance(src, SomeStage) and f == Not(src.operand)):
                err = fail("from ~<*>phi the rule yields ~phi")
        else:
            err = arity(0)
            if not err:
                ok = False
                if isinstance(f, Implies):
                    l, r = _destruct_not(f.left), _destruct_not(f.right)
                    ok = (
                        isinstance(l, SomeStage)
                        and r is not None
                        and l.operand == r
                    )
                if not ok:
                    err = fail("axiom form is ~<*>phi -> ~phi")
    elif rule == "IC1-inst":
        if len(st.refs) == 1:
            ok = (
                isinstance(refs[0], Box)
                and isinstance(f, Box)
                and f.operand == refs[0].operand
                and f.n > refs[0].n
            )
            if not ok:
                err = fail("from [n]phi the rule yields [n+m]phi with m >= 1")
        else:
            err = arity(0)
            if not err:
                ok = (
                    isinstance(f, Implies)
                    and isinstance(f.left, Box)
                    and isinstance(f.right, Box)
                    and f.left.operand == f.right.operand
                    and f.right.n > f.left.n
                )
                if not ok:
                    err = fail("axiom form is [n]phi -> [n+m]phi")
    elif rule == "IC2-inst":
        if len(st.refs) == 1:
            src = _destruct_not(refs[0])
            tgt = _destruct_not(f)
            if (
                src is None
                or not isinstance(tgt, SomeStage)
                or tgt.operand != src
            ):
                err = fail("from ~phi the rule yields ~<*>phi")
        else:
            err = arity(0)
            if not err:
                ok = False
                if isinstance(f, Implies):
                    l, r = _destruct_not(f.left), _destruct_not(f.right)
                    ok = (
                        l is not None
                        and isinstance(r, SomeStage)
                        and r.operand == l
                    )
                if not ok:
                    err = fail("axiom form is ~phi -> ~<*>phi")
    elif rule == "IC3-inst":
        if len(st.refs) == 1:
            if not (isinstance(f, SomeStage) and f.operand == refs[0]):
                err = fail("from phi the rule yields <*>phi")
        else:
            err = arity(0)
            if not err:
                ok = (
                    isinstance(f, Implies)
                    and isinstance(f.right, SomeStage)
                    and f.right.operand == f.left
                )
                if not ok:
                    err = fail("axiom form is phi -> <*>phi")
    elif rule == "CS5R-inst":
        operand: Optional[Formula] = None
        if len(st.refs) == 1:
            if isinstance(refs[0], SomeStage) and refs[0].operand == f:
                operand = f
            else:
                err = fail("from <*>phi the restricted rule yields phi")
        else:
            err = arity(0)
            if not err:
                if (
                    isinstance(f, Implies)
                    and isinstance(f.left, SomeStage)
                    and f.left.operand == f.right
                ):
                    operand = f.right
                else:
                    err = fail("axiom form is <*>phi -> phi")
        if operand is not None and err is None:
            atoms = sorted(atoms_of(operand), key=lambda a: a.name)
            loose = [a.name for a in atoms if not a.lawlike]
            if loose:
                err = fail(
                    f"stage collapse needs every atom of {show(operand)} declared "
                    f"lawlike; {loose[0]!r} has no terminating test"
                )
            else:
                warnings.append(
                    f"step {n}: stage collapse on {show(operand)} (leans on the "
                    f"lawlike declaration of {', '.join(a.name for a in atoms)})"
                )
    return err is None

_STAGE_RULES = ("MD-inst", "IC1-inst", "IC2-inst", "IC3-inst", "CS5R-inst")
_LAWLIKE_ATOMS = [Atom("a", True), Atom("b", True)]
_ATOMS = [Atom("p"), Atom("q")] + _LAWLIKE_ATOMS


def _stage_free(atoms):
    return st.recursive(
        st.sampled_from(atoms + [BOT]),
        lambda sub: st.one_of(sub.map(Not), *(st.builds(c, sub, sub) for c in (And, Or, Implies))),
        max_leaves=3,
    )


_ANY_PHI, _LAWLIKE_PHI = _stage_free(_ATOMS), _stage_free(_LAWLIKE_ATOMS)

# premise and conclusion of each stage rule, with both phi slots and both
# indices free, so that an instance can be bent just off the rule
_SHAPES = {
    "MD-inst": lambda l, r, n, k: (Not(SomeStage(l)), Not(r)),
    "IC1-inst": lambda l, r, n, k: (Box(n, l), Box(k, r)),
    "IC2-inst": lambda l, r, n, k: (Not(l), Not(SomeStage(r))),
    "IC3-inst": lambda l, r, n, k: (l, SomeStage(r)),
    "CS5R-inst": lambda l, r, n, k: (SomeStage(l), r),
}


def _drop_not(f):
    return f.left if isinstance(f, Implies) and f.right == BOT else Not(f)


@st.composite
def _stage_steps(draw):
    """(rule, refs, formula, intact): a stage-rule step that is an instance,
    or one perturbed by another phi, m <= 0, a wrong shape, a dropped ~,
    non-lawlike atoms or a second reference."""
    rule = draw(st.sampled_from(_STAGE_RULES))
    shape = draw(st.sampled_from([rule] * 3 + list(_SHAPES)))
    lawlike = draw(st.booleans())
    phi = draw(_LAWLIKE_PHI if lawlike else _ANY_PHI)
    other = phi if draw(st.integers(0, 3)) else draw(_ANY_PHI)
    n, m = draw(st.integers(1, 3)), draw(st.integers(-1, 3))
    premise, conclusion = _SHAPES[shape](phi, other, n, max(1, n + m))
    drop = draw(st.sampled_from([None, None, None, "premise", "conclusion"]))
    if drop == "premise":
        premise = _drop_not(premise)
    elif drop == "conclusion":
        conclusion = _drop_not(conclusion)
    refs = [premise] * draw(st.integers(0, 2))
    formula = conclusion if refs else Implies(premise, conclusion)
    intact = (
        shape == rule
        and other == phi
        and (m >= 1 or rule != "IC1-inst")
        and drop is None
        and len(refs) < 2
        and (lawlike or rule != "CS5R-inst")
    )
    return rule, refs, formula, intact


def _step_script(rule, refs, formula):
    """The step, its references cited as one premise step ahead of it."""
    steps = [Step(1, g, "Premise", (), 1) for g in refs[:1]]
    steps.append(Step(len(steps) + 1, formula, rule, (1,) * len(refs), len(steps) + 1))
    lawlike = frozenset(a.name for a in _LAWLIKE_ATOMS)
    return Script(lawlike, frozenset(a.name for a in _ATOMS), tuple(refs[:1]), (), tuple(steps))


@given(_stage_steps())
@settings(max_examples=300, deadline=None)
def test_stage_rules_match_the_hand_written_checker(step):
    rule, refs, formula, intact = step
    accepted = check_script(_step_script(rule, refs, formula)).ok
    assert accepted == _reference_inst(rule, refs, formula)
    if intact:
        assert accepted


# --- soundness of every rule but CS5R against forcing on small models ---


@functools.lru_cache(maxsize=None)
def _small_models():
    return [(m, range(m.size)) for m in _models_over(["a", "p"], 4)]


def _staged_over(free):
    staged = st.one_of(st.builds(Box, st.integers(1, 3), free), free.map(SomeStage), free)
    return st.one_of(
        staged, staged.map(Not), *(st.builds(c, staged, staged) for c in (And, Implies))
    )


_STAGED = _staged_over(_stage_free([Atom("a", True), Atom("p")]))
_RULES = (
    "Premise", "DefAxiom", "Assume", "Discharge", "MP", "AndIntro", "AndElim", "OrIntro",
    "ContraPos", "DNE",
) + _STAGE_RULES


def _stage_moves(g):
    """What each stage rule draws from g, a step off it for IC1."""
    out = []
    if isinstance(g, Implies) and g.right == BOT:
        if isinstance(g.left, SomeStage):
            out.append(("MD-inst", Not(g.left.operand)))
        if is_stage_free(g.left):
            out.append(("IC2-inst", Not(SomeStage(g.left))))
    if isinstance(g, Box):
        out += [("IC1-inst", Box(k, g.operand)) for k in range(max(1, g.n - 1), g.n + 3)]
    if is_stage_free(g):
        out.append(("IC3-inst", SomeStage(g)))
    if isinstance(g, SomeStage):
        out.append(("CS5R-inst", g.operand))
    return out


def _moves(premises, defaxioms, leaves, seed):
    """(rule, refs, formula) for each step one rule draws from the premises,
    definitional axioms and leaf steps, or in axiom form from the seed: the
    candidates for the step after the leaves."""
    out = [("Premise", (), f) for f in premises] + [("DefAxiom", (), f) for f in defaxioms]
    out += [("Assume", (), seed)] + [(rule, (), Implies(seed, c)) for rule, c in _stage_moves(seed)]
    for leaf in leaves:
        i, g = leaf.number, leaf.formula
        out += [("OrIntro", (i,), Or(g, seed)), ("OrIntro", (i,), Or(seed, g))]
        out += [(rule, (i,), c) for rule, c in _stage_moves(g)]
        out += [(rule, (), Implies(g, c)) for rule, c in _stage_moves(g)]
        if isinstance(g, (And, Or, Implies)):  # AndElim must refuse all but And
            out += [("AndElim", (i,), g.left), ("AndElim", (i,), g.right)]
        if isinstance(g, Implies):
            out.append(("ContraPos", (i,), Implies(Not(g.right), Not(g.left))))
            if isinstance(g.left, Implies):
                out.append(("DNE", (i,), g.left.left))
        if g == BOT and leaf.rule == "Assume":
            out.append(("Discharge", (i,), Not(g)))
        for other in leaves:
            out.append(("AndIntro", (i, other.number), And(g, other.formula)))
            if isinstance(other.formula, Implies) and other.formula.left == g:
                out.append(("MP", (i, other.number), other.formula.right))
    return out


@st.composite
def _small_scripts(draw):
    """Up to two Premise, DefAxiom or Assume steps, then one step that a rule
    draws from them, sometimes cited under another rule, negated or with its
    sides swapped. The rule is drawn first, so that rules with few moves are
    not crowded out."""
    premises = tuple(draw(st.lists(_STAGED, max_size=2)))
    defaxioms = tuple(draw(st.lists(_STAGED, max_size=1)))
    leaves: list[Step] = []
    for i in range(1, draw(st.integers(0, 2)) + 1):
        kinds = ["Assume"] + ["Premise"] * bool(premises) + ["DefAxiom"] * bool(defaxioms)
        kind = draw(st.sampled_from(kinds))
        if kind != "Assume":
            f = draw(st.sampled_from(premises if kind == "Premise" else defaxioms))
        elif leaves and isinstance(leaves[0].formula, Implies) and draw(st.booleans()):
            f = leaves[0].formula.left  # an argument for MP
        else:
            f = draw(st.one_of(st.just(BOT), _STAGED, _STAGED.map(lambda g: Not(Not(Not(g))))))
        leaves.append(Step(i, f, kind, (), i))
    moves = _moves(premises, defaxioms, leaves, draw(_STAGED))
    stage_moves = [move for move in moves if move[0] in _STAGE_RULES]
    rule = draw(st.sampled_from(sorted(
        {rule for rule, _, _ in moves} | set(_STAGE_RULES if stage_moves else ())
    )))
    own = [move for move in moves if move[0] == rule]
    perturb = draw(st.integers(0, 5))
    if own and (perturb > 1 or rule not in _STAGE_RULES):
        _, refs, formula = draw(st.sampled_from(own))
    else:  # a stage rule offered any stage rule's move
        _, refs, formula = draw(st.sampled_from(stage_moves))
    if perturb == 2:
        rule = draw(st.sampled_from(_RULES))
    elif perturb == 3:
        formula = _drop_not(formula)
    elif perturb == 4 and isinstance(formula, (And, Or, Implies)):
        formula = type(formula)(formula.right, formula.left)
    last = Step(len(leaves) + 1, formula, rule, refs, len(leaves) + 1)
    return Script(frozenset({"a"}), frozenset({"a", "p"}), premises, defaxioms, (*leaves, last))


def _assert_sound(script) -> bool:
    """Unless the checker rejects the last step or it is a CS5R-inst step,
    check that every node of the small models that forces the premises,
    definitional axioms and open assumptions forces the step's formula."""
    result = check_script(script)
    last = script.steps[-1]
    undischarged = isinstance(result, Rejected) and result.reason.endswith("never discharged")
    if last.rule == "CS5R-inst" or not (result.ok or undischarged):
        return False
    assumptions = [s.formula for s in script.steps if s.rule == "Assume"]
    if last.rule == "Discharge":
        assumptions.pop()
    hypotheses = list(script.premises) + list(script.defaxioms) + assumptions
    for m, nodes in _small_models():
        for w in nodes:
            if not forces(m, w, last.formula):
                assert not all(forces(m, w, h) for h in hypotheses), (
                    show(last.formula), last.rule, m.parents, m.valuation, w
                )
    return True


@given(_small_scripts())
@settings(max_examples=150, deadline=None)
def test_accepted_steps_are_forced_where_their_hypotheses_are(script):
    _assert_sound(script)


# --- the checker against the block-path reference ---


_P, _Q = Atom("p"), Atom("q")
_BLOCK_FORMULAS = (_P, Not(_P), _Q, BOT, Not(Not(_P)), Not(Not(Not(_P))), SomeStage(_P))
_BLOCK_RULES = ("Premise", "Assume", "MP", "Discharge", "OrIntro", "AndIntro", "DNE", "IC3-inst")


@st.composite
def _block_scripts(draw):
    """Up to 16 steps that open and close nested blocks. Most steps are
    moves the checker should accept, given a guess of its state; about one
    in ten is any rule, citing steps from closed blocks, later steps, the
    step itself, 0, a negative number or a number past the end. Now and
    then a step is misnumbered."""
    premises = (_P, Not(_P))
    total = draw(st.integers(1, 16))
    formula_of: dict[int, object] = {}
    live: list[int] = []  # the guess: every step is accepted
    closed: list[int] = []
    opened: list[int] = []

    def ref(n):
        kind = draw(st.sampled_from(("closed",) * 3 + ("live", "later", "self", "odd")))
        if kind == "closed" and closed:
            return draw(st.sampled_from(closed))
        if kind in ("live", "closed") and live:
            return draw(st.sampled_from(live))
        if kind == "later":
            return draw(st.integers(n + 1, n + 3))
        if kind == "self":
            return n
        return draw(st.sampled_from((0, -1, -2, total + 5)))

    def live_with(f, since=0):
        return [m for m in live if m >= since and formula_of[m] == f]

    def cite(n, wild, candidates):
        return draw(st.sampled_from(candidates)) if candidates and not wild else ref(n)

    steps = []
    for n in range(1, total + 1):
        wild = not draw(st.integers(0, 9))
        block_bots = live_with(BOT, opened[-1]) if opened else []
        moves = ["Premise", "Assume"]
        moves += ["MP"] * 2 * bool(live_with(_P) and live_with(Not(_P)))
        moves += ["Discharge"] * 4 * bool(opened and live_with(BOT))
        moves += ["OrIntro", "AndIntro", "IC3-inst"] * bool(live)
        moves += ["DNE"] * bool(live_with(Not(Not(_P))) or live_with(Not(Not(Not(_P)))))
        rule = draw(st.sampled_from(_BLOCK_RULES if wild else moves))
        if rule == "Premise":
            refs, f = (), draw(st.sampled_from(premises + (_Q,) * wild))
        elif rule == "Assume":
            refs, f = (), draw(st.sampled_from(_BLOCK_FORMULAS))
        elif rule == "MP":
            refs = tuple(cite(n, wild, live_with(g)) for g in (_P, Not(_P)))
            refs, f = refs[:: draw(st.sampled_from((1, -1)))], BOT
        elif rule == "Discharge":
            outer = not block_bots or not draw(st.integers(0, 3))
            refs = (cite(n, wild, live_with(BOT) if outer else block_bots),)
            f = (Not(formula_of[opened[-1]]) if opened and not (wild and draw(st.booleans()))
                 else draw(st.sampled_from(_BLOCK_FORMULAS)))
        elif rule == "DNE":
            f = draw(st.sampled_from((_P, Not(_P))))  # DNE refuses ~~p to p
            refs = (cite(n, wild, live_with(Not(Not(f)))),)
        else:
            fits = [m for m in live if rule != "IC3-inst" or is_stage_free(formula_of[m])]
            refs = tuple(cite(n, wild, fits) for _ in range(1 + (rule == "AndIntro")))
            g = [formula_of.get(r, _Q) for r in refs]
            f = {"OrIntro": lambda: Or(g[0], _Q), "AndIntro": lambda: And(*g),
                 "IC3-inst": lambda: SomeStage(g[0] if is_stage_free(g[0]) else _Q)}[rule]()
        steps.append(Step(n, f, rule, refs, n))
        formula_of[n] = f
        live.append(n)
        if rule == "Assume":
            opened.append(n)
        elif rule == "Discharge" and opened:
            start = opened.pop()
            closed.extend(m for m in live if start <= m < n)
            live = [m for m in live if not start <= m < n]
    if not draw(st.integers(0, 19)):
        k = draw(st.integers(0, total - 1))
        steps[k] = steps[k]._replace(number=draw(st.sampled_from((0, k, k + 2))))
    return Script(frozenset(), frozenset({"p", "q"}), premises, (), tuple(steps))


@given(st.one_of(_small_scripts(), _block_scripts()))
@settings(max_examples=400, deadline=None)
def test_checker_matches_the_block_path_reference(script):
    assert check_script(script) == reference_check_script(script)


@pytest.mark.parametrize("name", sorted(BUNDLED_SCRIPTS))
def test_bundled_scripts_match_the_block_path_reference(name):
    assert check_script(BUNDLED_SCRIPTS[name]) == reference_check_script(BUNDLED_SCRIPTS[name])


@pytest.mark.parametrize("rule", _STAGE_RULES[:-1])
def test_stage_rules_are_sound_on_every_shape(rule):
    # each rule is offered every stage rule's shape, in both forms
    accepted = 0
    for shape, phi, (n, k) in itertools.product(
        _SHAPES, [Atom("p"), Atom("a", True), Not(Atom("p"))], [(1, 2), (2, 1), (1, 1)]
    ):
        premise, conclusion = _SHAPES[shape](phi, phi, n, k)
        for refs, formula in (([], Implies(premise, conclusion)), ([premise], conclusion)):
            accepted += _assert_sound(_step_script(rule, refs, formula))
    assert accepted > 0


def test_parse_section_script_runs():
    record = bench_writer.bench.parse(("vienna-dense", "200 formulas"))
    assert [list(row) for row in record["rows"]] == [["text", "formulas", "us"]] * 2
    assert [row["formulas"] for row in record["rows"]] == [17, 200]
    assert bench_writer.survives_json(record)
