"""Stage logic: grammar, tree models, forcing, and the validity sweep."""

import copy
import functools
import gc
import itertools
import json
import pickle
import re
import tracemalloc
from collections import Counter
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bench_writer
from brouwer.errors import ResourceLimitError
from brouwer.logic import (
    ATOM_POOL,
    BOT,
    DEFAULT_SWEEP_CAP,
    And,
    Atom,
    Box,
    Bottom,
    Countermodel,
    FormulaNestingError,
    FormulaSyntaxError,
    Implies,
    MAX_NESTING,
    ModelError,
    Not,
    Or,
    SCHEMAS,
    Schema,
    SomeStage,
    StageTree,
    SweepBounds,
    SweepResult,
    _codes,
    _level_starts,
    _Masks,
    _class_table,
    _formula_at,
    _formula_masks,
    _mask_function,
    _mask_set,
    _preorder,
    _refuse_if_huge,
    _stage_tree,
    _sweep,
    _Parser,
    _upclosed_sets,
    atoms_of,
    count_models,
    dump_model,
    forces,
    is_stage_free,
    load_model,
    monotonicity_violations,
    parse,
    principle_suite,
    show,
    validity_sweep,
)
from brouwer.logic import tested_later as sugar_later
from brouwer.logic import tested_now as sugar_now
from references import (
    _root_class,
    reference_parse,
    _valued_shapes,
    enumerate_box_free,
    enumerate_models,
    enumerate_shapes,
    eval_mask,
    mask_closure,
    masks_eval,
)

P, Q = Atom("p"), Atom("q")

# the schemas the principle suite finds valid up to its bounds, and refuted
EXPECTED_VALID = ("ic1", "ic2", "ic3", "md")
EXPECTED_REFUTED = ("cs4", "cs5")


# --- grammar ---


@pytest.mark.parametrize(
    "text,expected",
    [
        ("p", P),
        ("alpha!", Atom("alpha", lawlike=True)),
        ("_|_", BOT),
        ("~p", Not(P)),
        ("~~p", Not(Not(P))),
        ("p & q", And(P, Q)),
        ("p | q", Or(P, Q)),
        ("p -> q", Implies(P, Q)),
        # precedence: ~ binds over &, & over |, | over ->
        ("~p & q", And(Not(P), Q)),
        ("p & q | p", Or(And(P, Q), P)),
        ("p | q -> p & q", Implies(Or(P, Q), And(P, Q))),
        ("p -> q -> p", Implies(P, Implies(Q, P))),
        ("(p -> q) -> p", Implies(Implies(P, Q), P)),
        ("[2]p", Box(2, P)),
        ("[1]~p & q", And(Box(1, Not(P)), Q)),
        ("<*>p -> p", Implies(SomeStage(P), P)),
        ("~<*>~p", Not(SomeStage(Not(P)))),
    ],
)
def test_parse_hand_cases(text, expected):
    assert parse(text) == expected


def test_pipe_sugar():
    # prefix |a is "testable now", trailing a| is "testable later";
    # a pipe with operands on both sides stays a disjunction
    assert parse("|p") == sugar_now(P)
    assert parse("|p") == Or(Not(P), Not(Not(P)))
    assert parse("q|") == sugar_later(Q)
    assert parse("q|") == SomeStage(Or(Not(Q), Not(Not(Q))))
    assert parse("p | q") == Or(P, Q)
    assert parse("p|q") == Or(P, Q)
    assert parse("p| -> q") == Implies(sugar_later(P), Q)
    assert parse("p & q|") == And(P, sugar_later(Q))
    assert parse("|p & |q") == And(sugar_now(P), sugar_now(Q))


@pytest.mark.parametrize("text, expected", [
    ("| p", sugar_now(P)),
    ("p |", sugar_later(P)),
    ("( p )|", sugar_later(P)),
    ("((p))|", sugar_later(P)),
    ("| p -> ( q )|", Implies(sugar_now(P), sugar_later(Q))),
])
def test_pipe_sugar_may_be_spaced_and_follow_an_atom_in_parentheses(text, expected):
    # the module docstring's grammar: whitespace may part the pipe from its
    # atom, and a postfix pipe reads through parentheses around an atom
    assert parse(text) == expected


@pytest.mark.parametrize(
    "text,message,pos",
    [
        ("", "expected a formula, found 'end'", 0),
        ("p &", "expected a formula, found 'end'", 3),
        ("& p", "expected a formula, found '&'", 0),
        ("(p", "expected ')', found 'end'", 2),
        ("p)", "trailing input ')'", 1),
        ("p q", "trailing input 'name'", 2),
        ("[0]p", "stage index must be >= 1", 0),  # stage indices start at 1
        ("[]p", "malformed stage index", 0),
        ("[2p", "malformed stage index", 0),
        ("<*>", "expected a formula, found 'end'", 3),
        ("~", "expected a formula, found 'end'", 1),
        ("p -> -> q", "expected a formula, found '->'", 5),
        # no stacked stage operators
        ("[1][2]p", "[1] operand contains a stage operator: [2]p", 0),
        ("<*>[1]p", "<*> operand contains a stage operator: [1]p", 0),
        ("[1]<*>p", "[1] operand contains a stage operator: <*>p", 0),
        ("P", "unexpected character 'P'", 0),  # names are lowercase
        ("p ! q", "unexpected character '!'", 2),
        # index variables live only in the schema templates
        ("[n]p", "malformed stage index", 0),
        ("[n+m]p", "malformed stage index", 0),
        # stage indices are ASCII digits, as names are ASCII letters
        ("[\u00b2]p", "malformed stage index", 0),
        ("[\u0663]p", "malformed stage index", 0),
        # too deep once an operand is read: at the '->' of an implication,
        # at the '(' of a group
        ("(" * 99 + "p" + ")" * 99 + " -> q", "formula nested deeper than 100 levels", 200),
        ("(" + "~" * 98 + "p -> q)", "formula nested deeper than 100 levels", 0),
    ],
)
def test_syntax_errors(text, message, pos):
    with pytest.raises(FormulaSyntaxError) as ei:
        parse(text)
    assert str(ei.value) == f"{message} (at offset {pos})" and ei.value.pos == pos


def _grouped(op: str, levels: int) -> str:
    """(q op (q op (... q))), `levels` deep: each op and each group is a level."""
    text = "q"
    for level in range(2, levels + 1):
        text = f"q {op} {text}" if level % 2 == 0 else f"({text})"
    return text


def _nested(shape: str, levels: int) -> str:
    """A formula `levels` deep: a connective, a prefix operator or a
    parenthesised group is one level, the atom q another."""
    return {
        "~": "~" * (levels - 1) + "q",
        "(": "(" * (levels - 1) + "q" + ")" * (levels - 1),
        "&": " & ".join(["q"] * levels),
        "|": " | ".join(["q"] * levels),
        "->": " -> ".join(["q"] * levels),
        "[1]~": "[1]" + "~" * (levels - 2) + "q",
        "<*>~": "<*>" + "~" * (levels - 2) + "q",
        # mixed: a connective inside groups, negations or another connective
        "(&)": _grouped("&", levels),
        "(|)": _grouped("|", levels),
        "->~": "q" + " -> ~q" * (levels - 2),
        "->&": " -> ".join(["q & q"] * (levels - 1)),
    }[shape]


NESTING_SHAPES = ["~", "(", "&", "|", "->", "[1]~", "<*>~", "(&)", "(|)", "->~", "->&"]


@pytest.mark.parametrize("shape", NESTING_SHAPES)
def test_the_deepest_formula_parse_accepts_can_be_used(shape):
    # show, forces and the records' == and hash each recurse per level;
    # one level past the bound is a syntax error with an offset
    text = _nested(shape, MAX_NESTING)
    f = parse(text)
    assert parse(show(f)) == f and hash(parse(text)) == hash(f)
    later = StageTree((None, 0), (frozenset(), frozenset({"q"})), ("root", "later"))
    assert forces(later, 0, f) in (True, False)
    with pytest.raises(FormulaSyntaxError, match="nested deeper") as ei:
        parse(_nested(shape, MAX_NESTING + 1))
    assert ei.value.pos >= 0


@pytest.mark.parametrize("text", ["~" * 3000 + "q", "(" * 3000 + "q", " & ".join(["q"] * 3000)])
def test_three_thousand_levels_are_a_syntax_error(text):
    with pytest.raises(FormulaSyntaxError, match="nested deeper"):
        parse(text)


def test_stage_operands_must_be_stage_free():
    with pytest.raises(FormulaNestingError):
        Box(1, Box(1, P))
    with pytest.raises(FormulaNestingError):
        SomeStage(And(P, SomeStage(Q)))
    with pytest.raises(ValueError):
        Box(0, P)
    assert is_stage_free(And(P, Not(Q)))
    assert not is_stage_free(Implies(Box(2, P), Q))


def test_show_minimal_parentheses():
    cases = [
        (Implies(P, Implies(Q, P)), "p -> q -> p"),
        (Implies(Implies(P, Q), P), "(p -> q) -> p"),
        (Or(And(P, Q), P), "p & q | p"),
        (And(P, Or(Q, P)), "p & (q | p)"),
        (And(And(P, Q), P), "p & q & p"),
        (And(P, And(Q, P)), "p & (q & p)"),
        (Not(Or(P, Q)), "~(p | q)"),
        (Box(3, Implies(P, Q)), "[3](p -> q)"),
        (SomeStage(Not(P)), "<*>~p"),
        (Not(Not(Atom("a", True))), "~~a!"),
        (Implies(P, BOT), "~p"),
    ]
    for formula, text in cases:
        assert show(formula) == text
        assert parse(text) == formula


def test_atoms_of_collects_through_operators():
    f = parse("[2](p -> q) & <*>r! | p")
    assert atoms_of(f) == frozenset({P, Q, Atom("r", True)})
    assert atoms_of(BOT) == frozenset()


_names = st.sampled_from(["p", "q", "r"])
_atoms = st.builds(Atom, _names, st.booleans())
_stage_free = st.recursive(
    st.one_of(_atoms, st.just(BOT)),
    lambda kids: st.one_of(
        st.builds(And, kids, kids),
        st.builds(Or, kids, kids),
        st.builds(Implies, kids, kids),
    ),
    max_leaves=8,
)
_formulas = st.recursive(
    st.one_of(
        _stage_free,
        st.builds(Box, st.integers(1, 4), _stage_free),
        st.builds(SomeStage, _stage_free),
    ),
    lambda kids: st.one_of(
        st.builds(And, kids, kids),
        st.builds(Or, kids, kids),
        st.builds(Implies, kids, kids),
    ),
    max_leaves=6,
)


@given(_formulas)
def test_show_parse_roundtrip(f):
    assert parse(show(f)) == f


# --- the parser against the reference parser ---


def _read(read, text, *args):
    """read's formula, or its error's type, message and offset."""
    try:
        return read(text, *args)
    except ValueError as e:
        return type(e), str(e), getattr(e, "pos", None)


def _parser_parse(text, lawlike):
    return _Parser(text, lawlike).parse()


def _ascii_indices(text: str) -> str:
    """text as the reference parser must read it to refuse what parse
    refuses: each non-ASCII digit in a stage index made a plain non-digit,
    so that the reference, like parse, finds that index malformed at its
    '[' (it reads [\u0663] as [3] and fails on [\u00b2] with a bare ValueError)."""
    return re.sub(r"\[[0-9\u00b2\u0663]+", lambda m: re.sub("[\u00b2\u0663]", "x", m[0]), text)


_UNICODE_SPACES = "".join(c for c in map(chr, range(0x3001)) if c.isspace())
_EDIT_CHARS = "[]0123456789\u00b2\u0663<*>-|_!~&()" + _UNICODE_SPACES


@st.composite
def _edited_texts(draw):
    """show of a formula after one to three one-character insertions or deletions."""
    text = show(draw(_formulas))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        if i < len(text) and draw(st.booleans()):
            text = text[:i] + text[i + 1 :]
        else:
            text = text[:i] + draw(st.sampled_from(_EDIT_CHARS)) + text[i:]
    return text


@given(_formulas, st.frozensets(_names))
def test_parse_matches_the_reference_parser(f, lawlike):
    text = show(f)
    assert _read(parse, text) == _read(reference_parse, text) == f
    assert _read(_parser_parse, text, lawlike) == _read(reference_parse, text, lawlike)


@given(_edited_texts(), st.frozensets(_names))
def test_edited_formulas_read_as_the_reference_reads_them(text, lawlike):
    expected = _read(reference_parse, _ascii_indices(text), lawlike)
    assert _read(_parser_parse, text, lawlike) == expected
    if not lawlike:
        assert _read(parse, text) == expected


@pytest.mark.parametrize(
    "text",
    ["<*>(alpha | ~alpha) -> e_hits", "[2](p -> q) & |r | s| -> _|_", "~~~a -> ~<*>~~a",
     "(p!)| & [10]~q"],
)
def test_every_one_character_edit_reads_as_the_reference_reads_it(text):
    edits = [text[:i] + text[i + 1 :] for i in range(len(text))]
    edits += [text[:i] + c + text[i:] for i in range(len(text) + 1) for c in _EDIT_CHARS]
    for edited in edits:
        expected = _read(reference_parse, _ascii_indices(edited), frozenset({"q"}))
        assert _read(_parser_parse, edited, frozenset({"q"})) == expected, edited


@pytest.mark.parametrize("shape", NESTING_SHAPES)
@pytest.mark.parametrize("levels", [MAX_NESTING - 1, MAX_NESTING, MAX_NESTING + 1])
def test_the_nesting_bound_matches_the_reference_parser(shape, levels):
    text = _nested(shape, levels)
    assert _read(parse, text) == _read(reference_parse, text)


# --- stage trees ---


def chain(atom_sets):
    """A linear tree; atom_sets[i] holds at depth i (plus whatever persists)."""
    n = len(atom_sets)
    parents = (None,) + tuple(range(n - 1))
    acc, vals = set(), []
    for s in atom_sets:
        acc |= set(s)
        vals.append(frozenset(acc))
    return StageTree(parents, tuple(vals))


def test_tree_shape_queries():
    #      0
    #     / \
    #    1   2
    #        |
    #        3
    m = StageTree(
        (None, 0, 0, 2),
        (frozenset(), frozenset({"p"}), frozenset(), frozenset({"q"})),
    )
    assert m.size == 4 and m.depth == 2
    assert m.successors(0) == [1, 2]
    assert m.successors(1) == [1]  # leaves loop
    assert m.descendants_or_self(2) == [2, 3]
    assert m.steps(0, 1) == frozenset({1, 2})
    assert m.steps(0, 2) == frozenset({1, 3})  # 1 loops, 2 advances
    assert m.steps(0, 5) == frozenset({1, 3})
    assert m.index_of("n3") == 3
    with pytest.raises(ModelError):
        m.index_of("nowhere")


@pytest.mark.parametrize(
    "parents,size,ids,message",
    [
        ((), 0, None, "a stage tree needs at least one node"),
        ((None, 0), 1, None, "valuation size does not match node count"),
        ((None, None), 2, None, "exactly one root is required, at index 0"),
        ((0, 0), 2, None, "exactly one root is required, at index 0"),  # no root
        ((None, 5), 2, None, "node n1 has an unknown parent"),
        # a cycle's nodes are unreachable from the root
        ((None, 1), 2, None, "disconnected nodes in the tree"),  # self-parent
        ((None, 2, 1), 3, None, "disconnected nodes in the tree"),
        ((None, 0), 2, ("a", "a"), "node ids must be unique and cover every node"),
        ((None, 0), 2, ("a",), "node ids must be unique and cover every node"),
    ],
)
def test_bad_trees_rejected(parents, size, ids, message):
    with pytest.raises(ModelError) as ei:
        StageTree(parents, (frozenset(),) * size, ids)
    assert str(ei.value) == message


def test_monotone_valuation_enforced():
    with pytest.raises(ModelError) as ei:
        chain_vals = (frozenset({"p"}), frozenset())
        StageTree((None, 0), chain_vals)
    assert "monotone" in str(ei.value)
    # the audit helper reports the (node, atom) pairs when probed directly
    m = chain([{"p"}, set()])
    m.valuation = (frozenset({"p"}), frozenset())
    assert monotonicity_violations(m) == [(1, "p")]


def test_model_json_roundtrip():
    m = StageTree(
        (None, 0, 0),
        (frozenset({"p"}), frozenset({"p", "q"}), frozenset({"p"})),
        ("root", "l", "r"),
    )
    doc = dump_model(m)
    m2 = load_model(json.dumps(doc))
    assert m2.parents == m.parents
    assert m2.valuation == m.valuation
    assert m2.ids == m.ids
    assert dump_model(m2) == doc


def test_load_model_accepts_root_anywhere():
    text = json.dumps(
        {
            "nodes": [
                {"id": "kid", "parent": "top", "atoms": ["p"]},
                {"id": "top", "atoms": []},
            ]
        }
    )
    m = load_model(text)
    assert m.ids == ("top", "kid")
    assert m.parents == (None, 0)
    assert m.valuation == (frozenset(), frozenset({"p"}))


@pytest.mark.parametrize(
    "doc,message",
    [
        ("not json {", "model file is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
        ('{"nodes": []}', "model JSON needs a non-empty 'nodes' list"),
        ('{"nodes": [{"id": "a"}, {"id": "a"}]}', "duplicate node ids"),
        ('{"nodes": [{"id": "a"}, {"id": "b"}]}', "model JSON needs exactly one root node"),
        ('{"nodes": [{"id": "a", "parent": "ghost"}]}', "model JSON needs exactly one root node"),
        ('{"nodes": [{"id": "r"}, {"id": "a", "parent": "ghost"}]}',
         "node 'a' references unknown parent 'ghost'"),
        ('{"nodes": [{"id": "r"}, {"id": "a", "parent": "b"}, {"id": "b", "parent": "a"}]}',
         "disconnected nodes in the tree"),
        ('{"nodes": [{"id": "a", "atoms": ["p"]}, {"id": "b", "parent": "a"}]}',
         "valuation not monotone: atom 'p' is lost at node b"),
    ],
)
def test_load_model_rejects(doc, message):
    with pytest.raises(ModelError) as ei:
        load_model(doc)
    assert str(ei.value) == message


@pytest.mark.parametrize(
    "doc",
    [
        '{"nodes": [{"parent": "a"}, {"id": "a"}]}',  # a node without an id
        '[{"id": "a"}]',  # no top-level object
        '{"nodes": [1]}',  # a node that is not an object
        '{"nodes": [{"id": "a", "atoms": "pq"}]}',  # atoms not a list
        '{"nodes": [{"id": "a", "atoms": ["p", 1]}]}',  # an atom that is not a name
    ],
)
def test_load_model_rejects_malformed_files(doc):
    with pytest.raises(ModelError):
        load_model(doc)


def test_load_model_empty_parent_marks_the_root_anywhere():
    m = load_model(json.dumps({"nodes": [{"id": "kid", "parent": "top"}, {"id": "top", "parent": ""}]}))
    assert m.ids == ("top", "kid") and m.parents == (None, 0)


# --- forcing ---


def test_forcing_hand_model():
    # q turns true one stage in; [1]q holds at the root, q itself does not
    m = chain([set(), {"q"}])
    assert not forces(m, 0, Q)
    assert forces(m, 0, Box(1, Q))
    assert forces(m, 0, SomeStage(Q))
    assert not forces(m, 0, Implies(SomeStage(Q), Q))  # settling-in-advance fails
    assert forces(m, 0, Implies(Q, SomeStage(Q)))
    # negation quantifies over descendants: ~q already fails at the root,
    # and since ~q holds nowhere, ~~q holds at the root before q does
    assert not forces(m, 0, Not(Q))
    assert forces(m, 0, Not(Not(Q)))


def test_box_counts_exact_steps():
    m = chain([set(), {"p"}, {"q"}])
    assert forces(m, 0, Box(2, Q))
    assert not forces(m, 0, Box(1, Q))
    assert forces(m, 0, Box(1, P))
    assert forces(m, 1, Box(1, Q))
    # beyond the leaf the loop keeps everything stable
    assert forces(m, 0, Box(9, And(P, Q)))


def test_tested_now_and_later():
    # on a chain, q's fate is already settled at the root: ~~q holds there
    m = chain([set(), {"q"}])
    assert forces(m, 0, sugar_now(Q))
    # with a genuine fork the root can't test q yet, but every next stage can
    fork = StageTree(
        (None, 0, 0),
        (frozenset(), frozenset({"q"}), frozenset()),
    )
    assert not forces(fork, 0, sugar_now(Q))
    assert forces(fork, 0, sugar_later(Q))
    assert forces(fork, 1, sugar_now(Q))  # q arrived
    assert forces(fork, 2, sugar_now(Q))  # q refuted


def test_forcing_is_monotone_along_the_tree():
    bounds = SweepBounds(max_nodes=4, max_atoms=2, max_box_index=2, max_operand_depth=1)
    sample = [
        parse(s)
        for s in (
            "p",
            "~p",
            "~~q",
            "p -> q",
            "(p -> q) -> q",
            "[1]p",
            "[2](p | q)",
            "<*>p",
            "<*>(p & q)",
            "<*>~p -> ~p",
            "[1]q | ~[1]q",
        )
    ]
    for i, m in enumerate(enumerate_models(bounds)):
        if i % 17:  # keep the walk cheap; shapes still all get visits
            continue
        for f in sample:
            for w in range(m.size):
                if forces(m, w, f):
                    assert all(forces(m, u, f) for u in m.descendants_or_self(w))


# --- the bitmask engine agrees with the reference semantics ---


def test_masks_match_reference_forces():
    bounds = SweepBounds(max_nodes=4, max_atoms=2, max_box_index=3, max_operand_depth=1)
    stage_free = enumerate_box_free(SweepBounds())  # full depth-2 pool
    probes = stage_free[::23]
    probes += [Box(n, f) for n in (1, 3) for f in stage_free[::151]]
    probes += [SomeStage(f) for f in stage_free[::151]]
    probes += [Implies(SomeStage(P), P), Or(Box(2, Q), Not(Box(2, Q)))]
    checked = 0
    for i, m in enumerate(enumerate_models(bounds)):
        if i % 11:
            continue
        masks = _Masks(m, bounds.max_box_index)
        memo = {}
        for f in probes:
            mask = masks_eval(masks, f, memo)
            for w in range(m.size):
                assert bool(mask >> w & 1) == forces(m, w, f), (show(f), w)
            checked += 1
    assert checked > 400


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_masks_match_forces_random(data):
    models = list(
        enumerate_models(SweepBounds(max_nodes=3, max_atoms=2, max_box_index=2, max_operand_depth=1))
    )
    m = data.draw(st.sampled_from(models))
    f = data.draw(_formulas)
    masks = _Masks(m, 4)
    mask = masks_eval(masks, f, {})
    for w in range(m.size):
        assert bool(mask >> w & 1) == forces(m, w, f)


def test_mask_walk_takes_atoms_only_from_the_memo():
    masks = _Masks(StageTree((None, 0), (frozenset(), frozenset({"p"}))), 2)
    for f in (P, SomeStage(P), Implies(Q, BOT)):
        with pytest.raises(TypeError, match="no mask for Atom"):
            eval_mask(masks, f, {})
    assert eval_mask(masks, SomeStage(P), {id(P): 0b10}) == 0b11
    assert masks_eval(masks, SomeStage(P), {}) == 0b11
    # a compiled template reads every atom as phi, from phi's mask alone
    assert _mask_function(SomeStage(P))(masks, 0b10) == 0b11
    assert _mask_function(Implies(Q, BOT))(masks, 0) == 0b11


# --- enumeration counts ---


def test_shape_and_model_counts():
    # rooted unordered trees on 1..5 nodes: 1 + 1 + 2 + 4 + 9
    shapes = enumerate_shapes(5)
    assert len(shapes) == 17
    assert len({tuple(s) for s in shapes}) == 17
    assert all(s[0] is None for s in shapes)

    bounds = SweepBounds()
    assert count_models(bounds) == 1254
    models = list(enumerate_models(bounds))
    assert len(models) == 1254

    assert len(enumerate_box_free(bounds)) == 2703


def test_chain_upclosed_valuations():
    # along a 3-chain each atom has 4 monotone placements (never, from 0/1/2)
    bounds = SweepBounds(max_nodes=1, max_atoms=2)
    assert count_models(bounds) == 4  # single node, 2 atoms on/off
    got = {tuple(sorted(m.valuation[0])) for m in enumerate_models(bounds)}
    assert got == {(), ("p",), ("q",), ("p", "q")}


def test_atom_pool_guard():
    with pytest.raises(ValueError):
        SweepBounds(max_atoms=len(ATOM_POOL) + 1)
    with pytest.raises(ValueError):
        SweepBounds(max_nodes=0)


# The labelled enumeration the codes replaced, kept as the test oracle:
# every parent array on n nodes reduced to its shape code, and the up-sets
# found by scanning all 2^n node masks.


def _ref_shape_code(children: list[list[int]], w: int):
    return tuple(sorted(_ref_shape_code(children, c) for c in children[w]))


def _children(parents) -> list[list[int]]:
    children: list[list[int]] = [[] for _ in parents]
    for i, p in enumerate(parents):
        if p is not None:
            children[p].append(i)
    return children


def _ref_codes(n: int) -> list:
    seen = set()

    def rec(parents: list[Optional[int]]):
        if len(parents) == n:
            seen.add(_ref_shape_code(_children(parents), 0))
            return
        for p in range(len(parents)):
            rec(parents + [p])

    rec([None])
    return sorted(seen, key=repr)


def _ref_upclosed_sets(parents) -> list[int]:
    children = _children(parents)
    return [
        mask
        for mask in range(1 << len(parents))
        if all(mask >> c & 1 for w in range(len(parents)) if mask >> w & 1 for c in children[w])
    ]


def test_shapes_follow_the_labelled_enumeration():
    shapes = enumerate_shapes(8)
    codes = [_ref_shape_code(_children(s), 0) for s in shapes]
    assert codes == [code for n in range(1, 9) for code in _ref_codes(n)]
    for n in range(1, 9):
        assert list(_codes(n)) == _ref_codes(n)


def test_upclosed_sets_match_the_mask_scan():
    for shape in enumerate_shapes(8):
        assert _upclosed_sets(shape) == _ref_upclosed_sets(shape)


def test_count_models_matches_the_up_set_scan():
    scans = [(len(s), len(_ref_upclosed_sets(s))) for s in enumerate_shapes(8)]
    for nodes in range(1, 9):
        for atoms in range(1, 4):
            bounds = SweepBounds(max_nodes=nodes, max_atoms=atoms)
            assert count_models(bounds) == sum(u**atoms for n, u in scans if n <= nodes)


def test_shape_counts_are_a000081():
    # rooted unlabelled trees on n nodes (OEIS A000081)
    expected = [1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842, 4766]
    assert [len(_codes(n)) for n in range(1, 13)] == expected


def test_cap_refuses_without_enumerating(monkeypatch):
    from brouwer.cli import main

    def never(*args):
        raise AssertionError("the cap enumerated shapes or up-sets")

    monkeypatch.setattr("brouwer._masks._preorder", never)
    monkeypatch.setattr("brouwer._masks._upclosed_sets", never)
    with pytest.raises(ResourceLimitError) as ei:
        validity_sweep("ic1", SweepBounds(max_nodes=12))
    assert ei.value.requested == 255_347_535 * 2_703 == 690_204_387_105
    assert main(["logic", "sweep", "--schema", "ic1", "--nodes", "12"]) == 64


def test_cap_charges_a_pass_over_the_nodes(monkeypatch, capsys):
    # two formulas per model used to pass the cap and run for minutes; a
    # model visited walks its nodes, so it costs at least max_nodes
    from brouwer.cli import main

    def never(*args):
        raise AssertionError("the cap enumerated shapes or up-sets")

    monkeypatch.setattr("brouwer._masks._preorder", never)
    monkeypatch.setattr("brouwer._masks._upclosed_sets", never)
    with pytest.raises(ResourceLimitError) as ei:
        validity_sweep("ic1", SweepBounds(max_nodes=13, max_atoms=1, max_operand_depth=0))
    assert ei.value.requested == 4_178_899 * 13 == 54_325_687
    argv = ["logic", "sweep", "--schema", "ic1", "--nodes", "13", "--atoms", "1", "--depth", "0"]
    assert main(argv) == 64
    assert "x 13 (the larger of 2 formulas and 13 nodes) = 54325687" in capsys.readouterr().err


# --- sweeps ---

FAST = SweepBounds(max_nodes=3, max_atoms=2, max_box_index=2, max_operand_depth=1)


def test_sweep_validates_ic2_and_refutes_cs5():
    ok = validity_sweep("ic2", FAST)
    assert ok.valid_up_to_bounds and ok.countermodel is None
    assert ok.models_checked == count_models(FAST)
    assert ok.monotone_ok

    bad = validity_sweep("cs5", FAST)
    assert not bad.valid_up_to_bounds
    cm = bad.countermodel
    # replay the countermodel against the reference semantics
    assert not forces(cm.model, cm.node, cm.instance)
    assert cm.instance == Implies(SomeStage(cm.phi), cm.phi)
    assert cm.model.size == 2 and show(cm.instance) == "<*>q -> q"


def test_cs4_needs_three_nodes():
    assert validity_sweep("cs4", SweepBounds(max_nodes=2, max_atoms=2, max_box_index=2, max_operand_depth=1)).valid_up_to_bounds
    res = validity_sweep("cs4", FAST)
    cm = res.countermodel
    assert cm is not None and cm.model.size == 3
    assert show(cm.instance) == "[1]q | ~[1]q"
    assert not forces(cm.model, cm.node, cm.instance)
    assert cm.indices == {"n": 1}


def test_cs5_needs_two_nodes():
    one = SweepBounds(max_nodes=1, max_atoms=2, max_box_index=2, max_operand_depth=1)
    assert validity_sweep("cs5", one).valid_up_to_bounds
    assert validity_sweep("cs4", one).valid_up_to_bounds


def test_sweep_is_deterministic():
    a = validity_sweep("cs4", FAST).countermodel.as_dict()
    b = validity_sweep("cs4", FAST).countermodel.as_dict()
    assert a == b
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_countermodel_dict_is_loadable():
    d = validity_sweep("cs5", FAST).countermodel.as_dict()
    m = load_model(json.dumps(d["model"]))
    inst = parse(d["instance"])
    assert not forces(m, m.index_of(d["node"]), inst)


def test_unknown_schema():
    with pytest.raises(ValueError):
        validity_sweep("zz9", FAST)


def test_sweep_refuses_over_cap(monkeypatch):
    monkeypatch.setattr("brouwer._masks.DEFAULT_SWEEP_CAP", 1000)
    with pytest.raises(ResourceLimitError) as ei:
        validity_sweep("ic1", SweepBounds())
    assert ei.value.requested > ei.value.limit == 1000


def test_principle_suite_fast_bounds():
    report = principle_suite(FAST)
    assert report.monotone_ok
    for name in EXPECTED_VALID:
        assert report.outcome(name) == "valid-up-to-bounds", name
    for name in EXPECTED_REFUTED:
        assert report.outcome(name) == "countermodel", name
    # every result carries the same model count from the shared pass
    counts = {r.models_checked for r in report.results.values()}
    assert counts == {count_models(FAST)}
    assert "lawlike" in report.restricted_cs5_note


# --- schema templates against the hand-written instances they replaced ---


def _pinned_ic1_instances(b: SweepBounds):
    out = []
    for n in range(1, b.max_box_index):
        for m in range(1, b.max_box_index - n + 1):
            out.append(
                (
                    {"n": n, "m": m},
                    lambda phi, n=n, m=m: Implies(Box(n, phi), Box(n + m, phi)),
                )
            )
    return out


# the instance builders each schema had before templates, kept verbatim as the oracle
_PINNED_INSTANCES = {
    "ic1": _pinned_ic1_instances,
    "ic2": lambda b: [({}, lambda phi: Implies(Not(phi), Not(SomeStage(phi))))],
    "ic3": lambda b: [({}, lambda phi: Implies(phi, SomeStage(phi)))],
    "md": lambda b: [({}, lambda phi: Implies(Not(SomeStage(phi)), Not(phi)))],
    "cs4": lambda b: [
        ({"n": n}, lambda phi, n=n: Or(Box(n, phi), Not(Box(n, phi))))
        for n in range(1, b.max_box_index + 1)
    ],
    "cs5": lambda b: [({}, lambda phi: Implies(SomeStage(phi), phi))],
}

_SAMPLE_PHIS = [P, Atom("phi"), Atom("a", lawlike=True), BOT, Not(P), parse("p & ~q -> p | q")]


def _subformulas(f):
    yield f
    for child in (getattr(f, "left", None), getattr(f, "right", None), getattr(f, "operand", None)):
        if child is not None:
            yield from _subformulas(child)


@pytest.mark.parametrize("box", range(1, 6))
@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_template_instances_match_pinned_builders(name, box):
    bounds = SweepBounds(max_box_index=box)
    got, want = SCHEMAS[name].instances(bounds), _PINNED_INSTANCES[name](bounds)
    assert [indices for indices, _ in got] == [indices for indices, _ in want]
    for (indices, build), (_, pinned) in zip(got, want):
        for phi in _SAMPLE_PHIS:
            inst = build(phi)
            assert inst == pinned(phi)
            # the sweep's mask memo keys on id(phi), so phi itself is embedded
            assert any(g is phi for g in _subformulas(inst))
            assert SCHEMAS[name].match(inst) == (phi, indices)


def test_template_text_and_matcher():
    for schema in SCHEMAS.values():
        if schema.name != "cs4":
            assert " -> ".join(schema.sides()) == schema.template
    ic1 = SCHEMAS["ic1"]
    # indices are not bounded by any sweep bound, only by >= 1
    assert ic1.match(parse("[2]a -> [7]a")) == (Atom("a"), {"n": 2, "m": 5})
    assert ic1.match(parse("[2]a -> [2]a")) is None
    assert ic1.match(parse("[3]a -> [2]a")) is None
    assert ic1.match(parse("[1]a -> [2]b")) is None
    assert SCHEMAS["cs4"].match(parse("[2]p | ~[3]p")) is None
    assert SCHEMAS["ic2"].match(parse("~phi -> ~<*>phi")) == (Atom("phi"), {})
    assert SCHEMAS["ic3"].match(parse("p -> <*>~p")) is None
    assert SCHEMAS["md"].match(parse("~<*>p -> p")) is None


# --- the mask sweep against the per-formula reference loop ---


def _reference_sweep(
    schema_names: list[str], bounds: SweepBounds, cap: int
) -> tuple[dict[str, SweepResult], bool]:
    """The per-formula sweep the mask algebra replaced, kept verbatim as the
    oracle but for taking its instances from the pinned builders and its
    masks from the reference walk."""
    _refuse_if_huge(bounds, cap)
    formulas = enumerate_box_free(bounds)
    instances = {
        name: _PINNED_INSTANCES[name](bounds) for name in schema_names
    }
    found: dict[str, Optional[Countermodel]] = {name: None for name in schema_names}
    models_checked = 0
    instances_checked = {name: 0 for name in schema_names}
    monotone_ok = True

    atoms = formulas[: bounds.max_atoms]  # every formula shares these objects
    for model in enumerate_models(bounds):
        models_checked += 1
        mm = _Masks(model, bounds.max_box_index)
        memo = {id(atom): masks_eval(mm, atom, {}) for atom in atoms}
        seen_masks: set[int] = set()
        for phi in formulas:
            mask = eval_mask(mm, phi, memo)
            if monotone_ok and not mm.upclosed(mask):
                monotone_ok = False
            if mask in seen_masks:
                continue
            seen_masks.add(mask)
            for name in schema_names:
                if found[name] is not None:
                    continue
                for indices, build in instances[name]:
                    inst = build(phi)
                    inst_mask = masks_eval(mm, inst, {})
                    instances_checked[name] += 1
                    if monotone_ok and not mm.upclosed(inst_mask):
                        monotone_ok = False
                    if inst_mask != mm.full:
                        missing = ~inst_mask & mm.full
                        node = (missing & -missing).bit_length() - 1
                        found[name] = Countermodel(model, node, phi, indices, inst)
                        break
        if all(found[name] is not None for name in schema_names):
            break

    results = {
        name: SweepResult(
            schema=name,
            bounds=bounds,
            models_checked=models_checked,
            instances_checked=instances_checked[name],
            countermodel=found[name],
            monotone_ok=monotone_ok,
        )
        for name in schema_names
    }
    return results, monotone_ok


def _per_model_sweep(
    schema_names: list[str], bounds: SweepBounds, cap: int
) -> tuple[dict[str, SweepResult], bool]:
    """The mask sweep as it was before root classes: the ranked closure,
    the instance checks (by the reference walk) and the monotonicity audit
    on every model."""
    _refuse_if_huge(bounds, cap)
    formulas = functools.cache(lambda: enumerate_box_free(bounds))  # for countermodels only
    starts = _level_starts(bounds)
    atoms = ATOM_POOL[: bounds.max_atoms]
    # each instance is built once, over a placeholder atom for phi
    slot = Atom("phi")
    instances = {
        name: [(indices, build, build(slot)) for indices, build in SCHEMAS[name].instances(bounds)]
        for name in schema_names
    }
    found: dict[str, Optional[Countermodel]] = {name: None for name in schema_names}
    models_checked = 0
    instances_checked = {name: 0 for name in schema_names}
    monotone_ok = True

    for shape, valuations in _valued_shapes(bounds):
        mm = _Masks(StageTree(shape, (frozenset(),) * len(shape)), bounds.max_box_index)
        implies = functools.cache(mm.implies_mask)
        verdicts: dict[tuple[str, int, int], int] = {}
        for atom_masks in valuations:
            models_checked += 1
            closure = mask_closure(atom_masks, starts, implies)
            for index, mask in sorted((i, m) for m, i in closure.items()):
                if monotone_ok and not mm.upclosed(mask):
                    monotone_ok = False
                for name in schema_names:
                    if found[name] is not None:
                        continue
                    for j, (indices, build, template) in enumerate(instances[name]):
                        inst_mask = verdicts.get((name, j, mask))
                        if inst_mask is None:
                            inst_mask = verdicts[name, j, mask] = eval_mask(mm, template, {id(slot): mask})
                            if monotone_ok and not mm.upclosed(inst_mask):
                                monotone_ok = False
                        instances_checked[name] += 1
                        if inst_mask != mm.full:
                            missing = ~inst_mask & mm.full
                            node = (missing & -missing).bit_length() - 1
                            phi = formulas()[index]
                            model = _stage_tree(shape, atoms, atom_masks)
                            found[name] = Countermodel(model, node, phi, indices, build(phi))
                            break
            if all(found[name] is not None for name in schema_names):
                break
        else:
            continue
        break

    results = {
        name: SweepResult(
            schema=name,
            bounds=bounds,
            models_checked=models_checked,
            instances_checked=instances_checked[name],
            countermodel=found[name],
            monotone_ok=monotone_ok,
        )
        for name in schema_names
    }
    return results, monotone_ok


def _outcome(result: SweepResult):
    cm = result.countermodel
    return (
        result.models_checked,
        result.instances_checked,
        result.monotone_ok,
        cm.as_dict() if cm is not None else None,
    )


def _assert_same_sweep(names, bounds, oracle=_reference_sweep):
    # each outcome holds its result's monotone_ok, the run's audit
    got = _sweep(names, bounds)
    want, _ = oracle(names, bounds, DEFAULT_SWEEP_CAP)
    assert {n: _outcome(got[n]) for n in names} == {n: _outcome(want[n]) for n in names}


@functools.lru_cache(maxsize=None)
def _reference_suite(bounds: SweepBounds) -> dict[str, SweepResult]:
    return _reference_sweep(list(SCHEMAS), bounds, DEFAULT_SWEEP_CAP)[0]


def _reference_single(name: str, bounds: SweepBounds) -> SweepResult:
    suite = _reference_suite(bounds)
    if suite[name].countermodel is None and suite[name].monotone_ok:
        # a schema the joint run never refutes meets every model and mask
        # there, as it would alone, and the joint audit covers its own; this
        # saves one ~10 s reference pass per valid schema at five nodes
        return suite[name]
    return _reference_sweep([name], bounds, DEFAULT_SWEEP_CAP)[0][name]


_ORACLE_BOUNDS = [
    SweepBounds(max_nodes=n, max_atoms=2, max_operand_depth=d)
    for n in range(1, 6)
    for d in (1, 2)
] + [
    SweepBounds(max_nodes=2, max_atoms=3, max_operand_depth=2),
    SweepBounds(max_nodes=4, max_atoms=3, max_operand_depth=1),
]


@pytest.mark.parametrize("bounds", _ORACLE_BOUNDS, ids=lambda b: f"{b.max_nodes}-{b.max_atoms}-{b.max_operand_depth}")
@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_mask_sweep_matches_reference_per_schema(name, bounds):
    assert _outcome(validity_sweep(name, bounds)) == _outcome(_reference_single(name, bounds))


# the shapes holding a first countermodel run model by model; in the suite
# such a shape also brings new classes for the schemas still unfound
_PER_MODEL_CASES = [
    (names, bounds)
    for bounds in _ORACLE_BOUNDS + [SweepBounds(max_nodes=6, max_atoms=2, max_operand_depth=1)]
    for names in [[name] for name in sorted(SCHEMAS)] + [list(SCHEMAS)]
] + [
    (list(SCHEMAS), SweepBounds(max_nodes=3, max_atoms=3, max_operand_depth=1)),
    (list(SCHEMAS), SweepBounds(max_nodes=4, max_atoms=2, max_operand_depth=0)),
] + [
    ([name], SweepBounds(max_nodes=nodes, max_atoms=atoms, max_operand_depth=0))
    for name in EXPECTED_REFUTED
    for nodes, atoms in [(4, 2), (5, 3)]
]


@pytest.mark.parametrize(
    "names,bounds",
    _PER_MODEL_CASES,
    ids=[f"{'+'.join(names)}-{b.max_nodes}-{b.max_atoms}-{b.max_operand_depth}" for names, b in _PER_MODEL_CASES],
)
def test_class_sweep_matches_the_per_model_loop(names, bounds):
    _assert_same_sweep(names, bounds, oracle=_per_model_sweep)


def test_a_sweep_leaves_no_reference_cycle():
    # the class tables live in plain dicts local to the sweep; with the
    # collector off, a cycle through them would keep every table alive
    bounds = SweepBounds(max_nodes=6, max_atoms=2, max_operand_depth=1)
    principle_suite(bounds)
    gc.collect()
    tracemalloc.start()
    gc.disable()
    try:
        principle_suite(bounds)  # the allocator's free lists fill up here
        baseline = tracemalloc.get_traced_memory()[0]
        principle_suite(bounds)
        grown = tracemalloc.get_traced_memory()[0] - baseline
        unreachable = gc.collect()
    finally:
        gc.enable()
        tracemalloc.stop()
    assert unreachable == 0
    # a cycle through the tables keeps ~130 kB; the free lists settle by ~10 kB
    assert grown < 24_000


@pytest.mark.parametrize(
    "run",
    [
        lambda: validity_sweep("ic1", SweepBounds(6, 2, 3, 1)),
        lambda: principle_suite(SweepBounds()),
        lambda: principle_suite(SweepBounds(6, 2, 3, 1)),
    ],
    ids=["ic1-6-2-1", "suite-5-2-2", "suite-6-2-1"],
)
def test_a_sweep_audits_and_evaluates_each_mask_once_per_shape(monkeypatch, run):
    # the answers are pinned against the oracles above; this pins the work.
    # Audits count by (shape, mask); evaluations of a compiled instance
    # template by (shape, template, phi mask), not the nested calls that
    # compute its parts.
    audits: Counter = Counter()
    evals: Counter = Counter()
    upclosed, compile_template = _Masks.upclosed, _mask_function
    depth = [0]

    def counted_upclosed(self, mask):
        audits[self.m.parents, mask] += 1
        return upclosed(self, mask)

    def counted_compile(t):
        # the compiler recurses through the module's name, so every part of
        # a template is wrapped too; only the outermost call counts
        fn = compile_template(t)

        def counted(mm, phi_mask):
            if not depth[0]:
                evals[mm.m.parents, id(t), phi_mask] += 1
            depth[0] += 1
            try:
                return fn(mm, phi_mask)
            finally:
                depth[0] -= 1

        return counted

    monkeypatch.setattr(_Masks, "upclosed", counted_upclosed)
    monkeypatch.setattr("brouwer._masks._mask_function", counted_compile)
    run()
    assert audits and evals
    assert max(audits.values()) == 1
    assert max(evals.values()) == 1


def _unreachable_after(call, times: int = 100) -> int:
    """Objects the collector finds after `times` calls made with it off."""
    gc.collect()
    gc.disable()
    try:
        for _ in range(times):
            call()
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("name", ["show", "match"])
def test_show_and_match_leave_no_reference_cycle(name):
    # a nested self-recursive helper would close over itself: one cycle per call
    f = parse("[1](p & ~q) -> [3](p & ~q)")
    call = {"show": lambda: show(f), "match": lambda: SCHEMAS["ic1"].match(f)}[name]
    assert call()
    assert _unreachable_after(call) == 0


def test_formula_records_compare_by_kind_and_fields():
    p, q = Atom("p"), Atom("q")
    assert And(p, q) == And(Atom("p"), Atom("q")) and hash(And(p, q)) == hash(And(p, q))
    assert And(p, q) != Or(p, q) != Implies(p, q) and (p, q) != And(p, q)
    assert Bottom() == BOT and Atom("p", True) != p
    assert len({And(p, q), Or(p, q), Implies(p, q), And(p, q)}) == 3
    assert repr(Box(2, p)) == "Box(n=2, operand=Atom(name='p', lawlike=False))"
    assert repr(BOT) == "Bottom()"
    with pytest.raises(AttributeError, match="cannot assign to field 'left'"):
        And(p, q).left = q
    with pytest.raises(AttributeError):
        p.name = "q"
    with pytest.raises(AttributeError):
        p.extra = 1  # no instance dictionary either
    # formulas are named tuples, yet equal no plain tuple, from either side
    assert And(p, q) != (p, q) and not And(p, q) == (p, q)
    assert BOT != () and () != BOT and not BOT == ()
    kinds = [p, Atom("p", True), BOT, And(p, q), Or(p, q), Implies(p, q), Box(2, p), SomeStage(q)]
    for f in kinds:
        assert hash(f) == hash(tuple(getattr(f, name) for name in f._fields))
        for g in kinds + [tuple(f)]:
            assert (f != g) is (not f == g) and (g != f) is (not g == f)
    for f in (Box(2, p), p):  # unpickling reruns __new__, and with it Box's checks
        assert pickle.loads(pickle.dumps(f)) == copy.copy(f) == copy.deepcopy(f) == f
    bounds = SweepBounds(max_nodes=3)
    assert bounds == SweepBounds(3) and bounds != SweepBounds(4)
    assert bounds.as_dict() == {
        "max_nodes": 3, "max_atoms": 2, "max_box_index": 3, "max_operand_depth": 2
    }
    assert SCHEMAS["ic1"] == Schema("ic1", "[n]phi -> [n+m]phi")
    assert repr(SCHEMAS["cs5"]) == "Schema(name='cs5', template='<*>phi -> phi')"


@pytest.mark.parametrize("nodes,atoms", [(6, 2), (4, 3), (9, 1)])
def test_class_table_counts_the_models_of_each_root_class(nodes, atoms):
    # the model-by-model root classes are the oracle; tables are stored as
    # they are listed and classes interned across shapes, as in the sweep
    types: dict = {}
    memo: dict = {}
    total = 0
    for n in range(1, nodes + 1):
        for code in _codes(n):
            shape = tuple(_preorder(code, 0, [None]))
            children = _children(shape)
            table = {}
            for label in range(1 << atoms):
                memo[code, label] = _class_table(code, label, atoms, types, memo)
                table.update(memo[code, label])
            valuations = itertools.product(_upclosed_sets(shape), repeat=atoms)
            want = Counter(_root_class(children, masks, types) for masks in valuations)
            assert {cls: models for cls, (models, _) in table.items()} == want, code
            for cls, (_, labels) in table.items():
                masks = tuple(sum(1 << w for w in range(n) if labels >> (w * atoms + a) & 1) for a in range(atoms))
                _stage_tree(shape, ATOM_POOL[:atoms], masks)  # raises unless monotone
                assert _root_class(children, masks, types) == cls, (code, labels)
            total += sum(want.values())
    assert total == count_models(SweepBounds(max_nodes=nodes, max_atoms=atoms))


@pytest.mark.parametrize(
    "bounds",
    [SweepBounds(max_nodes=5, max_atoms=2, max_operand_depth=1), SweepBounds(max_nodes=4, max_atoms=2)],
    ids=["5-2-1", "4-2-2"],
)
def test_every_mask_is_upclosed_on_every_model(bounds):
    # the sweep audits once per root class; this audits every model
    slot = Atom("phi")
    templates = [build(slot) for s in SCHEMAS.values() for _, build in s.instances(bounds)]
    compiled = [_mask_function(t) for t in templates]
    for shape, valuations in _valued_shapes(bounds):
        mm = _Masks(StageTree(shape, (frozenset(),) * len(shape)), bounds.max_box_index)
        for atom_masks in valuations:
            for mask in _mask_set(atom_masks, bounds.max_operand_depth, mm.implies_mask):
                assert mm.upclosed(mask), (shape, atom_masks, mask)
                for t, fn in zip(templates, compiled):
                    assert mm.upclosed(fn(mm, mask)), (shape, atom_masks, show(t))


def test_the_audit_accepts_exactly_the_up_sets():
    # the sweep's audit never fails on a sound engine, so its False branch
    # is pinned here: of every node set, the up-sets and no others pass
    for shape in enumerate_shapes(5):
        mm = _Masks(StageTree(shape, (frozenset(),) * len(shape)), 1)
        passed = [mask for mask in range(1 << len(shape)) if mm.upclosed(mask)]
        assert passed == _upclosed_sets(shape), shape


# --- root classes ---


def _atom_masks(m: StageTree) -> tuple[int, ...]:
    return tuple(sum(1 << w for w in range(m.size) if a in m.valuation[w]) for a in "pqr")


@st.composite
def _trees(draw, max_nodes=6, atoms="pqr"):
    """A monotone tree whose every child is numbered after its parent."""
    n = draw(st.integers(1, max_nodes))
    parents = [None] + [draw(st.integers(0, w - 1)) for w in range(1, n)]
    vals: list[frozenset] = []
    for w, p in enumerate(parents):
        vals.append((vals[p] if w else frozenset()) | draw(st.frozensets(st.sampled_from(atoms))))
    return StageTree(tuple(parents), tuple(vals))


@st.composite
def _bisimilar_pairs(draw):
    """(a, b, origin): b is a with one non-root subtree duplicated under the
    same parent, or with a chain valued like a leaf hung under that leaf;
    origin[w] is the node of a that node w of b copies."""
    a = draw(_trees())
    parents, vals, origin = list(a.parents), list(a.valuation), list(range(a.size))
    if a.size > 1 and draw(st.booleans()):
        top = draw(st.integers(1, a.size - 1))
        copy: dict[int, int] = {}
        for u in a.descendants_or_self(top):  # ascending, so parents first
            copy[u] = len(parents)
            parents.append(a.parents[top] if u == top else copy[a.parents[u]])
            vals.append(a.valuation[u])
            origin.append(u)
    else:
        leaf = draw(st.sampled_from([w for w in range(a.size) if not a.children[w]]))
        below = leaf
        for _ in range(draw(st.integers(1, 3))):
            parents.append(below)
            vals.append(a.valuation[leaf])
            origin.append(leaf)
            below = len(parents) - 1
    return a, StageTree(tuple(parents), tuple(vals)), origin


@given(_bisimilar_pairs(), st.lists(_formulas, min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_bisimilar_models_force_alike_and_share_a_class(pair, fs):
    a, b, origin = pair
    for f in fs:
        for w in range(b.size):
            assert forces(b, w, f) == forces(a, origin[w], f), (show(f), w)
    types: dict = {}
    assert _root_class(a.children, _atom_masks(a), types) == _root_class(b.children, _atom_masks(b), types)


def _bisimilar_roots(a: StageTree, b: StageTree) -> bool:
    """Greatest bisimulation between a and b by naive refinement."""
    rel = {(x, y) for x in range(a.size) for y in range(b.size) if a.valuation[x] == b.valuation[y]}
    while True:
        keep = {
            (x, y)
            for x, y in rel
            if all(any((u, v) in rel for v in b.successors(y)) for u in a.successors(x))
            and all(any((u, v) in rel for u in a.successors(x)) for v in b.successors(y))
        }
        if keep == rel:
            return (0, 0) in rel
        rel = keep


@given(_trees(atoms="p"), _trees(atoms="p"))
@settings(max_examples=200, deadline=None)
def test_root_class_is_exactly_bisimilarity(a, b):
    # one atom and small trees make bisimilar pairs common
    types: dict = {}
    same = _root_class(a.children, _atom_masks(a), types) == _root_class(b.children, _atom_masks(b), types)
    assert same == _bisimilar_roots(a, b)


_SUBSETS = [list(SCHEMAS), ["cs4", "ic1"], ["cs5", "cs4"], ["md", "cs5", "ic3"]]


# at the default bounds a subset with a valid schema costs a ~10 s reference
# pass; the full suite's pass is shared with the per-schema cases
@pytest.mark.parametrize(
    "names,bounds",
    [(names, FAST) for names in _SUBSETS]
    + [(list(SCHEMAS), SweepBounds()), (["cs5", "cs4"], SweepBounds())],
    ids=lambda v: "+".join(v) if isinstance(v, list) else f"{v.max_nodes}-{v.max_operand_depth}",
)
def test_mask_sweep_matches_reference_on_subsets(names, bounds):
    if names == list(SCHEMAS):
        report = principle_suite(bounds)
        want = _reference_suite(bounds)
        assert {n: _outcome(report.results[n]) for n in names} == {
            n: _outcome(want[n]) for n in names
        }
        assert report.monotone_ok == all(r.monotone_ok for r in want.values())
    else:
        _assert_same_sweep(names, bounds)


@given(
    st.lists(st.sampled_from(sorted(SCHEMAS)), min_size=1, max_size=6, unique=True),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(0, 2),
)
@settings(max_examples=40, deadline=None)
def test_mask_sweep_matches_reference_random(names, nodes, atoms, box, depth):
    if atoms == 3 and depth == 2:
        nodes = min(nodes, 2)  # 8,116 formulas per model keep the reference slow
    _assert_same_sweep(names, SweepBounds(nodes, atoms, box, depth))


@pytest.mark.parametrize(
    "bounds",
    [SweepBounds(max_nodes=4, max_atoms=2), SweepBounds(max_nodes=3, max_atoms=3, max_operand_depth=1)],
    ids=["4-2-2", "3-3-1"],
)
def test_mask_closure_matches_a_formula_scan(bounds):
    # the sweep's verdicts only see the order of the first indices, so the
    # indices themselves are checked here, formula by formula: the ranked
    # oracle's, the set closure's masks and the formula-order pass's
    formulas = enumerate_box_free(bounds)
    starts = _level_starts(bounds)
    for shape, valuations in _valued_shapes(bounds):
        implies = _Masks(StageTree(shape, (frozenset(),) * len(shape)), 1).implies_mask
        for atom_masks in valuations:
            masks = _Masks(_stage_tree(shape, ATOM_POOL[: bounds.max_atoms], atom_masks), 1)
            memo: dict = {}
            first: dict[int, int] = {}
            for i, f in enumerate(formulas):
                first.setdefault(masks_eval(masks, f, memo), i)
            assert mask_closure(atom_masks, starts, implies) == first, (shape, atom_masks)
            assert _mask_set(atom_masks, bounds.max_operand_depth, implies) == set(first)
            passed: dict[int, int] = {}
            for i, mask in enumerate(_formula_masks(atom_masks, starts, implies)):
                passed.setdefault(mask, i)
            assert passed == first, (shape, atom_masks)
            assert i == len(formulas) - 1


@pytest.mark.parametrize(
    "bounds",
    [SweepBounds(4, 2, 3, 2), SweepBounds(5, 2, 3, 1), SweepBounds(2, 3, 3, 2), SweepBounds(4, 3, 3, 1)],
    ids=["4-2-2", "5-2-1", "2-3-2", "4-3-1"],
)
def test_a_refuting_visit_reads_the_ranked_oracles_index_and_partial_count(bounds):
    # whichever of a model's masks fails first, the sweep's ranks (the pass
    # in formula order, each mask at its first index) are the oracle's: its
    # least index, and the count of masks before it
    starts = _level_starts(bounds)
    for shape, valuations in _valued_shapes(bounds):
        implies = functools.cache(_Masks(StageTree(shape, (frozenset(),) * len(shape)), 1).implies_mask)
        for atom_masks in valuations:
            oracle = mask_closure(atom_masks, starts, implies)
            got: dict[int, tuple[int, int]] = {}
            for index, mask in enumerate(_formula_masks(atom_masks, starts, implies)):
                got.setdefault(mask, (index, len(got)))
            want = {mask: (index, sum(i < index for i in oracle.values())) for mask, index in oracle.items()}
            assert got == want, (shape, atom_masks)


@st.composite
def _shapes_and_valuations(draw):
    """A shape of up to 5 nodes, each child after its parent, and up to 3
    atom up-sets on it."""
    n = draw(st.integers(1, 5))
    shape = (None, *(draw(st.integers(0, w - 1)) for w in range(1, n)))
    atoms = draw(st.integers(1, 3))
    ups = _upclosed_sets(shape)
    return shape, tuple(draw(st.sampled_from(ups)) for _ in range(atoms))


@given(_shapes_and_valuations(), st.integers(0, 2))
@settings(max_examples=60, deadline=None)
def test_mask_set_is_the_set_of_every_formulas_mask(drawn, depth):
    shape, atom_masks = drawn
    bounds = SweepBounds(max_nodes=len(shape), max_atoms=len(atom_masks), max_operand_depth=depth)
    model = _stage_tree(shape, ATOM_POOL[: len(atom_masks)], atom_masks)
    mm = _Masks(model, 1)
    memo: dict = {}
    want = {masks_eval(mm, f, memo) for f in enumerate_box_free(bounds)}
    assert _mask_set(atom_masks, depth, mm.implies_mask) == want


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_compiled_instances_match_forces(data):
    # the production route from phi's mask to an instance's verdicts, against
    # the reference semantics node by node
    bounds = SweepBounds(max_nodes=4, max_atoms=2, max_box_index=3, max_operand_depth=1)
    model = data.draw(st.sampled_from(list(enumerate_models(bounds))))
    phi = data.draw(st.sampled_from(enumerate_box_free(bounds)))
    schema = data.draw(st.sampled_from(sorted(SCHEMAS)))
    mm = _Masks(model, bounds.max_box_index)
    phi_mask = masks_eval(mm, phi, {})
    # no schema template has '&': one more template compiles it
    builds = [build for _, build in SCHEMAS[schema].instances(bounds)]
    builds.append(lambda a: And(a, Implies(Box(1, a), Not(a))))
    for build in builds:
        mask = _mask_function(build(Atom("phi")))(mm, phi_mask)
        instance = build(phi)
        assert [mask >> w & 1 for w in range(model.size)] == [forces(model, w, instance) for w in range(model.size)]


@pytest.mark.parametrize(
    "bounds",
    [SweepBounds(max_nodes=4, max_atoms=2), SweepBounds(max_nodes=3, max_atoms=3)],
)
def test_sweep_visits_models_in_enumeration_order(bounds):
    atoms = ATOM_POOL[: bounds.max_atoms]
    stream = [
        _stage_tree(shape, atoms, masks)
        for shape, valuations in _valued_shapes(bounds)
        for masks in valuations
    ]
    assert [dump_model(m) for m in stream] == [dump_model(m) for m in enumerate_models(bounds)]


@pytest.mark.parametrize("name", EXPECTED_REFUTED)
def test_countermodel_is_the_last_model_checked(name):
    result = validity_sweep(name, SweepBounds())
    models = list(enumerate_models(SweepBounds()))
    assert dump_model(models[result.models_checked - 1]) == dump_model(result.countermodel.model)


def test_formula_count_without_building_the_formulas(monkeypatch):
    for atoms in range(1, 5):
        for depth in range(3):
            bounds = SweepBounds(max_atoms=atoms, max_operand_depth=depth)
            assert _level_starts(bounds)[-1] == len(enumerate_box_free(bounds))

    # operand depth 3 means ~22 million formulas: the cap refuses before any
    # is built or any model's masks are closed
    def never(*args):
        raise AssertionError("a formula or a closure was built before the cap check")

    monkeypatch.setattr("brouwer._masks._formula_at", never)
    monkeypatch.setattr("brouwer._masks._mask_set", never)
    monkeypatch.setattr("brouwer._masks._formula_masks", never)
    with pytest.raises(ResourceLimitError) as ei:
        validity_sweep("ic1", SweepBounds(max_operand_depth=3))
    assert ei.value.requested == 1254 * 21_918_630
    assert ei.value.limit == DEFAULT_SWEEP_CAP


@pytest.mark.parametrize("bounds", _ORACLE_BOUNDS, ids=lambda b: f"{b.max_nodes}-{b.max_atoms}-{b.max_operand_depth}")
def test_formula_at_inverts_the_formula_order(bounds):
    starts = _level_starts(bounds)
    atoms = ATOM_POOL[: bounds.max_atoms]
    assert [_formula_at(i, starts, atoms) for i in range(starts[-1])] == enumerate_box_free(bounds)


def test_formula_at_matches_the_list_at_operand_depth_three():
    # 1,044,302 formulas: each level's ends and a spread of indices between
    bounds = SweepBounds(max_nodes=2, max_atoms=1, max_box_index=3, max_operand_depth=3)
    formulas = enumerate_box_free(bounds)
    starts = _level_starts(bounds)
    assert starts[-1] == len(formulas) == 1_044_302
    picks = set(range(0, len(formulas), 997)) | {
        i for start in starts for i in (start - 1, start, start + 1) if 0 <= i < len(formulas)
    }
    for i in sorted(picks):
        assert _formula_at(i, starts, ("p",)) == formulas[i], i


def test_a_depth_three_sweep_builds_no_formula_list():
    # the cap admits 7 models x 1,044,302 formulas; listing the formulas to
    # name phi took 67 MB at its peak, and only phi itself is built now
    gc.collect()
    tracemalloc.start()
    try:
        result = validity_sweep("cs4", SweepBounds(3, 1, 3, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (result.models_checked, result.instances_checked, result.monotone_ok) == (7, 40, True)
    assert result.countermodel.as_dict() == {
        "model": {"nodes": [
            {"id": "n0", "atoms": []},
            {"id": "n1", "atoms": [], "parent": "n0"},
            {"id": "n2", "atoms": ["p"], "parent": "n1"},
        ]},
        "node": "n0", "phi": "p", "indices": {"n": 1}, "instance": "[1]p | ~[1]p",
    }
    assert peak < 1_000_000


def test_sweep_bounds_script_runs():
    record = bench_writer.bench.sweep(((3, 2, 2),))
    (row,) = record["rows"]
    assert list(row) == ["bounds", "formulas", "models", "classes", "seconds", "masks_mean",
                         "masks_max"]
    assert [row[k] for k in list(row)[:4]] == ["(3,2,2)", 2703, 54, 24]
    assert bench_writer.survives_json(record)


def test_schema_sweeps_script_runs():
    record = bench_writer.bench.schemas((("ic1", 3, 2, 2), ("cs5", 2, 2, 1)))
    assert [list(row) for row in record["rows"]] == [
        ["schema", "bounds", "models", "instances", "valid", "ms"]] * 2
    assert [[row[k] for k in list(row)[:5]] for row in record["rows"]] == [
        ["ic1", "(3,2,2)", 54, 540, True], ["cs5", "(2,2,1)", 6, 12, False]]
    assert bench_writer.survives_json(record)
