"""Checker for sequent-style derivation scripts in the stage-modal language.

A script declares its assertion ids, lists premises and definitional
axioms, then gives consecutively numbered steps, each a formula plus the
rule that licenses it:

    # lines starting with '#' are comments
    assert alpha lawlike
    premise b_below
    defax <*>alpha <-> c_hits
    1: <*>alpha <-> c_hits ; DefAxiom
    2: <*>alpha -> c_hits ; AndElim(1)
    ...

Rules: Premise, DefAxiom, Assume, Discharge(m), MP(i,j), AndIntro(i,j),
AndElim(i), OrIntro(i), ContraPos(i), DNE(i), and the stage rules
MD-inst, IC1-inst, IC2-inst, IC3-inst and CS5R-inst. These are the
schemata md, ic1, ic2, ic3 and cs5 of logic.SCHEMAS, matched against
their templates, so the calculus uses exactly the principles that
`logic sweep` validates; CS5R is the restricted cs5. Without a reference
a step is the axiom instance itself; with one reference A it is the
applied form "from A infer B", the instance A -> B. Assume opens a
block; Discharge(m) cites a _|_ step in that block, closes it, and
yields the negated assumption. Steps inside a closed block are no longer
citable. The only way to leave a block is Discharge, so every verified
conclusion is block-free.

Blocks are intervals of step numbers, as in a Fitch-style proof: a block
runs from its Assume step a to the step before its Discharge. So the
checker keeps only the open Assume steps. The _|_ at step m lies in the
current block exactly when m >= a for the innermost open a, and a
Discharge at step n hides steps a..n-1.

CS5R is the one rule with a side condition: every atom in its operand
must be declared lawlike. Collapsing "settled at some stage" to "settled
now" is only safe for assertions whose test is a terminating computation;
for anything else the checker rejects the step and names the untestable
atom. Every CS5R use, even a licensed one, is reported as a warning so
callers can see exactly where the conclusion leans on that assumption.

The `<->` connective is script-level sugar: A <-> B abbreviates the
conjunction (A -> B) & (B -> A) and is only recognized at the top level
of a formula. The '!' atom suffix is not accepted in scripts; lawlike
status comes from the assert declarations alone.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, NamedTuple, Optional, Union

from .logic import (
    And,
    BOT,
    Formula,
    FormulaSyntaxError,
    Implies,
    Not,
    Or,
    SCHEMAS,
    SweepBounds,
    _Parser,
    _TOKEN,
    atoms_of,
    show,
)

if TYPE_CHECKING:
    from ._masks import Countermodel


class ScriptSyntaxError(ValueError):
    def __init__(self, message: str, line_no: int):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class Step(NamedTuple):
    number: int
    formula: Formula
    rule: str
    refs: tuple[int, ...]
    line_no: int


class Script(NamedTuple):
    lawlike: frozenset[str]
    declared: frozenset[str]
    premises: tuple[Formula, ...]
    defaxioms: tuple[Formula, ...]
    steps: tuple[Step, ...]


class Verified(NamedTuple):
    conclusion: Formula
    premises: tuple[Formula, ...]
    defaxioms: tuple[Formula, ...]
    warnings: tuple[str, ...]
    step_count: int

    @property
    def ok(self) -> bool:
        return True

    def as_dict(self) -> dict:
        return {
            "status": "verified",
            "conclusion": show(self.conclusion),
            "premises": [show(f) for f in self.premises],
            "defaxioms": [show(f) for f in self.defaxioms],
            "warnings": list(self.warnings),
            "steps": self.step_count,
        }


class Rejected(NamedTuple):
    step: int
    reason: str

    @property
    def ok(self) -> bool:
        return False

    def as_dict(self) -> dict:
        return {"status": "rejected", "step": self.step, "reason": self.reason}


CheckResult = Union[Verified, Rejected]


# --- script parsing ---


def _biconditionals(text: str) -> list[int]:
    """The offset of each '<->' outside parentheses, read off the formula
    tokens: a '<' token glued to a '->' one."""
    depth, found = 0, []
    for m in _TOKEN.finditer(text):
        tok = m[1]
        if tok == "(":
            depth += 1
        elif tok == ")":
            depth -= 1
        elif tok == "<" and not depth and text.startswith("->", m.end()):
            found.append(m.start(1))
    return found


def _script_formula(text: str, lawlike: frozenset[str], line_no: int) -> Formula:
    """The formula of a script line, its atoms lawlike exactly when declared so."""
    if "!" in text:
        raise ScriptSyntaxError(
            "mark lawlike assertions with 'assert <id> lawlike', not '!'", line_no
        )
    try:
        if "<->" in text and (splits := _biconditionals(text)):
            if len(splits) > 1:
                raise ScriptSyntaxError("chained <-> needs parentheses", line_no)
            i = splits[0]
            l, r = _Parser(text[:i], lawlike).parse(), _Parser(text[i + 3 :], lawlike).parse()
            return And(Implies(l, r), Implies(r, l))
        return _Parser(text, lawlike).parse()
    except FormulaSyntaxError as e:
        raise ScriptSyntaxError(f"bad formula {text.strip()!r}: {e}", line_no) from None


# the stage rules are the schemata the sweep validates; CS5R is the restricted cs5
_INSTANCE_RULES = {
    "MD-inst": "md", "IC1-inst": "ic1", "IC2-inst": "ic2", "IC3-inst": "ic3", "CS5R-inst": "cs5"
}
# how many steps each other rule cites; the stage rules take 0 or 1
_ARITY = {"Premise": 0, "DefAxiom": 0, "Assume": 0, "Discharge": 1, "MP": 2, "AndIntro": 2,
          "AndElim": 1, "OrIntro": 1, "ContraPos": 1, "DNE": 1}
# each rule's name lower-cased without '-', and the one abbreviation
_RULE_ALIASES = {rule.lower().replace("-", ""): rule for rule in (*_ARITY, *_INSTANCE_RULES)}
_RULE_ALIASES["defax"] = "DefAxiom"


# a rule name, then optionally its references: from the first '(' to a
# closing ')' that ends the text
_RULE = re.compile(r"([^(]*)(?:\((.*)\))?", re.S)


def _step_number(text: str) -> int:
    """text as a step number: one or more ASCII digits between blanks. int()
    alone would also read '\u0661', '+1' and '0_2'."""
    if not ((text := text.strip()).isdigit() and text.isascii()):
        raise ValueError(text)
    return int(text)


def _parse_rule(text: str, line_no: int) -> tuple[str, tuple[int, ...]]:
    text = text.strip()
    m = _RULE.fullmatch(text)
    if m is None:
        raise ScriptSyntaxError(f"malformed rule {text!r}", line_no)
    name, inner = m.groups()
    refs: tuple[int, ...] = ()
    if inner and not inner.isspace():
        try:
            refs = tuple(map(_step_number, inner.split(",")))
        except ValueError:
            raise ScriptSyntaxError(
                f"rule references must be step numbers: {text!r}", line_no
            ) from None
    key = name.strip().lower().replace("-", "").replace("_", "")
    if key not in _RULE_ALIASES:
        raise ScriptSyntaxError(f"unknown rule {name.strip()!r}", line_no)
    return _RULE_ALIASES[key], refs


def parse_script(text: str) -> Script:
    lawlike: frozenset[str] = frozenset()  # final at the first step: asserts come first
    declared: set[str] = set()
    premise_src: list[tuple[str, int]] = []
    defax_src: list[tuple[str, int]] = []
    steps: list[Step] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head = line.split(None, 1)[0]
        if head in ("assert", "premise", "defax"):
            if steps:
                raise ScriptSyntaxError(
                    f"{head!r} lines must precede the numbered steps", line_no
                )
            body = line[len(head) :].strip()
            if head == "assert":
                parts = body.split()
                if not parts or len(parts) > 2 or (len(parts) == 2 and parts[1] != "lawlike"):
                    raise ScriptSyntaxError(
                        "expected 'assert <id>' or 'assert <id> lawlike'", line_no
                    )
                name = parts[0]
                if name in declared:
                    raise ScriptSyntaxError(f"{name!r} declared twice", line_no)
                declared.add(name)
                if len(parts) == 2:
                    lawlike |= {name}
            elif head == "premise":
                premise_src.append((body, line_no))
            else:
                defax_src.append((body, line_no))
            continue
        # numbered step: "N: formula ; rule"
        if ":" not in line:
            raise ScriptSyntaxError(f"cannot parse line {line!r}", line_no)
        num_txt, rest = line.split(":", 1)
        try:
            number = _step_number(num_txt)
        except ValueError:
            raise ScriptSyntaxError(f"bad step number {num_txt.strip()!r}", line_no) from None
        if ";" not in rest:
            raise ScriptSyntaxError("step needs '; <rule>' after the formula", line_no)
        formula_txt, rule_txt = rest.rsplit(";", 1)
        rule, refs = _parse_rule(rule_txt, line_no)
        steps.append(
            Step(number, _script_formula(formula_txt, lawlike, line_no), rule, refs, line_no)
        )

    if not steps:
        raise ScriptSyntaxError("script has no steps", len(text.splitlines()) or 1)
    premises = tuple(_script_formula(s, lawlike, ln) for s, ln in premise_src)
    defaxioms = tuple(_script_formula(s, lawlike, ln) for s, ln in defax_src)
    return Script(lawlike, frozenset(declared), premises, defaxioms, tuple(steps))


# --- the checker ---


def check_script(source: Union[str, Script]) -> CheckResult:
    script = parse_script(source) if isinstance(source, str) else source
    if not script.steps:
        return Rejected(0, "script has no steps")
    visible: dict[int, Formula] = {}
    opened: list[int] = []  # the Assume steps of the open blocks, outermost first
    warnings: list[str] = []

    for expected, st in enumerate(script.steps, start=1):
        if st.number != expected:
            return Rejected(st.number, "steps must be numbered consecutively: "
                                       f"expected {expected}, got {st.number}")

    for st in script.steps:
        n, f, rule = st.number, st.formula, st.rule
        refs = [visible.get(r) for r in st.refs]
        unseen = [r for r in st.refs if r not in visible]
        reason: Optional[str] = None

        # reference discipline first. Steps 1..n-1 were all accepted, so one
        # of them that is not visible lies inside a closed block.
        if unseen:
            r = unseen[0]
            reason = f"step {r} is not citable here" + " (inside a closed block)" * (0 < r < n)
        elif rule in _ARITY and len(refs) != _ARITY[rule]:
            reason = f"needs exactly {_ARITY[rule]} reference(s), got {len(refs)}"
        elif rule == "Premise":
            if f not in script.premises:
                reason = f"{show(f)} is not among the premises"
        elif rule == "DefAxiom":
            if f not in script.defaxioms:
                reason = f"{show(f)} is not among the definitional axioms"
        elif rule == "Assume":
            opened.append(n)
        elif rule == "Discharge":
            r = st.refs[0]
            if not opened:
                reason = "no open assumption to discharge"
            elif refs[0] != BOT:
                reason = f"step {r} must be _|_, found {show(refs[0])}"
            elif r < opened[-1]:
                reason = f"the _|_ at step {r} is not inside the current block"
            elif f != Not(visible[opened[-1]]):
                reason = (
                    f"discharging the assumption at step {opened[-1]} must yield "
                    f"{show(Not(visible[opened[-1]]))}, found {show(f)}"
                )
            else:
                # a block is the run of steps from its Assume to here
                for m in range(opened.pop(), n):
                    visible.pop(m, None)
        elif rule == "MP":
            if not any(
                isinstance(imp, Implies) and imp.left == arg and imp.right == f
                for imp, arg in (refs, refs[::-1])
            ):
                reason = "neither reference is an implication applying to the other"
        elif rule == "AndIntro":
            if f not in (And(refs[0], refs[1]), And(refs[1], refs[0])):
                reason = "formula is not the conjunction of the referenced steps"
        elif rule == "AndElim":
            if not (isinstance(refs[0], And) and f in (refs[0].left, refs[0].right)):
                reason = "formula is not a conjunct of the referenced step"
        elif rule == "OrIntro":
            if not (isinstance(f, Or) and refs[0] in (f.left, f.right)):
                reason = "formula is not a disjunction containing the referenced step"
        elif rule == "ContraPos":
            if not (
                isinstance(refs[0], Implies)
                and f == Implies(Not(refs[0].right), Not(refs[0].left))
            ):
                reason = "formula is not the contrapositive of the referenced step"
        elif rule == "DNE":
            if not (isinstance(f, Implies) and f.right == BOT and refs[0] == Not(Not(f))):
                reason = "reference must be a triple negation, formula its single one"
        elif rule in _INSTANCE_RULES:
            schema = SCHEMAS[_INSTANCE_RULES[rule]]
            # every template is an implication: "from A infer B" is the instance A -> B
            if len(refs) > 1:
                reason = f"needs 0 or 1 reference(s), got {len(refs)}"
            elif (hit := schema.match(Implies(refs[0], f) if refs else f)) is None:
                reason = ("from {} the rule yields {}".format(*schema.sides()) if refs
                          else f"axiom form is {schema.template}")
            elif rule == "CS5R-inst":
                phi = hit[0]
                atoms = sorted(atoms_of(phi), key=lambda a: a.name)
                loose = [a.name for a in atoms if not a.lawlike]
                if loose:
                    reason = (
                        f"stage collapse needs every atom of {show(phi)} declared "
                        f"lawlike; {loose[0]!r} has no terminating test"
                    )
                else:
                    warnings.append(
                        f"step {n}: stage collapse on {show(phi)} (leans on the "
                        f"lawlike declaration of {', '.join(a.name for a in atoms)})"
                    )
        else:  # pragma: no cover
            reason = "unhandled rule"

        if reason is not None:
            return Rejected(n, f"{rule}: {reason}")
        visible[n] = f

    last = script.steps[-1]
    if opened:
        return Rejected(last.number, f"assumption at step {opened[-1]} was never discharged")
    return Verified(last.formula, script.premises, script.defaxioms, tuple(warnings),
                    len(script.steps))


# --- bundled scripts ---

VIENNA_DENSE = """\
# A convergent sequence that sits at 1/2 exactly when a stated assertion
# is never decided. The premise that it visibly drops below 1/2 forces
# the assertion to be decided at some stage; the restricted stage
# collapse then decides it outright, and the limit moves off 1/2.
assert alpha lawlike
assert e_hits
assert e_is_half
assert e_below

premise e_below
defax <*>(alpha | ~alpha) <-> e_hits
defax e_below -> e_hits
defax e_is_half -> ~e_hits

1: <*>(alpha | ~alpha) <-> e_hits ; DefAxiom
2: e_hits -> <*>(alpha | ~alpha) ; AndElim(1)
3: e_below -> e_hits ; DefAxiom
4: e_below ; Premise
5: e_hits ; MP(4, 3)
6: <*>(alpha | ~alpha) ; MP(5, 2)
7: alpha | ~alpha ; CS5R-inst(6)
8: e_is_half -> ~e_hits ; DefAxiom
9: e_is_half ; Assume
10: ~e_hits ; MP(9, 8)
11: _|_ ; MP(5, 10)
12: ~e_is_half ; Discharge(11)
13: (alpha | ~alpha) & ~e_is_half ; AndIntro(7, 12)
"""

DRIFT_DIRECT = """\
# Rationality of a directly checked drift limit cannot be refuted:
# refuting it would refute that the driving assertion is ever decided,
# and ~(alpha | ~alpha) is already absurd. No stage collapse is needed,
# so the conclusion is only the tested-now disjunction, not a decision.
assert alpha
assert rat_d

defax rat_d <-> <*>(alpha | ~alpha)

1: rat_d <-> <*>(alpha | ~alpha) ; DefAxiom
2: <*>(alpha | ~alpha) -> rat_d ; AndElim(1)
3: ~rat_d -> ~<*>(alpha | ~alpha) ; ContraPos(2)
4: ~rat_d ; Assume
5: ~<*>(alpha | ~alpha) ; MP(4, 3)
6: ~(alpha | ~alpha) ; MD-inst(5)
7: alpha ; Assume
8: alpha | ~alpha ; OrIntro(7)
9: _|_ ; MP(8, 6)
10: ~alpha ; Discharge(9)
11: alpha | ~alpha ; OrIntro(10)
12: _|_ ; MP(11, 6)
13: ~~rat_d ; Discharge(12)
14: ~rat_d | ~~rat_d ; OrIntro(13)
"""

CONDITIONAL_KS = """\
# A conditionally checked drift whose limit is rational exactly when the
# assertion is eventually proved. Under the scenario premise that a
# proof will at some stage be in hand, irrationality of the limit is
# refutable -- with no use of any stage collapse, restricted or not.
assert alpha
assert rat_f

premise <*>~~alpha
defax rat_f <-> <*>alpha

1: rat_f <-> <*>alpha ; DefAxiom
2: <*>alpha -> rat_f ; AndElim(1)
3: ~rat_f -> ~<*>alpha ; ContraPos(2)
4: <*>~~alpha ; Premise
5: ~rat_f ; Assume
6: ~<*>alpha ; MP(5, 3)
7: ~alpha ; MD-inst(6)
8: ~~alpha ; Assume
9: _|_ ; MP(7, 8)
10: ~~~alpha ; Discharge(9)
11: ~~~alpha -> ~<*>~~alpha ; IC2-inst
12: ~<*>~~alpha ; MP(10, 11)
13: _|_ ; MP(4, 12)
14: ~~rat_f ; Discharge(13)
"""

CAMBRIDGE_REDUCED = """\
# A checking number that vanishes exactly when its assertion is never
# proved, paired with a companion that visibly leaves zero once a proof
# stage exists. From the companion's visible motion the assertion is
# decided now (restricted collapse, lawlike), and the checking number
# is apart from zero.
assert alpha lawlike
assert c_hits
assert c_is_zero
assert b_below

premise b_below
defax <*>alpha <-> c_hits
defax c_is_zero -> ~c_hits
defax b_below -> <*>alpha

1: <*>alpha <-> c_hits ; DefAxiom
2: <*>alpha -> c_hits ; AndElim(1)
3: ~c_hits -> ~<*>alpha ; ContraPos(2)
4: c_is_zero -> ~c_hits ; DefAxiom
5: b_below -> <*>alpha ; DefAxiom
6: b_below ; Premise
7: <*>alpha ; MP(6, 5)
8: alpha ; CS5R-inst(7)
9: c_is_zero ; Assume
10: ~c_hits ; MP(9, 4)
11: ~<*>alpha ; MP(10, 3)
12: ~alpha ; MD-inst(11)
13: _|_ ; MP(8, 12)
14: ~c_is_zero ; Discharge(13)
15: alpha & ~c_is_zero ; AndIntro(8, 14)
"""

BUNDLED_SCRIPTS: dict[str, str] = {
    "vienna-dense": VIENNA_DENSE,
    "drift-direct": DRIFT_DIRECT,
    "conditional-ks": CONDITIONAL_KS,
    "cambridge-reduced": CAMBRIDGE_REDUCED,
}


# --- what the classical argument would need ---


class BlockedRule(NamedTuple):
    rule: str
    schema: str
    role: str
    countermodel: Countermodel

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "schema": self.schema,
            "role": self.role,
            "countermodel": self.countermodel.as_dict(),
        }


class PrerequisiteReport(NamedTuple):
    claim: str
    available: tuple[str, ...]
    blocked: tuple[BlockedRule, ...]
    bounds: SweepBounds

    def as_dict(self) -> dict:
        return {
            "claim": self.claim,
            "available": list(self.available),
            "blocked": [b.as_dict() for b in self.blocked],
            "bounds": self.bounds.as_dict(),
        }


def ks_prerequisite_report(bounds: SweepBounds = SweepBounds()) -> PrerequisiteReport:
    """Why the classical "every real is rational or irrational" shortcut
    does not survive staging: the two rules it needs both have stage-tree
    countermodels, produced live by one sweep of the two."""
    from ._masks import _sweep

    results = _sweep(["cs4", "cs5"], bounds)
    cs4, cs5 = results["cs4"], results["cs5"]
    assert cs4.countermodel is not None and cs5.countermodel is not None
    return PrerequisiteReport(
        claim=(
            "the unrestricted two-branch argument: decide [n]-settledness of the "
            "assertion, then collapse eventual settledness to a present decision"
        ),
        available=(
            "ic1 (settled stays settled)",
            "ic2 (refuted now, refuted at every stage)",
            "ic3 (true now, true at some stage)",
            "md (never settled at any stage, hence not settled)",
        ),
        blocked=(
            BlockedRule(
                rule=f"case split on {SCHEMAS['cs4'].template}",
                schema="cs4",
                role="branch on whether the test at stage n has decided the assertion",
                countermodel=cs4.countermodel,
            ),
            BlockedRule(
                rule=f"collapse {SCHEMAS['cs5'].template}",
                schema="cs5",
                role="turn eventual settledness into a decision made now",
                countermodel=cs5.countermodel,
            ),
        ),
        bounds=bounds,
    )


# the `derive` and `replay` commands' handlers, which brouwer.cli.main runs and prints
def _cmd_derive(args, cfg) -> tuple[int, dict, str]:
    if args.derive_cmd == "ks-report":
        report = ks_prerequisite_report()
        lines = [f"claim: {report.claim}", "available:"]
        lines += [f"  - {line}" for line in report.available]
        lines.append("blocked:")
        for b in report.blocked:
            cm = b.countermodel
            lines.append(f"  - {b.rule} [{b.schema}]: {b.role}")
            lines.append(f"    countermodel: {len(cm.model.parents)} nodes, instance "
                         f"{show(cm.instance)} fails at {cm.model.ids[cm.node]}")
        return 0, {"command": "derive-ks-report", **report.as_dict()}, "\n".join(lines)

    target = args.script
    if target.replace("_", "-") in BUNDLED_SCRIPTS:
        target = target.replace("_", "-")
        text = BUNDLED_SCRIPTS[target]
    else:
        with open(target, encoding="utf-8") as fh:
            text = fh.read()
    try:
        result = check_script(text)
    except ScriptSyntaxError as e:
        payload = {"command": "derive-check", "script": target, "status": "syntax-error",
                   "reason": str(e)}
        return 1, payload, f"syntax error: {e}"
    payload = {"command": "derive-check", "script": target, **result.as_dict()}
    if not result.ok:
        return 1, payload, f"rejected at step {result.step}: {result.reason}"
    lines = [f"verified: {show(result.conclusion)} ({result.step_count} steps)"]
    lines += [f"warning: {w}" for w in result.warnings]
    return 0, payload, "\n".join(lines)


def _replay_checks(name: str) -> list[tuple[str, bool]]:
    # every replay checks a bundled script; each branch imports the rest itself
    checks: list[tuple[str, bool]] = []

    def expect(label: str, ok: bool) -> None:
        checks.append((label, bool(ok)))

    if name == "vienna-9":
        from fractions import Fraction

        from .drift import vienna_e
        from .spreads import never_trace, proved_at

        res = check_script(BUNDLED_SCRIPTS["vienna-dense"])
        expect("script verifies", res.ok)
        expect("conclusion decides the assertion and moves the limit off 1/2",
               res.ok and show(res.conclusion) == "(alpha! | ~alpha!) & ~e_is_half")
        expect("exactly one stage-collapse warning", res.ok and len(res.warnings) == 1)
        moved = vienna_e(proved_at(3))
        expect("resolved limit settles at 7/16",
               moved.interval(20).contains_fraction(Fraction(7, 16)))
        expect("unresolved limit stays at 1/2",
               vienna_e(never_trace()).interval(20).contains_fraction(Fraction(1, 2)))
    elif name == "drift-11":
        from .drift import CheckingKind, bundled_drift, checking_sequence, rationality_descriptor
        from .spreads import never_trace, proved_at

        res = check_script(BUNDLED_SCRIPTS["drift-direct"])
        expect("script verifies", res.ok)
        expect("conclusion is the tested-now disjunction",
               res.ok and show(res.conclusion) == "~rat_d | ~~rat_d")
        expect("no stage collapse used", res.ok and not res.warnings)
        drift = bundled_drift("rational-right")
        run = checking_sequence(drift, CheckingKind.DIRECT, proved_at(3), 5)
        expect("direct switch lands on c_3 at the resolution stage",
               run.terms == ("c", "c", "c_3", "c_3", "c_3") and run.limit == "c_3")
        lc = rationality_descriptor(drift, CheckingKind.DIRECT, never_trace())
        expect("unresolved limit stays in the kernel class",
               lc == {"kind": "kernel-class", "kernel_tag": "irrational"})
    elif name == "ks-12":
        from .logic import forces

        res = check_script(BUNDLED_SCRIPTS["conditional-ks"])
        expect("script verifies", res.ok)
        expect("irrationality refuted under the scenario premise",
               res.ok and show(res.conclusion) == "~~rat_f")
        expect("derivation avoids every stage-collapse rule",
               res.ok and not res.warnings and "CS5R" not in BUNDLED_SCRIPTS["conditional-ks"])
        report = ks_prerequisite_report()
        cs4, cs5 = report.blocked
        expect("case-split blocked by a 3-node countermodel", cs4.countermodel.model.size == 3)
        expect("collapse blocked by a 2-node countermodel", cs5.countermodel.model.size == 2)
        expect("countermodels re-verified against the reference semantics",
               not any(forces(b.countermodel.model, b.countermodel.node, b.countermodel.instance)
                       for b in (cs4, cs5)))
    elif name == "cambridge-13":
        from .drift import berlin_s
        from .fleeing import find_pattern
        from .reals import apart_at, zero_point
        from .spreads import never_trace, proved_at

        res = check_script(BUNDLED_SCRIPTS["cambridge-reduced"])
        expect("script verifies", res.ok)
        expect("conclusion decides the assertion and separates the checker from zero",
               res.ok and show(res.conclusion) == "alpha! & ~c_is_zero")
        expect("exactly one stage-collapse warning", res.ok and len(res.warnings) == 1)
        z = zero_point()
        v = apart_at(berlin_s(proved_at(2)), z, 40)
        expect("resolved checking number is apart from zero",
               v.holds and v.direction == "gt" and v.witness == 4)
        v0 = apart_at(berlin_s(never_trace()), z, 40)
        expect("unresolved checking number stays unseparated", not v0.holds)
        pos = find_pattern("999999", 2000)
        expect("the six-nines milestone sits where expected", pos == 762)
    else:
        raise ValueError(f"unknown replay {name!r}")
    return checks


def _cmd_replay(args, cfg) -> tuple[int, dict, str]:
    checks = _replay_checks(args.name)
    ok = all(flag for _, flag in checks)
    payload = {"command": "replay", "name": args.name, "ok": ok,
               "checks": [{"label": label, "ok": flag} for label, flag in checks]}
    lines = [f"{'ok' if flag else 'FAIL'}: {label}" for label, flag in checks]
    lines.append(f"replay {args.name}: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1, payload, "\n".join(lines)
