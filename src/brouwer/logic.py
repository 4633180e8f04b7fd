"""Stage-modal propositional logic over finite stage trees.

Language: atoms (optionally flagged lawlike with a '!' suffix), _|_,
&, |, -> (right-associative), the stage modality [n] ("settled n stages
from now") and <*> ("settled at some future stage"). ~p abbreviates
p -> _|_. Operands of [n] and <*> must themselves be stage-free.

Surface sugar: |a is tested-now (~a | ~~a) and a| is tested-later
(<*>(~a | ~~a)); spaces may part the pipe from its atom ('| a', 'a |'),
a postfix pipe also follows an atom in parentheses ('(a)|', '((a))|'),
and the postfix form only reads as sugar when no operand can follow.

Grammar (precedence low to high):

    formula := or ('->' formula)?
    or      := and ('|' and)*
    and     := unary ('&' unary)*
    unary   := '~' unary | '[' INT ']' unary | '<*>' unary
             | '(' formula ')' | '_|_' | '|' NAME | NAME '|'?

Semantics: a stage tree is a finite rooted tree; every leaf carries an
implicit self-loop (the future beyond a leaf is stationary); valuations
are monotone (atoms persist downward). Forcing is intuitionistic:
implication quantifies over descendants-or-self, [n] holds when the
operand is forced at every node exactly n successor steps away, and <*>
is the union of [n] for n = 1 .. depth+1 (stationarity makes the bound
complete).
"""

from __future__ import annotations

import functools
import itertools
import json
import re
from collections import namedtuple
from typing import TYPE_CHECKING, Callable, Optional, Union

from ._record import Record, _set

if TYPE_CHECKING:
    from ._masks import SweepResult


# --- formulas ---


class FormulaNestingError(ValueError):
    pass


_tuple_eq, _tuple_ne = tuple.__eq__, tuple.__ne__  # looked up once, not per comparison


class _Formula:
    """The formula kinds' shared half: a kind is a named tuple of its fields,
    equal only to a formula of its own kind with equal fields (And(p, q) !=
    Or(p, q), and no formula equals a plain tuple), hashed as its fields."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and _tuple_eq(self, other)

    def __ne__(self, other):  # tuple's own ignores the class
        return type(other) is not type(self) or _tuple_ne(self, other)

    __hash__ = tuple.__hash__

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")


class Atom(_Formula, namedtuple("Atom", "name lawlike", defaults=(False,))):
    __slots__ = ()


class Bottom(_Formula, namedtuple("Bottom", "")):
    __slots__ = ()


_Pair = namedtuple("_Pair", "left right")


class And(_Formula, _Pair):
    __slots__ = ()


class Or(_Formula, _Pair):
    __slots__ = ()


class Implies(_Formula, _Pair):
    __slots__ = ()


class Box(_Formula, namedtuple("Box", "n operand")):
    __slots__ = ()

    def __new__(cls, n: int, operand: Formula) -> Box:
        if n < 1:
            raise ValueError("stage index must be >= 1")
        if not is_stage_free(operand):
            raise FormulaNestingError(f"[{n}] operand contains a stage operator: {show(operand)}")
        return tuple.__new__(cls, (n, operand))


class SomeStage(_Formula, namedtuple("SomeStage", "operand")):
    __slots__ = ()

    def __new__(cls, operand: Formula) -> SomeStage:
        if not is_stage_free(operand):
            raise FormulaNestingError(f"<*> operand contains a stage operator: {show(operand)}")
        return tuple.__new__(cls, (operand,))


Formula = Union[Atom, Bottom, And, Or, Implies, Box, SomeStage]

BOT = Bottom()


def Not(f: Formula) -> Implies:
    return Implies(f, BOT)


def tested_now(f: Formula) -> Or:
    return Or(Not(f), Not(Not(f)))


def tested_later(f: Formula) -> SomeStage:
    return SomeStage(tested_now(f))


def is_stage_free(f: Formula) -> bool:
    if isinstance(f, (Box, SomeStage)):
        return False
    if isinstance(f, (And, Or, Implies)):
        return is_stage_free(f.left) and is_stage_free(f.right)
    return True


def atoms_of(f: Formula) -> frozenset[Atom]:
    if isinstance(f, Atom):
        return frozenset((f,))
    if isinstance(f, (And, Or, Implies)):
        return atoms_of(f.left) | atoms_of(f.right)
    if isinstance(f, (Box, SomeStage)):
        return atoms_of(f.operand)
    return frozenset()


def show(f: Formula) -> str:
    """Minimal-parenthesis printer; show . parse is the identity on its output."""
    return _show_at(f, 1)


def _show_at(g: Formula, prec: int) -> str:
    """g printed inside a context of precedence prec (module-level, so that
    the recursion leaves no reference cycle behind)."""
    if isinstance(g, Atom):
        return g.name + ("!" if g.lawlike else "")
    if isinstance(g, Bottom):
        return "_|_"
    if isinstance(g, Implies) and g.right == BOT:
        return "~" + _show_at(g.left, 4)
    if isinstance(g, Box):
        return f"[{g.n}]" + _show_at(g.operand, 4)
    if isinstance(g, SomeStage):
        return "<*>" + _show_at(g.operand, 4)
    if isinstance(g, And):
        s, p = _show_at(g.left, 3) + " & " + _show_at(g.right, 4), 3
    elif isinstance(g, Or):
        s, p = _show_at(g.left, 2) + " | " + _show_at(g.right, 3), 2
    else:
        s, p = _show_at(g.left, 2) + " -> " + _show_at(g.right, 1), 1
    return f"({s})" if p < prec else s


# --- parser ---


class FormulaSyntaxError(ValueError):
    def __init__(self, message: str, pos: int):
        self.pos = pos
        super().__init__(f"{message} (at offset {pos})")


# One findall of this pattern reads a formula: each match is a token
# after its whitespace, a name (with its '!'), _|_, ->, <*>, a stage index
# of ASCII digits, or any other single character. The parser consumes no
# single character that is not a connective or a name, so text with one
# always fails to parse, and the failure names that character instead.
_TOKEN = re.compile(r"\s*([a-z][a-z0-9_]*!?|_\|_|->|<\*>|\[[0-9]+\]|\S)")
_KINDS = {"": "end", "_|_": "bottom"}


def _kind(tok: str) -> str:
    """tok's kind as the error messages name it; "" is the end."""
    if "a" <= tok[:1] <= "z":
        return "name"
    return "box" if tok[:1] == "[" else _KINDS.get(tok, tok)


_UNARY_STARTERS = {"name", "bottom", "~", "box", "<*>", "(", "|"}
# each connective's binding power and the formula it builds
_BINDING = {"->": (1, Implies), "|": (2, Or), "&": (3, And)}

# parse refuses formulas nested deeper than this: show, forces and the
# records' == and hash recurse once or a few times a level. A level is a
# connective, a prefix operator, a parenthesised group or an atom (with
# its |a or a| sugar).
MAX_NESTING = 100
_TOO_DEEP = f"formula nested deeper than {MAX_NESTING} levels"


class _Parser:
    """Precedence climbing over the token list, which ends in two "" end
    tokens so that lookahead is a plain index: unary reads an operand, and
    binary joins operands by the connectives' binding powers. Each method
    takes d, the levels open around it, and returns (formula, nesting
    levels); a level is refused on the way down (before the recursion can
    overflow) once the levels open and a formula inside them pass the
    bound. An atom is lawlike when marked '!' or named in lawlike."""

    def __init__(self, text: str, lawlike: frozenset[str] = frozenset()):
        self.text = text
        self.lawlike = lawlike
        self.toks = _TOKEN.findall(text)
        self.toks += ("", "")
        self.pos = 0

    def error(self, message: str, i: int) -> FormulaSyntaxError:
        """message at token i, or, since the text is read before the
        grammar, the error of its first unreadable character."""
        for j, tok in enumerate(self.toks):
            if len(tok) == 1 and not ("a" <= tok <= "z" or tok in "~&|()"):
                message = "malformed stage index" if tok == "[" else f"unexpected character {tok!r}"
                i = j
                break
        starts = [m.start(1) for m in _TOKEN.finditer(self.text)]
        return FormulaSyntaxError(message, starts[i] if i < len(starts) else len(self.text))

    def parse(self) -> Formula:
        f, _ = self.binary(0)
        if self.toks[self.pos]:
            raise self.error(f"trailing input {_kind(self.toks[self.pos])!r}", self.pos)
        return f

    def binary(self, d: int, power: int = 1) -> tuple[Formula, int]:
        """unary's formula joined by each connective that binds at least power."""
        f, levels = self.unary(d)
        toks = self.toks
        while True:
            i = self.pos
            bind, join = _BINDING.get(toks[i], (0, None))
            if bind < power or toks[i] == "|" and _kind(toks[i + 1]) not in _UNARY_STARTERS:
                return f, levels
            self.pos = i + 1
            if join is Implies:  # right-associative, one level further in
                if d + 2 > MAX_NESTING:
                    raise self.error(_TOO_DEEP, i)
                g, deeper = self.binary(d + 1)
            else:
                g, deeper = self.binary(d, bind + 1)  # left-associative
            f, levels = join(f, g), max(levels, deeper) + 1
            if levels > MAX_NESTING:
                raise self.error(_TOO_DEEP, i)

    def unary(self, d: int) -> tuple[Formula, int]:
        i = self.pos
        tok = self.toks[i]
        self.pos = i + 1
        if "a" <= tok[:1] <= "z":
            return self._postfix(self.atom(tok)), 1
        if tok == "_|_":
            return BOT, 1
        if tok == "|":
            # prefix tested-now sugar: |a
            name = self.toks[i + 1]
            if not "a" <= name[:1] <= "z":
                raise self.error(f"expected 'name', found {_kind(name)!r}", i + 1)
            self.pos = i + 2
            return tested_now(self.atom(name)), 1
        opens = tok == "("
        if not (opens or tok == "~" or tok == "<*>" or tok[:1] == "[" and len(tok) > 1):
            raise self.error(f"expected a formula, found {_kind(tok)!r}", i)
        if d + 2 > MAX_NESTING:
            raise self.error(_TOO_DEEP, i)
        f, levels = self.binary(d + 1) if opens else self.unary(d + 1)
        levels += 1
        if levels > MAX_NESTING:
            raise self.error(_TOO_DEEP, i)
        if opens:
            if self.toks[self.pos] != ")":
                raise self.error(f"expected ')', found {_kind(self.toks[self.pos])!r}", self.pos)
            self.pos += 1
            return self._postfix(f), levels
        try:
            f = Not(f) if tok == "~" else SomeStage(f) if tok == "<*>" else Box(int(tok[1:-1]), f)
        except ValueError as e:
            raise self.error(str(e), i) from None
        return f, levels

    def atom(self, name: str) -> Atom:
        if name[-1] == "!":
            return Atom(name[:-1], True)
        return Atom(name, name in self.lawlike)

    def _postfix(self, f: Formula) -> Formula:
        # postfix tested-later sugar: a| reads as sugar only when no
        # operand can follow the pipe (otherwise it is the Or connective)
        toks, i = self.toks, self.pos
        if toks[i] == "|" and isinstance(f, Atom) and _kind(toks[i + 1]) not in _UNARY_STARTERS:
            self.pos = i + 1
            return tested_later(f)
        return f


def parse(text: str) -> Formula:
    """Parse a formula; raises FormulaSyntaxError with an offset on bad input."""
    return _Parser(text).parse()


# --- stage trees ---


class ModelError(ValueError):
    pass


class StageTree:
    """Finite rooted tree with a monotone valuation.

    Node 0 is the root. Leaves have an implicit self-loop. The valuation
    must be monotone (atoms persist to descendants); the constructor
    rejects violations.
    """

    def __init__(
        self,
        parents: tuple[Optional[int], ...],
        valuation: tuple[frozenset[str], ...],
        ids: Optional[tuple[str, ...]] = None,
    ):
        n = len(parents)
        if n == 0:
            raise ModelError("a stage tree needs at least one node")
        if len(valuation) != n:
            raise ModelError("valuation size does not match node count")
        self.parents = parents
        self.valuation = valuation
        self.ids = ids or tuple(f"n{i}" for i in range(n))
        if len(self.ids) != n or len(set(self.ids)) != n:
            raise ModelError("node ids must be unique and cover every node")
        self.children: list[list[int]] = [[] for _ in range(n)]
        roots = []
        for i, p in enumerate(parents):
            if p is None:
                roots.append(i)
            else:
                if not 0 <= p < n:
                    raise ModelError(f"node {self.ids[i]} has an unknown parent")
                self.children[p].append(i)
        if roots != [0]:
            raise ModelError("exactly one root is required, at index 0")
        # each node sits in one parent's child list, so the walk from the root
        # meets no node twice; a cycle's nodes are unreachable from the root
        seen = [False] * n
        stack = [0]
        while stack:
            w = stack.pop()
            seen[w] = True
            stack.extend(self.children[w])
        if not all(seen):
            raise ModelError("disconnected nodes in the tree")
        bad = monotonicity_violations(self)
        if bad:
            node, atom = bad[0]
            raise ModelError(
                f"valuation not monotone: atom {atom!r} is lost at node {self.ids[node]}"
            )

    @property
    def size(self) -> int:
        return len(self.parents)

    def successors(self, w: int) -> list[int]:
        return self.children[w] or [w]

    @property
    def depth(self) -> int:
        best = 0
        stack = [(0, 0)]
        while stack:
            w, d = stack.pop()
            best = max(best, d)
            for c in self.children[w]:
                stack.append((c, d + 1))
        return best

    def descendants_or_self(self, w: int) -> list[int]:
        out = []
        stack = [w]
        while stack:
            u = stack.pop()
            out.append(u)
            stack.extend(self.children[u])
        return sorted(out)

    def steps(self, w: int, n: int) -> frozenset[int]:
        """Nodes exactly n successor steps from w (leaves loop on themselves)."""
        frontier = {w}
        for _ in range(n):
            frontier = {u for v in frontier for u in self.successors(v)}
        return frozenset(frontier)

    def index_of(self, node_id: str) -> int:
        try:
            return self.ids.index(node_id)
        except ValueError:
            raise ModelError(f"unknown node id {node_id!r}") from None


def monotonicity_violations(m: StageTree) -> list[tuple[int, str]]:
    """(node, atom) pairs where an atom true at the parent is lost."""
    out = []
    for w in range(m.size):
        for c in m.children[w]:
            for atom in sorted(m.valuation[w]):
                if atom not in m.valuation[c]:
                    out.append((c, atom))
    return out


def load_model(text: str) -> StageTree:
    """Model JSON: {"nodes": [{"id", "parent"?, "atoms"?}...]}, root first or
    not; atoms is a list of names."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ModelError(f"model file is not valid JSON: {e}") from None
    nodes = doc.get("nodes") if isinstance(doc, dict) else None
    if not isinstance(nodes, list) or not nodes:
        raise ModelError("model JSON needs a non-empty 'nodes' list")
    for nd in nodes:
        if not isinstance(nd, dict) or "id" not in nd:
            raise ModelError(f"each node must be an object with an 'id', got {nd!r}")
        atoms = nd.get("atoms", [])
        if not isinstance(atoms, list) or not all(isinstance(a, str) for a in atoms):
            raise ModelError(f"node {nd['id']!r}: atoms must be a list of names, got {atoms!r}")
    # normalize so the root sits at index 0
    nodes = sorted(nodes, key=lambda nd: nd.get("parent") not in (None, ""))
    ids = [str(nd["id"]) for nd in nodes]
    if len(set(ids)) != len(ids):
        raise ModelError("duplicate node ids")
    if sum(nd.get("parent") in (None, "") for nd in nodes) != 1:
        raise ModelError("model JSON needs exactly one root node")
    pos = {nid: i for i, nid in enumerate(ids)}
    for nd in nodes[1:]:
        if str(nd["parent"]) not in pos:
            raise ModelError(f"node {nd['id']!r} references unknown parent {nd['parent']!r}")
    parents = (None, *(pos[str(nd["parent"])] for nd in nodes[1:]))
    vals = tuple(frozenset(nd.get("atoms", [])) for nd in nodes)
    return StageTree(parents, vals, tuple(ids))


def dump_model(m: StageTree) -> dict:
    nodes = []
    for i in range(m.size):
        nd: dict = {"id": m.ids[i], "atoms": sorted(m.valuation[i])}
        if m.parents[i] is not None:
            nd["parent"] = m.ids[m.parents[i]]
        nodes.append(nd)
    return {"nodes": nodes}


# --- forcing (reference implementation) ---


def forces(m: StageTree, w: int, f: Formula) -> bool:
    if isinstance(f, Atom):
        return f.name in m.valuation[w]
    if isinstance(f, Bottom):
        return False
    if isinstance(f, And):
        return forces(m, w, f.left) and forces(m, w, f.right)
    if isinstance(f, Or):
        return forces(m, w, f.left) or forces(m, w, f.right)
    if isinstance(f, Implies):
        return all(
            not forces(m, v, f.left) or forces(m, v, f.right)
            for v in m.descendants_or_self(w)
        )
    if isinstance(f, Box):
        return all(forces(m, u, f.operand) for u in m.steps(w, f.n))
    if isinstance(f, SomeStage):
        return any(forces(m, w, Box(n, f.operand)) for n in range(1, m.depth + 2))
    raise TypeError(f"not a formula: {f!r}")


# --- sweep bounds ---

ATOM_POOL = ("p", "q", "r", "s")


class SweepBounds(Record):
    __slots__ = ("max_nodes", "max_atoms", "max_box_index", "max_operand_depth")

    def __init__(
        self,
        max_nodes: int = 5,
        max_atoms: int = 2,
        max_box_index: int = 3,
        max_operand_depth: int = 2,
    ) -> None:
        if min(max_nodes, max_atoms, max_box_index, max_operand_depth + 1) < 1:
            raise ValueError("all sweep bounds must be positive")
        if max_atoms > len(ATOM_POOL):
            raise ValueError(f"at most {len(ATOM_POOL)} atoms supported")
        _set(self, "max_nodes", max_nodes)
        _set(self, "max_atoms", max_atoms)
        _set(self, "max_box_index", max_box_index)
        _set(self, "max_operand_depth", max_operand_depth)

    def as_dict(self) -> dict:
        """Each bound by field name, in field order."""
        return {f: getattr(self, f) for f in self._fields}


# --- schemata and sweeps ---


class Schema(Record):
    """A principle written once, as a template over the metavariable phi and
    index variables that each stand for an integer >= 1. The sweep's
    instances and the derivation checker's matcher both come from it.

    The template is parsed once, with each distinct index expression (n,
    n+m) replaced by its position: [1], [2], ... The public grammar takes
    no index variables. Read left to right, each box brings in at most one
    index variable not seen before, which the matcher solves for."""

    __slots__ = ("name", "template", "_form", "_exprs")
    _fields = ("name", "template")

    def __init__(self, name: str, template: str) -> None:
        _set(self, "name", name)
        _set(self, "template", template)
        exprs: list[tuple[str, ...]] = []

        def position(m: "re.Match[str]") -> str:
            expr = tuple(m.group(1).split("+"))
            if expr not in exprs:
                exprs.append(expr)
            return f"[{exprs.index(expr) + 1}]"

        _set(self, "_form", parse(re.sub(r"\[([a-z+]+)\]", position, template)))
        _set(self, "_exprs", tuple(exprs))

    def _show(self, f: Formula) -> str:
        return re.sub(r"\[([0-9]+)\]", lambda m: f"[{'+'.join(self._exprs[int(m[1]) - 1])}]", show(f))

    def sides(self) -> tuple[str, str]:
        """The premise and conclusion of an implication template, as printed."""
        return self._show(self._form.left), self._show(self._form.right)

    def instances(self, bounds: SweepBounds) -> list[tuple[dict, Callable[[Formula], Formula]]]:
        """(indices, build) per index binding, in lexicographic order, keeping
        those whose every [.] index is at most max_box_index. build(phi)
        embeds the very phi object it is given."""
        names = list(dict.fromkeys(v for expr in self._exprs for v in expr))
        top = bounds.max_box_index
        out = []
        for values in itertools.product(range(1, top + 1), repeat=len(names)):
            indices = dict(zip(names, values))
            boxes = [sum(indices[v] for v in expr) for expr in self._exprs]
            if max(boxes, default=1) <= top:
                out.append((indices, functools.partial(_instantiate, self._form, boxes)))
        return out

    def match(self, f: Formula) -> Optional[tuple[Formula, dict]]:
        """(phi, indices) when f is an instance of the template, else None.
        phi is bound by position; the indices need only be >= 1."""
        phi: list[Formula] = []
        indices: dict[str, int] = {}
        return (phi[0], indices) if _match(self._form, f, self._exprs, phi, indices) else None


def _match(t: Formula, g: Formula, exprs: tuple, phi: list, indices: dict) -> bool:
    """Whether g fits template t: phi collects g's subformula at each atom
    of t, which must all be equal, and indices the index variables solved
    so far (module-level, so that the recursion leaves no reference cycle)."""
    kind = type(t)
    if kind is Atom:
        phi.append(g)
        return g is phi[0] or g == phi[0]
    if type(g) is not kind:
        return False
    if kind is Box:
        expr = exprs[t.n - 1]
        fresh = [v for v in expr if v not in indices]
        rest = g.n - sum(indices[v] for v in expr if v in indices)
        if fresh and rest >= 1:
            indices[fresh[0]] = rest
        elif fresh or rest:
            return False
    if kind is Box or kind is SomeStage:
        return _match(t.operand, g.operand, exprs, phi, indices)
    return kind is Bottom or (
        _match(t.left, g.left, exprs, phi, indices)
        and _match(t.right, g.right, exprs, phi, indices)
    )


def _instantiate(t: Formula, boxes: list[int], phi: Formula) -> Formula:
    """Template t with phi for its atom and boxes[k - 1] for each index [k]."""
    if isinstance(t, Atom):
        return phi
    if isinstance(t, (And, Or, Implies)):
        return type(t)(_instantiate(t.left, boxes, phi), _instantiate(t.right, boxes, phi))
    if isinstance(t, Box):
        return Box(boxes[t.n - 1], _instantiate(t.operand, boxes, phi))
    if isinstance(t, SomeStage):
        return SomeStage(_instantiate(t.operand, boxes, phi))
    return t


SCHEMAS: dict[str, Schema] = {
    s.name: s
    for s in (
        Schema("ic1", "[n]phi -> [n+m]phi"),
        Schema("ic2", "~phi -> ~<*>phi"),
        Schema("ic3", "phi -> <*>phi"),
        Schema("md", "~<*>phi -> ~phi"),
        Schema("cs4", "[n]phi | ~[n]phi"),
        Schema("cs5", "<*>phi -> phi"),
    )
}


def validity_sweep(schema: str, bounds: SweepBounds) -> SweepResult:
    """Exhaustive check of one schema over all stage trees, monotone
    valuations, and stage-free instantiations within bounds. Returns the
    first countermodel in enumeration order (node count, then shape code,
    then valuation, then formula in _level_starts' order, then instance
    indices), or the validity certificate with the counts. The sweep engine,
    brouwer._masks, is loaded by the first call."""
    if schema not in SCHEMAS:
        raise ValueError(f"unknown schema {schema!r}; pick from {sorted(SCHEMAS)}")
    from ._masks import _sweep

    return _sweep([schema], bounds)[schema]


def __getattr__(name: str):
    """The sweep engine's names (count_models, principle_suite, _Masks, ...),
    read from brouwer._masks on each use (PEP 562): nothing is copied here,
    so a patch of one goes on brouwer._masks, where the engine reads it."""
    if not name.startswith("__"):
        from . import _masks

        if name in vars(_masks):
            return vars(_masks)[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# the `logic eval` command's handler, which brouwer.cli.main runs and prints
def _cmd_eval(args, cfg) -> tuple[int, dict, str]:
    with open(args.model, encoding="utf-8") as fh:
        model = load_model(fh.read())
    f = parse(args.formula)
    w = model.index_of(args.at)
    result = forces(model, w, f)
    payload = {"command": "logic-eval", "model": args.model, "at": args.at,
               "formula": show(f), "forces": result}
    return 0, payload, "true" if result else "false"
