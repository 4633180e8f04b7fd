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
import math
import re
from collections import namedtuple
from operator import and_, or_
from typing import Callable, Iterator, NamedTuple, Optional, Union

from ._record import Record, _set
from .errors import ResourceLimitError


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

# parse refuses formulas nested deeper than this: show, forces and the
# records' == and hash recurse once or a few times a level. A level is a
# connective, a prefix operator, a parenthesised group or an atom (with
# its |a or a| sugar).
MAX_NESTING = 100
_TOO_DEEP = f"formula nested deeper than {MAX_NESTING} levels"


class _Parser:
    """Recursive descent over the token list, which ends in two "" end
    tokens so that lookahead is a plain index. Each rule takes d, the levels
    open around it, and returns (formula, nesting levels); a level is
    refused on the way down (before the recursion can overflow) once the
    levels open and a formula inside them pass the bound. An atom is
    lawlike when marked '!' or named in lawlike."""

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
        f, _ = self.imp(0)
        if self.toks[self.pos]:
            raise self.error(f"trailing input {_kind(self.toks[self.pos])!r}", self.pos)
        return f

    def imp(self, d: int) -> tuple[Formula, int]:
        left, levels = self.disj(d)
        i = self.pos
        if self.toks[i] != "->":
            return left, levels
        if d + 2 > MAX_NESTING:
            raise self.error(_TOO_DEEP, i)
        self.pos = i + 1
        right, deeper = self.imp(d + 1)
        levels = max(levels, deeper) + 1
        if levels > MAX_NESTING:
            raise self.error(_TOO_DEEP, i)
        return Implies(left, right), levels

    def disj(self, d: int) -> tuple[Formula, int]:
        f, levels = self.conj(d)
        toks = self.toks
        while toks[self.pos] == "|" and _kind(toks[self.pos + 1]) in _UNARY_STARTERS:
            i = self.pos
            self.pos = i + 1
            g, deeper = self.conj(d)
            f, levels = Or(f, g), max(levels, deeper) + 1
            if levels > MAX_NESTING:
                raise self.error(_TOO_DEEP, i)
        return f, levels

    def conj(self, d: int) -> tuple[Formula, int]:
        f, levels = self.unary(d)
        toks = self.toks
        while toks[self.pos] == "&":
            i = self.pos
            self.pos = i + 1
            g, deeper = self.unary(d)
            f, levels = And(f, g), max(levels, deeper) + 1
            if levels > MAX_NESTING:
                raise self.error(_TOO_DEEP, i)
        return f, levels

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
        f, levels = self.imp(d + 1) if opens else self.unary(d + 1)
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
        toks = self.toks
        if (
            toks[self.pos] == "|"
            and isinstance(f, Atom)
            and _kind(toks[self.pos + 1]) not in _UNARY_STARTERS
        ):
            self.pos += 1
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


# --- bitmask engine (used by the sweeps) ---


def _spread(table: list[int], bits: int) -> int:
    """The union of table[u] over the nodes u in bits."""
    acc = 0
    while bits:
        low = bits & -bits
        acc |= table[low.bit_length() - 1]
        bits ^= low
    return acc


class _Masks:
    def __init__(self, m: StageTree, max_box: int):
        self.m = m
        n = m.size
        self.full = (1 << n) - 1
        self.childmask = [0] * n
        for w in range(n):
            for c in m.children[w]:
                self.childmask[w] |= 1 << c
        self.ancmask = [0] * n
        for w in range(n):
            for u in m.descendants_or_self(w):
                self.ancmask[u] |= 1 << w
        self.n_some = m.depth + 1
        # premask[k][u]: the nodes k successor steps back from u, a leaf
        # being its own successor
        pred = [(0 if p is None else 1 << p) | (0 if self.childmask[u] else 1 << u)
                for u, p in enumerate(m.parents)]
        self.premask = [[1 << u for u in range(n)]]
        for _ in range(max(max_box, self.n_some)):
            self.premask.append([_spread(self.premask[-1], bits) for bits in pred])

    def implies_mask(self, l: int, r: int) -> int:
        """All but the ancestors-or-self of the nodes forcing l but not r."""
        return self.full & ~_spread(self.ancmask, l & ~r)

    def box_mask(self, n: int, operand: int) -> int:
        """All but the nodes n steps back from a node outside operand."""
        return self.full & ~_spread(self.premask[n], self.full & ~operand)

    def somestage_mask(self, operand: int) -> int:
        acc = 0
        for n in range(1, self.n_some + 1):
            acc |= self.box_mask(n, operand)
            if acc == self.full:
                break
        return acc

    def upclosed(self, mask: int) -> bool:
        """Whether every child of a node in mask is in mask."""
        return not _spread(self.childmask, mask) & ~mask


def _mask_function(t: Formula) -> Callable[[_Masks, int], int]:
    """Template t as a function of an engine and phi's mask: each atom of t
    is phi, and each connective its operation on masks."""
    if isinstance(t, Atom):
        return lambda mm, x: x
    if isinstance(t, Bottom):
        return lambda mm, x: 0
    if isinstance(t, Box):
        n, f = t.n, _mask_function(t.operand)
        return lambda mm, x: mm.box_mask(n, f(mm, x))
    if isinstance(t, SomeStage):
        f = _mask_function(t.operand)
        return lambda mm, x: mm.somestage_mask(f(mm, x))
    l, r = _mask_function(t.left), _mask_function(t.right)
    if isinstance(t, And):
        return lambda mm, x: l(mm, x) & r(mm, x)
    if isinstance(t, Or):
        return lambda mm, x: l(mm, x) | r(mm, x)
    return lambda mm, x: mm.implies_mask(l(mm, x), r(mm, x))


# --- enumeration ---

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


@functools.cache
def _codes(n: int) -> tuple[tuple, ...]:
    """Codes of the rooted trees on n nodes, sorted by repr. A code is the
    sorted tuple of the root's subtree codes. A tree on n > 1 nodes is a
    smaller tree with one more subtree under its root; the set drops repeats."""
    if n == 1:
        return ((),)
    codes = {
        tuple(sorted(rest + (sub,)))
        for k in range(1, n)
        for sub in _codes(k)
        for rest in _codes(n - k)
    }
    return tuple(sorted(codes, key=repr))


def _preorder(code: tuple, w: int, parents: list) -> list:
    """parents extended by the nodes of code's subtrees under w, in preorder."""
    for sub in code:
        parents.append(w)
        _preorder(sub, len(parents) - 1, parents)
    return parents


def _upclosed_sets(parents: tuple[Optional[int], ...]) -> list[int]:
    """Up-set masks, ascending: a node's up-sets are every union of one
    up-set per child, plus its whole subtree."""
    sets = [[0] for _ in parents]
    whole = [1 << w for w in range(len(parents))]
    # every child is numbered after its parent, so it is complete when folded in
    for w in range(len(parents) - 1, 0, -1):
        p = parents[w]
        below = sets[w] + [whole[w]]
        sets[p] = [a | b for a in sets[p] for b in below]
        whole[p] |= whole[w]
    return sorted(sets[0] + [whole[0]])


def _stage_tree(shape: tuple[Optional[int], ...], atoms, masks) -> StageTree:
    return StageTree(shape, tuple(
        frozenset(a for a, mask in zip(atoms, masks) if mask >> w & 1)
        for w in range(len(shape))
    ))


def _up_count(code: tuple) -> int:
    return 1 + math.prod(map(_up_count, code))


def count_models(bounds: SweepBounds) -> int:
    """Models within bounds from the shapes' codes alone: a tree with u(code)
    = 1 + prod u(sub) up-sets carries u^atoms valuations. It builds no shape
    and no up-set, so the sweep cap refuses at once."""
    return sum(
        _up_count(code) ** bounds.max_atoms
        for n in range(1, bounds.max_nodes + 1)
        for code in _codes(n)
    )


def _level_starts(bounds: SweepBounds) -> list[int]:
    """Where each level of the sweep's formula order starts, then its length.
    The order lists the stage-free formulas by depth. Level 0 is the atoms in
    pool order, then _|_. Level d holds l & r, l | r and l -> r, in that
    order, for each pair (l, r) of earlier formulas with an operand on level
    d - 1, by l's index, then r's: three formulas per such pair."""
    starts = [0, bounds.max_atoms + 1]
    for _ in range(bounds.max_operand_depth):
        lo, hi = starts[-2:]
        starts.append(hi + 3 * (hi * hi - lo * lo))
    return starts


def _mask_set(atom_masks: tuple[int, ...], depth: int, implies) -> set[int]:
    """The distinct masks of the formulas up to operand depth on one model:
    M_0 is the atom masks and _|_'s, and M_d adds a & b, a | b and a -> b
    for every a, b in M_(d-1). A pair with both operands below level d - 1
    is a formula of a lower level, so M_d is exactly level d's masks and
    those below. It stops early once a level adds nothing."""
    masks = {*atom_masks, 0}
    for _ in range(depth):
        pairs = list(itertools.product(masks, repeat=2))
        grown = {*itertools.starmap(and_, pairs), *itertools.starmap(or_, pairs),
                 *itertools.starmap(implies, pairs)}
        if grown <= masks:
            break
        masks |= grown
    return masks


def _formula_masks(atom_masks: tuple[int, ...], starts: list[int], implies) -> Iterator[int]:
    """Each formula's mask on one model, in _level_starts' order: each pair
    of operands is decoded as _formula_at does, rows below the level first."""
    masks = [*atom_masks, 0]
    yield from masks
    for lo, size in zip(starts, starts[1:-1]):
        for l in range(size):
            for r in range(lo if l < lo else 0, size):
                a, b = masks[l], masks[r]
                masks += (a & b, a | b, implies(a, b))
                yield from masks[-3:]


def _formula_at(index: int, starts: list[int], atoms: tuple[str, ...]) -> Formula:
    """The formula at index in _level_starts' order. The level is the last
    start at or below index; its offset there splits by 3 into the operand
    pair and the connective, and the pair into its operands' indices, rows
    below the level first."""
    level = sum(start <= index for start in starts[1:])
    if level == 0:
        return Atom(atoms[index]) if index < len(atoms) else BOT
    lo, size = starts[level - 1], starts[level]
    pair, ctor = divmod(index - size, 3)
    if pair < lo * (size - lo):
        l, r = divmod(pair, size - lo)
        r += lo
    else:
        l, r = divmod(pair - lo * (size - lo), size)
        l += lo
    return (And, Or, Implies)[ctor](_formula_at(l, starts, atoms), _formula_at(r, starts, atoms))


def _class_table(code: tuple, label: int, atoms: int, types: dict, memo: dict) -> dict:
    """{root class: (models, one labelling)} over code's monotone labellings
    whose root has valuation label, one bit per atom; a labelling packs node
    w's valuation, in preorder, at bit w * atoms. A class is the root's type
    under bisimulation, each leaf looping to itself: a node's type is its
    valuation plus the set of its children's types (Aho, Hopcroft & Ullman's
    tree code), but a node whose children all have its own valuation's leaf
    type has that type (the loop rule). A leaf's type is its valuation; any
    other type is an id from 2^atoms up, interned in types.

    The children are folded in one at a time, each over every label that
    keeps its parent's atoms, the state being the set of child classes seen
    so far: bisimulation ignores multiplicity, and counts multiply. memo
    must hold each child's table under (code, label): callers list the codes
    by size and store each table they list."""
    states = {frozenset(): (1, label)}
    shift = atoms
    for sub in code:
        folded: dict = {}
        for below in range(label, 1 << atoms):
            if below & label != label:
                continue
            for cls, (count, rep) in memo[sub, below].items():
                rep <<= shift
                for kids, (models, labels) in states.items():
                    grown = kids | {cls}
                    seen = folded.get(grown)
                    if seen is None:
                        folded[grown] = (models * count, labels | rep)
                    else:
                        folded[grown] = (seen[0] + models * count, seen[1])
        states = folded
        shift += atoms * _size(sub)
    base = 1 << atoms
    return {
        label if kids <= {label} else types.setdefault((label, kids), base + len(types)): entry
        for kids, entry in states.items()
    }


def _size(code: tuple) -> int:
    return 1 + sum(map(_size, code))


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
        return re.sub(r"\[(\d+)\]", lambda m: f"[{'+'.join(self._exprs[int(m[1]) - 1])}]", show(f))

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

DEFAULT_SWEEP_CAP = 50_000_000


class Countermodel(NamedTuple):
    model: StageTree
    node: int
    phi: Formula
    indices: dict
    instance: Formula

    def as_dict(self) -> dict:
        return {
            "model": dump_model(self.model),
            "node": self.model.ids[self.node],
            "phi": show(self.phi),
            "indices": self.indices,
            "instance": show(self.instance),
        }


class SweepResult(NamedTuple):
    schema: str
    bounds: SweepBounds
    models_checked: int
    instances_checked: int
    countermodel: Optional[Countermodel]
    monotone_ok: bool = True

    @property
    def valid_up_to_bounds(self) -> bool:
        return self.countermodel is None


def _refuse_if_huge(bounds: SweepBounds, cap: int) -> None:
    """Refuse a sweep charged over cap: each model costs its formulas, but at
    least one pass over its nodes. The sweep's own work follows root
    classes, but their number is not known before the tables are built,
    and the countermodel pass visits a shape model by model; the model
    count, taken from the codes alone, bounds both."""
    models = count_models(bounds)
    formulas = _level_starts(bounds)[-1]
    charge = max(formulas, bounds.max_nodes)
    if models * charge > cap:
        raise ResourceLimitError(
            f"sweep would enumerate {models} models x {charge} "
            f"(the larger of {formulas} formulas and {bounds.max_nodes} nodes) "
            f"= {models * charge}, over the cap of {cap}",
            requested=models * charge,
            limit=cap,
        )


def _sweep(schema_names: list[str], bounds: SweepBounds) -> dict[str, SweepResult]:
    _refuse_if_huge(bounds, DEFAULT_SWEEP_CAP)
    starts = _level_starts(bounds)
    atoms = ATOM_POOL[: bounds.max_atoms]
    # each instance template is compiled once, to a function of phi's mask
    slot = Atom("phi")
    instances = {
        name: [(indices, build, _mask_function(build(slot))) for indices, build in SCHEMAS[name].instances(bounds)]
        for name in schema_names
    }
    found: dict[str, Optional[Countermodel]] = {name: None for name in schema_names}
    models_checked = 0
    instances_checked = {name: 0 for name in schema_names}
    monotone_ok = True
    # root class -> the distinct mask count of the model it was visited on;
    # every model of the class has the same masks and the same verdicts, all
    # of which hold for a schema still unfound
    types: dict = {}
    classes: dict[int, int] = {}
    memo: dict = {}  # _class_table per (code, root label), for codes below max_nodes

    for n, code in ((n, code) for n in range(1, bounds.max_nodes + 1) for code in _codes(n)):
        shape = tuple(_preorder(code, 0, [None]))
        mm = _Masks(StageTree(shape, (frozenset(),) * n), bounds.max_box_index)
        implies = functools.cache(mm.implies_mask)
        upclosed = functools.cache(mm.upclosed)
        pending = [name for name in schema_names if found[name] is None]

        @functools.cache
        def check(mask: int) -> tuple[bool, dict]:
            """Audits of phi mask and its instance masks, and {schema pending at
            the shape: (first instance failing on mask, lowest node not forcing it)}."""
            ok, fails = upclosed(mask), {}
            for name in pending:
                for j, (_, _, instance) in enumerate(instances[name]):
                    inst_mask = instance(mm, mask)
                    ok = upclosed(inst_mask) and ok
                    if inst_mask != mm.full:
                        fails[name] = j, (~inst_mask & inst_mask + 1).bit_length() - 1
                        break
            return ok, fails

        def visit(atom_masks: tuple[int, ...]) -> tuple[int, bool, set]:
            """A model's mask count, its audit and the schemas still unfound
            that one of its masks refutes."""
            verdicts = list(map(check, _mask_set(atom_masks, bounds.max_operand_depth, implies)))
            refuted = {name for _, fails in verdicts for name in fails if found[name] is None}
            return len(verdicts), all(ok for ok, _ in verdicts), refuted

        table: dict = {}
        for label in range(1 << len(atoms)):
            part = _class_table(code, label, len(atoms), types, memo)
            if n < bounds.max_nodes:
                memo[code, label] = part
            table.update(part)
        # each new class is visited on one model and kept, since the countermodel
        # pass finds what it refutes; if none does, the shape adds their counts
        for cls, (_, labels) in table.items():
            if cls not in classes:
                # node w's bit of atom a is bit w * atoms + a of labels
                bits = format(labels, f"0{n * len(atoms)}b")[::-1]
                masks = tuple(int(bits[a :: len(atoms)][::-1], 2) for a in range(len(atoms)))
                classes[cls], ok, refuted = visit(masks)
                monotone_ok = monotone_ok and ok
                if refuted:
                    break
        else:
            models_checked += sum(models for models, _ in table.values())
            per_instance = sum(models * classes[cls] for cls, (models, _) in table.items())
            for name in pending:
                instances_checked[name] += per_instance * len(instances[name])
            continue

        # the countermodel pass: the shape holds a first countermodel, so it
        # is visited model by model, in listed order, until every schema is
        # refuted; a refuting model's formula ranks are read in formula order
        for atom_masks in itertools.product(_upclosed_sets(shape), repeat=len(atoms)):
            models_checked += 1
            count, ok, refuted = visit(atom_masks)
            monotone_ok = monotone_ok and ok
            for name in pending:
                if found[name] is None and name not in refuted:
                    instances_checked[name] += count * len(instances[name])
            seen: set[int] = set()  # on a refuting model, the distinct masks in formula order
            for index, mask in enumerate(_formula_masks(atom_masks, starts, implies) if refuted else ()):
                if mask in seen:
                    continue
                for name, (j, node) in check(mask)[1].items():
                    if name in refuted and found[name] is None:
                        instances_checked[name] += len(seen) * len(instances[name]) + j + 1
                        indices, build, _ = instances[name][j]
                        phi = _formula_at(index, starts, atoms)
                        found[name] = Countermodel(_stage_tree(shape, atoms, atom_masks), node, phi, indices, build(phi))
                if all(found[name] is not None for name in refuted):
                    break
                seen.add(mask)
            if all(found[name] is not None for name in schema_names):
                break
        if all(found[name] is not None for name in schema_names):
            break

    return {
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


def validity_sweep(schema: str, bounds: SweepBounds) -> SweepResult:
    """Exhaustive check of one schema over all stage trees, monotone
    valuations, and stage-free instantiations within bounds. Returns the
    first countermodel in enumeration order (node count, then shape code,
    then valuation, then formula in _level_starts' order, then instance
    indices), or the validity certificate with the counts.

    The sweep works on masks, not formula trees. The nodes forcing a
    stage-free formula form an up-set, its mask, and &, | and -> act on
    masks as meet, join and implication of the finite Heyting algebra of
    up-sets, so an instance's verdict depends only on phi's mask. Per model
    the atom masks and _|_ are closed under the connectives level by level
    into a plain set (_mask_set). Per shape each phi mask is checked once,
    through each instance template compiled to a function of phi's mask
    (_mask_function), for its and its instances' audits and each schema's
    first instance failing on it. A visit adds masks x instances to a
    schema none refutes. Only a visit that refutes a schema still unfound
    reads formula ranks: a pass over the masks in formula order
    (_formula_masks) finds the least failing formula index, and the masks
    before it are the per-formula scan's partial count.

    Forcing is invariant under bisimulation of the successor relation with
    leaves looping to themselves, and every node is reachable from the
    root, so models with bisimilar roots have the same distinct masks and
    the same verdicts. So each shape's root classes are listed with their
    model counts (_class_table), and the closure, the instance checks and
    the monotonicity audit run once per class new to the sweep, on one
    model of it; the shape then adds each class's models and masks x
    instances, and the cost follows classes, not models.

    A shape where such a check refutes a schema still unfound holds that
    schema's first countermodel. The countermodel pass visits its models in
    listed order, with no class key, for the exact model, node and partial
    counts; a class seen before cannot refute a schema still unfound. Only
    phi is built, from its index (_formula_at)."""
    if schema not in SCHEMAS:
        raise ValueError(f"unknown schema {schema!r}; pick from {sorted(SCHEMAS)}")
    return _sweep([schema], bounds)[schema]


class SuiteReport(NamedTuple):
    bounds: SweepBounds
    results: dict[str, SweepResult]
    monotone_ok: bool

    restricted_cs5_note = (
        "restricted cs5 (lawlike atoms only) is an assumable derivation rule; "
        "it has no validating frame condition and is never semantically certified"
    )

    def outcome(self, name: str) -> str:
        return "valid-up-to-bounds" if self.results[name].valid_up_to_bounds else "countermodel"


def principle_suite(bounds: SweepBounds = SweepBounds()) -> SuiteReport:
    """One shared pass deciding all six schemata plus the monotonicity audit."""
    results = _sweep(list(SCHEMAS), bounds)
    monotone_ok = all(r.monotone_ok for r in results.values())
    return SuiteReport(bounds=bounds, results=results, monotone_ok=monotone_ok)
