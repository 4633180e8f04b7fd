"""Stage-modal propositional logic over finite stage trees.

Language: atoms (optionally flagged lawlike with a '!' suffix), _|_,
&, |, -> (right-associative), the stage modality [n] ("settled n stages
from now") and <*> ("settled at some future stage"). ~p abbreviates
p -> _|_. Operands of [n] and <*> must themselves be stage-free.

Surface sugar: |a is tested-now (~a | ~~a) and a| is tested-later
(<*>(~a | ~~a)); the pipe must be glued to the atom, and the postfix
form only reads as sugar when no operand can follow.

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
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Union

from .errors import ResourceLimitError


# --- formulas ---


class FormulaNestingError(ValueError):
    pass


@dataclass(frozen=True)
class Atom:
    name: str
    lawlike: bool = False


@dataclass(frozen=True)
class Bottom:
    pass


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Box:
    n: int
    operand: "Formula"

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("stage index must be >= 1")
        if not is_stage_free(self.operand):
            raise FormulaNestingError(
                f"[{self.n}] operand contains a stage operator: {show(self.operand)}"
            )


@dataclass(frozen=True)
class SomeStage:
    operand: "Formula"

    def __post_init__(self) -> None:
        if not is_stage_free(self.operand):
            raise FormulaNestingError(
                f"<*> operand contains a stage operator: {show(self.operand)}"
            )


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

    def at(g: Formula, prec: int) -> str:
        if isinstance(g, Atom):
            return g.name + ("!" if g.lawlike else "")
        if isinstance(g, Bottom):
            return "_|_"
        if isinstance(g, Implies) and g.right == BOT:
            return "~" + at(g.left, 4)
        if isinstance(g, Box):
            return f"[{g.n}]" + at(g.operand, 4)
        if isinstance(g, SomeStage):
            return "<*>" + at(g.operand, 4)
        if isinstance(g, And):
            s, p = at(g.left, 3) + " & " + at(g.right, 4), 3
        elif isinstance(g, Or):
            s, p = at(g.left, 2) + " | " + at(g.right, 3), 2
        else:
            s, p = at(g.left, 2) + " -> " + at(g.right, 1), 1
        return f"({s})" if p < prec else s

    return at(f, 1)


# --- parser ---


class FormulaSyntaxError(ValueError):
    def __init__(self, message: str, pos: int):
        self.pos = pos
        super().__init__(f"{message} (at offset {pos})")


_NAME_START = "abcdefghijklmnopqrstuvwxyz"
_NAME_CHARS = _NAME_START + "0123456789_"


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    toks: list[tuple[str, object, int]] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _NAME_START:
            j = i
            while j < n and text[j] in _NAME_CHARS:
                j += 1
            name = text[i:j]
            lawlike = j < n and text[j] == "!"
            toks.append(("name", (name, lawlike), i))
            i = j + (1 if lawlike else 0)
            continue
        if text.startswith("_|_", i):
            toks.append(("bottom", None, i))
            i += 3
            continue
        if text.startswith("->", i):
            toks.append(("->", None, i))
            i += 2
            continue
        if text.startswith("<*>", i):
            toks.append(("<*>", None, i))
            i += 3
            continue
        if c == "[":
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j == i + 1 or j >= n or text[j] != "]":
                raise FormulaSyntaxError("malformed stage index", i)
            toks.append(("box", int(text[i + 1 : j]), i))
            i = j + 1
            continue
        if c in "~&|()":
            toks.append((c, None, i))
            i += 1
            continue
        raise FormulaSyntaxError(f"unexpected character {c!r}", i)
    toks.append(("end", None, n))
    return toks


_UNARY_STARTERS = {"name", "bottom", "~", "box", "<*>", "(", "|"}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self, ahead: int = 0):
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def eat(self, kind: Optional[str] = None):
        tok = self.toks[self.pos]
        if kind is not None and tok[0] != kind:
            raise FormulaSyntaxError(f"expected {kind!r}, found {tok[0]!r}", tok[2])
        self.pos += 1
        return tok

    def parse(self) -> Formula:
        f = self.imp()
        tok = self.peek()
        if tok[0] != "end":
            raise FormulaSyntaxError(f"trailing input {tok[0]!r}", tok[2])
        return f

    def imp(self) -> Formula:
        left = self.disj()
        if self.peek()[0] == "->":
            self.eat()
            return Implies(left, self.imp())
        return left

    def disj(self) -> Formula:
        f = self.conj()
        while self.peek()[0] == "|" and self.peek(1)[0] in _UNARY_STARTERS:
            self.eat()
            f = Or(f, self.conj())
        return f

    def conj(self) -> Formula:
        f = self.unary()
        while self.peek()[0] == "&":
            self.eat()
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        kind, value, pos = self.peek()
        if kind == "~":
            self.eat()
            return Not(self.unary())
        if kind == "box":
            self.eat()
            try:
                return Box(value, self.unary())
            except ValueError as e:
                raise FormulaSyntaxError(str(e), pos) from None
        if kind == "<*>":
            self.eat()
            try:
                return SomeStage(self.unary())
            except ValueError as e:
                raise FormulaSyntaxError(str(e), pos) from None
        if kind == "(":
            self.eat()
            f = self.imp()
            self.eat(")")
            return self._postfix(f)
        if kind == "bottom":
            self.eat()
            return BOT
        if kind == "|":
            # prefix tested-now sugar: |a
            self.eat()
            tok = self.eat("name")
            name, lawlike = tok[1]
            return tested_now(Atom(name, lawlike))
        if kind == "name":
            self.eat()
            name, lawlike = value
            return self._postfix(Atom(name, lawlike))
        raise FormulaSyntaxError(f"expected a formula, found {kind!r}", pos)

    def _postfix(self, f: Formula) -> Formula:
        # postfix tested-later sugar: a| reads as sugar only when no
        # operand can follow the pipe (otherwise it is the Or connective)
        if (
            isinstance(f, Atom)
            and self.peek()[0] == "|"
            and self.peek(1)[0] not in _UNARY_STARTERS
        ):
            self.eat()
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
        # reachability doubles as the cycle check
        seen = [False] * n
        stack = [0]
        while stack:
            w = stack.pop()
            if seen[w]:
                raise ModelError("parent links form a cycle")
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


class _Masks:
    def __init__(self, m: StageTree, max_box: int):
        self.m = m
        n = m.size
        self.full = (1 << n) - 1
        self.childmask = [0] * n
        for w in range(n):
            for c in m.children[w]:
                self.childmask[w] |= 1 << c
        self.descmask = [0] * n
        for w in range(n):
            for u in m.descendants_or_self(w):
                self.descmask[w] |= 1 << u
        depth = m.depth
        self.n_some = depth + 1
        k_max = max(max_box, self.n_some)
        succ = [self.childmask[w] or (1 << w) for w in range(n)]
        self.stepmask = [[1 << w for w in range(n)]]
        for _ in range(k_max):
            prev = self.stepmask[-1]
            cur = []
            for w in range(n):
                acc = 0
                bits = prev[w]
                while bits:
                    low = bits & -bits
                    acc |= succ[low.bit_length() - 1]
                    bits ^= low
                cur.append(acc)
            self.stepmask.append(cur)

    def atom_mask(self, name: str) -> int:
        acc = 0
        for w in range(self.m.size):
            if name in self.m.valuation[w]:
                acc |= 1 << w
        return acc

    def implies_mask(self, l: int, r: int) -> int:
        bad = l & ~r
        acc = 0
        for w in range(self.m.size):
            if not (bad & self.descmask[w]):
                acc |= 1 << w
        return acc

    def box_mask(self, n: int, operand: int) -> int:
        acc = 0
        for w in range(self.m.size):
            s = self.stepmask[n][w]
            if s & operand == s:
                acc |= 1 << w
        return acc

    def somestage_mask(self, operand: int) -> int:
        acc = 0
        for n in range(1, self.n_some + 1):
            acc |= self.box_mask(n, operand)
            if acc == self.full:
                break
        return acc

    def upclosed(self, mask: int) -> bool:
        bits = mask
        while bits:
            low = bits & -bits
            w = low.bit_length() - 1
            if self.childmask[w] & ~mask:
                return False
            bits ^= low
        return True

    def eval(self, f: Formula, memo: dict) -> int:
        key = id(f)
        if key in memo:
            return memo[key]
        if isinstance(f, Atom):
            v = self.atom_mask(f.name)
        elif isinstance(f, Bottom):
            v = 0
        elif isinstance(f, And):
            v = self.eval(f.left, memo) & self.eval(f.right, memo)
        elif isinstance(f, Or):
            v = self.eval(f.left, memo) | self.eval(f.right, memo)
        elif isinstance(f, Implies):
            v = self.implies_mask(self.eval(f.left, memo), self.eval(f.right, memo))
        elif isinstance(f, Box):
            v = self.box_mask(f.n, self.eval(f.operand, memo))
        else:
            v = self.somestage_mask(self.eval(f.operand, memo))
        memo[key] = v
        return v


# --- enumeration ---

ATOM_POOL = ("p", "q", "r", "s")


@dataclass(frozen=True)
class SweepBounds:
    max_nodes: int = 5
    max_atoms: int = 2
    max_box_index: int = 3
    max_operand_depth: int = 2

    def __post_init__(self) -> None:
        if min(self.max_nodes, self.max_atoms, self.max_box_index, self.max_operand_depth + 1) < 1:
            raise ValueError("all sweep bounds must be positive")
        if self.max_atoms > len(ATOM_POOL):
            raise ValueError(f"at most {len(ATOM_POOL)} atoms supported")


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


def enumerate_shapes(max_nodes: int) -> list[tuple[Optional[int], ...]]:
    """Canonical rooted tree shapes as parent arrays, node count ascending
    then code order (_codes); each code's nodes are numbered in preorder."""
    return [tuple(_preorder(code, 0, [None])) for n in range(1, max_nodes + 1) for code in _codes(n)]


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


def enumerate_models(bounds: SweepBounds) -> Iterator[StageTree]:
    atoms = ATOM_POOL[: bounds.max_atoms]
    for shape, valuations in _valued_shapes(bounds):
        for masks in valuations:
            yield _stage_tree(shape, atoms, masks)


def _valued_shapes(bounds: SweepBounds):
    """Each shape with its tuples of atom up-sets, in enumerate_models' order."""
    for shape in enumerate_shapes(bounds.max_nodes):
        yield shape, itertools.product(_upclosed_sets(shape), repeat=bounds.max_atoms)


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


def enumerate_box_free(bounds: SweepBounds) -> list[Formula]:
    """Stage-free formulas, by depth then construction order; atoms first."""
    base: list[Formula] = [Atom(a) for a in ATOM_POOL[: bounds.max_atoms]]
    base.append(BOT)
    levels: list[list[Formula]] = [base]
    for _ in range(bounds.max_operand_depth):
        prev = [f for level in levels for f in level]
        top = set(map(id, levels[-1]))
        fresh: list[Formula] = []
        for l in prev:
            for r in prev:
                # exactly this depth: at least one operand from the deepest level
                if id(l) not in top and id(r) not in top:
                    continue
                for ctor in (And, Or, Implies):
                    fresh.append(ctor(l, r))
        levels.append(fresh)
    return [f for level in levels for f in level]


def _level_starts(bounds: SweepBounds) -> list[int]:
    """Where each level of enumerate_box_free starts, then its length: a level
    has three formulas per operand pair with an operand on the level below."""
    starts = [0, bounds.max_atoms + 1]
    for _ in range(bounds.max_operand_depth):
        lo, hi = starts[-2:]
        starts.append(hi + 3 * (hi * hi - lo * lo))
    return starts


def _mask_closure(atom_masks: tuple[int, ...], starts: list[int], implies) -> dict[int, int]:
    """Each distinct mask of enumerate_box_free's formulas on one model,
    mapped to the index of its first formula.

    A mask pair (a, b) stands for every operand pair with those masks. With
    FA(a) a's first index on any lower level and FT(a) on the level just
    below, the least pair with an operand on that level is (FA(a), FA(b))
    if FA(a) is on it, else (FA(a), FT(b)), else (FT(a), FA(b))."""
    first: dict[int, int] = {}
    for i, a in enumerate(atom_masks + (0,)):
        first.setdefault(a, i)
    top = dict(first)
    for lo, size in zip(starts, starts[1:-1]):
        level: dict[int, int] = {}
        for a, fa in first.items():
            for b, fb in first.items():
                if fa >= lo:
                    l, r = fa, fb
                elif b in top:
                    l, r = fa, top[b]
                elif a in top:
                    l, r = top[a], fb
                else:
                    continue
                # rank among the level's pairs: rows below lo pair with top operands only
                if l < lo:
                    pair = l * (size - lo) + r - lo
                else:
                    pair = lo * (size - lo) + (l - lo) * size + r
                index = size + 3 * pair
                for v in (a & b, a | b, implies(a, b)):
                    if level.get(v, index + 1) > index:
                        level[v] = index
                    index += 1
        top = level
        for v, index in level.items():
            first.setdefault(v, index)
    return first


@functools.cache
def _node_bytes(mask: int) -> int:
    """mask with node w's bit moved to bit 8w: byte w of the result."""
    return int.from_bytes(bytes(mask >> w & 1 for w in range(mask.bit_length())), "little")


def _root_class(children: list[list[int]], atom_masks: tuple[int, ...], types: dict) -> int:
    """The root's class under bisimulation of the successor relation, each
    leaf looping to itself; every child must be numbered after its parent.

    A node's type is its valuation plus the set of its children's types
    (Aho, Hopcroft & Ullman's tree code), except that a node whose children
    all have its own valuation's leaf type has that type: the loop rule.
    A leaf's type is its valuation, one bit per atom; any other type is an
    id from 2^atoms up, interned in types."""
    packed = 0
    for k, mask in enumerate(atom_masks):
        packed |= _node_bytes(mask) << k
    t = list(packed.to_bytes(len(children), "little"))
    base = 1 << len(atom_masks)
    for w in range(len(children) - 1, -1, -1):
        if children[w]:
            kids = frozenset(map(t.__getitem__, children[w]))
            if kids != {t[w]}:
                t[w] = types.setdefault((t[w], kids), base + len(types))
    return t[0]


def _class_table(code: tuple, label: int, atoms: int, types: dict, memo: dict) -> dict:
    """{root class: (models, one labelling)} over code's monotone labellings
    whose root has valuation label, one bit per atom; a labelling packs node
    w's valuation, in preorder, at bit w * atoms, and the classes are
    _root_class's ids.

    The children are folded in one at a time, each over every label that
    keeps its parent's atoms, the state being the set of child classes seen
    so far: bisimulation ignores multiplicity, and counts multiply. A
    child's table is kept in memo under (code, label)."""
    states = {frozenset(): (1, label)}
    shift = atoms
    for sub in code:
        folded: dict = {}
        for below in range(label, 1 << atoms):
            if below & label != label:
                continue
            table = memo.get((sub, below))
            if table is None:
                table = memo[sub, below] = _class_table(sub, below, atoms, types, memo)
            for cls, (count, rep) in table.items():
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


@dataclass(frozen=True)
class Schema:
    """A principle written once, as a template over the metavariable phi and
    index variables that each stand for an integer >= 1. The sweep's
    instances and the derivation checker's matcher both come from it.

    The template is parsed once, with each distinct index expression (n,
    n+m) replaced by its position: [1], [2], ... The public grammar takes
    no index variables. Read left to right, each box brings in at most one
    index variable not seen before, which the matcher solves for."""

    name: str
    template: str
    _form: Formula = field(init=False, repr=False, compare=False)
    _exprs: tuple[tuple[str, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        exprs: list[tuple[str, ...]] = []

        def position(m: "re.Match[str]") -> str:
            expr = tuple(m.group(1).split("+"))
            if expr not in exprs:
                exprs.append(expr)
            return f"[{exprs.index(expr) + 1}]"

        object.__setattr__(self, "_form", parse(re.sub(r"\[([a-z+]+)\]", position, self.template)))
        object.__setattr__(self, "_exprs", tuple(exprs))

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

        def walk(t: Formula, g: Formula) -> bool:
            kind = type(t)
            if kind is Atom:
                phi.append(g)
                return g is phi[0] or g == phi[0]
            if type(g) is not kind:
                return False
            if kind is Box:
                expr = self._exprs[t.n - 1]
                fresh = [v for v in expr if v not in indices]
                rest = g.n - sum(indices[v] for v in expr if v in indices)
                if fresh and rest >= 1:
                    indices[fresh[0]] = rest
                elif fresh or rest:
                    return False
            if kind is Box or kind is SomeStage:
                return walk(t.operand, g.operand)
            return kind is Bottom or walk(t.left, g.left) and walk(t.right, g.right)

        return (phi[0], indices) if walk(self._form, f) else None


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

EXPECTED_VALID = ("ic1", "ic2", "ic3", "md")
EXPECTED_REFUTED = ("cs4", "cs5")

DEFAULT_SWEEP_CAP = 50_000_000


@dataclass(frozen=True)
class Countermodel:
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


@dataclass(frozen=True)
class SweepResult:
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
    and a shape holding a first countermodel is run model by model; the
    model count, taken from the codes alone, bounds both."""
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


def _sweep(
    schema_names: list[str], bounds: SweepBounds, cap: int
) -> tuple[dict[str, SweepResult], bool]:
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
    # root class -> the distinct mask count of the model it was visited on;
    # every model of the class has the same masks in the same order and the
    # same verdicts, all of which hold for a schema still unfound
    types: dict = {}
    classes: dict[int, int] = {}
    memo: dict = {}  # _class_table per (code, root label), for codes below max_nodes

    for n, code in ((n, code) for n in range(1, bounds.max_nodes + 1) for code in _codes(n)):
        shape = tuple(_preorder(code, 0, [None]))
        mm = _Masks(StageTree(shape, (frozenset(),) * n), bounds.max_box_index)
        implies = functools.cache(mm.implies_mask)
        verdicts: dict[tuple[str, int, int], int] = {}

        def visit(atom_masks: tuple[int, ...], found: dict, checked: dict) -> tuple[int, bool]:
            """One model's distinct masks in formula order, each audited and
            checked against the instances of every schema unfound in found; a
            refutation goes into found. Returns the mask count and the audit."""
            closure = _mask_closure(atom_masks, starts, implies)
            ok = True
            for index, mask in sorted((i, m) for m, i in closure.items()):
                ok = ok and mm.upclosed(mask)
                for name in schema_names:
                    if found[name] is not None:
                        continue
                    for j, (indices, build, template) in enumerate(instances[name]):
                        inst_mask = verdicts.get((name, j, mask))
                        if inst_mask is None:
                            inst_mask = verdicts[name, j, mask] = mm.eval(template, {id(slot): mask})
                            ok = ok and mm.upclosed(inst_mask)
                        checked[name] += 1
                        if inst_mask != mm.full:
                            missing = ~inst_mask & mm.full
                            node = (missing & -missing).bit_length() - 1
                            phi = formulas()[index]
                            model = _stage_tree(shape, atoms, atom_masks)
                            found[name] = Countermodel(model, node, phi, indices, build(phi))
                            break
            return len(closure), ok

        table: dict = {}
        for label in range(1 << len(atoms)):
            part = _class_table(code, label, len(atoms), types, memo)
            if n < bounds.max_nodes:
                memo[code, label] = part
            table.update(part)
        # each new class is visited on one model; unless one refutes a schema
        # still unfound, the shape adds its classes' counts
        fresh: dict[int, int] = {}
        for cls, (_, labels) in table.items():
            if cls not in classes:
                trial = dict(found)
                masks = tuple(sum(1 << w for w in range(n) if labels >> (w * len(atoms) + a) & 1) for a in range(len(atoms)))
                fresh[cls], ok = visit(masks, trial, dict.fromkeys(schema_names, 0))
                monotone_ok = monotone_ok and ok
                if trial != found:
                    break
        else:
            classes.update(fresh)
            models_checked += sum(models for models, _ in table.values())
            per_instance = sum(models * classes[cls] for cls, (models, _) in table.items())
            for name in schema_names:
                if found[name] is None:
                    instances_checked[name] += per_instance * len(instances[name])
            continue

        # the shape holds a first countermodel: model by model, in listed order
        for atom_masks in itertools.product(_upclosed_sets(shape), repeat=len(atoms)):
            models_checked += 1
            key = _root_class(mm.m.children, atom_masks, types)
            if key in classes:
                for name in schema_names:
                    if found[name] is None:
                        instances_checked[name] += classes[key] * len(instances[name])
                continue
            classes[key], ok = visit(atom_masks, found, instances_checked)
            monotone_ok = monotone_ok and ok
            if all(found[name] is not None for name in schema_names):
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


def validity_sweep(
    schema: str, bounds: SweepBounds, cap: int = DEFAULT_SWEEP_CAP
) -> SweepResult:
    """Exhaustive check of one schema over all stage trees, monotone
    valuations, and stage-free instantiations within bounds. Returns the
    first countermodel in enumeration order (node count, then shape code,
    then valuation, then formula, then instance indices), or the validity
    certificate with the counts.

    The sweep works on masks, not formula trees. The nodes forcing a
    stage-free formula form an up-set, its mask, and &, | and -> act on
    masks as meet, join and implication of the finite Heyting algebra of
    up-sets, so an instance's verdict depends only on phi's mask. Per model
    the atom masks and _|_ are closed under the connectives level by level,
    keeping each mask's first formula (_mask_closure); visiting the distinct
    masks in that order gives the per-formula scan's counts and first
    countermodel. Instance verdicts are memoised per shape and phi mask.

    Forcing is invariant under bisimulation of the successor relation with
    leaves looping to themselves, and every node is reachable from the
    root, so models with bisimilar roots have the same distinct masks in
    the same order and the same verdicts. So each shape's root classes are
    listed with their model counts (_class_table), and the closure, the
    instance checks and the monotonicity audit run once per class new to
    the sweep, on one model of it; the shape then adds each class's models
    and masks x instances, and the cost follows classes, not models. A
    shape where such a check refutes a schema still unfound holds that
    schema's first countermodel, so it is run model by model in listed
    order, each keyed by _root_class, for the exact model, node and
    partial counts."""
    if schema not in SCHEMAS:
        raise ValueError(f"unknown schema {schema!r}; pick from {sorted(SCHEMAS)}")
    results, _ = _sweep([schema], bounds, cap)
    return results[schema]


@dataclass(frozen=True)
class SuiteReport:
    bounds: SweepBounds
    results: dict[str, SweepResult]
    monotone_ok: bool
    restricted_cs5_note: str = (
        "restricted cs5 (lawlike atoms only) is an assumable derivation rule; "
        "it has no validating frame condition and is never semantically certified"
    )

    def outcome(self, name: str) -> str:
        return "valid-up-to-bounds" if self.results[name].valid_up_to_bounds else "countermodel"


def principle_suite(
    bounds: SweepBounds = SweepBounds(), cap: int = DEFAULT_SWEEP_CAP
) -> SuiteReport:
    """One shared pass deciding all six schemata plus the monotonicity audit."""
    results, monotone_ok = _sweep(list(SCHEMAS), bounds, cap)
    return SuiteReport(bounds=bounds, results=results, monotone_ok=monotone_ok)
