"""Reference routes that no production path calls. The tests and
``benchmarks/bench.py`` check the program's own routes against them:

- the model and formula lists, element by element, that the sweep reaches
  through codes, up-sets and a formula rank;
- the mask of any formula on a model, its atoms seeded from the valuation,
  by a walk over the formula tree (the sweep compiles its instance
  templates to functions of phi's mask instead);
- each model's distinct formula masks with the index of each mask's first
  formula, ranked pair by pair level by level (the sweep closes a plain set
  and reads ranks by a pass in formula order, on a refuting visit only);
- each model's root class, computed node by node, which must equal the
  class ids the sweep's class tables intern;
- pi from a streaming spigot, exact digit by digit with no guard digits;
- the Machin enclosure as it stood before Euler's series: Gregory's
  alternating series for each arctangent, two long divisions per term and
  every floor's error counted on both sides;
- Chudnovsky's last step as it stood before its quotient was built from
  multiplications: one correctly rounded ``decimal`` division;
- the verdicts as they stood before they bisected: each scans the whole
  prefix to the horizon for the least hit; ``gt_rational``, the mirror of
  ``reals.lt_rational``; ``apart_at`` as two ``lt_at`` scans, one per
  direction, and ``scan_apart_at`` as one; ``virtual_order_check`` reading
  the table pair by pair inside its loops;
- the formula tokenizer and parser as they stood before one ``findall``
  read a formula: a character loop with a clamped ``peek``, the open levels
  kept on the parser; and the script's formula and rule readers, which
  split a top-level ``<->`` by a character scan (stage indices here are
  any ``str.isdigit`` characters, where the program takes ASCII digits);
- ``check_script`` as it stood before blocks became step-number intervals:
  every step keeps its block path, and Discharge closes a block by comparing
  paths;
- centring as it stood before points kept a live stream: one
  ``centered_term`` per stage, each taking a fresh ceiling of the stage's
  target, on a list of the chain that the rule keeps itself; the ceiling
  comes from ``Fraction`` arithmetic, or for a multiple of sqrt(2) from
  integer squares, not from ``dyadic.scaled_floor``.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from itertools import compress, count, islice, repeat
from math import ceil, isqrt
from operator import lshift, lt, sub
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union
from unittest import mock

from brouwer import _pi_backends, derivation
from brouwer.derivation import (
    _ARITY,
    _INSTANCE_RULES,
    _RULE_ALIASES,
    CheckResult,
    Rejected,
    Script,
    ScriptSyntaxError,
    Verified,
    parse_script,
)
from brouwer.drift import Sqrt2Value
from brouwer.dyadic import Dyadic
from brouwer.logic import (
    ATOM_POOL,
    BOT,
    MAX_NESTING,
    SCHEMAS,
    And,
    Atom,
    Bottom,
    Box,
    Formula,
    FormulaSyntaxError,
    Implies,
    Not,
    Or,
    SomeStage,
    StageTree,
    SweepBounds,
    _codes,
    _Masks,
    _preorder,
    _stage_tree,
    _upclosed_sets,
    atoms_of,
    show,
    tested_later,
    tested_now,
)
from brouwer.reals import (
    OrderReport,
    OrderViolation,
    PairRelation,
    Point,
    Verdict,
    VerdictValue,
    _as_fraction,
    _rel,
    _unknown,
)


# --- the sweep's models and formulas, listed ---


def enumerate_shapes(max_nodes: int) -> list[tuple[Optional[int], ...]]:
    """Canonical rooted tree shapes as parent arrays, node count ascending
    then code order (_codes); each code's nodes are numbered in preorder."""
    return [tuple(_preorder(code, 0, [None])) for n in range(1, max_nodes + 1) for code in _codes(n)]


def enumerate_models(bounds: SweepBounds) -> Iterator[StageTree]:
    atoms = ATOM_POOL[: bounds.max_atoms]
    for shape, valuations in _valued_shapes(bounds):
        for masks in valuations:
            yield _stage_tree(shape, atoms, masks)


def _valued_shapes(bounds: SweepBounds):
    """Each shape with its tuples of atom up-sets, in enumerate_models' order."""
    for shape in enumerate_shapes(bounds.max_nodes):
        yield shape, itertools.product(_upclosed_sets(shape), repeat=bounds.max_atoms)


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


# --- formula masks with atoms ---


def eval_mask(mm: _Masks, f: Formula, memo: dict) -> int:
    """f's mask; memo maps id(g) to g's mask and must hold f's atoms."""
    key = id(f)
    if key in memo:
        return memo[key]
    if isinstance(f, Bottom):
        v = 0
    elif isinstance(f, And):
        v = eval_mask(mm, f.left, memo) & eval_mask(mm, f.right, memo)
    elif isinstance(f, Or):
        v = eval_mask(mm, f.left, memo) | eval_mask(mm, f.right, memo)
    elif isinstance(f, Implies):
        v = mm.implies_mask(eval_mask(mm, f.left, memo), eval_mask(mm, f.right, memo))
    elif isinstance(f, Box):
        v = mm.box_mask(f.n, eval_mask(mm, f.operand, memo))
    elif isinstance(f, SomeStage):
        v = mm.somestage_mask(eval_mask(mm, f.operand, memo))
    else:
        raise TypeError(f"no mask for {f!r}")
    memo[key] = v
    return v


def masks_eval(mm: _Masks, f: Formula, memo: dict) -> int:
    """eval_mask(mm, f, memo) for a formula with atoms: each atom of f not
    yet in memo goes in first, by id, with the mask of the nodes whose
    valuation holds it."""
    stack = [f]
    while stack:
        g = stack.pop()
        if id(g) in memo:
            continue
        if isinstance(g, Atom):
            memo[id(g)] = sum(1 << w for w, val in enumerate(mm.m.valuation) if g.name in val)
        elif isinstance(g, (And, Or, Implies)):
            stack += (g.left, g.right)
        elif isinstance(g, (Box, SomeStage)):
            stack.append(g.operand)
    return eval_mask(mm, f, memo)


def mask_closure(atom_masks: tuple[int, ...], starts: list[int], implies) -> dict[int, int]:
    """Each distinct mask of the formulas in _level_starts' order on one
    model, mapped to the index of its first formula.

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


# --- root classes, model by model ---


@functools.cache
def _node_bytes(mask: int) -> int:
    """mask with node w's bit moved to bit 8w: byte w of the result."""
    return int.from_bytes(bytes(mask >> w & 1 for w in range(mask.bit_length())), "little")


def _root_class(children: list[list[int]], atom_masks: tuple[int, ...], types: dict) -> int:
    """The root's class under bisimulation of the successor relation, each
    leaf looping to itself; every child must be numbered after its parent.
    The ids are those logic._class_table interns in the same types dict.

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


# --- pi from a streaming spigot ---


def _spigot_stream():
    def compose(a, b):
        aq, ar, as_, at = a
        bq, br, bs, bt = b
        return (aq * bq, aq * br + ar * bt, as_ * bq + at * bs, as_ * br + at * bt)

    def extract(z, j):
        q, r, s, t = z
        return (q * j + r) // (s * j + t)

    z = (1, 0, 0, 1)
    terms = ((k, 4 * k + 2, 0, 2 * k + 1) for k in count(1))
    while True:
        y = extract(z, 3)
        while y != extract(z, 4):
            z = compose(z, next(terms))
            y = extract(z, 3)
        z = compose((10, -10 * y, 0, 1), z)
        yield y


def spigot_digits(n: int) -> str:
    """First n decimals of pi from the streaming spigot (digit-exact); its
    cost is quadratic in n."""
    if n < 1:
        return ""
    return "".join(map(str, islice(_spigot_stream(), 1, n + 1)))


# --- the Machin enclosure from Gregory's series ---


def _gregory_atan_inv_floor(x: int, one: int) -> tuple[int, int]:
    """(s, b) with |one * atan(1/x) - s| < b, for integers x >= 2, one >= 1.

    atan(1/x) = sum_k (-1)**k T_k / one, T_k = one / ((2k+1) * x**(2k+1)).
    p_k = p_{k-1} // x**2 from p_0 = one // x is floor(one / x**(2k+1)),
    because floor(floor(a/b)/c) = floor(a/(bc)) for positive integers; so
    t_k = p_k // (2k+1) is floor(T_k), and T_k lies in [t_k, t_k + 1).
    The loop stops at the first K with p_K = 0, that is one < x**(2K+1),
    where every later T_k is below 1: the omitted alternating tail, its
    terms decreasing, is at most T_K < 1 in size. The K kept floors err by
    less than 1 each, and s sums them with their signs, so the total error
    is below K + 1 = b.
    """
    x2 = x * x
    p = one // x
    s = k = 0
    while p:
        t = p // (2 * k + 1)
        s += -t if k & 1 else t
        p //= x2
        k += 1
    return s, k + 1


def gregory_enclosure(m: int) -> tuple[int, int]:
    """Integers lo < 10**m * pi < hi from pi = 16 atan(1/5) - 4 atan(1/239).

    With |10**m atan(1/5) - s5| < b5 and |10**m atan(1/239) - s239| < b239
    (``_gregory_atan_inv_floor``), 10**m * pi lies within 16*b5 + 4*b239 of
    16*s5 - 4*s239. The width is about 25*m: near a thousand digits, the
    last five of the m are uncertain.
    """
    one = 10**m
    s5, b5 = _gregory_atan_inv_floor(5, one)
    s239, b239 = _gregory_atan_inv_floor(239, one)
    mid = 16 * s5 - 4 * s239
    err = 16 * b5 + 4 * b239
    return mid - err, mid + err


def gregory_digits(n: int) -> str:
    """``machin_digits(n)``, each pass enclosed by ``gregory_enclosure``."""
    with mock.patch.object(_pi_backends, "_machin_enclosure", gregory_enclosure):
        return _pi_backends.machin_digits(n)


# --- Chudnovsky's division tail ---


def quotient(n, t, digits: int):
    """n/t correctly rounded to the given significant digits."""
    return _pi_backends._rounding(digits).divide(n, t)


def divided_chudnovsky_str(prec: int, series) -> str:
    """``_pi_backends._chudnovsky_str`` with the division as its quotient."""
    series.extend(max(2, int(prec / 14.18) + 2))
    ctx = _pi_backends._rounding(prec + 10)
    scale = ctx.multiply(426880 * 10005, _pi_backends._inv_sqrt(10005, prec + 10))
    pi = quotient(ctx.multiply(scale, ctx.plus(series.q)), ctx.plus(series.t), prec + 10)
    return str(pi).replace(".", "")


def division_digits(n: int) -> str:
    """``chudnovsky_digits(n)``, each pass read by ``divided_chudnovsky_str``."""
    with mock.patch.object(_pi_backends, "_chudnovsky_str", divided_chudnovsky_str):
        return _pi_backends.chudnovsky_digits(n)


# --- centring, one ceiling per stage ---


def ceil_scaled(value, k: int) -> int:
    """ceil(value * 2**k) for a Fraction, Dyadic or int, by Fraction
    arithmetic; for a multiple of sqrt(2), from the squares that bound it."""
    if not isinstance(value, Sqrt2Value):
        if isinstance(value, Dyadic):
            value = Fraction(value.num, 1 << value.exp)
        return ceil(Fraction(value) * (1 << k))
    p, q = value.coef.numerator, value.coef.denominator
    square = 2 * (abs(p) << k) ** 2  # (|value| * 2**k * q)**2
    c = isqrt(square) // q  # a first guess; the squares below decide
    while (c * q) ** 2 > square:
        c -= 1
    while ((c + 1) * q) ** 2 <= square:
        c += 1
    # c = floor(|value| * 2**k)
    return -c if p < 0 else c + ((c * q) ** 2 < square)


def centered_term(target, prefix) -> int:
    """Admissible next index whose midpoint is nearest the target value
    (the rule is derived above ``spreads.switch_terms``)."""
    c = ceil_scaled(target, len(prefix) + 2)
    if not prefix:  # the b with 2b+1 < c <= 2b+3
        return (c - 2) >> 1
    a = prefix[-1]
    if c <= 4 * a + 3:
        return 2 * a
    return 2 * a + 1 if c <= 4 * a + 5 else 2 * a + 2


def centering_rule(target_at) -> Callable[[int], int]:
    """Lawlike rule centring target_at(stage): extends its own list of the
    chain on demand, asking the target for stages 1, 2, 3, ... in turn."""
    terms: list[int] = []

    def rule(n: int) -> int:
        while len(terms) < n:
            terms.append(centered_term(target_at(len(terms) + 1), terms))
        return terms[n - 1]

    return rule


def centred_prefix(target_at, n: int) -> tuple[int, ...]:
    """The first n terms centring target_at(stage) at each stage."""
    rule = centering_rule(target_at)
    return tuple(map(rule, range(1, n + 1)))


# --- the verdicts as linear scans ---
#
# Each verdict as it stood before the verdicts bisected: the whole prefix
# to the horizon, scanned in map/compress chains for the least hit.


def _least_hit(horizon: int, hits: Iterable[bool]) -> Verdict:
    """Holds at the first index (from 1) whose hit is true, else unknown."""
    n = next(compress(count(1), hits), None)
    return _unknown(horizon) if n is None else Verdict(VerdictValue.HOLDS, horizon, witness=n)


def lt_at(a: Point, b: Point, horizon: int) -> Verdict:
    """a < b iff some index n has a_n + 2 < b_n."""
    return _least_hit(horizon, map((2).__lt__, map(sub, b.prefix(horizon), a.prefix(horizon))))


def lt_rational(a: Point, r, horizon: int) -> Verdict:
    """a < r iff some index n has (a_n + 2)/2^n < r."""
    rv = _as_fraction(r)
    num, den = rv.numerator, rv.denominator
    lhs = map(den.__mul__, map((2).__add__, a.prefix(horizon)))
    return _least_hit(horizon, map(lt, lhs, map(lshift, repeat(num), count(1))))


def gt_rational(a: Point, r, horizon: int) -> Verdict:
    """a > r iff some index n has a_n/2^n > r; no verdict uses it."""
    rv = _as_fraction(r)
    num, den = rv.numerator, rv.denominator
    terms = enumerate(a.prefix(horizon), 1)
    return _least_hit(horizon, (x * den > num << n for n, x in terms))


def _first_apart(xs: Sequence[int], ys: Sequence[int]) -> Optional[int]:
    """The least n whose intervals are disjoint, |x_n - y_n| > 2, else None."""
    return next(compress(count(1), map((2).__lt__, map(abs, map(sub, xs, ys)))), None)


def scan_apart_at(a: Point, b: Point, horizon: int) -> Verdict:
    """The least n with |a_n - b_n| > 2, in the direction of a_n - b_n."""
    xs, ys = a.prefix(horizon), b.prefix(horizon)
    n = _first_apart(xs, ys)
    if n is None:
        return _unknown(horizon)
    direction = "lt" if xs[n - 1] < ys[n - 1] else "gt"
    return Verdict(VerdictValue.HOLDS, horizon, witness=n, direction=direction)


def coincide_refute(a: Point, b: Point, horizon: int) -> Verdict:
    """Fails at the least n whose intervals are disjoint."""
    h = _first_apart(a.prefix(horizon), b.prefix(horizon))
    return _unknown(horizon) if h is None else Verdict(VerdictValue.FAILS, horizon, witness=h)


def abs_diff_lt(a: Point, b: Point, bound, horizon: int) -> Verdict:
    """|a - b| < bound iff some n has (|a_n - b_n| + 2)/2^n < bound."""
    bv = _as_fraction(bound)
    num, den = bv.numerator, bv.denominator
    gaps = map(abs, map(sub, a.prefix(horizon), b.prefix(horizon)))
    lhs = map(den.__mul__, map((2).__add__, gaps))
    return _least_hit(horizon, map(lt, lhs, map(lshift, repeat(num), count(1))))


# --- apartness and the virtual order, scanned relation by relation ---


def apart_at(a: Point, b: Point, horizon: int) -> Verdict:
    """a # b iff a < b or b < a; the found direction is recorded."""
    lt = lt_at(a, b, horizon)
    gt = lt_at(b, a, horizon)
    if lt.holds and (not gt.holds or lt.witness <= gt.witness):
        return Verdict(VerdictValue.HOLDS, horizon, witness=lt.witness, direction="lt")
    if gt.holds:
        return Verdict(VerdictValue.HOLDS, horizon, witness=gt.witness, direction="gt")
    return _unknown(horizon)


def virtual_order_check(
    size: int, table: dict[tuple[int, int], PairRelation]
) -> OrderReport:
    """Brute-force audit of the five virtual-order conditions on a finite sample.

    1. equality and the two strict directions are mutually exclusive;
    2. the strict order is a congruence for equality;
    3. not greater and not equal forces less;
    4. not greater and not less forces equal;
    5. less is transitive.

    Conditions 1-4 are checked per pair against the decided table (3 and 4
    amount to the table being total over {eq, lt, gt}); 5 over all triples.
    """
    violations: list[OrderViolation] = []

    for i in range(size):
        for j in range(size):
            if i == j:
                continue
            r = _rel(table, i, j)
            if r is None:
                violations.append(
                    OrderViolation(3, (i, j), "no relation decided for the pair")
                )
                violations.append(
                    OrderViolation(4, (i, j), "no relation decided for the pair")
                )

    # 2. congruence: i=u, j=v, i<j  =>  u<v
    for i in range(size):
        for u in range(size):
            if _rel(table, i, u) is not PairRelation.EQ:
                continue
            for j in range(size):
                for v in range(size):
                    if _rel(table, j, v) is not PairRelation.EQ:
                        continue
                    if _rel(table, i, j) is PairRelation.LT and _rel(
                        table, u, v
                    ) is not PairRelation.LT:
                        violations.append(
                            OrderViolation(
                                2,
                                (i, j, u, v),
                                "equal replacements flip the strict order",
                            )
                        )

    # 5. transitivity
    for i in range(size):
        for j in range(size):
            for k in range(size):
                if (
                    _rel(table, i, j) is PairRelation.LT
                    and _rel(table, j, k) is PairRelation.LT
                    and _rel(table, i, k) is not PairRelation.LT
                ):
                    violations.append(
                        OrderViolation(5, (i, j, k), "less-than chain does not compose")
                    )

    # 1. mutual exclusion is structural for a single-valued table, but guard
    # against both orientations being stored inconsistently.
    for i in range(size):
        for j in range(i + 1, size):
            fwd = table.get((i, j))
            bwd = table.get((j, i))
            if fwd is not None and bwd is not None:
                consistent = (
                    (fwd is PairRelation.EQ and bwd is PairRelation.EQ)
                    or (fwd is PairRelation.LT and bwd is PairRelation.GT)
                    or (fwd is PairRelation.GT and bwd is PairRelation.LT)
                )
                if not consistent:
                    violations.append(
                        OrderViolation(1, (i, j), "pair stored with clashing relations")
                    )

    return OrderReport(ok=not violations, violations=tuple(violations))


# --- the derivation checker with block paths ---


def _destruct_not(f: Formula) -> Optional[Formula]:
    if isinstance(f, Implies) and f.right == BOT:
        return f.left
    return None


def check_script(source: Union[str, Script]) -> CheckResult:
    script = parse_script(source) if isinstance(source, str) else source
    visible: dict[int, Formula] = {}
    path_of: dict[int, tuple[int, ...]] = {}
    stack: list[tuple[int, Formula]] = []  # (assume step number, assumption)
    warnings: list[str] = []

    def cur_path() -> tuple[int, ...]:
        return tuple(n for n, _ in stack)

    expected = 1
    for st in script.steps:
        if st.number != expected:
            return Rejected(
                st.number,
                f"steps must be numbered consecutively: expected {expected}, got {st.number}",
            )
        expected += 1

    for st in script.steps:
        n, f = st.number, st.formula

        def fail(reason: str) -> Rejected:
            return Rejected(n, f"{st.rule}: {reason}")

        # reference discipline first. A visible step's block path is a prefix
        # of the current one: Discharge is the only way to leave a block, and
        # it deletes the closed block's steps from visible.
        refs: list[Formula] = []
        bad = None
        for r in st.refs:
            if r not in visible:
                bad = fail(
                    f"step {r} is not citable here"
                    + (" (inside a closed block)" if r in path_of else "")
                )
                break
            refs.append(visible[r])
        if bad is not None:
            return bad

        rule = st.rule
        if rule in _ARITY and len(refs) != _ARITY[rule]:
            return fail(f"needs exactly {_ARITY[rule]} reference(s), got {len(refs)}")
        err: Optional[Rejected] = None

        if rule == "Premise":
            if f not in script.premises:
                err = fail(f"{show(f)} is not among the premises")
        elif rule == "DefAxiom":
            if f not in script.defaxioms:
                err = fail(f"{show(f)} is not among the definitional axioms")
        elif rule == "Assume":
            stack.append((n, f))
        elif rule == "Discharge":
            if not stack:
                err = fail("no open assumption to discharge")
            else:
                a_num, a_formula = stack[-1]
                r = st.refs[0]
                if visible[r] != BOT:
                    err = fail(f"step {r} must be _|_, found {show(visible[r])}")
                elif path_of[r] != cur_path():
                    err = fail(f"the _|_ at step {r} is not inside the current block")
                elif f != Not(a_formula):
                    err = fail(
                        f"discharging the assumption at step {a_num} must yield "
                        f"{show(Not(a_formula))}, found {show(f)}"
                    )
                else:
                    stack.pop()
                    cut = cur_path()
                    for m in list(visible):
                        if path_of[m][: len(cut)] == cut and len(path_of[m]) > len(cut):
                            del visible[m]
        elif rule == "MP":
            if not any(
                isinstance(imp, Implies) and imp.left == arg and imp.right == f
                for imp, arg in (refs, refs[::-1])
            ):
                err = fail("neither reference is an implication applying to the other")
        elif rule == "AndIntro":
            if f not in (And(refs[0], refs[1]), And(refs[1], refs[0])):
                err = fail("formula is not the conjunction of the referenced steps")
        elif rule == "AndElim":
            if not (isinstance(refs[0], And) and f in (refs[0].left, refs[0].right)):
                err = fail("formula is not a conjunct of the referenced step")
        elif rule == "OrIntro":
            if not (isinstance(f, Or) and refs[0] in (f.left, f.right)):
                err = fail("formula is not a disjunction containing the referenced step")
        elif rule == "ContraPos":
            if not (
                isinstance(refs[0], Implies)
                and f == Implies(Not(refs[0].right), Not(refs[0].left))
            ):
                err = fail("formula is not the contrapositive of the referenced step")
        elif rule == "DNE":
            inner = _destruct_not(refs[0])
            inner2 = _destruct_not(inner) if inner is not None else None
            inner3 = _destruct_not(inner2) if inner2 is not None else None
            if inner3 is None or f != Not(inner3):
                err = fail("reference must be a triple negation, formula its single one")
        elif rule in _INSTANCE_RULES:
            schema = SCHEMAS[_INSTANCE_RULES[rule]]
            # every template is an implication: "from A infer B" is the instance A -> B
            if len(refs) > 1:
                err = fail(f"needs 0 or 1 reference(s), got {len(refs)}")
            elif (hit := schema.match(Implies(refs[0], f) if refs else f)) is None:
                err = fail("from {} the rule yields {}".format(*schema.sides()) if refs
                           else f"axiom form is {schema.template}")
            elif rule == "CS5R-inst":
                phi = hit[0]
                atoms = sorted(atoms_of(phi), key=lambda a: a.name)
                loose = [a.name for a in atoms if not a.lawlike]
                if loose:
                    err = fail(
                        f"stage collapse needs every atom of {show(phi)} declared "
                        f"lawlike; {loose[0]!r} has no terminating test"
                    )
                else:
                    warnings.append(
                        f"step {n}: stage collapse on {show(phi)} (leans on the "
                        f"lawlike declaration of {', '.join(a.name for a in atoms)})"
                    )
        else:  # pragma: no cover
            err = fail("unhandled rule")

        if err is not None:
            return err
        visible[n] = f
        # an Assume step's path already includes its own block
        path_of[n] = cur_path()

    if stack:
        return Rejected(
            script.steps[-1].number,
            f"assumption at step {stack[-1][0]} was never discharged",
        )
    last = script.steps[-1]
    return Verified(
        conclusion=last.formula,
        premises=script.premises,
        defaxioms=script.defaxioms,
        warnings=tuple(warnings),
        step_count=len(script.steps),
    )


# --- the formula and script readers as they stood before one findall ---


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
    """Recursive descent; each rule returns (formula, nesting levels). An
    atom is lawlike when marked '!' or named in lawlike."""

    def __init__(self, text: str, lawlike: frozenset[str] = frozenset()):
        self.text = text
        self.lawlike = lawlike
        self.toks = _tokenize(text)
        self.pos = 0
        self.open = 0  # levels open around the current token

    def peek(self, ahead: int = 0):
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def eat(self, kind: Optional[str] = None):
        tok = self.toks[self.pos]
        if kind is not None and tok[0] != kind:
            raise FormulaSyntaxError(f"expected {kind!r}, found {tok[0]!r}", tok[2])
        self.pos += 1
        return tok

    def nest(self, levels: int, pos: int) -> int:
        if levels > MAX_NESTING:
            raise FormulaSyntaxError(f"formula nested deeper than {MAX_NESTING} levels", pos)
        return levels

    def inner(self, rule: Callable[[], tuple[Formula, int]], pos: int) -> tuple[Formula, int]:
        """rule's result one level further in, refused on the way down
        (before the recursion can overflow) once the levels open and a
        formula inside them pass the bound."""
        self.open += 1
        self.nest(self.open + 1, pos)
        f, levels = rule()
        self.open -= 1
        return f, self.nest(levels + 1, pos)

    def parse(self) -> Formula:
        f, _ = self.imp()
        tok = self.peek()
        if tok[0] != "end":
            raise FormulaSyntaxError(f"trailing input {tok[0]!r}", tok[2])
        return f

    def imp(self) -> tuple[Formula, int]:
        left, levels = self.disj()
        if self.peek()[0] == "->":
            pos = self.eat()[2]
            right, deeper = self.inner(self.imp, pos)
            return Implies(left, right), self.nest(max(levels + 1, deeper), pos)
        return left, levels

    def disj(self) -> tuple[Formula, int]:
        f, levels = self.conj()
        while self.peek()[0] == "|" and self.peek(1)[0] in _UNARY_STARTERS:
            pos = self.eat()[2]
            g, deeper = self.conj()
            f, levels = Or(f, g), self.nest(max(levels, deeper) + 1, pos)
        return f, levels

    def conj(self) -> tuple[Formula, int]:
        f, levels = self.unary()
        while self.peek()[0] == "&":
            pos = self.eat()[2]
            g, deeper = self.unary()
            f, levels = And(f, g), self.nest(max(levels, deeper) + 1, pos)
        return f, levels

    def unary(self) -> tuple[Formula, int]:
        kind, value, pos = self.peek()
        if kind in ("~", "box", "<*>"):
            self.eat()
            f, levels = self.inner(self.unary, pos)
            try:
                f = Not(f) if kind == "~" else Box(value, f) if kind == "box" else SomeStage(f)
                return f, levels
            except ValueError as e:
                raise FormulaSyntaxError(str(e), pos) from None
        if kind == "(":
            self.eat()
            f, levels = self.inner(self.imp, pos)
            self.eat(")")
            return self._postfix(f), levels
        if kind == "bottom":
            self.eat()
            return BOT, 1
        if kind == "|":
            # prefix tested-now sugar: |a
            self.eat()
            return tested_now(self.atom(self.eat("name")[1])), 1
        if kind == "name":
            self.eat()
            return self._postfix(self.atom(value)), 1
        raise FormulaSyntaxError(f"expected a formula, found {kind!r}", pos)

    def atom(self, value: tuple[str, bool]) -> Atom:
        name, marked = value
        return Atom(name, marked or name in self.lawlike)

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


def reference_parse(text: str, lawlike: frozenset[str] = frozenset()) -> Formula:
    return _Parser(text, lawlike).parse()


def _split_biconditional(text: str) -> Optional[tuple[str, str]]:
    if "<->" not in text:
        return None
    depth = 0
    for i in range(len(text) - 2):
        c = text[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif text[i : i + 3] == "<->" and depth == 0:
            return text[:i], text[i + 3 :]
    return None


def _script_formula(text: str, lawlike: frozenset[str], line_no: int) -> Formula:
    """The formula of a script line, its atoms lawlike exactly when declared so."""
    if "!" in text:
        raise ScriptSyntaxError(
            "mark lawlike assertions with 'assert <id> lawlike', not '!'", line_no
        )
    halves = _split_biconditional(text)
    try:
        if halves is not None:
            left, right = halves
            if _split_biconditional(left) or _split_biconditional(right):
                raise ScriptSyntaxError("chained <-> needs parentheses", line_no)
            l, r = _Parser(left, lawlike).parse(), _Parser(right, lawlike).parse()
            return And(Implies(l, r), Implies(r, l))
        return _Parser(text, lawlike).parse()
    except FormulaSyntaxError as e:
        raise ScriptSyntaxError(f"bad formula {text.strip()!r}: {e}", line_no) from None


def _parse_rule(text: str, line_no: int) -> tuple[str, tuple[int, ...]]:
    text = text.strip()
    name, refs = text, ()
    if "(" in text:
        if not text.endswith(")"):
            raise ScriptSyntaxError(f"malformed rule {text!r}", line_no)
        name, inner = text[: text.index("(")], text[text.index("(") + 1 : -1]
        parts = [p.strip() for p in inner.split(",")] if inner.strip() else []
        # a reference is one or more of the ten ASCII digits: no sign, no
        # underscore, no other script's digits
        if not all(p and set(p) <= set("0123456789") for p in parts):
            raise ScriptSyntaxError(f"rule references must be step numbers: {text!r}", line_no)
        refs = tuple(int(p) for p in parts)
    key = name.strip().lower().replace("-", "").replace("_", "")
    if key not in _RULE_ALIASES:
        raise ScriptSyntaxError(f"unknown rule {name.strip()!r}", line_no)
    return _RULE_ALIASES[key], refs


def reference_parse_script(text: str) -> Script:
    """derivation.parse_script with its formula and rule readers swapped for
    the ones above."""
    with mock.patch.multiple(derivation, _script_formula=_script_formula, _parse_rule=_parse_rule):
        return derivation.parse_script(text)
