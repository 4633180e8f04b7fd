"""Reference routes that no production path calls. The tests and
``benchmarks/bench.py`` check the program's own routes against them:

- the model and formula lists, element by element, that the sweep reaches
  through codes, up-sets and a formula rank;
- each model's root class, computed node by node, which must equal the
  class ids the sweep's class tables intern;
- pi from a streaming spigot, exact digit by digit with no guard digits;
- ``gt_rational``, the mirror of ``reals.lt_rational``.
"""

from __future__ import annotations

import functools
import itertools
from itertools import count, islice
from typing import Iterator, Optional

from brouwer.logic import (
    ATOM_POOL,
    BOT,
    And,
    Atom,
    Formula,
    Implies,
    Or,
    StageTree,
    SweepBounds,
    _codes,
    _preorder,
    _stage_tree,
    _upclosed_sets,
)
from brouwer.reals import Point, Verdict, _as_fraction, _least_hit


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


# --- the rational comparison no verdict uses ---


def gt_rational(a: Point, r, horizon: int) -> Verdict:
    """a > r iff some index n has a_n/2^n > r."""
    rv = _as_fraction(r)
    num, den = rv.numerator, rv.denominator
    terms = enumerate(a.prefix(horizon), 1)
    return _least_hit(horizon, (x * den > num << n for n, x in terms))
