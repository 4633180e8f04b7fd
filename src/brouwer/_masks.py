"""The sweep engine behind logic.validity_sweep and principle_suite.

It works on masks, not formula trees. The nodes forcing a stage-free
formula form an up-set, its mask, and &, | and -> act on masks as meet,
join and implication of the finite Heyting algebra of up-sets, so an
instance's verdict depends only on phi's mask. Per model the atom masks
and _|_ are closed under the connectives level by level into a plain set
(_mask_set). Per shape each phi mask is checked once, through each
instance template compiled to a function of phi's mask (_mask_function),
for its and its instances' audits and each schema's first instance
failing on it. A visit adds masks x instances to a schema none refutes.
Only a visit that refutes a schema still unfound reads formula ranks: a
pass over the masks in formula order (_formula_masks) finds the least
failing formula index, and the masks before it are the per-formula scan's
partial count.

Forcing is invariant under bisimulation of the successor relation with
leaves looping to themselves, and every node is reachable from the root,
so models with bisimilar roots have the same distinct masks and the same
verdicts. So each shape's root classes are listed with their model counts
(_class_table), and the closure, the instance checks and the monotonicity
audit run once per class new to the sweep, on one model of it; the shape
then adds each class's models and masks x instances, and the cost follows
classes, not models.

A shape where such a check refutes a schema still unfound holds that
schema's first countermodel. The countermodel pass visits its models in
listed order, with no class key, for the exact model, node and partial
counts; a class seen before cannot refute a schema still unfound. Only
phi is built, from its index (_formula_at).

logic imports this module only when a sweep runs, and forwards each of its
names, so brouwer.logic.count_models and the like still resolve.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from operator import and_, or_
from typing import Callable, Iterator, NamedTuple, Optional

from .errors import ResourceLimitError
from .logic import (
    ATOM_POOL, BOT, SCHEMAS, And, Atom, Bottom, Box, Formula, Implies, Or, SomeStage, StageTree,
    SweepBounds, dump_model, show,
)


# --- bitmask engine ---


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


# --- sweeps ---

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


# the `logic sweep` command's handler, which brouwer.cli.main runs and prints
def _cmd_sweep(args, cfg) -> tuple[int, dict, str]:
    # logic's entry point, read at the call, so that what wraps it sees the CLI's sweeps too
    from .logic import validity_sweep

    bounds = SweepBounds(
        max_nodes=args.nodes if args.nodes is not None else cfg["nodes"],
        max_atoms=args.atoms if args.atoms is not None else cfg["atoms"],
        max_box_index=args.box,
        max_operand_depth=args.depth,
    )
    result = validity_sweep(args.schema, bounds)
    cm = result.countermodel
    payload = {
        "command": "logic-sweep",
        "schema": args.schema,
        "bounds": bounds.as_dict(),
        "models_checked": result.models_checked,
        "instances_checked": result.instances_checked,
        "status": "valid-up-to-bounds" if result.valid_up_to_bounds else "countermodel",
        "countermodel": cm.as_dict() if cm else None,
    }
    if result.valid_up_to_bounds:
        text = (f"{args.schema}: valid-up-to-bounds "
                f"(models={result.models_checked}, instances={result.instances_checked})")
    else:
        text = "\n".join((
            f"{args.schema}: countermodel (models searched: {result.models_checked})",
            f"  instance: {show(cm.instance)}",
            f"  fails at: {cm.model.ids[cm.node]}",
            f"  model: {json.dumps(dump_model(cm.model), sort_keys=True)}",
        ))
    return 0, payload, text
