#!/usr/bin/env python3
"""Time the principle-suite sweep across bounds and count its classes and masks.

For each bound (nodes, atoms, operand depth; stage indices up to 3) it
runs ``principle_suite`` (all six schemata in one pass) and prints the
models swept, the root classes among them (models whose roots are
bisimilar share a class; the sweep lists each shape's classes with their
model counts and closes one model per class), the seconds taken, models
per second, and the mean and maximum number of distinct formula masks
per model: the size of the mask algebra the sweep closes on each model,
against the formula count.

Usage: python benchmarks/sweep_bounds.py [max_nodes]
"""

import functools
import sys
import time

from brouwer.logic import (
    StageTree,
    SweepBounds,
    _Masks,
    _class_table,
    _codes,
    _level_starts,
    _mask_closure,
    _root_class,
    _valued_shapes,
    principle_suite,
)

BOUNDS = [(3, 2, 2), (5, 2, 2), (4, 3, 2), (6, 2, 2), (5, 3, 1), (6, 2, 1), (7, 2, 1)]


def classes_and_masks(bounds: SweepBounds) -> tuple[int, list[int]]:
    """The root classes, as the sweep's class tables list them, and each
    model's distinct mask count. The classes are checked against the root
    class of every model."""
    starts = _level_starts(bounds)
    types: dict = {}
    memo: dict = {}
    listed, keyed = set(), set()
    counts = []
    codes = [code for n in range(1, bounds.max_nodes + 1) for code in _codes(n)]
    for code, (shape, valuations) in zip(codes, _valued_shapes(bounds)):
        for label in range(1 << bounds.max_atoms):
            listed.update(_class_table(code, label, bounds.max_atoms, types, memo))
        masks = _Masks(StageTree(shape, (frozenset(),) * len(shape)), bounds.max_box_index)
        implies = functools.cache(masks.implies_mask)
        for v in valuations:
            keyed.add(_root_class(masks.m.children, v, types))
            counts.append(len(_mask_closure(v, starts, implies)))
    assert listed == keyed
    return len(listed), counts


def main() -> int:
    max_nodes = int(sys.argv[1]) if len(sys.argv) > 1 else max(n for n, _, _ in BOUNDS)
    print(f"{'bounds':>9}  {'formulas':>8}  {'models':>7}  {'classes':>7}  {'seconds':>8}  "
          f"{'models/s':>9}  {'masks mean':>10}  {'masks max':>9}")
    for nodes, atoms, depth in BOUNDS:
        if nodes > max_nodes:
            continue
        bounds = SweepBounds(max_nodes=nodes, max_atoms=atoms, max_operand_depth=depth)
        t0 = time.perf_counter()
        report = principle_suite(bounds)
        seconds = time.perf_counter() - t0
        models = max(r.models_checked for r in report.results.values())
        classes, counts = classes_and_masks(bounds)
        assert len(counts) == models and report.monotone_ok
        print(f"{f'({nodes},{atoms},{depth})':>9}  {_level_starts(bounds)[-1]:>8}  {models:>7}  "
              f"{classes:>7}  {seconds:>8.3f}  {models / seconds:>9.0f}  "
              f"{sum(counts) / len(counts):>10.2f}  {max(counts):>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
