"""logic-proofs: derivation checks, forcing on small trees, and validity sweeps.

Per cycle of 50 jobs:
  30 derivation checks: a bundled script (must verify with the criterion-5
     conclusion) or a single-step mutation of one (must be Rejected);
  10 formulas with [n] and <*> parsed and forced at every node of a seeded
     monotone tree of at most 6 nodes;
  10 sweeps: four in the formula-heavy regime (operand depth 2 on small
     models), four in the model-heavy regime (depth 1 on up to 6,560
     models), one ks_prerequisite_report and one refutable schema (cs4/cs5).
The sweep bounds, the scripts and mutated steps, the tree sizes and the
formula depths are fixed by the cycle index, so runs with different seeds
do the same work; the seed draws the formulas, tree shapes and valuations,
the refutable schema and its bounds, and the job order.
"""

from __future__ import annotations

import random

from refs import formula_text, truth_sets

NAME = "logic-proofs"
CYCLE_JOBS = 50
NOMINAL_CYCLE_S = 5.0  # four cycles in a 20 s run: a few long sweeps set its throughput
VALID = ("ic1", "ic2", "ic3", "md")
SWEEPS = (
    ("ic1", 3, 2, 2), ("ic1", 2, 3, 2), ("ic1", 4, 2, 2), ("md", 3, 2, 2),
    ("ic1", 5, 2, 1), ("ic1", 6, 2, 1), ("ic1", 4, 3, 1), ("ic2", 6, 2, 1),
)
# criterion 5: what each bundled derivation concludes
CONCLUSIONS = {
    "vienna-dense": "(alpha! | ~alpha!) & ~e_is_half",
    "drift-direct": "~rat_d | ~~rat_d",
    "conditional-ks": "~~rat_f",
    "cambridge-reduced": "alpha! & ~c_is_zero",
}
# smallest trees carrying a countermodel (criterion 3)
REFUTED_FROM = {"cs4": 3, "cs5": 2}


def _step_lines(text, mutable_only=True):
    """(line index, step number) of each numbered step.

    Negating a step written with the top-level <-> sugar makes a syntax
    error rather than a wrong step, so those lines are not mutated.
    """
    out = []
    for i, raw in enumerate(text.splitlines()):
        body = raw.split("#", 1)[0].strip()
        if body[:1].isdigit() and not (mutable_only and "<->" in body):
            out.append((i, int(body.partition(":")[0])))
    return out


def mutate(text, line):
    """Criterion-5 corruption: negate the formula of one step."""
    lines = text.splitlines()
    num, _, rest = lines[line].split("#", 1)[0].strip().partition(":")
    formula, _, rule = rest.rpartition(";")
    lines[line] = f"{num}: ~({formula.strip()}) ; {rule.strip()}"
    return "\n".join(lines)


def _formula(rng, depth, staged=True):
    if depth == 0 or rng.random() < 0.2:
        return ("bot",) if rng.random() < 0.08 else ("atom", rng.choice("pqr"))
    r = rng.random()
    if staged and r < 0.3:
        inner = _formula(rng, depth - 1, False)
        return ("box", rng.randint(1, 3), inner) if rng.random() < 0.5 else ("some", inner)
    if r < 0.42:
        return ("imp", _formula(rng, depth - 1, staged), ("bot",))
    op = rng.choice(("and", "or", "imp"))
    return (op, _formula(rng, depth - 1, staged), _formula(rng, depth - 1, staged))


def _tree(rng, size):
    parents = (None,) + tuple(rng.randrange(i) for i in range(1, size))
    val = [set() for _ in range(size)]
    for atom in "pqr":
        for w in range(size):
            # monotone: an atom true at a node stays true at its descendants
            if rng.random() < 0.3 or (parents[w] is not None and atom in val[parents[w]]):
                val[w].add(atom)
    return parents, tuple(frozenset(v) for v in val)


def plan(seed, cycles):
    from brouwer.derivation import BUNDLED_SCRIPTS

    names = sorted(BUNDLED_SCRIPTS)
    jobs = []
    for c in range(cycles):
        rng = random.Random(f"{NAME}:{seed}:{c}")
        cycle = []
        # the script, whether and where it is mutated, the tree size and the
        # formula depth set a job's cost, so they go by turns, not by draw
        for i in range(30):
            name = names[i % len(names)]
            lines = _step_lines(BUNDLED_SCRIPTS[name])
            line = lines[(i + 7 * c) % len(lines)] if i // 4 % 2 else None
            cycle.append(("derive", name, line))
        for i in range(10):
            parents, val = _tree(rng, 1 + (i + c) % 6)
            f = _formula(rng, 1 + i % 4)
            cycle.append(("forces", parents, val, f, formula_text(f)))
        cycle.extend(("sweep",) + s for s in SWEEPS)
        cycle.append(("ks",))
        schema = rng.choice(("cs4", "cs5"))
        cycle.append(("sweep", schema, rng.randint(2, 5), 2, rng.randint(1, 2)))
        rng.shuffle(cycle)
        jobs.extend(cycle)
    return jobs


def setup(jobs):
    pass


def run(job):
    from brouwer import derivation, logic

    kind = job[0]
    if kind == "derive":
        text = derivation.BUNDLED_SCRIPTS[job[1]]
        if job[2] is not None:
            text = mutate(text, job[2][0])
        result = derivation.check_script(text)
        if result.ok:
            return ("verified", logic.show(result.conclusion), result.step_count,
                    len(result.warnings))
        return ("rejected", result.step)
    if kind == "forces":
        f = logic.parse(job[4])
        model = logic.StageTree(job[1], job[2])
        return tuple(logic.forces(model, w, f) for w in range(model.size))
    if kind == "sweep":
        bounds = logic.SweepBounds(max_nodes=job[2], max_atoms=job[3], max_operand_depth=job[4])
        r = logic.validity_sweep(job[1], bounds)
        return (r.models_checked, r.monotone_ok, r.countermodel)
    report = derivation.ks_prerequisite_report()
    return tuple((b.schema, b.countermodel) for b in report.blocked)


def _genuine(cm):
    from brouwer.logic import forces

    return cm is not None and not forces(cm.model, cm.node, cm.instance)


def _expected(job, out):
    from brouwer import derivation, logic

    kind = job[0]
    if kind == "derive":
        text = derivation.BUNDLED_SCRIPTS[job[1]]
        if job[2] is not None:
            return out[0] == "rejected" and out[1] >= job[2][1]
        steps = len(_step_lines(text, mutable_only=False))
        return out == ("verified", CONCLUSIONS[job[1]], steps, text.count("CS5R-inst"))
    if kind == "forces":
        truth = truth_sets(job[1], job[2], job[3])
        return out == tuple(w in truth for w in range(len(job[1])))
    if kind == "sweep":
        models, monotone_ok, cm = out
        bounds = logic.SweepBounds(max_nodes=job[2], max_atoms=job[3], max_operand_depth=job[4])
        exhaustive = models == logic.count_models(bounds)
        if job[1] in VALID:
            return cm is None and monotone_ok and exhaustive
        if job[2] >= REFUTED_FROM[job[1]]:
            return _genuine(cm)
        return cm is None and exhaustive
    return ([s for s, _ in out] == ["cs4", "cs5"]
            and [cm.model.size for _, cm in out] == [3, 2]
            and all(_genuine(cm) for _, cm in out))


def check(jobs, outcomes):
    return [out[0] == "ok" and _expected(job, out[1]) for job, out in zip(jobs, outcomes)], {}
