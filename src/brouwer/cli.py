"""Command-line surface for the workbench.

Subcommands:

    pi digits N            decimal digits of pi after the point
    pi find                first position of a digit pattern
    fleeing critical       least witness of a digit-run property
    spread sample          seeded random admissible prefix
    real cmp               three-valued comparisons between two points
    drift run              checking sequence of a bundled drift
    logic eval             force a formula at a node of a model file
    logic sweep            exhaustive schema check within bounds
    derive check           verify a derivation script (bundled or file)
    derive ks-report       what the classical shortcut would need
    replay NAME            re-run a bundled construction end to end

Settings are read from ./brouwer.toml (plain `key = value` lines; keys
horizon, nodes, atoms, digits, seed); command-line flags override the
file. JSON output is deterministic for fixed flags and seed: keys are
sorted and the seed is recorded in every payload.

Each handler computes its result and returns (exit code, payload, text)
without printing; main alone prints, the payload as JSON under --json and
the text otherwise.

Exit codes: 0 success, 1 verification mismatch, 2 usage error,
64 resource refusal (a digit limit, the sweep cap, or a horizon or stage
count past spreads.DEFAULT_STAGE_CAP).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING, Optional

from .errors import ResourceLimitError, SettingError

if TYPE_CHECKING:
    from .spreads import EventTrace

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 64

CONFIG_FILE = "brouwer.toml"
CONFIG_KEYS = ("horizon", "nodes", "atoms", "digits", "seed")
DEFAULTS = {"horizon": 60, "nodes": 5, "atoms": 2, "digits": 50, "seed": 0}


def load_config(path: str = CONFIG_FILE) -> dict:
    """Plain key = value lines; unknown keys rejected, '#' starts a comment."""
    cfg = dict(DEFAULTS)
    if not os.path.exists(path):
        return cfg
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in CONFIG_KEYS:
                raise ValueError(
                    f"{path}:{line_no}: unknown key {key!r} (known: {', '.join(CONFIG_KEYS)})"
                )
            try:
                # read as ASCII bytes: int() of a str also reads '٣٠' as 30
                cfg[key] = int(value.strip('"').strip("'").encode("ascii"))
            except ValueError:  # UnicodeEncodeError included
                raise ValueError(f"{path}:{line_no}: {key} needs an integer") from None
    return cfg


# --- point specs for `real cmp` ---

POINT_SPECS = ("zero", "one", "half", "berlin-s", "berlin-r", "vienna-e")
# the keys of drift.KIND_ALIASES, sorted, of drift.BUNDLED_DRIFTS and of logic.SCHEMAS;
# spelled out so the parser needs no drift or logic import
DRIFT_KINDS = ("cond", "conditional", "direct", "osc", "oscillatory")
DRIFT_NAMES = ("rational-right", "two-winged-mixed", "berlin")
SCHEMA_NAMES = ("ic1", "ic2", "ic3", "md", "cs4", "cs5")


def _build_point(spec: str, trace: EventTrace, digit: int, run: int):
    # each spec imports what it builds from: only berlin-r needs the pi oracle
    from fractions import Fraction

    from .reals import one_point, value_point, zero_point

    if spec == "zero":
        return zero_point()
    if spec == "one":
        return one_point()
    if spec == "half":
        return value_point(Fraction(1, 2))
    if spec == "berlin-s":
        from .drift import berlin_s

        return berlin_s(trace)
    if spec == "berlin-r":
        from .fleeing import berlin_r, run_property

        return berlin_r(run_property(digit, run))
    if spec == "vienna-e":
        from .drift import vienna_e

        return vienna_e(trace)
    raise ValueError(f"unknown point spec {spec!r}; pick from {', '.join(POINT_SPECS)}")


# --- subcommand handlers ---
# Each handler imports the modules it uses, so a command loads only those.
# It returns (exit code, JSON payload, text) and prints nothing: main prints
# the one --json picks, and records cfg's seed in a payload without its own.


def _cmd_pi(args, cfg) -> tuple[int, dict, str]:
    from .fleeing import default_oracle, find_pattern

    oracle = default_oracle()
    if args.pi_cmd == "digits":
        n = args.n if args.n is not None else cfg["digits"]
        digits = oracle.digits(n)
        return EXIT_OK, {"command": "pi-digits", "n": n, "digits": digits}, digits
    limit = args.limit
    pos = find_pattern(args.pattern, limit, oracle)
    verdict = f"found-at:{pos}" if pos is not None else f"none-below:{limit}"
    payload = {"command": "pi-find", "pattern": args.pattern, "limit": limit, "position": pos,
               "verdict": verdict}
    return EXIT_OK, payload, verdict


def _cmd_fleeing(args, cfg) -> tuple[int, dict, str]:
    from .fleeing import critical_number, run_property

    horizon = args.horizon if args.horizon is not None else cfg["horizon"]
    search = critical_number(run_property(args.digit, args.run), horizon)
    payload = {"command": "fleeing-critical", "digit": args.digit, "run": args.run,
               "horizon": horizon, "found_at": search.found_at, "verdict": str(search)}
    return EXIT_OK, payload, str(search)


def _cmd_spread(args, cfg) -> tuple[int, dict, str]:
    import random

    from .spreads import (
        Generator, Process, charge_stages, emit_prefix, never_trace, rng_spread, universal_spread,
    )

    charge_stages(args.stages)
    seed = args.seed if args.seed is not None else cfg["seed"]
    law = rng_spread() if args.law == "rng" else universal_spread()
    rng = random.Random(seed)

    def strategy(prefix, trace):
        if not prefix:
            return rng.randint(-4, 4) if args.law == "rng" else rng.randint(0, 8)
        if args.law == "rng":
            a = prefix[-1]
            return rng.choice((2 * a, 2 * a + 1, 2 * a + 2))
        return rng.randint(0, 8)

    g = Generator(law, Process.of(strategy), name=f"sample[{args.law}]")
    prefix = emit_prefix(g, args.stages, never_trace())
    payload = {"command": "spread-sample", "law": args.law, "stages": args.stages,
               "prefix": list(prefix), "seed": seed}
    return EXIT_OK, payload, " ".join(map(str, prefix))


def _cmd_real(args, cfg) -> tuple[int, dict, str]:
    from .reals import apart_at, coincide_refute, lt_at
    from .spreads import charge_stages, parse_trace

    horizon = charge_stages(args.horizon if args.horizon is not None else cfg["horizon"])
    lhs_trace = parse_trace(args.lhs_trace)
    rhs_trace = parse_trace(args.rhs_trace)
    x = _build_point(args.lhs, lhs_trace, args.digit, args.run)
    y = _build_point(args.rhs, rhs_trace, args.digit, args.run)
    verdicts = {
        "lt": lt_at(x, y, horizon),
        "gt": lt_at(y, x, horizon),
        "apart": apart_at(x, y, horizon),
        "coincide": coincide_refute(x, y, horizon),
    }
    payload = {"command": "real-cmp", "lhs": args.lhs, "rhs": args.rhs, "horizon": horizon,
               "verdicts": {k: v.as_dict() for k, v in verdicts.items()}}
    lines = []
    for name, v in verdicts.items():
        extras = [f"horizon={v.horizon}"]
        if v.witness is not None:
            extras.append(f"witness={v.witness}")
        if v.direction is not None:
            extras.append(f"direction={v.direction}")
        lines.append(f"{name}: {v.value.value} ({', '.join(extras)})")
    return EXIT_OK, payload, "\n".join(lines)


def _cmd_drift(args, cfg) -> tuple[int, dict, str]:
    from .drift import KIND_ALIASES, bundled_drift, checking_sequence, rationality_descriptor
    from .spreads import charge_stages, parse_trace

    charge_stages(args.terms)
    drift = bundled_drift(args.drift)
    kind = KIND_ALIASES[args.kind]
    trace = parse_trace(args.trace)
    run = checking_sequence(drift, kind, trace, args.terms)
    lc = rationality_descriptor(drift, kind, trace)
    payload = {"command": "drift-run", "drift": args.drift, "kind": kind.value,
               "trace": args.trace, "terms": list(run.terms), "limit": run.limit,
               "limit_class": lc}
    text = (f"terms: {' '.join(run.terms)}\nlimit: {run.limit}\n"
            f"class: {', '.join(f'{k}={v}' for k, v in sorted(lc.items()))}")
    return EXIT_OK, payload, text


def _cmd_logic(args, cfg) -> tuple[int, dict, str]:
    from .logic import SweepBounds, dump_model, forces, load_model, parse, show, validity_sweep

    if args.logic_cmd == "eval":
        with open(args.model, encoding="utf-8") as fh:
            model = load_model(fh.read())
        f = parse(args.formula)
        w = model.index_of(args.at)
        result = forces(model, w, f)
        payload = {"command": "logic-eval", "model": args.model, "at": args.at,
                   "formula": show(f), "forces": result}
        return EXIT_OK, payload, "true" if result else "false"

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
    return EXIT_OK, payload, text


def _cmd_derive(args, cfg) -> tuple[int, dict, str]:
    from .derivation import BUNDLED_SCRIPTS, ScriptSyntaxError, check_script, ks_prerequisite_report
    from .logic import show

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
        return EXIT_OK, {"command": "derive-ks-report", **report.as_dict()}, "\n".join(lines)

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
        return EXIT_MISMATCH, payload, f"syntax error: {e}"
    payload = {"command": "derive-check", "script": target, **result.as_dict()}
    if not result.ok:
        return EXIT_MISMATCH, payload, f"rejected at step {result.step}: {result.reason}"
    lines = [f"verified: {show(result.conclusion)} ({result.step_count} steps)"]
    lines += [f"warning: {w}" for w in result.warnings]
    return EXIT_OK, payload, "\n".join(lines)


# --- replays ---


def _replay_checks(name: str) -> list[tuple[str, bool]]:
    # every replay checks a bundled script; each branch imports the rest itself
    from .derivation import BUNDLED_SCRIPTS, check_script
    from .logic import show

    checks: list[tuple[str, bool]] = []

    def expect(label: str, ok: bool) -> None:
        checks.append((label, bool(ok)))

    if name == "vienna-9":
        from fractions import Fraction

        from .drift import vienna_e
        from .spreads import never_trace, proved_at

        res = check_script(BUNDLED_SCRIPTS["vienna-dense"])
        expect("script verifies", res.ok)
        expect(
            "conclusion decides the assertion and moves the limit off 1/2",
            res.ok and show(res.conclusion) == "(alpha! | ~alpha!) & ~e_is_half",
        )
        expect("exactly one stage-collapse warning", res.ok and len(res.warnings) == 1)
        moved = vienna_e(proved_at(3))
        expect(
            "resolved limit settles at 7/16",
            moved.interval(20).contains_fraction(Fraction(7, 16)),
        )
        expect(
            "unresolved limit stays at 1/2",
            vienna_e(never_trace()).interval(20).contains_fraction(Fraction(1, 2)),
        )
    elif name == "drift-11":
        from .drift import CheckingKind, bundled_drift, checking_sequence, rationality_descriptor
        from .spreads import never_trace, proved_at

        res = check_script(BUNDLED_SCRIPTS["drift-direct"])
        expect("script verifies", res.ok)
        expect(
            "conclusion is the tested-now disjunction",
            res.ok and show(res.conclusion) == "~rat_d | ~~rat_d",
        )
        expect("no stage collapse used", res.ok and not res.warnings)
        drift = bundled_drift("rational-right")
        run = checking_sequence(drift, CheckingKind.DIRECT, proved_at(3), 5)
        expect(
            "direct switch lands on c_3 at the resolution stage",
            run.terms == ("c", "c", "c_3", "c_3", "c_3") and run.limit == "c_3",
        )
        lc = rationality_descriptor(drift, CheckingKind.DIRECT, never_trace())
        expect(
            "unresolved limit stays in the kernel class",
            lc == {"kind": "kernel-class", "kernel_tag": "irrational"},
        )
    elif name == "ks-12":
        from .derivation import ks_prerequisite_report
        from .logic import forces

        res = check_script(BUNDLED_SCRIPTS["conditional-ks"])
        expect("script verifies", res.ok)
        expect(
            "irrationality refuted under the scenario premise",
            res.ok and show(res.conclusion) == "~~rat_f",
        )
        expect(
            "derivation avoids every stage-collapse rule",
            res.ok
            and not res.warnings
            and "CS5R" not in BUNDLED_SCRIPTS["conditional-ks"],
        )
        report = ks_prerequisite_report()
        cs4, cs5 = report.blocked
        expect("case-split blocked by a 3-node countermodel", cs4.countermodel.model.size == 3)
        expect("collapse blocked by a 2-node countermodel", cs5.countermodel.model.size == 2)
        expect(
            "countermodels re-verified against the reference semantics",
            not forces(cs4.countermodel.model, cs4.countermodel.node, cs4.countermodel.instance)
            and not forces(cs5.countermodel.model, cs5.countermodel.node, cs5.countermodel.instance),
        )
    elif name == "cambridge-13":
        from .drift import berlin_s
        from .fleeing import find_pattern
        from .reals import apart_at, zero_point
        from .spreads import never_trace, proved_at

        res = check_script(BUNDLED_SCRIPTS["cambridge-reduced"])
        expect("script verifies", res.ok)
        expect(
            "conclusion decides the assertion and separates the checker from zero",
            res.ok and show(res.conclusion) == "alpha! & ~c_is_zero",
        )
        expect("exactly one stage-collapse warning", res.ok and len(res.warnings) == 1)
        z = zero_point()
        v = apart_at(berlin_s(proved_at(2)), z, 40)
        expect(
            "resolved checking number is apart from zero",
            v.holds and v.direction == "gt" and v.witness == 4,
        )
        v0 = apart_at(berlin_s(never_trace()), z, 40)
        expect("unresolved checking number stays unseparated", not v0.holds)
        pos = find_pattern("999999", 2000)
        expect("the six-nines milestone sits where expected", pos == 762)
    else:
        raise ValueError(f"unknown replay {name!r}")
    return checks


REPLAYS = ("vienna-9", "drift-11", "ks-12", "cambridge-13")


def _cmd_replay(args, cfg) -> tuple[int, dict, str]:
    checks = _replay_checks(args.name)
    ok = all(flag for _, flag in checks)
    payload = {"command": "replay", "name": args.name, "ok": ok,
               "checks": [{"label": label, "ok": flag} for label, flag in checks]}
    lines = [f"{'ok' if flag else 'FAIL'}: {label}" for label, flag in checks]
    lines.append(f"replay {args.name}: {'ok' if ok else 'FAILED'}")
    return EXIT_OK if ok else EXIT_MISMATCH, payload, "\n".join(lines)


# --- argument parsing ---


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="brouwer", description=__doc__.split("\n\n")[0])
    sub = top.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("pi", help="digits of pi and pattern search")
    ps = p.add_subparsers(dest="pi_cmd", required=True)
    pd = ps.add_parser("digits", help="print decimal digits after the point")
    pd.add_argument("n", type=int, nargs="?", default=None)
    pf = ps.add_parser("find", help="first 1-based position of a pattern")
    pf.add_argument("--pattern", required=True)
    pf.add_argument("--limit", type=int, default=1_000_000)

    f = sub.add_parser("fleeing", help="critical number of a digit-run property")
    fs = f.add_subparsers(dest="fleeing_cmd", required=True)
    fc = fs.add_parser("critical", help="least witness up to a horizon")
    fc.add_argument("--digit", type=int, default=9)
    fc.add_argument("--run", type=int, default=6)
    fc.add_argument("--horizon", type=int, default=None)

    s = sub.add_parser("spread", help="sample admissible prefixes")
    ss = s.add_subparsers(dest="spread_cmd", required=True)
    sp = ss.add_parser("sample", help="seeded random admissible prefix")
    sp.add_argument("--law", choices=("rng", "universal"), default="rng")
    sp.add_argument("--stages", type=int, default=8)
    sp.add_argument("--seed", type=int, default=None)

    r = sub.add_parser("real", help="compare points")
    rs = r.add_subparsers(dest="real_cmd", required=True)
    rc = rs.add_parser("cmp", help="three-valued comparisons at a horizon")
    rc.add_argument("--lhs", choices=POINT_SPECS, required=True)
    rc.add_argument("--rhs", choices=POINT_SPECS, required=True)
    rc.add_argument("--lhs-trace", default="never")
    rc.add_argument("--rhs-trace", default="never")
    rc.add_argument("--digit", type=int, default=9, help="berlin-r property digit")
    rc.add_argument("--run", type=int, default=6, help="berlin-r property run length")
    rc.add_argument("--horizon", type=int, default=None)

    d = sub.add_parser("drift", help="checking sequences")
    ds = d.add_subparsers(dest="drift_cmd", required=True)
    dr = ds.add_parser("run", help="emit a checking sequence")
    dr.add_argument("--drift", choices=DRIFT_NAMES, default="rational-right")
    dr.add_argument("--kind", choices=DRIFT_KINDS, default="direct")
    dr.add_argument("--trace", default="never", help="never | true:k | false:k")
    dr.add_argument("--terms", type=int, default=8)

    l = sub.add_parser("logic", help="stage-modal semantics")
    ls = l.add_subparsers(dest="logic_cmd", required=True)
    le = ls.add_parser("eval", help="force a formula at a node")
    le.add_argument("--model", required=True, help="model JSON file")
    le.add_argument("--at", required=True, help="node id")
    le.add_argument("--formula", required=True)
    lw = ls.add_parser("sweep", help="exhaustive schema check")
    lw.add_argument("--schema", required=True, choices=SCHEMA_NAMES)
    lw.add_argument("--nodes", type=int, default=None)
    lw.add_argument("--atoms", type=int, default=None)
    lw.add_argument("--box", type=int, default=3)
    lw.add_argument("--depth", type=int, default=2)

    v = sub.add_parser("derive", help="check derivation scripts")
    vs = v.add_subparsers(dest="derive_cmd", required=True)
    vc = vs.add_parser("check", help="verify a script (bundled name or path)")
    vc.add_argument("script")
    vk = vs.add_parser("ks-report", help="blocked classical prerequisites")

    y = sub.add_parser("replay", help="re-run a bundled construction")
    y.add_argument("name", choices=REPLAYS)

    for leaf in (pd, pf, fc, sp, rc, dr, le, lw, vc, vk, y):
        leaf.add_argument("--json", action="store_true")
    return top


_HANDLERS = {
    "pi": _cmd_pi,
    "fleeing": _cmd_fleeing,
    "spread": _cmd_spread,
    "real": _cmd_real,
    "drift": _cmd_drift,
    "logic": _cmd_logic,
    "derive": _cmd_derive,
    "replay": _cmd_replay,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config()
    except ValueError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        code, payload, text = _HANDLERS[args.cmd](args, cfg)
    except ResourceLimitError as e:
        print(f"resource refusal: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except SettingError as e:
        print(f"setting error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError, RecursionError) as e:
        # RecursionError: a model file nested too deep for json.loads
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MISMATCH
    if args.json:
        payload.setdefault("seed", cfg["seed"])
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
