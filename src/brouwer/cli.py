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

Each handler lives in the module it drives and is imported only when its
command runs. It computes its result and returns (exit code, payload,
text) without printing; main alone prints, the payload as JSON under
--json and the text otherwise, and records cfg's seed in a payload
without its own.

Exit codes: 0 success, 1 verification mismatch, 2 usage error,
64 resource refusal (a digit limit, the sweep cap, or a horizon or stage
count past spreads.DEFAULT_STAGE_CAP).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from .errors import ResourceLimitError, SettingError

EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 64

CONFIG_FILE = "brouwer.toml"
CONFIG_KEYS = ("horizon", "nodes", "atoms", "digits", "seed")
DEFAULTS = {"horizon": 60, "nodes": 5, "atoms": 2, "digits": 50, "seed": 0}


def _int(text: str) -> int:
    """An integer flag or setting read as ASCII bytes: int() of a str also
    reads '٣' as 3."""
    return int(text.encode("ascii"))


_int.__name__ = "int"  # argparse names the type in its 'invalid int value' error


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
                cfg[key] = _int(value.strip('"').strip("'"))
            except ValueError:  # UnicodeEncodeError included
                raise ValueError(f"{path}:{line_no}: {key} needs an integer") from None
    return cfg


POINT_SPECS = ("zero", "one", "half", "berlin-s", "berlin-r", "vienna-e")
# the keys of drift.KIND_ALIASES, sorted, of drift.BUNDLED_DRIFTS and of logic.SCHEMAS;
# spelled out so the parser needs no drift or logic import
DRIFT_KINDS = ("cond", "conditional", "direct", "osc", "oscillatory")
DRIFT_NAMES = ("rational-right", "two-winged-mixed", "berlin")
SCHEMA_NAMES = ("ic1", "ic2", "ic3", "md", "cs4", "cs5")
REPLAYS = ("vienna-9", "drift-11", "ks-12", "cambridge-13")


# --- argument parsing ---


def build_parser(argv: Optional[list[str]] = None) -> argparse.ArgumentParser:
    """Every command is listed with its help, but only those named in argv
    (all when argv is None) get their nested parsers and arguments: argparse
    reads only the branch of the command it parses. Each leaf names its
    handler as (module, function)."""
    top = argparse.ArgumentParser(prog="brouwer", description=__doc__.split("\n\n")[0])
    sub = top.add_subparsers(dest="cmd", required=True)
    leaves = []

    def command(name: str, summary: str) -> Optional[argparse.ArgumentParser]:
        p = sub.add_parser(name, help=summary)
        return p if argv is None or name in argv else None

    def leaf(subs, name: str, summary: str, handler: tuple[str, str]) -> argparse.ArgumentParser:
        p = subs.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        leaves.append(p)
        return p

    if p := command("pi", "digits of pi and pattern search"):
        ps = p.add_subparsers(dest="pi_cmd", required=True)
        pd = leaf(ps, "digits", "print decimal digits after the point", ("fleeing", "_cmd_pi"))
        pd.add_argument("n", type=_int, nargs="?", default=None)
        pf = leaf(ps, "find", "first 1-based position of a pattern", ("fleeing", "_cmd_pi"))
        pf.add_argument("--pattern", required=True)
        pf.add_argument("--limit", type=_int, default=1_000_000)

    if f := command("fleeing", "critical number of a digit-run property"):
        fs = f.add_subparsers(dest="fleeing_cmd", required=True)
        fc = leaf(fs, "critical", "least witness up to a horizon", ("fleeing", "_cmd_fleeing"))
        fc.add_argument("--digit", type=_int, default=9)
        fc.add_argument("--run", type=_int, default=6)
        fc.add_argument("--horizon", type=_int, default=None)

    if s := command("spread", "sample admissible prefixes"):
        ss = s.add_subparsers(dest="spread_cmd", required=True)
        sp = leaf(ss, "sample", "seeded random admissible prefix", ("spreads", "_cmd_spread"))
        sp.add_argument("--law", choices=("rng", "universal"), default="rng")
        sp.add_argument("--stages", type=_int, default=8)
        sp.add_argument("--seed", type=_int, default=None)

    if r := command("real", "compare points"):
        rs = r.add_subparsers(dest="real_cmd", required=True)
        rc = leaf(rs, "cmp", "three-valued comparisons at a horizon", ("reals", "_cmd_real"))
        rc.add_argument("--lhs", choices=POINT_SPECS, required=True)
        rc.add_argument("--rhs", choices=POINT_SPECS, required=True)
        rc.add_argument("--lhs-trace", default="never")
        rc.add_argument("--rhs-trace", default="never")
        rc.add_argument("--digit", type=_int, default=9, help="berlin-r property digit")
        rc.add_argument("--run", type=_int, default=6, help="berlin-r property run length")
        rc.add_argument("--horizon", type=_int, default=None)

    if d := command("drift", "checking sequences"):
        ds = d.add_subparsers(dest="drift_cmd", required=True)
        dr = leaf(ds, "run", "emit a checking sequence", ("drift", "_cmd_drift"))
        dr.add_argument("--drift", choices=DRIFT_NAMES, default="rational-right")
        dr.add_argument("--kind", choices=DRIFT_KINDS, default="direct")
        dr.add_argument("--trace", default="never", help="never | true:k | false:k")
        dr.add_argument("--terms", type=_int, default=8)

    if l := command("logic", "stage-modal semantics"):
        ls = l.add_subparsers(dest="logic_cmd", required=True)
        le = leaf(ls, "eval", "force a formula at a node", ("logic", "_cmd_eval"))
        le.add_argument("--model", required=True, help="model JSON file")
        le.add_argument("--at", required=True, help="node id")
        le.add_argument("--formula", required=True)
        lw = leaf(ls, "sweep", "exhaustive schema check", ("_masks", "_cmd_sweep"))
        lw.add_argument("--schema", required=True, choices=SCHEMA_NAMES)
        lw.add_argument("--nodes", type=_int, default=None)
        lw.add_argument("--atoms", type=_int, default=None)
        lw.add_argument("--box", type=_int, default=3)
        lw.add_argument("--depth", type=_int, default=2)

    if v := command("derive", "check derivation scripts"):
        vs = v.add_subparsers(dest="derive_cmd", required=True)
        vc = leaf(vs, "check", "verify a script (bundled name or path)", ("derivation", "_cmd_derive"))
        vc.add_argument("script")
        leaf(vs, "ks-report", "blocked classical prerequisites", ("derivation", "_cmd_derive"))

    if y := command("replay", "re-run a bundled construction"):
        y.set_defaults(handler=("derivation", "_cmd_replay"))
        y.add_argument("name", choices=REPLAYS)
        leaves.append(y)

    for each in leaves:
        each.add_argument("--json", action="store_true")
    return top


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        cfg = load_config()
    except ValueError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_USAGE
    # the import statement's own path, so that -X importtime lists the module
    module, name = args.handler
    handler = getattr(__import__(f"{__package__}.{module}", fromlist=[name]), name)
    try:
        code, payload, text = handler(args, cfg)
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
