"""Lazy loading: the package and the CLI import only the modules a caller uses.

Each check runs in a fresh interpreter, since this test process has long
since imported every module.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cli_golden

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
ENV.pop("BW_DIGIT_LIMIT", None)

# brouwer.__all__ as the eager re-exports defined it: every public name the
# package imported, plus the modules those imports bound
PUBLIC = """
AdmissibilityError BUNDLED_DRIFTS BUNDLED_SCRIPTS CheckingKind CheckingRun
Countermodel CriticalSearch DecidableProperty DigitOracle Drift Dyadic EventTrace
Generator Interval IntervalRelation Lawlike Point Process Rejected Resolution
ResourceLimitError SpreadLaw StageTree SweepBounds SweepResult Tag Verdict
VerdictValue Verified Wing abs_diff_lt admissible_successors apart_at berlin_r
berlin_s bundled_drift cambridge_c center centered_point check_script
checking_sequence coincide_refute continuity_modulus cpf_modulus
critical_number decide_pairs default_oracle delay_map derivation drift dyadic
emit_prefix errors find_pattern flatten_checking fleeing forces format_trace
geometric_family identity_map int_point interval_relate lambda_interval load_model
logic lt_at lt_rational mapped_point negation_map never_trace one_point parse
parse_dyadic parse_interval parse_trace pattern_property principle_suite proved_at
rationality_descriptor reals refuted_at rng_spread run_property show spreads
universal_spread validate_drift validity_sweep value_point veldman_f2 vienna_e
vienna_family vienna_run virtual_order_check zero_point
""".split()

HEAVY = {"brouwer.logic", "brouwer.derivation", "brouwer.drift"}
ENGINE = "brouwer._masks"  # the sweep engine
PI = {"brouwer.fleeing", "brouwer._pi_backends"}
RECORD_MAKERS = {"dataclasses", "inspect"}
POINTS = {"brouwer.reals", "brouwer.spreads"}
MODULES = ("cli", "derivation", "drift", "dyadic", "fleeing", "logic", "reals", "spreads")


def python(*args, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, *args], cwd=cwd, env=ENV, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    return done


def loaded_modules(*cli_args, cwd=ROOT):
    """Every module `python -m brouwer.cli ARGS` imports, and its stdout."""
    done = python("-X", "importtime", "-m", "brouwer.cli", *cli_args, cwd=cwd)
    names = {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
             if line.startswith("import time:")}
    return names, done.stdout


def imported_modules(*cli_args):
    """The brouwer modules `python -m brouwer.cli ARGS` imports, and its stdout."""
    names, out = loaded_modules(*cli_args)
    return {n for n in names if n.startswith("brouwer")}, out


def test_pi_digits_loads_no_logic_derivation_or_drift():
    loaded, out = imported_modules("pi", "digits", "20", "--json")
    assert json.loads(out)["digits"] == "14159265358979323846"
    assert "brouwer.fleeing" in loaded and "brouwer._pi_backends" in loaded
    assert not loaded & HEAVY


@pytest.mark.parametrize(
    "args",
    cli_golden.README + [["replay", name] for name in cli_golden.REPLAYS[1:]],
    ids=" ".join,
)
def test_no_command_loads_dataclasses_or_inspect(args):
    # records are slots classes and named tuples, so no command pays for the
    # dataclasses import (11-16 ms with the inspect, ast and dis it pulls in);
    # a digit query needs the oracle and nothing of the point machinery
    loaded, out = loaded_modules(*args, "--json", cwd=cli_golden.GOLDEN)
    assert json.loads(out)["command"] in ("replay", "-".join(args[:2]))
    assert not loaded & (RECORD_MAKERS | (POINTS if args[0] in ("pi", "fleeing") else set()))


def test_importing_every_module_loads_no_dataclasses_or_inspect():
    probe = (
        "import sys\n"
        f"for name in {MODULES!r}:\n"
        "    __import__('brouwer.' + name)\n"
        f"print(sorted(set(sys.modules) & {RECORD_MAKERS!r}))\n"
    )
    assert python("-c", probe).stdout.strip() == "[]"


@pytest.mark.parametrize(
    "args, absent",
    [
        (("fleeing", "critical", "--digit", "3", "--run", "1"), HEAVY | POINTS),
        # the sweep engine loads only for a sweep or the ks-report
        (("logic", "eval", "--model", "model.json", "--at", "root", "--formula", "q"), {ENGINE}),
        (("derive", "check", "conditional-ks"), {ENGINE}),
        (("replay", "vienna-9"), PI | {ENGINE}),
        # a checking sequence is read as refs, with no point built
        (("drift", "run", "--drift", "two-winged-mixed", "--kind", "osc", "--trace", "false:2"),
         {"brouwer.reals"} | PI),
        (("derive", "ks-report"), {"brouwer.fleeing", "brouwer.reals", "brouwer.drift"}),
        (("spread", "sample", "--seed", "11"), HEAVY | {"brouwer.fleeing", "brouwer.reals"}),
        # only the berlin-r spec and the cambridge-13 replay read pi
        (("real", "cmp", "--lhs", "berlin-s", "--rhs", "zero"),
         PI | {"brouwer.logic", "brouwer.derivation"}),
        (("replay", "ks-12"),
         PI | {"brouwer.drift", "brouwer.reals", "brouwer.spreads", "brouwer.dyadic"}),
    ],
)
def test_each_command_loads_only_its_modules(args, absent):
    loaded, out = loaded_modules(*args, cwd=cli_golden.GOLDEN)
    assert out and not loaded & absent


def test_the_sweep_commands_load_the_engine():
    for args in (("logic", "sweep", "--schema", "cs5", "--nodes", "2"), ("derive", "ks-report")):
        assert ENGINE in imported_modules(*args)[0]


def test_importing_the_cli_loads_only_the_cli_and_its_errors():
    probe = ("import json, sys, brouwer.cli\n"
             "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'brouwer')))")
    assert json.loads(python("-c", probe).stdout) == ["brouwer", "brouwer.cli", "brouwer.errors"]


def test_package_surface_is_unchanged():
    probe = (
        "import json, sys, brouwer\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('brouwer.'))\n"
        "public_dir = [n for n in dir(brouwer) if not n.startswith('_')]\n"
        "ns = {}\n"
        "exec('from brouwer import *', ns)\n"
        "same = all(ns[n] is getattr(brouwer, n) for n in brouwer.__all__)\n"
        "print(json.dumps([loaded, brouwer.__all__, public_dir,"
        " sorted(set(ns) - {'__builtins__'}), same]))\n"
    )
    loaded, all_, public_dir, starred, same = json.loads(python("-c", probe).stdout)
    assert loaded == []  # importing the package loads none of its modules
    assert all_ == PUBLIC
    assert public_dir == PUBLIC
    assert starred == PUBLIC and same


def test_lazy_names_are_the_defining_modules_objects():
    import brouwer
    from brouwer import derivation, drift, fleeing, logic, reals, spreads

    assert brouwer.DigitOracle is fleeing.DigitOracle
    assert brouwer.parse is logic.parse
    assert brouwer.Point is reals.Point
    assert brouwer.emit_prefix is spreads.emit_prefix
    assert brouwer.BUNDLED_DRIFTS is drift.BUNDLED_DRIFTS
    assert brouwer.check_script is derivation.check_script
    assert brouwer.logic is logic
    with pytest.raises(AttributeError, match="no attribute 'scaled_floor'"):
        brouwer.scaled_floor  # defined in dyadic, never re-exported


def _defined_names(node: ast.stmt) -> list[str]:
    """The names a top-level statement defines: a def, a class, or the plain
    names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def test_every_public_function_and_class_in_src_has_a_production_use():
    # test-only code and data live in tests/: a public def, class or
    # top-level assignment of a public module is exported by the package or
    # read somewhere in src/
    import brouwer

    sources = sorted((ROOT / "src" / "brouwer").glob("*.py"))
    trees = {path.stem: ast.parse(path.read_text()) for path in sources}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    unused = [
        f"{module}.{name}"
        for module, tree in trees.items() if not module.startswith("_")
        for node in tree.body for name in _defined_names(node)
        if not name.startswith("_") and name not in used | set(brouwer._ORIGIN)
    ]
    assert unused == []


# a \d in pattern source: a backslash and a d, the backslash not itself escaped
_DIGIT_CLASS = re.compile(r"(?<!\\)(?:\\\\)*\\d")


def _unicode_digit_patterns(source: str) -> tuple[int, list[int]]:
    """How many literal patterns source passes to a re function, and the
    line of each one that holds a \\d but is not compiled with re.ASCII."""
    patterns, lines = 0, []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and getattr(node.func.value, "id", None) == "re" and node.args
                and isinstance(node.args[0], ast.Constant) and isinstance(node.args[0].value, str)):
            continue
        patterns += 1
        flags = {n.attr for arg in [*node.args[1:], *(k.value for k in node.keywords)]
                 for n in ast.walk(arg)
                 if isinstance(n, ast.Attribute) and getattr(n.value, "id", None) == "re"}
        if _DIGIT_CLASS.search(node.args[0].value) and not flags & {"ASCII", "A"}:
            lines.append(node.lineno)
    return patterns, lines


def test_no_pattern_in_src_reads_unicode_digits():
    # in a str pattern \d matches every Unicode decimal digit ('\u0663' among
    # them) unless re.ASCII is set, so a reader spells the class [0-9]
    found, total = [], 0
    for path in sorted((ROOT / "src" / "brouwer").glob("*.py")):
        patterns, lines = _unicode_digit_patterns(path.read_text(encoding="utf-8"))
        total += patterns
        found += [f"{path.name}:{line}" for line in lines]
    assert total >= 5 and found == []
    probe = (
        'A = re.compile(r"[\\d]+")\n'
        'B = re.sub(r"\\\\d", "", text)\n'
        'C = re.match(r"\\\\\\d", text)\n'
        'D = re.compile(r"\\d", re.S | re.ASCII)\n'
        'E = re.fullmatch(r"\\d", text, flags=re.A)\n'
    )
    assert _unicode_digit_patterns(probe) == (5, [1, 3])


def _names_at_import() -> dict:
    """{module: the names in its vars()} for every brouwer module, right after
    a fresh interpreter imports it (a patch, or a name read, in this test
    process can have added to them since)."""
    modules = sorted(path.stem for path in (ROOT / "src" / "brouwer").glob("*.py"))
    probe = (
        "import importlib, json\n"
        f"print(json.dumps({{m: sorted(vars(importlib.import_module('brouwer.' + m)))"
        f" for m in {modules!r} if m != '__init__'}}))\n"
    )
    return {f"brouwer.{m}": set(names) for m, names in json.loads(python("-c", probe).stdout).items()}


def _patched_names(tree: ast.Module) -> list[tuple[int, str, str]]:
    """(line, module, name) of each brouwer module attribute a test file
    patches: monkeypatch.setattr("brouwer.m.name", ...), or setattr, patch.object
    and patch.multiple on a name the file bound to a brouwer module."""
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "brouwer":
            modules.update({a.asname or a.name: f"brouwer.{a.name}" for a in node.names
                            if (ROOT / "src" / "brouwer" / f"{a.name}.py").exists()})
        elif isinstance(node, ast.Import):
            modules.update({a.asname: a.name for a in node.names if a.asname and "brouwer." in a.name})
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.args):
            continue
        target = node.args[0]
        if node.func.attr == "setattr" and isinstance(target, ast.Constant):
            module, _, name = str(target.value).rpartition(".")
            if module.startswith("brouwer."):
                found.append((node.lineno, module, name))
        elif isinstance(target, ast.Name) and target.id in modules:
            if node.func.attr in ("setattr", "object") and len(node.args) > 1:
                found.append((node.lineno, modules[target.id], node.args[1].value))
            elif node.func.attr == "multiple":
                found += [(node.lineno, modules[target.id], k.arg) for k in node.keywords]
    return found


def test_every_patch_replaces_a_name_its_module_defines():
    # a module's __getattr__ (logic forwards the sweep engine's names) lets a
    # patch of a name it does not hold succeed, and patch nothing the code reads
    at_import = _names_at_import()
    patches, stray = [], []
    for path in sorted((ROOT / "tests").glob("*.py")):
        for line, module, name in _patched_names(ast.parse(path.read_text(encoding="utf-8"))):
            patches.append((module, name))
            if name not in at_import[module]:
                stray.append(f"{path.name}:{line}: {module}.{name}")
    assert stray == []
    # both spellings are read: the engine's cap by string, drift's switch by module
    assert {("brouwer._masks", "DEFAULT_SWEEP_CAP"), ("brouwer.drift", "_switch_ref")} <= set(patches)


def test_the_names_the_benchmarks_read_from_logic_resolve():
    # perfbench, bench.py and the references read logic's names, the sweep
    # engine's among them, from whichever checkout they time; and perfbench's
    # logic.sweep span wraps validity_sweep only if logic itself defines it
    files = [*sorted((ROOT / "perfbench").glob("*.py")), ROOT / "benchmarks" / "bench.py",
             ROOT / "tests" / "references.py"]
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "logic":
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module == "brouwer.logic":
                names.update(alias.name for alias in node.names)
    assert {"count_models", "_class_table", "_Masks", "validity_sweep"} <= names
    probe = (
        "import json, brouwer.logic as logic\n"
        "own = 'validity_sweep' in vars(logic)\n"
        f"print(json.dumps([own, [n for n in {sorted(names)!r} if not hasattr(logic, n)]]))\n"
    )
    assert json.loads(python("-c", probe).stdout) == [True, []]
