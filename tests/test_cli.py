"""The command-line surface, driven through main() without a subprocess."""

import json
from pathlib import Path

import pytest

import bench_writer

from brouwer import fleeing, reals, spreads
from brouwer.cli import DEFAULTS, DRIFT_KINDS, DRIFT_NAMES, REPLAYS, SCHEMA_NAMES, load_config, main
from brouwer.drift import BUNDLED_DRIFTS, KIND_ALIASES
from brouwer.errors import ResourceLimitError
from brouwer.logic import SCHEMAS
from test_fleeing import scan_reference

PI_50 = "14159265358979323846264338327950288419716939937510"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    payload = json.loads(out)
    assert list(payload) == sorted(payload), "JSON keys must be sorted"
    assert "seed" in payload
    return code, payload


def test_pi_digits(capsys):
    code, out = run(capsys, "pi", "digits", "10")
    assert code == 0 and out.strip() == PI_50[:10]
    code, payload = run_json(capsys, "pi", "digits", "12")
    assert code == 0 and payload["digits"] == PI_50[:12] and payload["n"] == 12


def test_pi_digits_defaults_from_config(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "brouwer.toml").write_text("digits = 7  # keep it short\nseed = 3\n")
    code, payload = run_json(capsys, "pi", "digits")
    assert code == 0 and payload["digits"] == PI_50[:7] and payload["seed"] == 3


def test_config_errors_exit_2(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "brouwer.toml").write_text("mystery = 1\n")
    assert main(["pi", "digits", "3"]) == 2
    assert "unknown key" in capsys.readouterr().err
    (tmp_path / "brouwer.toml").write_text("digits = soon\n")
    assert main(["pi", "digits", "3"]) == 2
    assert "needs an integer" in capsys.readouterr().err
    # int() alone reads '٣٠' as 30: fleeing critical ran at horizon 30
    (tmp_path / "brouwer.toml").write_text("horizon = ٣٠\n", encoding="utf-8")
    assert main(["fleeing", "critical"]) == 2
    assert "brouwer.toml:1: horizon needs an integer" in capsys.readouterr().err
    (tmp_path / "brouwer.toml").write_text("# sizes\ndigits 7\n")
    assert main(["pi", "digits", "3"]) == 2
    assert "brouwer.toml:2: expected 'key = value'" in capsys.readouterr().err


def test_load_config_defaults_without_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert load_config() == DEFAULTS


def test_pi_find(capsys):
    code, out = run(capsys, "pi", "find", "--pattern", "999999", "--limit", "2000")
    assert code == 0 and out.strip() == "found-at:762"
    code, payload = run_json(
        capsys, "pi", "find", "--pattern", "999999", "--limit", "700"
    )
    assert code == 0
    assert payload["position"] is None and payload["verdict"] == "none-below:700"


@pytest.mark.parametrize("digit_limit", [760, 765, 766, 767, 768, 771])
def test_pi_find_refuses_exactly_when_the_scan_does(capsys, monkeypatch, digit_limit):
    # around the six nines at 762..767: exit 64 when the position-by-position
    # scan on the same oracle refuses, else the same verdict
    orc = fleeing.DigitOracle(limit=digit_limit)
    monkeypatch.setattr(fleeing, "_default_oracle", orc)
    for limit in (755, 760, 761, 762, 763, 766, 767):
        code, out = run(capsys, "pi", "find", "--pattern", "999999", "--limit", str(limit))
        try:
            scan = scan_reference(fleeing.pattern_property("999999", orc), limit)
        except ResourceLimitError:
            assert code == 64 and out == "", limit
        else:
            verdict = f"found-at:{scan}" if scan is not None else f"none-below:{limit}"
            assert code == 0 and out.strip() == verdict, limit


def test_pi_find_refuses_past_the_oracle_limit(capsys, monkeypatch):
    monkeypatch.setenv("BW_DIGIT_LIMIT", "500")
    monkeypatch.setattr(fleeing, "_default_oracle", None)
    code = main(["pi", "find", "--pattern", "999999", "--limit", "1000", "--json"])
    captured = capsys.readouterr()
    assert code == 64 and captured.out == ""
    assert "resource refusal" in captured.err
    code, out = run(capsys, "pi", "find", "--pattern", "1415", "--limit", "1000")
    assert code == 0 and out.strip() == "found-at:1"


STAGE_COUNTS = {  # each command's stage count flag, at its defaults otherwise
    "real cmp": (["real", "cmp", "--lhs", "half", "--rhs", "berlin-r"], "--horizon"),
    "spread sample": (["spread", "sample"], "--stages"),
    "drift run": (["drift", "run", "--drift", "berlin", "--kind", "osc", "--trace", "true:2"],
                  "--terms"),
}


@pytest.mark.parametrize("command", sorted(STAGE_COUNTS))
def test_stage_counts_past_the_cap_refuse_before_any_emission(capsys, monkeypatch, command):
    emitted = []

    def emit(*args, **kwargs):
        emitted.append(args[1])
        return real_emit(*args, **kwargs)

    real_emit = spreads.emit_prefix
    for module in (spreads, reals):
        monkeypatch.setattr(module, "emit_prefix", emit)
    argv, flag = STAGE_COUNTS[command]
    cap = spreads.DEFAULT_STAGE_CAP
    for n in (cap + 1, 10**12):
        code = main(argv + [flag, str(n), "--json"])
        captured = capsys.readouterr()
        assert code == 64 and captured.out == ""
        assert captured.err == f"resource refusal: requested {n} stages, limit is {cap}\n"
    assert emitted == []
    code, out = run(capsys, *argv, flag, "9")
    assert code == 0 and out


def test_the_stage_cap_names_what_was_asked():
    cap = spreads.DEFAULT_STAGE_CAP
    assert spreads.charge_stages(cap) == cap and spreads.charge_stages(0) == 0
    with pytest.raises(ResourceLimitError) as err:
        spreads.charge_stages(cap + 1)
    assert (err.value.requested, err.value.limit) == (cap + 1, cap)


@pytest.mark.parametrize("value", ["abc", "-5"])
def test_bad_digit_limit_is_a_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("BW_DIGIT_LIMIT", value)
    monkeypatch.setattr(fleeing, "_default_oracle", None)
    code = main(["pi", "digits", "5"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "BW_DIGIT_LIMIT must be a non-negative integer" in captured.err


def test_cli_reads_the_patched_default_oracle(capsys, monkeypatch):
    monkeypatch.setattr(fleeing, "_default_oracle", fleeing.DigitOracle(limit=30))
    code, out = run(capsys, "pi", "digits", "30")
    assert code == 0 and out.strip() == PI_50[:30]
    assert main(["pi", "digits", "31"]) == 64


def test_pi_find_rejects_non_digit_patterns(capsys):
    for bad in ("abc", "", "1O0"):
        code = main(["pi", "find", "--pattern", bad, "--limit", "100"])
        err = capsys.readouterr().err
        assert code == 1
        assert "decimal digits" in err


def test_fleeing_critical(capsys):
    code, out = run(capsys, "fleeing", "critical", "--digit", "3", "--run", "1")
    assert code == 0 and out.strip() == "found-at:9"
    code, payload = run_json(
        capsys, "fleeing", "critical", "--digit", "9", "--run", "6", "--horizon", "50"
    )
    assert code == 0 and payload["found_at"] is None
    assert payload["verdict"] == "none-below:50"


@pytest.mark.parametrize(
    "argv",
    [
        ("pi", "find", "--pattern", "999", "--limit", "-1"),
        ("pi", "find", "--pattern", "9", "--limit", "-1"),
        ("fleeing", "critical", "--digit", "9", "--run", "6", "--horizon", "-3"),
    ],
)
def test_negative_bounds_are_refused(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error:") and "non-negative" in captured.err


def test_spread_sample_is_seed_deterministic(capsys):
    _, first = run(capsys, "spread", "sample", "--seed", "11", "--stages", "9")
    _, again = run(capsys, "spread", "sample", "--seed", "11", "--stages", "9")
    _, other = run(capsys, "spread", "sample", "--seed", "12", "--stages", "9")
    assert first == again
    assert first != other
    values = list(map(int, first.split()))
    assert len(values) == 9
    for a, b in zip(values, values[1:]):
        assert b in (2 * a, 2 * a + 1, 2 * a + 2)


def test_real_cmp(capsys):
    code, payload = run_json(
        capsys, "real", "cmp", "--lhs", "zero", "--rhs", "one", "--horizon", "20"
    )
    assert code == 0
    v = payload["verdicts"]
    assert v["lt"]["value"] == "holds" and v["lt"]["witness"] == 3
    assert v["gt"]["value"] == "unknown-at-horizon"  # never refutable, only open
    assert v["apart"]["value"] == "holds" and v["apart"]["direction"] == "lt"
    assert v["coincide"]["value"] == "fails"  # coincidence is refuted

    code, out = run(capsys, "real", "cmp", "--lhs", "zero", "--rhs", "zero")
    assert code == 0
    assert "apart: unknown-at-horizon" in out


def test_drift_run(capsys):
    code, payload = run_json(
        capsys,
        "drift", "run",
        "--drift", "rational-right",
        "--kind", "direct",
        "--trace", "true:3",
        "--terms", "5",
    )
    assert code == 0
    assert payload["terms"] == ["c", "c", "c_3", "c_3", "c_3"]
    assert payload["limit"] == "c_3"
    assert payload["limit_class"] == {"kind": "rational"}


def test_logic_eval(capsys, tmp_path):
    model = {
        "nodes": [
            {"id": "root", "atoms": []},
            {"id": "later", "parent": "root", "atoms": ["q"]},
        ]
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    code, out = run(
        capsys, "logic", "eval", "--model", str(path), "--at", "root",
        "--formula", "<*>q -> q",
    )
    assert code == 0 and out.strip() == "false"
    code, payload = run_json(
        capsys, "logic", "eval", "--model", str(path), "--at", "root",
        "--formula", "[1]q",
    )
    assert code == 0 and payload["forces"] is True


@pytest.mark.parametrize(
    "doc",
    [
        '{"nodes": [{"atoms": []}]}',
        '[{"id": "root"}]',
        '{"nodes": [1]}',
        '{"nodes": [{"id": "root", "atoms": "pq"}]}',
    ],
)
def test_logic_eval_rejects_malformed_models(capsys, tmp_path, doc):
    path = tmp_path / "model.json"
    path.write_text(doc)
    code = main(["logic", "eval", "--model", str(path), "--at", "root", "--formula", "p"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error:")


def test_logic_sweep(capsys):
    code, payload = run_json(
        capsys, "logic", "sweep", "--schema", "ic3",
        "--nodes", "3", "--atoms", "2", "--box", "2", "--depth", "1",
    )
    assert code == 0 and payload["status"] == "valid-up-to-bounds"
    assert payload["bounds"] == {
        "max_nodes": 3, "max_atoms": 2, "max_box_index": 2, "max_operand_depth": 1,
    }
    code, payload = run_json(
        capsys, "logic", "sweep", "--schema", "cs5",
        "--nodes", "3", "--atoms", "2", "--box", "2", "--depth", "1",
    )
    assert code == 0 and payload["status"] == "countermodel"
    assert payload["countermodel"]["instance"] == "<*>q -> q"


def test_logic_sweep_json_is_byte_deterministic(capsys):
    argv = ("logic", "sweep", "--schema", "cs4", "--nodes", "3", "--atoms", "2",
            "--box", "2", "--depth", "1", "--json")
    _, first = run(capsys, *argv)
    _, again = run(capsys, *argv)
    assert first == again


def test_logic_sweep_resource_refusal(capsys):
    code = main(["logic", "sweep", "--schema", "ic1", "--nodes", "5",
                 "--atoms", "4", "--box", "3", "--depth", "2"])
    err = capsys.readouterr().err
    assert code == 64
    assert "resource refusal" in err


def test_derive_check_bundled(capsys):
    code, out = run(capsys, "derive", "check", "vienna-dense")
    assert code == 0
    assert "verified: (alpha! | ~alpha!) & ~e_is_half (13 steps)" in out
    assert out.count("warning:") == 1
    # underscore spelling resolves to the same bundled script
    code, payload = run_json(capsys, "derive", "check", "conditional_ks")
    assert code == 0
    assert payload["script"] == "conditional-ks"
    assert payload["conclusion"] == "~~rat_f" and payload["warnings"] == []


def test_derive_check_file(capsys, tmp_path):
    good = tmp_path / "ok.drv"
    good.write_text("premise p\n1: p ; Premise\n2: p | q ; OrIntro(1)\n")
    code, out = run(capsys, "derive", "check", str(good))
    assert code == 0 and "verified: p | q" in out

    bad = tmp_path / "bad.drv"
    bad.write_text("premise p\n1: q ; Premise\n")
    code, out = run(capsys, "derive", "check", str(bad))
    assert code == 1 and "rejected at step 1" in out

    ugly = tmp_path / "ugly.drv"
    ugly.write_text("1: p! ; Premise\n")
    code, payload = run_json(capsys, "derive", "check", str(ugly))
    assert code == 1 and payload["status"] == "syntax-error"


def test_derive_check_missing_file(capsys):
    code = main(["derive", "check", "no/such/script.drv"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


DEEP_FORMULAS = {"3000 conjuncts": " & ".join(["q"] * 3000), "3000 negations": "~" * 3000 + "q"}


def assert_clean_error(capsys, code):
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


@pytest.mark.parametrize("shape", sorted(DEEP_FORMULAS))
def test_an_over_deep_formula_is_an_error(capsys, tmp_path, shape):
    path = tmp_path / "model.json"
    path.write_text('{"nodes": [{"id": "root", "atoms": ["q"]}]}')
    for flag in ([], ["--json"]):
        code = main(["logic", "eval", "--model", str(path), "--at", "root",
                     "--formula", DEEP_FORMULAS[shape], *flag])
        assert_clean_error(capsys, code)


@pytest.mark.parametrize("index", ["\u00b2", "\u0663"])
def test_a_non_ascii_stage_index_is_malformed(capsys, tmp_path, index):
    path = tmp_path / "model.json"
    path.write_text('{"nodes": [{"id": "root", "atoms": ["q"]}]}')
    code = main(["logic", "eval", "--model", str(path), "--at", "root", "--formula", f"[{index}]q"])
    assert code == 1 and capsys.readouterr().err == "error: malformed stage index (at offset 0)\n"


def test_a_script_with_an_over_deep_step_is_an_error(capsys, tmp_path):
    path = tmp_path / "deep.drv"
    path.write_text(f"premise q\n1: q ; Premise\n2: {DEEP_FORMULAS['3000 negations']} ; Premise\n")
    # the parser's nesting bound makes it a syntax error of the step's line
    code, payload = run_json(capsys, "derive", "check", str(path))
    assert code == 1 and payload["status"] == "syntax-error"
    assert payload["reason"].startswith("line 3: bad formula '~~~")
    assert payload["reason"].endswith("formula nested deeper than 100 levels (at offset 100)")
    code, out = run(capsys, "derive", "check", str(path))
    assert code == 1 and out.startswith("syntax error: line 3: bad formula")


def test_derive_ks_report(capsys):
    code, payload = run_json(capsys, "derive", "ks-report")
    assert code == 0
    assert [b["schema"] for b in payload["blocked"]] == ["cs4", "cs5"]
    assert len(payload["available"]) == 4
    assert payload["blocked"][1]["countermodel"]["instance"] == "<*>q -> q"
    assert payload["bounds"] == {
        "max_nodes": 5, "max_atoms": 2, "max_box_index": 3, "max_operand_depth": 2,
    }


@pytest.mark.parametrize("name", REPLAYS)
def test_replays_pass(capsys, name):
    code, payload = run_json(capsys, "replay", name)
    assert code == 0
    assert payload["ok"] is True
    assert payload["checks"] and all(c["ok"] for c in payload["checks"])


def test_drift_kinds_are_the_alias_table(capsys):
    # the parser's choices are copies of the tables, so that it imports neither
    assert DRIFT_KINDS == tuple(sorted(KIND_ALIASES))
    assert DRIFT_NAMES == tuple(BUNDLED_DRIFTS)
    assert SCHEMA_NAMES == tuple(SCHEMAS)
    with pytest.raises(SystemExit) as ei:
        main(["drift", "run", "--kind", "sideways"])
    assert ei.value.code == 2
    assert "(choose from 'cond', 'conditional', 'direct', 'osc', 'oscillatory')" in (
        capsys.readouterr().err
    )


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["replay", "atlantis-1"])
    assert ei.value.code == 2
    with pytest.raises(SystemExit) as ei:
        main(["pi"])
    assert ei.value.code == 2
    # an integer flag takes ASCII digits only: int() of a str reads '٣' as 3
    for argv, flag, value in [
        (["pi", "digits", "٣"], "n", "٣"),
        (["pi", "find", "--pattern", "9", "--limit", "١٠"], "--limit", "١٠"),
        (["fleeing", "critical", "--run", "١"], "--run", "١"),
        (["spread", "sample", "--seed", "٧"], "--seed", "٧"),
        (["real", "cmp", "--lhs", "half", "--rhs", "zero", "--horizon", "٤٠"], "--horizon", "٤٠"),
        (["drift", "run", "--terms", "٣"], "--terms", "٣"),
        (["logic", "sweep", "--schema", "ic1", "--nodes", "٤"], "--nodes", "٤"),
    ]:
        with pytest.raises(SystemExit) as ei:
            main(argv)
        captured = capsys.readouterr()
        assert ei.value.code == 2 and captured.out == ""
        assert captured.err.endswith(f"error: argument {flag}: invalid int value: {value!r}\n")


def test_an_over_deep_model_file_is_an_error(capsys, tmp_path):
    # json.loads recurses once per bracket
    path = tmp_path / "model.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    for flag in ([], ["--json"]):
        code = main(["logic", "eval", "--model", str(path), "--at", "root", "--formula", "q", *flag])
        assert_clean_error(capsys, code)


def test_cold_section_script_runs(monkeypatch):
    # the bench starts each command afresh, from a scratch directory that
    # holds the README's model.json
    monkeypatch.setenv("PYTHONPATH", str(Path(__file__).resolve().parent.parent / "src"))
    lines = ("python -c pass", "logic eval --model model.json --at root --formula '<*>q -> q'")
    record = bench_writer.bench.cold(lines)
    assert [list(row) for row in record["rows"]] == [["command", "ms"]] * 2
    assert [row["command"] for row in record["rows"]] == list(lines)
    assert bench_writer.survives_json(record)
