"""Span tracer for the traced benchmark run.

Wrappers are installed from the benchmark's side only, on the public names
that callers look up (a module attribute, a class attribute, or a name one
module imported from another). Nothing in the program is edited.

A span records a name, its layer, a start, an end, the id of the span that
caused it and the id of the job it belongs to. Spans live in memory and are
written out once, when the run ends. A wrapper skips recording when the
innermost open span belongs to one of the layers in ``skip_under``: that
keeps recursion (``forces``) and per-position reads inside a scan
(``DigitOracle.digits`` under ``critical_number``) from flooding the trace;
their time stays in the enclosing span's self time.

Dyadic operations run hundreds of thousands of times per job, so they get
counters only, no spans.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

_now = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []  # [id, parent, job, name, layer, start, end, attrs]
        self.counts = Counter()
        self.job = None
        self._stack = []
        self._undo = []

    def start_job(self, job_id):
        self.job = job_id
        return self._open("job", "bench")

    def end_job(self, span):
        self._close(span, None)
        self.job = None

    @contextmanager
    def span(self, name, attrs=None):
        """A span opened by the benchmark itself, such as one CLI subprocess."""
        s = self._open(name, name.split(".", 1)[0])
        try:
            yield s
        finally:
            self._close(s, attrs)

    def _open(self, name, layer):
        span = [len(self.spans), self._stack[-1][0] if self._stack else None,
                self.job, name, layer, _now(), None, None]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span, attrs):
        span[6] = _now()
        span[7] = attrs
        self._stack.pop()

    def _inside(self, layers):
        return bool(self._stack) and self._stack[-1][4] in layers

    def wrap(self, fn, name, attrs=None, skip_under=()):
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.job is None or self._inside(skip_under):
                return fn(*args, **kwargs)
            span = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(span, {"raised": True})
                raise
            self._close(span, attrs(args, kwargs, result) if attrs else None)
            return result

        return traced

    def counter(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, owner, attr, name, attrs=None, skip_under=(), count_only=False):
        """Replace owner.attr with a traced (or counted) wrapper."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        wrapped = (self.counter(original, name) if count_only
                   else self.wrap(original, name, attrs, skip_under))
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def adopt(self, records, parent, job):
        """Append spans recorded by a child process under one of ours."""
        base = len(self.spans)
        for rec in records:
            sid, par, _, name, layer, start, end, attrs = rec
            self.spans.append([base + sid, parent if par is None else base + par,
                               job, name, layer, start, end, attrs])

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    child = defaultdict(float)
    for s in spans:
        if s[1] is not None and s[6] is not None:
            child[s[1]] += s[6] - s[5]
    return {s[0]: (s[6] - s[5]) - child[s[0]] for s in spans if s[6] is not None}


# --- what gets wrapped -----------------------------------------------------


def _n_arg(args, kwargs, result):
    return {"n": args[0] if args else kwargs["n"]}


def _scan_attrs(args, kwargs, result):
    # critical_number(p, horizon) -> CriticalSearch; find_pattern(p, limit) -> pos
    if hasattr(result, "found_at"):
        return {"positions": result.found_at or result.horizon}
    limit = args[1] if len(args) > 1 else kwargs["limit"]
    return {"positions": result if result is not None else limit}


def _verdict_attrs(args, kwargs, result):
    # continuity_modulus answers with a radius (a Dyadic) once decided
    value = getattr(result, "value", None)
    return {"decided": value is None or value.value != "unknown-at-horizon"}


def _sweep_attrs(args, kwargs, result):
    bounds = args[1] if len(args) > 1 else kwargs["bounds"]
    return {"regime": "formula" if bounds.max_operand_depth >= 2 else "model",
            "models": result.models_checked, "instances": result.instances_checked}


def _check_attrs(args, kwargs, result):
    rejected = not result.ok
    return {"steps": result.step if rejected else result.step_count, "rejected": rejected}


VERDICTS = ("lt_at", "apart_at", "coincide_refute", "abs_diff_lt", "continuity_modulus")
DRIFT_POINTS = ("berlin_s", "vienna_e", "flatten_checking")


def install_program_wrappers(tracer, cli=None):
    """Wrap every public entry point the workloads reach, in each namespace
    that looks it up: the defining module, modules that imported the name,
    and the CLI module when given."""
    from brouwer import _pi_backends, derivation, drift, fleeing, logic, reals

    extra = (cli,) if cli else ()

    def ins(owners, attr, name, attrs=None, skip_under=(), count_only=False):
        for owner in owners:
            if attr in vars(owner):
                tracer.install(owner, attr, name, attrs, skip_under, count_only)

    ins((_pi_backends,), "chudnovsky_digits", "pi_backends.chudnovsky", _n_arg)
    ins((_pi_backends,), "spigot_digits", "pi_backends.spigot", _n_arg)
    ins((fleeing.DigitOracle,), "__init__", "fleeing.oracle_init")
    ins((fleeing.DigitOracle,), "digits", "fleeing.read", skip_under=("fleeing",))
    for fn in ("critical_number", "find_pattern"):
        ins((fleeing,) + extra, fn, "fleeing.scan", _scan_attrs)
    ins((reals,) + extra, "emit_prefix", "spreads.emit", lambda a, k, r: {"n": len(r)})
    ins((reals,), "interval_relate", "dyadic.relate_calls", count_only=True)
    ins((reals,), "lambda_interval", "dyadic.intervals_built", count_only=True)
    for fn in VERDICTS:
        ins((reals, drift) + extra, fn, f"reals.{fn}", _verdict_attrs, skip_under=("reals",))
    ins((drift,), "validate_drift", "drift.validate")
    for fn in DRIFT_POINTS + ("bundled_drift",):
        ins((drift,), fn, f"drift.{fn}", skip_under=("drift",))
    ins((logic, derivation) + extra, "validity_sweep", "logic.sweep", _sweep_attrs)
    ins((logic,) + extra, "forces", "logic.forces", skip_under=("logic",))
    ins((logic,) + extra, "parse", "logic.parse", skip_under=("logic", "derivation"))
    ins((derivation,) + extra, "check_script", "derivation.check", _check_attrs)
    ins((derivation,) + extra, "ks_prerequisite_report", "derivation.ks_report")


# --- per-layer metrics ------------------------------------------------------

CLI_COMMANDS = (
    "pi-digits", "pi-find", "fleeing-critical", "spread-sample", "real-cmp", "drift-run",
    "logic-eval", "logic-sweep", "derive-check", "derive-ks-report", "replay",
)
LAYERS = ("pi_backends", "fleeing", "spreads", "reals", "drift", "logic", "derivation", "cli")

# name -> (unit, better); every traced run reports all of them, 0 where a
# workload never enters the layer. The job plan fixes the work asked for, so
# a count of work done can only move when the program does less of it: such
# counts are "lower" (reals.verdicts and derivation.scripts_checked are fixed
# by the plan outright and serve as checks that two runs did the same jobs).
PER_LAYER = {
    "pi_backends.chudnovsky_s": ("s", "lower"),
    "pi_backends.chudnovsky_calls": ("count", "lower"),
    "pi_backends.digits_computed": ("digits", "lower"),
    "pi_backends.digits_per_s": ("digits/s", "higher"),
    "pi_backends.spigot_s": ("s", "lower"),
    "fleeing.oracle_init_s": ("s", "lower"),
    "fleeing.digit_yield": ("ratio", "higher"),
    "fleeing.scan_s": ("s", "lower"),
    "fleeing.positions_scanned": ("count", "lower"),
    "fleeing.regrow_calls": ("count", "lower"),
    "spreads.prefix_calls": ("count", "lower"),
    "spreads.stages_emitted": ("count", "lower"),
    "spreads.stage_reuse": ("ratio", "higher"),
    "spreads.emit_s": ("s", "lower"),
    "dyadic.relate_calls": ("count", "lower"),
    "dyadic.intervals_built": ("count", "lower"),
    "reals.verdicts": ("count", "lower"),
    "reals.verdict_s": ("s", "lower"),
    "reals.coincide_s": ("s", "lower"),
    "reals.decided_share": ("ratio", "higher"),
    "drift.points_built": ("count", "lower"),
    "drift.build_s": ("s", "lower"),
    "drift.validate_s": ("s", "lower"),
    **{f"logic.{m}.{r}": (u, b) for r in ("formula", "model") for m, u, b in (
        ("sweep_s", "s", "lower"), ("models_checked", "count", "lower"),
        ("instances_checked", "count", "lower"), ("models_per_s", "models/s", "higher"))},
    "logic.forces_calls": ("count", "lower"),
    "logic.eval_s": ("s", "lower"),
    "logic.parse_s": ("s", "lower"),
    "derivation.scripts_checked": ("count", "lower"),
    "derivation.steps_checked": ("count", "lower"),
    "derivation.check_s": ("s", "lower"),
    "derivation.steps_per_s": ("steps/s", "higher"),
    "derivation.rejected_share": ("ratio", "higher"),
    "cli.interp_ms": ("ms", "lower"),
    "cli.import_ms": ("ms", "lower"),
    "cli.selftest_ms": ("ms", "lower"),
    **{f"cli.cmd_ms.{c}": ("ms", "lower") for c in CLI_COMMANDS},
    **{f"{layer}.job_share": ("ratio", "lower") for layer in LAYERS + ("bench",)},
    "trace.jobs_per_s": ("1/s", "higher"),
    "trace.spans": ("count", "lower"),
}

# exact counts that must repeat for one seed
EXACT_COUNTS = (
    "logic.models_checked.formula", "logic.models_checked.model",
    "logic.instances_checked.formula", "logic.instances_checked.model",
    "spreads.stages_emitted", "pi_backends.digits_computed", "fleeing.positions_scanned",
    "derivation.steps_checked", "dyadic.relate_calls",
)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, job_time, jobs, needs, probes, scale):
    """Fold the spans of one traced run into the PER_LAYER metrics.

    Times and rates are taken to reference speed with `scale` (calib.py);
    job_time is the raw summed job latency the shares divide by.
    """
    spans = [s for s in tracer.spans if s[6] is not None]
    own = self_times(spans)
    by_id = {s[0]: s for s in spans}
    named = defaultdict(list)
    layer_self = defaultdict(float)
    for s in spans:
        named[s[3]].append(s)
        if s[4] != "bench":
            layer_self[s[4]] += own[s[0]]

    def total(name, key=None, inclusive=False):
        if key:
            return sum(s[7][key] for s in named[name] if s[7] and key in s[7])
        return sum((s[6] - s[5]) if inclusive else own[s[0]] for s in named[name])

    def where(prefix, pred=lambda s: True):
        return [s for name, group in named.items() if name.startswith(prefix)
                for s in group if pred(s)]

    m = {}
    chud = named["pi_backends.chudnovsky"]
    digits = total("pi_backends.chudnovsky", "n")
    m["pi_backends.chudnovsky_s"] = total("pi_backends.chudnovsky")
    m["pi_backends.chudnovsky_calls"] = len(chud)
    m["pi_backends.digits_computed"] = digits
    m["pi_backends.digits_per_s"] = _ratio(digits, m["pi_backends.chudnovsky_s"])
    m["pi_backends.spigot_s"] = total("pi_backends.spigot")
    m["fleeing.oracle_init_s"] = total("fleeing.oracle_init", inclusive=True)
    m["fleeing.digit_yield"] = _ratio(needs.get("digits_needed", 0), digits)
    m["fleeing.scan_s"] = total("fleeing.scan")
    m["fleeing.positions_scanned"] = total("fleeing.scan", "positions")
    m["fleeing.regrow_calls"] = sum(
        1 for s in chud if s[1] is None or by_id[s[1]][3] != "fleeing.oracle_init")
    emitted = total("spreads.emit", "n")
    m["spreads.prefix_calls"] = len(named["spreads.emit"])
    m["spreads.stages_emitted"] = emitted
    m["spreads.stage_reuse"] = _ratio(needs.get("stages_needed", 0), emitted)
    m["spreads.emit_s"] = total("spreads.emit")
    m["dyadic.relate_calls"] = tracer.counts["dyadic.relate_calls"]
    m["dyadic.intervals_built"] = tracer.counts["dyadic.intervals_built"]
    verdicts = where("reals.")
    m["reals.verdicts"] = len(verdicts)
    m["reals.verdict_s"] = sum(own[s[0]] for s in verdicts)
    m["reals.coincide_s"] = total("reals.coincide_refute")
    m["reals.decided_share"] = _ratio(sum(1 for s in verdicts if s[7] and s[7].get("decided")),
                                      len(verdicts))
    builds = where("drift.", lambda s: s[3] != "drift.validate")
    m["drift.points_built"] = sum(1 for s in builds if s[3].split(".")[1] in DRIFT_POINTS)
    m["drift.build_s"] = sum(own[s[0]] for s in builds)
    m["drift.validate_s"] = total("drift.validate", inclusive=True)
    for regime in ("formula", "model"):
        sweeps = [s for s in named["logic.sweep"] if s[7] and s[7].get("regime") == regime]
        t = sum(own[s[0]] for s in sweeps)
        models = sum(s[7]["models"] for s in sweeps)
        m[f"logic.sweep_s.{regime}"] = t
        m[f"logic.models_checked.{regime}"] = models
        m[f"logic.instances_checked.{regime}"] = sum(s[7]["instances"] for s in sweeps)
        m[f"logic.models_per_s.{regime}"] = _ratio(models, t)
    m["logic.forces_calls"] = len(named["logic.forces"])
    m["logic.eval_s"] = total("logic.forces")
    m["logic.parse_s"] = total("logic.parse")
    checks = named["derivation.check"]
    m["derivation.scripts_checked"] = len(checks)
    m["derivation.steps_checked"] = total("derivation.check", "steps")
    m["derivation.check_s"] = total("derivation.check")
    m["derivation.steps_per_s"] = _ratio(m["derivation.steps_checked"], m["derivation.check_s"])
    m["derivation.rejected_share"] = _ratio(total("derivation.check", "rejected"), len(checks))
    m.update(probes)
    for c in CLI_COMMANDS:
        runs = sorted(s[6] - s[5] for s in named["cli.cmd"] if s[7]["command"] == c)
        m[f"cli.cmd_ms.{c}"] = 1000 * runs[len(runs) // 2] if runs else 0.0
    for layer in LAYERS:
        m[f"{layer}.job_share"] = _ratio(layer_self[layer], job_time)
    m["bench.job_share"] = 1.0 - sum(m[f"{layer}.job_share"] for layer in LAYERS)
    m["trace.jobs_per_s"] = _ratio(jobs, job_time)
    m["trace.spans"] = len(spans)
    missing = set(PER_LAYER) ^ set(m)
    if missing:
        raise RuntimeError(f"per-layer metrics out of step with PER_LAYER: {sorted(missing)}")
    for name, value in m.items():
        unit = PER_LAYER[name][0]
        if unit in ("s", "ms"):
            m[name] = value * scale
        elif unit.endswith("/s"):
            m[name] = value / scale
    return m
