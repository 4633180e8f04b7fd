"""The standard-library Chudnovsky route against the independent routes."""

import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

from brouwer._pi_backends import (
    _EXACT,
    _LEAF_TERMS,
    _chud_split,
    _chud_split_dec,
    _inv_sqrt,
    chudnovsky_digits,
    machin_digits,
    spigot_digits,
)

ROOT = Path(__file__).resolve().parent.parent


def test_stdlib_route_matches_machin():
    n = 20_000
    assert chudnovsky_digits(n) == machin_digits(n)


def test_stdlib_route_matches_spigot_at_the_six_nines():
    # cuts at and inside the run of six nines at positions 762..767
    spigot = spigot_digits(800)
    for n in range(760, 769):
        assert chudnovsky_digits(n) == spigot[:n], n


@pytest.mark.parametrize("digits", [3, 17, 28, 29, 30, 100, 1031, 5000])
def test_inv_sqrt_error_bound(digits):
    # relative error e of y gives a*y*y = (1 + e)**2, so |a*y*y - 1| < 2.1*|e|
    y = _inv_sqrt(10005, digits)
    residual = abs(_EXACT.subtract(_EXACT.multiply(10005, _EXACT.multiply(y, y)), 1))
    assert residual < Decimal("2.1").scaleb(2 - digits)


@pytest.mark.parametrize("k", [1, 2, _LEAF_TERMS - 1, _LEAF_TERMS, _LEAF_TERMS + 1, 65, 300])
def test_decimal_split_matches_int_split(k):
    p, q, t = _chud_split(0, k)
    no_p, q_dec, t_dec = _chud_split_dec(0, k)
    assert no_p is None
    assert (int(q_dec), int(t_dec)) == (q, t)
    assert tuple(map(int, _chud_split_dec(0, k, True))) == (p, q, t)


def test_benchmark_script_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    script = ROOT / "benchmarks" / "pi_backends.py"
    run = subprocess.run(
        [sys.executable, str(script), "1000"], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
