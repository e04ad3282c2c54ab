"""Acceptance suite: every claim in ``validation.ALL_CHECKS`` at full size,
the wall-time bounds a check cannot state, and the determinism of
``nlqsim validate``."""

import subprocess
import sys
import time

import pytest

from nlqsim import validation

FULL = validation.Context()


@pytest.mark.parametrize("check", validation.ALL_CHECKS,
                         ids=lambda check: check.__name__[len("check_"):])
def test_claim_holds_at_full_size(check):
    result = check(FULL)
    print(f"[{'PASS' if result.ok else 'FAIL'}] {result.name}: {result.detail}")
    assert result.ok, f"{result.name}: {result.detail}"


def _timed(check):
    start = time.perf_counter()
    result = check(FULL)
    return result, time.perf_counter() - start


def test_criterion_01_closed_form_vs_ode():
    result, elapsed = _timed(validation.check_closed_form_vs_ode)
    assert result.ok and elapsed < 1.0, f"{result.detail} in {elapsed:.2f} s"


def test_criterion_08_search_complexity_grid():
    result, elapsed = _timed(validation.check_search_budget)
    assert result.ok and elapsed < 60.0, f"{result.detail} in {elapsed:.1f} s"


def test_criterion_12_validate_quick_deterministic():
    # two fresh processes, run side by side
    cmd = [sys.executable, "-m", "nlqsim.cli", "validate", "--quick"]
    procs = [subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
             for _ in range(2)]
    first, second = (proc.communicate(timeout=300)[0] for proc in procs)
    assert [proc.returncode for proc in procs] == [0, 0]
    assert first == second
    assert b"checks passed" in first
