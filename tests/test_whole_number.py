"""One check for every count and index, ``_ode.whole_number``.

The refusal table gives each guarded entry point a fractional value, a value
below its range and, where the range has a top, one above it; each is
refused with a message that names the value.  Whole floats are taken as the
integers they hold.  An ``ast`` scan of ``src/nlqsim`` keeps the rule in one
place: ``.is_integer`` appears only in ``whole_number`` and in the CLI's
``--atoms`` parser.
"""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

from nlqsim import _ode
from nlqsim import bounds as bn
from nlqsim import discrimination as dc
from nlqsim import meanfield as mf
from nlqsim import nonlinearity as nl
from nlqsim import optimizer as op
from nlqsim import search as sr
from nlqsim import validation as va

GP = nl.gross_pitaevskii(1.0)
KBAR = nl.reduce(GP)
PSI0 = np.full(4, 0.5, dtype=complex)
PSI, PHI = np.array([0.6, 0.8j]), np.array([1.0, 0.0])
SX = np.array([[0.0, 1.0], [1.0, 0.0]])


def _cases(entry, call, name, where, *values):
    return [pytest.param(call, name, where, v, id=f"{entry}-{name}-{v!r}") for v in values]


REFUSALS = [
    *_cases("SearchInstance", lambda v: sr.SearchInstance(v), "N", ">= 2", 2.5, 1),
    *_cases("SearchInstance", lambda v: sr.SearchInstance(64, marked=v), "marked",
            "in [1, 64]", 1.5, 0, 65),
    *_cases("oracle_overlap", lambda v: sr.oracle_overlap(v, 1.0, True), "N", ">= 2", 2.5, 1),
    *_cases("hadamard_test_bruteforce", lambda v: sr.hadamard_test_bruteforce(v, 1.0, True),
            "N", ">= 2", 2.5, 1),
    # m = 0 marked item 8, the last, through index -1
    *_cases("hadamard_test_bruteforce", lambda v: sr.hadamard_test_bruteforce(8, 1.0, True, m=v),
            "m", "in [1, 8]", 1.5, 0, 9),
    *_cases("default_t1", lambda v: sr.default_t1(v, 1.0), "N", ">= 2", 2.5, 1),
    # 2.5 gave 0.9163, 0 gave 0.0, nan gave nan and -4 a math domain error
    *_cases("complexity_budget", lambda v: sr.complexity_budget(v, 1.0), "N", ">= 2", 2.5, 0,
            float("nan"), -4),
    *_cases("search_schedule", lambda v: sr.search_schedule(v, 1.0, 1.0), "N", ">= 2", 2.5, 1),
    *_cases("lower_bound_audit", lambda v: sr.lower_bound_audit(GP, None, v, 1.0), "N", ">= 2",
            2.5, 1),
    *_cases("lower_bound_audit", lambda v: sr.lower_bound_audit(GP, None, 8, 1.0, samples=v),
            "samples", ">= 2", 2.5, 1),
    # oracle = 1.5 ran with no oracle at all
    *_cases("integrate_nlse", lambda v: sr.integrate_nlse(GP, None, v, PSI0, 1.0), "oracle",
            "in [1, 4]", 1.5, 0, 5),
    *_cases("certify_growth", lambda v: bn.certify_growth(KBAR, 0.0, 0.5, grid=v), "grid",
            ">= 2", 2.5, 1),
    *_cases("estimate_lipschitz", lambda v: bn.estimate_lipschitz(KBAR, grid=v), "grid", ">= 2",
            2.5, 1),
    # 2.5 raised TypeError, 0 gave two empty columns and -5 numpy's "Number
    # of samples, -3, must be non-negative."
    *_cases("fig_rate_comparison", lambda v: dc.fig_rate_comparison(v), "samples", ">= 1", 2.5,
            0, -5),
    *_cases("CondensateParams", lambda v: mf.CondensateParams(v, 1e-3), "n_atoms", ">= 2",
            2.5, 1),
    *_cases("meanfield_overlap", lambda v: mf.meanfield_overlap(0.5, v), "n_atoms", ">= 1",
            1.5, 0),
    *_cases("bosonic_overlap_bruteforce", lambda v: mf.bosonic_overlap_bruteforce(PSI, PHI, v),
            "n_atoms", ">= 1", 2.5, 0),
    *_cases("optimize_orientation", lambda v: op.optimize_orientation(GP, 0.5, v), "dim", ">= 2",
            2.5, 1),
    *_cases("optimize_orientation", lambda v: op.optimize_orientation(GP, 0.5, 3, restarts=v),
            "restarts", ">= 1", 1.5, 0),
    *_cases("optimize_orientation", lambda v: op.optimize_orientation(GP, 0.5, 3, max_sweeps=v),
            "max_sweeps", ">= 1", 1.5, 0),
    *_cases("orientation_chain", lambda v: op.orientation_chain(GP, 0.5, v), "dim", "in [2, 8]",
            2.5, 1, 9),
    # a seed reached numpy as given (-3: "expected non-negative integer"), or
    # as seed + d in a chain, where -2 and -3 ran
    *_cases("run_search", lambda v: sr.run_search(sr.SearchInstance(16), GP, seed=v), "seed",
            ">= 0", 1.5, -1),
    *_cases("optimize_orientation", lambda v: op.optimize_orientation(GP, 0.5, 3, seed=v),
            "seed", ">= 0", 1.5, -1),
    *_cases("orientation_chain", lambda v: op.orientation_chain(GP, 0.5, 3, seed=v), "seed",
            ">= 0", 1.5, -3),
    *_cases("validation.Context", lambda v: va.Context(seed=v), "seed", ">= 0", 1.5, -3),
    # 0.5 raised operator.index's TypeError; -1 was refused later, by the
    # integrator, as outside [0, N)
    *_cases("Schedule", lambda v: _ode.Schedule((v, 1), SX), "support coordinate", ">= 0", 0.5,
            -1),
]


@pytest.mark.parametrize("call, name, where, value", REFUSALS)
def test_a_count_or_index_out_of_range_or_not_whole_is_refused_by_name(call, name, where,
                                                                       value):
    message = f"{name} must be a whole number {where}, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


# Each entry point at whole floats, as a result to compare with its int run.
WHOLE_FLOATS = {
    "SearchInstance": lambda k: sr.run_search(sr.SearchInstance(k(64), k(3)), GP).total_time,
    "default_t1": lambda k: sr.default_t1(k(64), 1.0),
    "complexity_budget": lambda k: sr.complexity_budget(k(64), 1.0),
    # 1.0 raised TypeError
    "fig_rate_comparison": lambda k: dc.fig_rate_comparison(k(1)),
    "hadamard_test_bruteforce": lambda k: sr.hadamard_test_bruteforce(
        k(8), 1.0, True, m=k(3)).postselected_qubit,
    "integrate_nlse": lambda k: sr.integrate_nlse(GP, None, k(3), PSI0, 1.0).states,
    # (0.0, 1.0) raised operator.index's TypeError
    "Schedule": lambda k: sr.integrate_nlse(GP, _ode.Schedule((k(0), k(1)), SX), None, PSI0,
                                            1.0).states,
    "lower_bound_audit": lambda k: sr.lower_bound_audit(
        GP, sr.search_schedule(k(64), 1.0, 1.0), k(64), 2.0, samples=k(3)).S,
    "certify_growth": lambda k: bn.certify_growth(KBAR, 0.0, 0.5, grid=k(3)).g_local,
    "estimate_lipschitz": lambda k: bn.estimate_lipschitz(KBAR, grid=k(3)).g_lip,
    "CondensateParams": lambda k: mf.gp_validity_time(mf.CondensateParams(k(64), 1e-3)),
    "meanfield_overlap": lambda k: mf.meanfield_overlap(0.5 + 0.5j, k(3)),
    "bosonic_overlap_bruteforce": lambda k: mf.bosonic_overlap_bruteforce(PSI, PHI, k(3)),
    "orientation_chain": lambda k: [r.best_rate for r in op.orientation_chain(
        GP, 0.5, k(3), restarts=k(2), seed=k(1))],
    "run_search": lambda k: sr.run_search(sr.SearchInstance(16, 3), GP, seed=k(5)).decision.value,
    "optimize_orientation": lambda k: op.optimize_orientation(
        GP, 0.5, 3, restarts=2, seed=k(4)).best_rate,
    "validation.Context": lambda k: va.check_kbar_odd(va.Context(quick=True, seed=k(2))).detail,
    # these kept the float they were given, and so printed 64.0
    "SearchInstance.N": lambda k: repr(sr.SearchInstance(k(64), k(3))),
    "run_search.N": lambda k: repr(sr.run_search(sr.SearchInstance(k(64)), GP).N),
    "lower_bound_audit.N": lambda k: repr(sr.lower_bound_audit(GP, None, k(64), 1.0).N),
    "CondensateParams.n_atoms": lambda k: repr(mf.CondensateParams(k(1000), 1e-3)),
}


@pytest.mark.parametrize("entry", sorted(WHOLE_FLOATS))
def test_a_whole_float_count_or_index_is_taken_as_its_integer(entry):
    assert np.array_equal(WHOLE_FLOATS[entry](float), WHOLE_FLOATS[entry](int))


SRC = Path(__file__).resolve().parents[1] / "src" / "nlqsim"
ALLOWED = {"_ode.whole_number", "cli.atom_count"}


def _is_integer_sites(stem, tree):
    """The innermost function, as ``module.function``, of each ``.is_integer``
    in ``tree`` (the module name alone outside any function)."""
    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr == "is_integer":
                found.add(where)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, f"{stem}.{child.name}" if inner else where)

    visit(tree, stem)
    return found


def test_only_whole_number_and_the_atom_parser_test_for_whole_numbers():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= _is_integer_sites(path.stem, ast.parse(path.read_text(), str(path)))
    assert "_ode.whole_number" in found  # the scan reads the source
    assert found <= ALLOWED, f"count checks outside whole_number: {sorted(found - ALLOWED)}"
