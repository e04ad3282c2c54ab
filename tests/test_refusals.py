"""Refusals that name what they refused, and closed forms held to their range.

Each message is matched in full, so a refusal that drops the value it was
given fails here.  Counts and indices have their own table in
``test_whole_number.py``.  Every real range goes through
``_ode.real_number``: its table gives each range NaN, both infinities and
the nearest value outside each finite end (None and a string too where the
range was once written by hand), and an ``ast`` scan keeps hand-written
range refusals out of every module.  Sample times have one rule,
``_ode.sample_times``, and the amplitude flow's duration one, in
``_ode.solve_in_frame``.
"""

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

from nlqsim import _ode
from nlqsim import blochdyn as bd
from nlqsim import bounds as bn
from nlqsim import discrimination as dc
from nlqsim import meanfield as mf
from nlqsim import nonlinearity as nl
from nlqsim import optimizer as op
from nlqsim import search as sr

GP = nl.gross_pitaevskii(1.0)
KBAR = nl.reduce(GP)
CERT = bn.certify_growth(KBAR, 0.0, 0.4)
PHI = np.array([1.0, 0.0])

# Each said only what it wanted, not what it got.
NAMED = [
    pytest.param(lambda: bn.growth_trace(KBAR, CERT, 0.05, 1e-3),
                 "need 0 < alpha0 < alpha_stop <= pi, got alpha0=0.05 and alpha_stop=0.001",
                 id="growth_trace"),
    pytest.param(lambda: mf.meanfield_overlap(1.5, 3), "|inner| must be <= 1, got 1.5",
                 id="meanfield_overlap"),
    pytest.param(lambda: mf.bosonic_overlap_bruteforce(np.full(3, 0.6), PHI, 2),
                 "two-mode states required, got shapes (3,) and (2,)",
                 id="bosonic_overlap_bruteforce"),
    pytest.param(lambda: sr.integrate_nlse(GP, None, None, np.eye(2), 1.0),
                 "psi0 must be a vector, got shape (2, 2)", id="integrate_nlse"),
    pytest.param(lambda: bd.integrate(KBAR, None, [0.0, 0.0, 1.0, 0.0], 1.0),
                 "initial must be one or two Bloch 3-vectors, got shape (4,)",
                 id="blochdyn.integrate"),
    pytest.param(lambda: _ode.Schedule((0, 1), [[0, 1], [0.5, 0]]),
                 "generator must be finite and Hermitian to 1e-12, got [[0, 1], [0.5, 0]]",
                 id="Schedule"),
    pytest.param(lambda: nl.piecewise_from_table([0.0, 1.0], [0.0]),
                 "custom table needs matching 1-d x and y of at least 2 samples, "
                 "got shapes (2,) and (1,)", id="piecewise_from_table-shapes"),
    pytest.param(lambda: nl.piecewise_from_table([0.0, 0.5, 0.5, 1.0], [0.0] * 4),
                 "custom table grid must be strictly increasing, got x[1:3] = [0.5, 0.5]",
                 id="piecewise_from_table-grid"),
    pytest.param(lambda: nl.piecewise_from_table([0.0, math.nan, 1.0], [0.0] * 3),
                 "custom table grid must be strictly increasing, got x[0:2] = [0.0, nan]",
                 id="piecewise_from_table-nan"),
    pytest.param(lambda: nl.piecewise_from_table([0.1, 0.9], [0.0, 1.0]),
                 "custom table must cover [0, 1], got [0.1, 0.9]", id="piecewise_from_table-cover"),
    *[pytest.param(lambda spec=spec: nl.parse(spec),
                   f"nonlinearity spec must be kind[:g] or custom:<path>[:g], got {spec!r}",
                   id=f"parse-{spec}")
      for spec in ("custom", "custom:", "gp:1:junk", "custom:kappa.csv:1:2")],
    pytest.param(lambda: nl.parse("sqrt:"),
                 "nonlinearity strength in 'sqrt:' must be a number, got ''", id="parse-sqrt:"),
    # kappa raised "'NoneType' object is not callable" from the custom branch
    pytest.param(lambda: nl.Nonlinearity("gp", 1.0), "nonlinearity kind must be a Kind, got 'gp'",
                 id="Nonlinearity-kind"),
    # calling the result raised "'ReducedNonlinearity' object has no attribute 'kind'"
    pytest.param(lambda: nl.reduce(KBAR), "reduce needs a Nonlinearity, got ReducedNonlinearity",
                 id="reduce"),
]


@pytest.mark.parametrize("call, message", NAMED)
def test_a_refusal_names_the_value_it_refused(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# The circuit took t1 = nan (success_prob nan, with a RuntimeWarning), inf and
# -1, which hadamard_test refuses; meanfield_overlap(nan) gave nan+nanj; and
# helstrom_success gave 0.5 for an overlap of 2 or nan.
OUT_OF_RANGE = [
    *[pytest.param(lambda v: sr.hadamard_test_bruteforce(8, v, True),
                   "t1 must be finite and >= 0", v, id=f"hadamard_test_bruteforce-{v!r}")
      for v in (math.nan, math.inf, -1.0)],
    pytest.param(lambda v: mf.meanfield_overlap(v, 3), "|inner| must be <= 1", math.nan,
                 id="meanfield_overlap-nan"),
    *[pytest.param(sr.helstrom_success, "overlap must be in [0, 1]", v,
                   id=f"helstrom_success-{v!r}")
      for v in (2.0, math.nan, -0.1)],
]


@pytest.mark.parametrize("call, wanted, value", OUT_OF_RANGE)
def test_a_value_outside_the_closed_forms_range_is_refused_by_name(call, wanted, value):
    with pytest.raises(ValueError, match=f"^{re.escape(f'{wanted}, got {value!r}')}$"):
        call(value)


def test_the_ends_of_the_closed_forms_range_are_kept():
    assert sr.helstrom_success(0.0) == 1.0 and sr.helstrom_success(1.0) == 0.5
    a, b = sr.hadamard_test(8, 0.0, True), sr.hadamard_test_bruteforce(8, 0.0, True)
    assert a.success_prob == pytest.approx(b.success_prob, abs=1e-15)


def _outside(lo, hi, ends):
    """NaN, both infinities unless the range holds them, and the nearest
    float outside each finite end (the end itself where it is left out)."""
    values = [math.nan, -math.inf] + ([] if hi == math.inf and ends[1] == "]" else [math.inf])
    if lo > -math.inf:
        values.append(float(np.nextafter(lo, -math.inf)) if ends[0] == "[" else lo)
    if hi < math.inf:
        values.append(float(np.nextafter(hi, math.inf)) if ends[1] == "]" else hi)
    return values


def _range(entry, call, name, text, lo, hi, ends, values=()):
    return [pytest.param(call, f"{name} must be {text}", v, id=f"{entry}-{name}-{v!r}")
            for v in (*values, *_outside(lo, hi, ends))]


# Not real numbers.  Where ``_ode``, ``nonlinearity`` and ``blochdyn`` wrote
# their ranges by hand, most raised numpy's or the interpreter's TypeError;
# ``blochdyn.integrate`` ran with the duration "1" as 1.0.
NOT_REAL = (None, "1")


INF, PI = math.inf, math.pi
C0 = math.cos(0.25)  # the overlap at alpha0 = 0.5
TARGET = f"in [0, cos(alpha0/2)) = [0, {C0!r})"
FLOOR = dc.QUAD_RTOL_FLOOR
SX = np.array([[0.0, 1.0], [1.0, 0.0]])
PSI0 = np.full(4, 0.5, dtype=complex)
TOL = "a finite number > 0"
RANGES = [
    *_range("epsilon_to_alpha0", dc.epsilon_to_alpha0, "epsilon", "in [0, 1]", 0.0, 1.0, "[]"),
    *_range("gp_overlap_closed_form", lambda v: dc.gp_overlap_closed_form(v, 0.5, 1.0), "g",
            "finite and > 0", 0.0, INF, "()"),
    *_range("gp_overlap_closed_form", lambda v: dc.gp_overlap_closed_form(1.0, v, 1.0),
            "alpha0", "in (0, pi]", 0.0, PI + 1e-12, "(]"),
    *_range("gp_time_to_overlap", lambda v: dc.gp_time_to_overlap(v, 0.5, 0.0), "g",
            "finite and > 0", 0.0, INF, "()"),
    *_range("gp_time_to_overlap", lambda v: dc.gp_time_to_overlap(1.0, 0.5, v), "target overlap",
            TARGET, 0.0, C0, "[)"),
    *_range("log_overlap_rate", lambda v: dc.log_overlap_rate(v, 0.5), "g", "finite", -INF, INF,
            "()"),
    *_range("gp_overlap_rate", lambda v: dc.gp_overlap_rate(v, 0.5), "g", "finite", -INF, INF,
            "()"),
    *_range("separation_trace", lambda v: dc.separation_trace(GP, v, target_overlap=0.0),
            "alpha0", "in (0, pi]", 0.0, PI + 1e-12, "(]"),
    *_range("separation_trace", lambda v: dc.separation_trace(GP, 0.5, duration=v), "duration",
            "finite and >= 0", 0.0, INF, "[)"),
    *_range("separation_trace", lambda v: dc.separation_trace(GP, 0.5, target_overlap=v),
            "target overlap", TARGET, 0.0, C0, "[)"),
    *_range("separation_trace", lambda v: dc.separation_trace(GP, 0.5, target_overlap=0.0, rtol=v),
            "rtol", f"a finite number >= {FLOOR:.3g} (the floor of the quadrature)", FLOOR, INF,
            "[)"),
    *_range("oracle_overlap", lambda v: sr.oracle_overlap(8, v, True), "t1", "finite and >= 0",
            0.0, INF, "[)"),
    *_range("hadamard_test_bruteforce", lambda v: sr.hadamard_test_bruteforce(8, v, True), "t1",
            "finite and >= 0", 0.0, INF, "[)"),
    *_range("helstrom_success", sr.helstrom_success, "overlap", "in [0, 1]", 0.0, 1.0, "[]"),
    *_range("default_t1", lambda v: sr.default_t1(8, v), "g",
            "finite and > 0 to pick t1 automatically", 0.0, INF, "()"),
    *_range("complexity_budget", lambda v: sr.complexity_budget(8, v), "g", "finite", -INF, INF,
            "()"),
    *_range("run_search", lambda v: sr.run_search(sr.SearchInstance(8, 1), GP, t1=v), "t1",
            "finite and > 0", 0.0, INF, "()"),
    *_range("search_schedule", lambda v: sr.search_schedule(8, 1.0, v), "t1", "finite and > 0",
            0.0, INF, "()"),
    *_range("search_schedule", lambda v: sr.search_schedule(8, v, 1.0), "g", "finite and >= 0",
            0.0, INF, "[)"),
    *_range("lower_bound_audit", lambda v: sr.lower_bound_audit(GP, None, 8, v), "duration",
            "finite and > 0", 0.0, INF, "()"),
    *_range("LipschitzEstimate", bn.LipschitzEstimate, "Lipschitz constant", ">= 0", 0.0, INF,
            "[]"),
    *_range("certify_growth", lambda v: bn.certify_growth(KBAR, v, 0.5), "z0", "in [0, 1)", 0.0,
            1.0, "[)"),
    *_range("certify_growth", lambda v: bn.certify_growth(KBAR, 0.0, v), "Delta", "> 0", 0.0, INF,
            "(]"),
    *_range("check_lipschitz_separation_bound",
            lambda v: bn.check_lipschitz_separation_bound(GP, 1e-3, v), "duration",
            "finite and >= 0", 0.0, INF, "[)"),
    *_range("check_lipschitz_separation_bound",
            lambda v: bn.check_lipschitz_separation_bound(GP, 1e-3, 1.0, g_lip=v), "g_lip",
            "finite and >= 0", 0.0, INF, "[)"),
    *_range("canonical_pair", op.canonical_pair, "alpha", "in [0, pi]", 0.0, PI, "[]"),
    *_range("optimize_orientation", lambda v: op.optimize_orientation(GP, v, 2), "alpha",
            "in (0, pi) for orientation search", 0.0, PI, "()"),
    *_range("CondensateParams", lambda v: mf.CondensateParams(1000, v), "U", "finite and > 0",
            0.0, INF, "()"),
    *_range("gross_pitaevskii", nl.gross_pitaevskii, "nonlinearity strength", "finite and >= 0",
            0.0, INF, "[)", NOT_REAL),
    *_range("Schedule", lambda v: _ode.Schedule((0, 1), SX, 1.0, t_on=v), "t_on",
            "finite and >= 0", 0.0, INF, "[)", NOT_REAL),
    *_range("Schedule", lambda v: _ode.Schedule((0, 1), SX, v), "omega",
            "a finite real number or a callable", -INF, INF, "()", NOT_REAL),
    *_range("PairOrientation", lambda v: bd.PairOrientation(v, 0.5, 0.5), "alpha", "in [0, pi]",
            0.0, PI + 1e-12, "[]", NOT_REAL),
    *_range("PairOrientation", lambda v: bd.PairOrientation(0.5, v, 0.5), "phi", "in [0, pi]",
            0.0, PI + 1e-12, "[]", NOT_REAL),
    *_range("PairOrientation", lambda v: bd.PairOrientation(0.5, 0.5, v), "theta", "finite",
            -INF, INF, "()", NOT_REAL),
    *_range("solve", lambda v: _ode.solve(None, v, 1.0, PSI0), "t0", "finite", -INF, INF, "()",
            NOT_REAL),
    *_range("solve", lambda v: _ode.solve(None, 0.0, v, PSI0), "t1", "finite", -INF, INF, "()",
            NOT_REAL),
    *_range("integrate_nlse", lambda v: sr.integrate_nlse(GP, None, None, PSI0, 1.0, rtol=v),
            "rtol", TOL, 0.0, INF, "()", NOT_REAL),
    *_range("integrate_nlse", lambda v: sr.integrate_nlse(GP, None, None, PSI0, 1.0, atol=v),
            "atol", TOL, 0.0, INF, "()", NOT_REAL),
    *_range("blochdyn.integrate", lambda v: bd.integrate(KBAR, None, [0.0, 0.0, 1.0], 1.0, rtol=v),
            "rtol", TOL, 0.0, INF, "()", NOT_REAL),
    *_range("blochdyn.integrate", lambda v: bd.integrate(KBAR, None, [0.0, 0.0, 1.0], 1.0, atol=v),
            "atol", TOL, 0.0, INF, "()", NOT_REAL),
]


@pytest.mark.parametrize("call, wanted, value", RANGES)
def test_a_real_input_outside_its_range_is_refused_by_the_one_check(call, wanted, value):
    with pytest.raises(ValueError, match=f"^{re.escape(f'{wanted}, got {value!r}')}$") as err:
        call(value)
    assert err.traceback[-1].name == "real_number"


def test_an_infinite_end_that_the_range_holds_is_kept():
    assert bn.LipschitzEstimate(math.inf).g_lip == math.inf
    with pytest.warns(UserWarning, match="clipped"):  # to [-1, 1], as Delta = 1 is
        assert bn.certify_growth(KBAR, 0.0, math.inf) == bn.certify_growth(KBAR, 0.0, 1.0)


# One row per malformed t_eval; the run lasts 1, so every sample in [0, 1] is
# inside it.
T_EVALS = {"2-d": [[0.5]], "non-increasing": [0.5, 0.5], "nan": [0.0, math.nan],
           "inf": [0.0, math.inf], "negative": [-0.5, 0.5]}
SAMPLED = {
    "separation_trace": (lambda t: dc.separation_trace(GP, 0.5, duration=1.0, t_eval=t),
                         ">= 0"),
    "integrate_nlse": (lambda t: sr.integrate_nlse(GP, None, None, PSI0, 1.0, t_eval=t),
                       "in [0.0, 1.0]"),
    "blochdyn.integrate": (lambda t: bd.integrate(KBAR, None, [0.0, 0.0, 1.0], 1.0, t_eval=t),
                           "in [0.0, 1.0]"),
}


@pytest.mark.parametrize("entry", sorted(SAMPLED))
@pytest.mark.parametrize("kind", sorted(T_EVALS))
def test_a_malformed_t_eval_is_refused_by_the_one_sample_time_rule(entry, kind):
    call, where = SAMPLED[entry]
    t_eval = T_EVALS[kind]
    message = (f"t_eval must be a 1-d array of finite, strictly increasing times {where}, "
               f"got {t_eval!r}")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as err:
        call(t_eval)
    assert err.traceback[-1].name == "sample_times"


DURATIONS = {
    "integrate_nlse": lambda d: sr.integrate_nlse(GP, None, None, PSI0, d),
    "blochdyn.integrate": lambda d: bd.integrate(KBAR, None, [0.0, 0.0, 1.0], d),
}


@pytest.mark.parametrize("entry", sorted(DURATIONS))
@pytest.mark.parametrize("duration", [*NOT_REAL, *_outside(0.0, math.inf, "[)")])
def test_a_duration_of_the_amplitude_flow_is_refused_by_its_one_rule(entry, duration):
    message = f"duration, the end time t1, must be finite and >= 0, got {duration!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as err:
        DURATIONS[entry](duration)
    assert [frame.name for frame in err.traceback[-2:]] == ["solve_in_frame", "real_number"]


SRC = Path(__file__).resolve().parents[1] / "src" / "nlqsim"
HAND_WRITTEN = re.compile(r"must be (finite|in )")
# The one allowed site: "generator must be finite and Hermitian" is a rule on
# a matrix, not a real range.
ARRAY_RULE = "_ode.Schedule.__post_init__"


def _range_refusals(stem, tree):
    """The innermost function, as ``module.Class.function``, of each ``raise
    ValueError(...)`` in ``tree`` whose message says "must be finite" or
    "must be in"."""
    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Raise) and isinstance(child.exc, ast.Call)
                    and getattr(child.exc.func, "id", None) == "ValueError"
                    and HAND_WRITTEN.search(ast.unparse(child.exc))):
                found.add(where)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, f"{where}.{child.name}" if inner else where)

    visit(tree, stem)
    return found


def test_only_the_one_check_writes_a_range_refusal_in_any_module():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= _range_refusals(path.stem, ast.parse(path.read_text(), str(path)))
    # the array rule is found, so the scan reads the source
    assert found == {ARRAY_RULE}, f"range refusals outside real_number: {sorted(found)}"
