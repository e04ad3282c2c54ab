"""Refusals that name what they refused, and closed forms held to their range.

Each message is matched in full, so a refusal that drops the value it was
given fails here.  Counts and indices have their own table in
``test_whole_number.py``.
"""

import math
import re

import numpy as np
import pytest

from nlqsim import blochdyn as bd
from nlqsim import bounds as bn
from nlqsim import meanfield as mf
from nlqsim import nonlinearity as nl
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
