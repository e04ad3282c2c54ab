import math

import numpy as np
import pytest

from nlqsim import meanfield as mf
from nlqsim.discrimination import epsilon_to_alpha0, gp_t_perp


def test_overlap_identity_trivial_cases():
    assert mf.meanfield_overlap(1.0, 50) == 1.0
    assert mf.meanfield_overlap(-0.5, 4) == pytest.approx(0.0625)
    assert mf.meanfield_overlap(-0.5, 4).real > 0  # even power of a negative


def test_overlap_frozen_value():
    # 0.99^100 at 40-digit precision
    assert mf.meanfield_overlap(0.99, 100) == pytest.approx(
        0.36603234127322950, abs=1e-15)


def test_overlap_matches_bosonic_expansion():
    rng = np.random.default_rng(31)
    for n_atoms in (1, 2, 3, 4):
        for _ in range(10):
            v = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            brute = mf.bosonic_overlap_bruteforce(v[0], v[1], n_atoms)
            closed = mf.meanfield_overlap(np.vdot(v[0], v[1]), n_atoms)
            assert abs(brute - closed) <= 1e-10


def test_overlap_rejects_bad_inner():
    with pytest.raises(ValueError):
        mf.meanfield_overlap(1.5, 3)


def test_condensate_params_homogeneous_ties_g():
    p = mf.CondensateParams(1000, U=0.002)
    assert p.g == pytest.approx(2.0)
    for U in (0.0, -1.0, math.nan, math.inf):
        # U = inf gave g = inf and a validity time of 0.0
        with pytest.raises(ValueError, match=f"U must be finite and > 0, got {U!r}"):
            mf.CondensateParams(1000, U=U)


@pytest.mark.parametrize("n_atoms", [2.5, 1, math.inf, math.nan])
def test_condensate_params_refuse_an_atom_count_that_is_not_a_whole_number_above_one(n_atoms):
    # 2.5 atoms gave g = 2.5 U
    with pytest.raises(ValueError, match=f"n_atoms must be a whole number >= 2, got {n_atoms!r}"):
        mf.CondensateParams(n_atoms, U=1e-3)


def test_validity_time_two_atoms():
    p = mf.CondensateParams(2, U=0.5)  # g = 1
    assert mf.gp_validity_time(p) == pytest.approx(math.log(3.0), abs=1e-12)


def test_validity_time_scales_inversely_with_g():
    a = mf.CondensateParams(100, U=0.01)  # g = 1
    b = mf.CondensateParams(100, U=0.02)  # g = 2
    assert mf.gp_validity_time(b) == pytest.approx(mf.gp_validity_time(a) / 2,
                                                   rel=1e-14)


def test_validity_time_consistent_with_orthogonality_time():
    for n_atoms in (10, 1000, 10 ** 5):
        p = mf.CondensateParams(n_atoms, U=1.0 / n_atoms)  # g = 1
        # the exact angle: 2 acos(1 - 1/n) is 4.6e-12 off in t at n = 1e5
        alpha0 = epsilon_to_alpha0(1.0 / n_atoms)
        assert abs(mf.gp_validity_time(p) - gp_t_perp(p.g, alpha0)) <= 1e-12


def test_validity_scaling_constant_converges():
    consts = [mf.validity_scaling_constant(mf.CondensateParams(n, U=0.001))
              for n in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6)]
    spread = (max(consts) - min(consts)) / min(consts)
    assert spread < 0.10


def test_validity_time_with_constant_advantage_target():
    p = mf.CondensateParams(1000, U=0.001)
    full = mf.gp_validity_time(p)
    partial = mf.gp_validity_time(p, target_overlap=1 / math.sqrt(2))
    assert 0 < partial < full
    # the two differ by the constant (2/g) atanh(1/sqrt(2))
    assert full - partial == pytest.approx(
        2.0 * math.atanh(1 / math.sqrt(2)) / p.g, rel=1e-12)


@pytest.mark.parametrize("n_atoms", [10 ** 3, 10 ** 9, 10 ** 12, 10 ** 16, 10 ** 17, 10 ** 20])
def test_validity_time_keeps_its_digits_at_large_atom_counts(n_atoms):
    # 2 acos(1 - 1/n) cancels its digits here and fails from n = 1e17
    mpmath = pytest.importorskip("mpmath")
    p = mf.CondensateParams(n_atoms, U=1e-3)
    with mpmath.workdps(50):
        a0 = 4 * mpmath.asin(mpmath.sqrt(1 / mpmath.mpf(2 * n_atoms)))
        want = float(2 / mpmath.mpf(p.g) * mpmath.log(mpmath.cot(a0 / 4)))
    assert mf.gp_validity_time(p) == pytest.approx(want, rel=1e-14)
