import dataclasses
import math
import re

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize

from nlqsim import blochdyn as bd
from nlqsim import discrimination as dc
from nlqsim import nonlinearity as nl
from nlqsim import search as sr

SQRT_HALF = math.sqrt(0.5)


def test_closed_form_initial_condition():
    for a0 in (0.05, 0.4, 2.0):
        assert dc.gp_overlap_closed_form(1.0, a0, 0.0) == pytest.approx(
            math.cos(a0 / 2), abs=1e-15)


def test_closed_form_zero_at_t_perp():
    for g, a0 in ((1.0, 0.1), (2.0, 1.3), (0.5, 2.9)):
        t_perp = dc.gp_t_perp(g, a0)
        assert dc.gp_overlap_closed_form(g, a0, t_perp) == pytest.approx(0.0, abs=1e-12)


def test_closed_form_value_frozen():
    # g=1, alpha0=0.1, t=4, evaluated at 40-digit precision; the double
    # evaluation loses ~30 ulp to cancellation in the denominator
    assert dc.gp_overlap_closed_form(1.0, 0.1, 4.0) == pytest.approx(
        0.93397773824776253, abs=5e-14)


@pytest.mark.parametrize("alpha0, t", [(1e-9, 40.22), (1e-6, 26.40), (1e-12, 50.0),
                                       (0.1, 4.0)])
def test_closed_form_keeps_its_digits_at_tiny_angles(alpha0, t):
    # cos(alpha0/2) rounds to 1 below alpha0 ~ 2e-8, so the overlap must be
    # formed from u0 = ln cot(alpha0/4), not from c0
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        want = float(mpmath.tanh(mpmath.log(mpmath.cot(mpmath.mpf(alpha0) / 4))
                                 - mpmath.mpf(t) / 2))
    assert dc.gp_overlap_closed_form(1.0, alpha0, t) == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("g", [0.0, -1.0, float("nan")])
def test_gp_time_to_overlap_refuses_a_strength_that_is_not_positive(g):
    with pytest.raises(ValueError, match="g must be finite and > 0"):
        dc.gp_time_to_overlap(g, 0.5, 0.0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("g, alpha0, message", [
    (NAN, 0.1, "g must be finite and > 0, got nan"),  # returned nan
    (INF, 0.1, "g must be finite and > 0, got inf"),
    (0.0, 0.1, "g must be finite and > 0, got 0.0"),
    (1.0, NAN, "alpha0 must be in (0, pi], got nan"),
    (1.0, 0.0, "alpha0 must be in (0, pi], got 0.0"),
])
def test_gp_overlap_closed_form_refuses_non_finite_input(g, alpha0, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        dc.gp_overlap_closed_form(g, alpha0, 1.0)


@pytest.mark.parametrize("g, alpha0, message", [
    (1.0, 0.0, "alpha0 must be in (0, pi], got 0.0"),  # ZeroDivisionError
    (1.0, NAN, "alpha0 must be in (0, pi], got nan"),
    (1.0, -0.1, "alpha0 must be in (0, pi], got -0.1"),
    (INF, 0.5, "g must be finite and > 0, got inf"),
])
def test_gp_time_to_overlap_refuses_non_finite_input(g, alpha0, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        dc.gp_time_to_overlap(g, alpha0, 0.0)


@pytest.mark.parametrize("g, alpha0, message", [
    (1.0, NAN, "alpha0 must be in (0, pi], got nan"),  # blamed the target overlap
    (1.0, -0.1, "alpha0 must be in (0, pi], got -0.1"),
    (1.0, 4.0, "alpha0 must be in (0, pi], got 4.0"),
    (NAN, 0.5, "g must be finite and > 0, got nan"),
    (INF, 0.0, "g must be finite and > 0, got inf"),
    (0.0, 0.0, "g must be finite and > 0, got 0.0"),
])
def test_gp_t_perp_refuses_non_finite_input(g, alpha0, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        dc.gp_t_perp(g, alpha0)


def test_closed_form_vs_ode_trace():
    rng = np.random.default_rng(2)
    for _ in range(20):
        g = float(rng.uniform(0.3, 3.0))
        a0 = float(rng.uniform(0.02, 3.0))
        res = dc.separation_trace(nl.gross_pitaevskii(g), a0,
                                  duration=0.98 * dc.gp_t_perp(g, a0))
        ref = dc.gp_overlap_closed_form(g, a0, res.times)
        assert np.max(np.abs(res.overlaps - ref)) <= 1e-8


def test_t_perp_value_and_identity():
    # 2 ln cot(0.025) at high precision
    assert dc.gp_t_perp(1.0, 0.1) == pytest.approx(7.3773421807866365, abs=1e-12)
    assert dc.gp_t_perp(1.0, math.pi) == pytest.approx(0.0, abs=1e-15)
    for a0 in (0.01, 0.1, 1.0, math.pi / 2, 3.0):
        lhs = dc.gp_t_perp(1.0, a0)
        rhs = 2.0 * math.atanh(math.cos(a0 / 2))
        assert abs(lhs - rhs) <= 1e-12


def test_t_perp_scales_inversely_with_g():
    assert dc.gp_t_perp(2.0, 0.3) == pytest.approx(dc.gp_t_perp(1.0, 0.3) / 2,
                                                   rel=1e-14)


def test_t_perp_infinite_at_zero_angle():
    assert dc.gp_t_perp(1.0, 0.0) == math.inf


def test_control_omega_endpoints():
    kbar = nl.reduce(nl.gross_pitaevskii(2.0))
    omega = [dc.control_omega(kbar, math.cos(a / 2), math.sin(a / 2)) for a in (0.0, math.pi)]
    assert omega[0] == pytest.approx(1.0)
    assert omega[1] == pytest.approx(0.0, abs=1e-16)


def test_control_omega_general_reduces_to_quadratic():
    kbar = nl.reduce(nl.gross_pitaevskii(1.4))
    for c in (0.1, 0.5, 0.9):
        s = math.sqrt(1.0 - c * c)
        assert dc.control_omega(kbar, c, s) == pytest.approx(0.7 * c, rel=1e-12)


def test_control_omega_keeps_digits_near_parallel():
    # s = sin(alpha0/2) recomputed as sqrt(1 - c^2) lost 2e-5 of omega here
    alpha0 = 1e-6
    kbar = nl.reduce(nl.square_root_sign(1.0))
    c, s = math.cos(alpha0 / 2), math.sin(alpha0 / 2)
    want = math.sqrt(s / SQRT2) * c / (SQRT2 * s)
    assert dc.control_omega(kbar, c, s) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_closed_loop_control_keeps_y_equal_z():
    rng = np.random.default_rng(3)
    g = 1.0
    kbar = nl.reduce(nl.gross_pitaevskii(g))
    for _ in range(10):
        a0 = float(rng.uniform(0.05, 2.9))
        t_perp = dc.gp_t_perp(g, a0)
        omega = lambda t: 0.5 * g * dc.gp_overlap_closed_form(g, a0, t)
        v = np.stack(bd.pair_to_bloch(bd.optimal_pair(a0)))
        tr = bd.integrate(kbar, bd.x_drive(omega), v, 0.95 * t_perp)
        assert np.max(np.abs(tr.states[:, :, 1] - tr.states[:, :, 2])) <= 1e-7
        # the pair overlap follows the closed form under the full drive
        ref = math.cos(a0) * np.ones_like(tr.times)
        cos_alpha = 2.0 * dc.gp_overlap_closed_form(g, a0, tr.times) ** 2 - 1.0
        assert np.max(np.abs(tr.overlaps - cos_alpha)) <= 1e-7


def test_log_rate_vanishes_at_zero_angle():
    assert dc.log_overlap_rate(1.0, 1e-12) == pytest.approx(0.0, abs=1e-12)


def test_log_rate_crosscheck_with_generic_reduction():
    kbar = nl.reduce(nl.logarithmic(1.0))
    alphas = np.linspace(0.01, math.pi - 0.01, 1000)
    direct = dc.log_overlap_rate(1.0, alphas)
    generic = bd.pair_overlap_rate(kbar, np.cos(alphas / 2), np.sin(alphas / 2),
                                   math.pi / 2, 3 * math.pi / 4)
    assert np.max(np.abs(direct - generic)) <= 1e-12


def test_log_rate_dominated_by_double_strength_quadratic():
    cs, rate_log, rate_gp = dc.fig_rate_comparison(1000)
    assert np.all(rate_log <= rate_gp)
    assert np.all(rate_log[:-1] < rate_gp[:-1])  # strict away from overlap 1


def test_time_to_overlap_matches_closed_form():
    for g, a0 in ((1.0, 0.1), (2.0, 0.8)):
        res = dc.time_to_overlap(nl.gross_pitaevskii(g), a0, 0.0)
        assert res.reached
        assert res.t_perp == pytest.approx(dc.gp_t_perp(g, a0), rel=1e-6)
        # the overlap trace is monotone decreasing
        assert np.all(np.diff(np.asarray(res.overlaps)) <= 1e-12)


def test_overlap_trace_monotone_for_catalog():
    for n in (nl.gross_pitaevskii(1.0), nl.logarithmic(1.0),
              nl.square_root_sign(1.0)):
        res = dc.time_to_overlap(n, 0.3, 0.2)
        assert res.reached
        assert np.all(np.diff(np.asarray(res.overlaps)) <= 1e-12)


def test_time_to_overlap_quartic_reports_no_progress():
    res = dc.time_to_overlap(nl.quartic_difference(1.0), 0.1, 0.0)
    assert res.status == "no_progress"
    assert res.t_perp == math.inf
    assert "rate" in res.diagnostic


def test_time_to_overlap_rejects_bad_target():
    with pytest.raises(ValueError):
        dc.time_to_overlap(nl.gross_pitaevskii(1.0), 0.1, 0.9999)


def test_sqrt_nonlinearity_constant_time_separation():
    times = [dc.time_to_overlap(nl.square_root_sign(1.0), a0, 0.0).t_perp
             for a0 in (1e-2, 1e-4, 1e-6)]
    assert all(math.isfinite(t) for t in times)
    spread = (max(times) - min(times)) / min(times)
    assert spread < 0.2
    # the integrated angle respects alpha(t) >= (sqrt(alpha0) + r t)^2 with
    # r = 1 / (2^(3/4) sqrt(pi))
    res = dc.separation_trace(nl.square_root_sign(1.0), 1e-4, duration=2.0)
    r = 1.0 / (2 ** 0.75 * math.sqrt(math.pi))
    alphas = 2.0 * np.arccos(np.clip(np.asarray(res.overlaps), -1.0, 1.0))
    lower = (math.sqrt(1e-4) + r * res.times) ** 2
    # slack covers the arccos round trip of alpha0 through the overlap
    assert np.all(alphas >= lower * (1.0 - 1e-6))


def test_reoptimized_policy_recovers_quadratic_optimum():
    res = dc.time_to_overlap(nl.gross_pitaevskii(1.0), 0.5, 0.0,
                             dc.OrientationPolicy.REOPTIMIZED)
    assert res.reached
    assert res.t_perp == pytest.approx(dc.gp_t_perp(1.0, 0.5), rel=1e-5)


def test_reoptimized_policy_never_slower_than_fixed():
    # the fixed orientation is in the re-optimized policy's search space
    for n in (nl.logarithmic(1.0), nl.square_root_sign(1.0)):
        fixed = dc.time_to_overlap(n, 0.3, 0.1)
        reopt = dc.time_to_overlap(n, 0.3, 0.1,
                                   dc.OrientationPolicy.REOPTIMIZED)
        assert reopt.reached and fixed.reached
        assert reopt.t_perp <= fixed.t_perp * (1.0 + 1e-6)


@pytest.mark.parametrize("alpha0", [1e-4, 1e-6, 1e-7, 1e-9, 1e-12])
@pytest.mark.parametrize("target", [0.0, 1.0 / math.sqrt(2.0)])
def test_gp_time_to_overlap_keeps_its_digits_at_tiny_angles(alpha0, target):
    # atanh(cos(alpha0/2)) cancels its digits here and fails below 1e-8
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        want = float(2 * (mpmath.log(mpmath.cot(mpmath.mpf(alpha0) / 4))
                          - mpmath.atanh(mpmath.mpf(target))))
    assert dc.gp_time_to_overlap(1.0, alpha0, target) == pytest.approx(want, rel=1e-14)


def test_epsilon_alpha_conversion_is_exact():
    for eps in (1e-2, 1e-4, 1e-6):
        a0 = dc.epsilon_to_alpha0(eps)
        assert math.cos(a0 / 2) == pytest.approx(1.0 - eps, abs=1e-16)


@pytest.mark.parametrize("eps", [1e-12, 1e-15, 1e-17])
def test_epsilon_alpha_conversion_keeps_precision_for_tiny_deficits(eps):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        want = float(2 * mpmath.acos(1 - mpmath.mpf(eps)))
    assert dc.epsilon_to_alpha0(eps) == pytest.approx(want, rel=1e-15)


def test_epsilon_one_is_an_orthogonal_pair_and_above_one_is_refused():
    # 4 asin(sqrt(1/2)) rounds to pi + 4.4e-16, past the range of alpha0
    assert dc.epsilon_to_alpha0(1.0) == math.pi
    res = dc.time_to_overlap(nl.gross_pitaevskii(1.0), dc.epsilon_to_alpha0(1.0), 0.0)
    assert res.reached and 0.0 <= res.t_perp < 1e-15
    for eps in (1.5, -1e-300):
        with pytest.raises(ValueError, match=r"epsilon must be in \[0, 1\]"):
            dc.epsilon_to_alpha0(eps)


def test_log_time_scaling_regression():
    g = 1.0
    eps = np.array([1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    times = [dc.time_to_overlap(nl.gross_pitaevskii(g),
                                dc.epsilon_to_alpha0(e), 0.0).t_perp
             for e in eps]
    slope = float(np.polyfit(np.log(1.0 / eps), times, 1)[0])
    assert abs(slope - 1.0 / g) <= 0.02 / g


def test_lower_bound_consistency_exponential_envelope():
    # measured alpha(t) stays below exp(2 g t) alpha0 while alpha <= 0.1,
    # for both the fixed and the re-optimized protocols
    g, a0 = 1.0, 1e-3
    for policy in (dc.OrientationPolicy.FIXED_OPTIMAL_GP,
                   dc.OrientationPolicy.REOPTIMIZED):
        res = dc.separation_trace(nl.gross_pitaevskii(g), a0, policy=policy,
                                  duration=4.5)
        alphas = 2.0 * np.arccos(np.clip(np.asarray(res.overlaps), -1, 1))
        mask = alphas <= 0.1
        bound = np.exp(2.0 * g * res.times[mask]) * a0 * (1.0 + 1e-6)
        assert np.all(alphas[mask] <= bound)


def test_general_upper_bound_vs_quadratic_on_synthetic_reductions():
    # any kbar with kbar(z) >= g z on [0, delta] reaches overlap
    # sqrt(1 - 2 delta^2) no slower than the quadratic protocol at strength g
    delta = 0.5
    a0 = 0.2
    target = math.sqrt(1.0 - 2.0 * delta ** 2)
    gp_time = dc.gp_time_to_overlap(1.0, a0, target)
    synthetic = [
        lambda z: np.asarray(z) + 2.0 * np.asarray(z) ** 3,
        lambda z: np.sinh(np.asarray(z, dtype=float)),
        lambda z: np.asarray(z) / (1.0 - np.asarray(z) ** 2 / 2.0),
    ]
    for fn in synthetic:
        res = dc.time_to_overlap(nl.from_odd_function(fn), a0, target)
        assert res.reached
        assert res.t_perp <= gp_time + 1e-6


def test_figure_data_shapes_and_anchors():
    gts, overlap = dc.fig_overlap_vs_gt()
    assert len(gts) == 512 and gts[0] == 0.0 and gts[-1] == 7.5
    assert overlap[0] == pytest.approx(math.cos(0.05), abs=1e-15)
    # overlap crosses zero where tanh(gt/2) = cos(alpha0/2)
    crossings = np.where(np.diff(np.sign(overlap)) < 0)[0]
    assert len(crossings) == 1
    t_perp = dc.gp_t_perp(1.0, 0.1)
    assert gts[crossings[0]] <= t_perp <= gts[crossings[0] + 1]

    alphas, gtp = dc.fig_tperp_vs_alpha0()
    assert len(alphas) == 512
    assert gtp[-1] == pytest.approx(0.0, abs=1e-12)  # alpha0 = pi
    assert np.all(np.diff(gtp) < 0)


# Independent references for the quadrature: closed-form reductions, a dense
# orientation grid polished by Nelder-Mead, and scipy's quad.
SQRT2 = math.sqrt(2.0)
REFERENCE_KBAR = {
    "log": (nl.logarithmic(1.0),
            lambda z: 2.0 * np.arctanh(np.clip(z, -1.0 + 1e-12, 1.0 - 1e-12))),
    "sqrt": (nl.square_root_sign(1.0), lambda z: np.sign(z) * np.sqrt(np.abs(z))),
    "odd": (nl.from_odd_function(lambda z: np.sinh(3.0 * np.asarray(z, dtype=float)) / 3.0),
            lambda z: np.sinh(3.0 * np.asarray(z, dtype=float)) / 3.0),
}
_PHI, _THETA = np.meshgrid(np.linspace(0.0, math.pi, 129),
                           np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False),
                           indexing="ij")


def _oriented_rate(kbar, c, phi, theta):
    s = math.sqrt(1.0 - c * c)
    zp = c * np.cos(phi) - s * np.sin(phi) * np.cos(theta)
    zm = c * np.cos(phi) + s * np.sin(phi) * np.cos(theta)
    return 0.5 * s * np.sin(phi) * np.sin(theta) * (kbar(zm) - kbar(zp))


def _best_rate(kbar, c):
    rates = _oriented_rate(kbar, c, _PHI, _THETA)
    i = np.unravel_index(np.argmin(rates), rates.shape)
    res = minimize(lambda x: float(_oriented_rate(kbar, c, x[0], x[1])),
                   np.array([_PHI[i], _THETA[i]]), method="Nelder-Mead",
                   options={"xatol": 1e-9, "fatol": 1e-15, "maxiter": 4000})
    return min(float(res.fun), float(rates[i]))


def _reopt_reference(kbar, alpha0, target):
    return quad(lambda c: -1.0 / _best_rate(kbar, c), target, math.cos(alpha0 / 2.0),
                epsabs=0.0, epsrel=1e-11, limit=200)[0]


def _fixed_reference(kbar, alpha0, target):
    """int d alpha / (sqrt2 kbar(sin(alpha/2)/sqrt2)), in ln(alpha) on unit pieces."""
    w_end = math.log(2.0 * math.acos(target))
    edges = np.append(np.arange(math.log(alpha0), w_end, 1.0), w_end)

    def f(w):
        a = math.exp(w)
        return a / (SQRT2 * float(kbar(math.sin(a / 2.0) / SQRT2)))

    return sum(quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
               for lo, hi in zip(edges[:-1], edges[1:]))


@pytest.mark.parametrize("g", [0.1, 1.0, 10.0])
@pytest.mark.parametrize("alpha0", [1e-12, 1e-9, 1e-6, 1e-3, 0.1, 1.0, 3.0])
def test_gp_quadrature_matches_closed_form_down_to_tiny_angles(g, alpha0):
    res = dc.time_to_overlap(nl.gross_pitaevskii(g), alpha0, 0.0)
    assert res.reached
    assert res.t_perp == pytest.approx(dc.gp_t_perp(g, alpha0), rel=4e-15)


def test_gp_below_the_old_absolute_rate_floor_is_reached():
    res = dc.time_to_overlap(nl.gross_pitaevskii(1.0), 1e-7, 0.0)
    assert res.status == "reached"
    assert res.t_perp == pytest.approx(35.00878002415642, abs=1e-12)


@pytest.mark.parametrize("g", [0.1, 1.0, 10.0])
def test_quartic_is_no_progress_at_every_angle(g):
    for alpha0 in (1e-12, 1e-6, 1e-3, 0.1, 0.3, 0.7, 1.0, 1.3, 2.0, 2.5, 3.0):
        for policy in dc.OrientationPolicy:
            res = dc.time_to_overlap(nl.quartic_difference(g), alpha0, 0.0, policy)
            assert res.status == "no_progress", (alpha0, policy, res.t_perp)
            assert res.t_perp == math.inf


def test_reached_always_means_a_finite_time():
    catalog = [nl.gross_pitaevskii(1.0), nl.logarithmic(1.0), nl.square_root_sign(1.0),
               nl.quartic_difference(1.0), nl.gross_pitaevskii(0.0)]
    for n in catalog:
        for alpha0 in (1e-6, 1e-3, 1.3, 3.0):
            res = dc.time_to_overlap(n, alpha0, 0.0)
            assert res.status in ("reached", "no_progress")
            assert (res.status == "reached") == math.isfinite(res.t_perp)


@pytest.mark.parametrize("kind", ["log", "sqrt", "odd"])
@pytest.mark.parametrize("alpha0", [1e-6, 1e-4])
def test_fixed_policy_matches_angle_quadrature(kind, alpha0):
    n, kbar = REFERENCE_KBAR[kind]
    res = dc.time_to_overlap(n, alpha0, 0.0)
    assert res.reached
    assert res.t_perp == pytest.approx(_fixed_reference(kbar, alpha0, 0.0), rel=1e-10)


@pytest.mark.parametrize("kind", ["log", "sqrt", "odd"])
@pytest.mark.parametrize("alpha0", [1e-8, 1e-10])
def test_fixed_policy_closed_form_reduction_near_parallel(kind, alpha0):
    # the generic kbar difference lost relative precision near z = 0 here
    n, kbar = REFERENCE_KBAR[kind]
    res = dc.time_to_overlap(n, alpha0, 0.0)
    assert res.reached
    assert res.t_perp == pytest.approx(_fixed_reference(kbar, alpha0, 0.0), rel=1e-10)


@pytest.mark.parametrize("kind", ["log", "sqrt", "odd"])
def test_reoptimized_policy_matches_dense_grid_reference(kind):
    n, kbar = REFERENCE_KBAR[kind]
    target = 1.0 / SQRT2
    res = dc.time_to_overlap(n, 0.3, target, dc.OrientationPolicy.REOPTIMIZED)
    assert res.reached
    assert res.t_perp == pytest.approx(_reopt_reference(kbar, 0.3, target), rel=1e-9)


def test_reoptimized_policy_honours_rtol_to_orthogonality():
    res = dc.time_to_overlap(nl.logarithmic(1.0), 0.5, 0.0, dc.OrientationPolicy.REOPTIMIZED)
    ref = _reopt_reference(REFERENCE_KBAR["log"][1], 0.5, 0.0)
    assert res.t_perp == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("periods", [3.0, 20.0])
def test_duration_trace_follows_the_closed_form_past_orthogonality(periods):
    # 20 t_perp runs past the point where the overlap rounds to -1
    g, a0 = 1.0, 0.3
    duration = periods * dc.gp_t_perp(g, a0)
    res = dc.separation_trace(nl.gross_pitaevskii(g), a0, duration=duration,
                              t_eval=np.linspace(0.0, duration, 50))
    assert res.t_perp == duration and len(res.times) == 50
    ref = dc.gp_overlap_closed_form(g, a0, res.times)
    assert np.max(np.abs(res.overlaps - ref)) <= 1e-12


def test_held_optimal_orientation_is_the_fixed_policy():
    # FIXED_OPTIMAL_GP is the orientation (pi/2, 3 pi/4) held; both run one code path
    held = (math.pi / 2, 3 * math.pi / 4)
    for n in (nl.gross_pitaevskii(1.3), nl.logarithmic(1.0), nl.square_root_sign(1.0)):
        for stop in ({"target_overlap": 0.2},
                     {"duration": 5.0, "t_eval": np.linspace(0.0, 5.0, 17)}):
            fixed = dc.separation_trace(n, 0.05, **stop)
            other = dc.separation_trace(n, 0.05, policy=held, **stop)
            for f in dataclasses.fields(dc.DiscriminationResult):
                assert np.array_equal(getattr(fixed, f.name), getattr(other, f.name)), f.name


@pytest.mark.parametrize("policy", [(math.nan, 1.0), (1.0, math.inf), (-math.inf, 1.0),
                                    (1.0, 2.0, 3.0), (1.0,), None],
                         ids=["nan", "inf", "-inf", "three", "one", "none"])
def test_held_orientation_must_be_two_finite_angles(policy):
    with pytest.raises(ValueError, match="phi, theta"):
        dc.separation_trace(nl.gross_pitaevskii(1.0), 0.5, policy=policy, target_overlap=0.0)


@pytest.mark.parametrize("rtol", [float("nan"), float("inf"), 0.0, -1e-8, 1e-15])
def test_quadrature_refuses_unmeetable_rtol(rtol):
    with pytest.raises(ValueError, match="1.11e-14"):
        dc.time_to_overlap(nl.gross_pitaevskii(1.0), 0.5, 0.0, rtol=rtol)


def test_separation_trace_needs_exactly_one_stopping_rule():
    n = nl.gross_pitaevskii(1.0)
    with pytest.raises(ValueError, match="exactly one"):
        dc.separation_trace(n, 0.5)
    with pytest.raises(ValueError, match="exactly one"):
        dc.separation_trace(n, 0.5, target_overlap=0.0, duration=1.0)


@pytest.mark.parametrize("duration", [math.inf, math.nan, -1.0])
def test_separation_trace_refuses_a_duration_that_is_not_finite_and_nonnegative(duration):
    with pytest.raises(ValueError, match=f"duration must be finite and >= 0, got {duration!r}"):
        dc.separation_trace(nl.gross_pitaevskii(1.0), 0.5, duration=duration)


@pytest.mark.parametrize("t_eval", [[math.nan, 1.0], [-1.0, 0.5], [2.0, 1.0], [[0.5]],
                                    [0.5, 0.5], [0.0, math.inf], 0.5],
                         ids=["nan", "negative", "decreasing", "2-d", "repeated", "inf",
                              "scalar"])
def test_separation_trace_refuses_a_malformed_t_eval(t_eval):
    # these used to drop a sample, return unsorted times or end in a TypeError
    with pytest.raises(ValueError, match=r"t_eval must be a 1-d array of finite, strictly "
                                         r"increasing times >= 0, got"):
        dc.separation_trace(nl.gross_pitaevskii(1.0), 0.5, duration=3.0, t_eval=t_eval)


def test_t_eval_samples_past_a_target_runs_end_are_dropped():
    res = dc.separation_trace(nl.gross_pitaevskii(1.0), 0.5, target_overlap=0.0,
                              t_eval=[0.0, 1.0, 2.0, 100.0])
    assert res.t_perp == pytest.approx(dc.gp_t_perp(1.0, 0.5), rel=1e-14)
    assert list(res.times) == [0.0, 1.0, 2.0]
    np.testing.assert_allclose(res.overlaps, dc.gp_overlap_closed_form(1.0, 0.5, res.times),
                               rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("g", [float("nan"), float("inf")])
@pytest.mark.parametrize("rate", [
    lambda g: sr.complexity_budget(64, g), lambda g: dc.gp_overlap_rate(g, 0.5),
    lambda g: dc.log_overlap_rate(g, 0.5),
], ids=["complexity_budget", "gp_overlap_rate", "log_overlap_rate"])
def test_strength_that_is_not_finite_is_refused(rate, g):
    # each returned nan
    with pytest.raises(ValueError, match=re.escape(f"g must be finite, got {g!r}")):
        rate(g)
