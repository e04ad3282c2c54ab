import math

import numpy as np
import pytest

from nlqsim import blochdyn as bd
from nlqsim import nonlinearity as nl

SQRT_HALF = math.sqrt(0.5)


def random_orientation(rng):
    return bd.PairOrientation(
        float(rng.uniform(0.05, math.pi - 0.05)),
        float(rng.uniform(0.05, math.pi - 0.05)),
        float(rng.uniform(0.0, 2 * math.pi)),
    )


def test_pair_to_bloch_zero_separation():
    p = bd.PairOrientation(0.0, 1.1, 2.2)
    vp, vm = bd.pair_to_bloch(p)
    assert np.allclose(vp, vm, atol=1e-15)


def test_pair_to_bloch_optimal_orientation():
    alpha = 0.7
    vp, vm = bd.pair_to_bloch(bd.optimal_pair(alpha))
    c, s = math.cos(alpha / 2), math.sin(alpha / 2)
    assert np.allclose(vp, [c, s * SQRT_HALF, s * SQRT_HALF], atol=1e-14)
    assert np.allclose(vm, [c, -s * SQRT_HALF, -s * SQRT_HALF], atol=1e-14)


def test_pair_to_bloch_theta_zero_kills_y():
    vp, vm = bd.pair_to_bloch(bd.PairOrientation(math.pi / 2, math.pi / 4, 0.0))
    assert vp[1] == 0.0 and vm[1] == 0.0


def test_pair_vectors_unit_and_dot():
    rng = np.random.default_rng(1)
    for _ in range(200):
        p = random_orientation(rng)
        vp, vm = bd.pair_to_bloch(p)
        assert abs(np.linalg.norm(vp) - 1.0) <= 1e-12
        assert abs(np.linalg.norm(vm) - 1.0) <= 1e-12
        assert abs(float(np.dot(vp, vm)) - math.cos(p.alpha)) <= 1e-12


def test_nonlinear_flow_rate_fixed_points():
    v = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    tr = bd.integrate(nl.reduce(nl.gross_pitaevskii(1.0)), None, v, 3.0)
    assert np.allclose(tr.states - v, 0.0)


def test_nonlinear_flow_rate_midlatitude():
    # kbar(z) (-y, x, 0) = (0, 1, 0) at the start, by a one-sided difference
    v = np.array([[SQRT_HALF, 0.0, SQRT_HALF]])
    h = 5e-7
    tr = bd.integrate(nl.reduce(nl.gross_pitaevskii(2.0)), None, v, 2 * h,
                      t_eval=np.array([0.0, h, 2 * h]))
    rate = (-3 * tr.states[0] + 4 * tr.states[1] - tr.states[2]) / (2 * h)
    assert np.allclose(rate, [[0.0, 1.0, 0.0]], atol=1e-8)


def test_ip_rate_optimal_orientation_matches_quadratic_form():
    kbar = nl.reduce(nl.gross_pitaevskii(1.0))
    for alpha in (0.1, 0.7, 2.0):
        p = bd.optimal_pair(alpha)
        want = -math.sin(alpha) * math.sin(alpha / 2)
        assert bd.ip_rate(kbar, p) == pytest.approx(want, abs=1e-14)


def test_ip_rate_vanishes_at_theta_zero():
    kbar = nl.reduce(nl.logarithmic(1.0))
    assert bd.ip_rate(kbar, bd.PairOrientation(1.0, 1.0, 0.0)) == 0.0


def test_ip_rate_quarter_theta_value():
    # g=1, alpha=pi/2, phi=pi/2, theta=pi/4: z_pm = -+ sin(pi/4) cos(pi/4),
    # and the rate evaluates to sin(pi/2) sin(pi/2) sin(pi/4) * 1 = sqrt(2)/2.
    # Cross-checked against a finite difference of the integrated cos(alpha)
    # below.
    kbar = nl.reduce(nl.gross_pitaevskii(1.0))
    p = bd.PairOrientation(math.pi / 2, math.pi / 2, math.pi / 4)
    rate = bd.ip_rate(kbar, p)
    assert rate == pytest.approx(math.sqrt(2) / 2, abs=1e-14)

    v = np.stack(bd.pair_to_bloch(p))
    h = 5e-7
    tr = bd.integrate(kbar, None, v, 1e-6, rtol=1e-12, atol=1e-14,
                      t_eval=np.array([0.0, h, 2 * h]))
    fd = (-3 * tr.overlaps[0] + 4 * tr.overlaps[1] - tr.overlaps[2]) / (2 * h)
    assert fd == pytest.approx(rate, rel=1e-6)


def test_ip_rate_finite_difference_consistency():
    rng = np.random.default_rng(4)
    makers = [nl.gross_pitaevskii, nl.logarithmic]
    h = 5e-7
    for _ in range(100):
        n = makers[rng.integers(2)](float(rng.uniform(0.2, 2.0)))
        kbar = nl.reduce(n)
        p = random_orientation(rng)
        rate = bd.ip_rate(kbar, p)
        v = np.stack(bd.pair_to_bloch(p))
        tr = bd.integrate(kbar, None, v, 2 * h, rtol=1e-12, atol=1e-14,
                          t_eval=np.array([0.0, h, 2 * h]))
        fd = (-3 * tr.overlaps[0] + 4 * tr.overlaps[1] - tr.overlaps[2]) / (2 * h)
        assert abs(fd - rate) / max(abs(rate), 1e-9) <= 1e-4


def test_ip_rate_invariant_under_z_rotation():
    rng = np.random.default_rng(5)
    kbar = nl.reduce(nl.logarithmic(1.3))
    for _ in range(200):
        p = random_orientation(rng)
        v1, v2 = bd.pair_to_bloch(p)
        base = bd.ip_rate_vectors(kbar, v1, v2)
        gamma = float(rng.uniform(0, 2 * math.pi))
        cg, sg = math.cos(gamma), math.sin(gamma)
        rz = np.array([[cg, -sg, 0.0], [sg, cg, 0.0], [0.0, 0.0, 1.0]])
        rotated = bd.ip_rate_vectors(kbar, rz @ v1, rz @ v2)
        assert abs(rotated - base) <= 1e-12
        # and the parameterized form agrees with the raw-vector form
        assert abs(base - bd.ip_rate(kbar, p)) <= 1e-12


ODD = nl.from_odd_function(lambda z: np.sinh(3.0 * np.asarray(z, dtype=float)) / 3.0)


def _two_call_rate(kbar, c, s, phi, theta):
    """The oriented-pair rate with kbar evaluated once per latitude."""
    sp, cp = np.sin(phi), np.cos(phi)
    st, ct = np.sin(theta), np.cos(theta)
    return 0.5 * s * sp * st * (kbar(c * cp + s * sp * ct) - kbar(c * cp - s * sp * ct))


def _rate_shape_cases():
    """(c, s, phi, theta): all scalars, a held orientation with a 21-node
    panel of overlaps, and the (R, 1, 1) / (R, 9, 1) / (R, 1, 9) grid."""
    rng = np.random.default_rng(11)
    a = 1.1
    u = rng.uniform(-9.0, 9.0, 21)
    yield math.cos(a / 2), math.sin(a / 2), 1.3, 2.2
    yield np.tanh(u), 1.0 / np.cosh(u), math.pi / 2, 3 * math.pi / 4
    u = rng.uniform(-9.0, 9.0, (5, 1, 1))
    yield (np.tanh(u), 1.0 / np.cosh(u), rng.uniform(0.0, math.pi, (5, 9, 1)),
           rng.uniform(0.0, 2 * math.pi, (5, 1, 9)))


@pytest.mark.parametrize("n", [nl.gross_pitaevskii(1.3), nl.logarithmic(0.7),
                               nl.square_root_sign(2.0), ODD, nl.quartic_difference(1.0)],
                         ids=["gp", "log", "sqrt", "odd", "quartic"])
def test_pair_overlap_rate_is_the_two_call_form_bit_for_bit(n):
    kbar = nl.reduce(n)
    shapes = []

    def counted(z):
        shapes.append(np.shape(z))
        return kbar(z)

    for c, s, phi, theta in _rate_shape_cases():
        got = bd.pair_overlap_rate(counted, c, s, phi, theta)
        want = _two_call_rate(kbar, c, s, phi, theta)
        if np.ndim(c) == 0:
            assert type(got) is float and got == want
        else:
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
    # one kbar call per rate, on the stacked latitudes
    assert shapes == [(2,), (2, 21), (2, 5, 9, 9)]


def test_integrate_zero_duration_returns_initial():
    kbar = nl.reduce(nl.gross_pitaevskii(1.0))
    v = np.array([0.0, 1.0, 0.0])
    tr = bd.integrate(kbar, None, v, 0.0)
    assert tr.times.tolist() == [0.0]
    assert np.allclose(tr.states[0, 0], v)


def test_integrate_equator_is_fixed_point():
    kbar = nl.reduce(nl.gross_pitaevskii(1.0))
    v = np.array([SQRT_HALF, SQRT_HALF, 0.0])
    tr = bd.integrate(kbar, None, v, 5.0)
    assert np.max(np.abs(tr.states - v)) <= 1e-9


def test_integrate_latitude_rotation_phase():
    # z = sqrt(1/2) latitude rotates at angular rate kbar(z) = sqrt(1/2)
    kbar = nl.reduce(nl.gross_pitaevskii(1.0))
    v = np.array([SQRT_HALF, 0.0, SQRT_HALF])
    tr = bd.integrate(kbar, None, v, 1.0)
    end = tr.states[-1, 0]
    assert abs(end[2] - SQRT_HALF) <= 1e-8
    phase = math.atan2(end[1], end[0])
    assert abs(phase - SQRT_HALF) <= 1e-8


def test_integrate_latitude_conservation_property():
    rng = np.random.default_rng(6)
    kbar = nl.reduce(nl.logarithmic(1.0))
    for _ in range(10):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        tr = bd.integrate(kbar, None, v, 10.0)
        assert np.max(np.abs(tr.states[:, 0, 2] - v[2])) <= 1e-8


def test_integrate_norm_drift_below_projection():
    rng = np.random.default_rng(7)
    kbar = nl.reduce(nl.gross_pitaevskii(1.5))
    drive = bd.x_drive(lambda t: math.sin(t))
    v = rng.normal(size=(2, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    tr = bd.integrate(kbar, drive, v, 8.0)
    assert tr.stats.max_norm_drift <= 1e-8


def test_integrate_drive_neutrality_with_zero_reduction():
    rng = np.random.default_rng(8)
    kbar = nl.reduce(nl.quartic_difference(1.0))
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    drive = bd.axis_drive(axis, lambda t: 0.9 + math.cos(3 * t))
    v = rng.normal(size=(2, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    tr = bd.integrate(kbar, drive, v, 6.0)
    assert np.max(np.abs(tr.overlaps - tr.overlaps[0])) <= 1e-8


def test_a_pure_drive_about_any_axis_is_the_rigid_rotation_about_it():
    # quartic has kbar == 0, so each vector turns about a by the integral of
    # omega, as Rodrigues' formula gives it: H = +omega a.sigma/2 is +omega (a x v)
    rng = np.random.default_rng(12)
    kbar = nl.reduce(nl.quartic_difference(1.0))
    axis = rng.normal(size=3)
    a = axis / np.linalg.norm(axis)
    v = rng.normal(size=(2, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    times = np.linspace(0.0, 6.0, 13)
    tr = bd.integrate(kbar, bd.axis_drive(axis, lambda t: 0.9 + math.cos(3 * t)), v, 6.0,
                      t_eval=times)
    turn = (0.9 * times + np.sin(3 * times) / 3)[:, None, None]
    want = (v * np.cos(turn) + np.cross(a, v) * np.sin(turn)
            + np.outer(v @ a, a) * (1.0 - np.cos(turn)))
    assert np.max(np.abs(tr.states - want)) <= 1e-8


def test_integrate_step_underflow_carries_partial_trace():
    # kappa undefined past a reachable latitude: the error estimate never
    # settles and the step size underflows
    with np.errstate(invalid="ignore"):
        bad = nl.from_odd_function(
            lambda z: np.sqrt(np.asarray(z, dtype=float) - 0.8))
        kbar = nl.reduce(bad)
        tr = bd.integrate(kbar, bd.x_drive(1.0), np.array([0.0, 0.0, 1.0]), 2.0)
    assert tr.failed
    assert "underflow" in tr.failure_reason
    assert len(tr.times) > 1          # partial history retained
    assert tr.times[-1] < 2.0


def test_pair_orientation_validation():
    with pytest.raises(ValueError):
        bd.PairOrientation(-0.1, 0.0, 0.0)
    with pytest.raises(ValueError):
        bd.PairOrientation(0.5, 4.0, 0.0)


@pytest.mark.parametrize("duration", [math.inf, math.nan])
def test_integrate_refuses_a_duration_that_is_not_finite(duration):
    def kbar(z):
        raise AssertionError("rhs called")

    with pytest.raises(ValueError, match="t1"):
        bd.integrate(kbar, None, np.array([1.0, 0.0, 0.0]), duration)


def test_drive_axis_normalized():
    d = bd.axis_drive(np.array([2.0, 0.0, 0.0]), 1.0)
    assert d.support == (0, 1)
    assert np.allclose(d.generator, [[0.0, 0.5], [0.5, 0.0]])
    assert np.array_equal(d.generator, bd.x_drive(1.0).generator)
    with pytest.raises(ValueError):
        bd.axis_drive(np.array([0.0, 0.0, 0.0]), 1.0)


@pytest.mark.parametrize("duration", [0.5, 0.0])
def test_empty_t_eval_gives_an_empty_pair_trace(duration):
    pair = np.array(bd.pair_to_bloch(bd.optimal_pair(0.5)))
    tr = bd.integrate(nl.reduce(nl.parse("gp:1")), None, pair, duration, t_eval=np.array([]))
    assert tr.times.shape == (0,) and tr.states.shape == (0, 2, 3)
    assert tr.overlaps.shape == (0,)


def test_a_start_vector_holding_nan_is_refused_naming_it():
    kbar = nl.reduce(nl.gross_pitaevskii(1.0))
    with pytest.raises(ValueError, match="unit length.*nan"):
        bd.integrate(kbar, None, [math.nan, 0.0, 1.0], 1.0)


KINDS = {"gp": nl.gross_pitaevskii(1.0), "log": nl.logarithmic(1.0), "odd": ODD,
         "sqrt": nl.square_root_sign(1.0)}


def _bloch_reference(kbar, omega, v0, times):
    """dv/dt = kbar(z) (-y, x, 0) + omega(t) (x^ x v), the Bloch flow that
    ``integrate`` no longer steps, by scipy's DOP853 at rtol 1e-13."""
    from scipy.integrate import solve_ivp

    def f(t, y):
        x, yy, z = y.reshape(-1, 3).T
        k, w = kbar(z), omega(t)
        return np.stack([-k * yy, k * x - w * z, w * yy], axis=1).ravel()

    sol = solve_ivp(f, (times[0], times[-1]), v0.ravel(), method="DOP853",
                    rtol=1e-13, atol=1e-15, t_eval=times)
    return sol.y.T.reshape((len(times),) + v0.shape)


# Six pairs from default_rng(5) under x_drive(2 cos(t/2)) over [0, 6], the
# largest Bloch error at rtol 1e-10.  sqrt crosses its kink at z = 0, which
# the embedded error estimate does not see; its limit is the error the
# Bloch-stepping path had (2.0e-7), the others' is 2e-9.
@pytest.mark.parametrize("kind, limit", [("gp", 2e-9), ("log", 2e-9), ("odd", 2e-9),
                                         ("sqrt", 2.0e-7)])
def test_driven_pairs_match_the_bloch_flow_stepped_by_dop853(kind, limit):
    kbar = nl.reduce(KINDS[kind])
    omega = lambda t: 2.0 * math.cos(t / 2)
    times = np.linspace(0.0, 6.0, 61)
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(6):
        v = rng.normal(size=(2, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        tr = bd.integrate(kbar, bd.x_drive(omega), v, 6.0, t_eval=times)
        assert not tr.failed and tr.stats.accepted > 0
        ref = _bloch_reference(kbar, omega, v, times)
        worst = max(worst, float(np.max(np.abs(tr.states - ref))))
    assert worst <= limit


@pytest.mark.parametrize("kind", ["gp", "log", "sqrt", "odd"])
def test_an_undriven_run_is_the_turn_about_z_and_takes_no_step(kind):
    kbar = nl.reduce(KINDS[kind])
    rng = np.random.default_rng(9)
    times = np.linspace(0.0, 4.0, 9)
    for _ in range(10):
        v = rng.normal(size=(2, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        for t_eval in (times, None):
            tr = bd.integrate(kbar, None, v, 4.0, t_eval=t_eval)
            assert tr.stats.accepted == tr.stats.rejected == 0 and not tr.failed
            turn = np.multiply.outer(tr.times, kbar(v[:, 2]))
            c, s = np.cos(turn), np.sin(turn)
            want = np.stack([v[:, 0] * c - v[:, 1] * s, v[:, 0] * s + v[:, 1] * c,
                             np.broadcast_to(v[:, 2], c.shape)], axis=-1)
            assert np.max(np.abs(tr.states - want)) <= 1e-14
