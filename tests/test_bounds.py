import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from nlqsim import blochdyn as bd
from nlqsim import bounds as bn
from nlqsim import nonlinearity as nl


def test_certify_growth_quadratic_is_exactly_linear():
    cert = bn.certify_growth(nl.reduce(nl.gross_pitaevskii(1.0)), 0.0, 1.0)
    assert isinstance(cert, bn.GrowthCertificate)
    assert cert.g_local == pytest.approx(1.0, abs=1e-12)
    assert cert.direction == 1


def test_certify_growth_refuses_vanishing_reduction():
    out = bn.certify_growth(nl.reduce(nl.quartic_difference(1.0)), 0.3, 0.3)
    assert isinstance(out, bn.GrowthRefusal)


def test_certify_growth_logarithmic_slope_at_origin():
    # kbar(z) = ln((1+z)/(1-z)) has slope 2 at the origin and is convex on
    # [0, 1), so every sampled quotient is >= 2
    cert = bn.certify_growth(nl.reduce(nl.logarithmic(1.0)), 0.0, 0.5)
    assert cert.g_local >= 2.0
    assert cert.g_local == pytest.approx(2.0, rel=1e-4)


def test_certify_growth_clips_window(recwarn):
    cert = bn.certify_growth(nl.reduce(nl.gross_pitaevskii(1.0)), 0.9, 0.5)
    assert any("clipped" in str(w.message) for w in recwarn.list)
    assert cert.delta_window <= 0.1 + 1e-12


def test_certify_growth_direction_for_decreasing_reduction():
    falling = nl.from_odd_function(lambda z: -np.asarray(z, dtype=float))
    cert = bn.certify_growth(nl.reduce(falling), 0.0, 0.5)
    assert cert.direction == -1
    assert cert.theta == pytest.approx(math.pi / 4)


def test_validity_angle_formula():
    cert = bn.GrowthCertificate(z0=0.5, g_local=1.0, delta_window=0.3, direction=1)
    a = cert.validity_alpha
    assert math.sqrt(2 * (1 - 0.25)) * math.sin(a / 2) == pytest.approx(0.3, abs=1e-12)


def test_growth_trace_respects_certified_exponential():
    # the maintained-orientation dynamics at midpoint latitude z0 grow at
    # least at the certified exponent
    kbar = nl.reduce(nl.gross_pitaevskii(1.0))
    for z0 in (0.0, 0.5):
        cert = bn.certify_growth(kbar, z0, 0.4)
        alpha0, alpha_stop = 1e-3, 0.05
        ts, alphas = bn.growth_trace(kbar, cert, alpha0, alpha_stop)
        c = bn.certified_exp_rate(cert, alpha_stop)
        lower = np.exp(c * ts) * alpha0 * (1.0 - 1e-6)
        assert np.all(alphas >= lower)
        assert alphas[-1] >= alpha_stop * (1.0 - 1e-9)


def test_realized_rate_bound_at_certificate_orientation():
    # d cos(alpha)/dt <= -g_local (1 - z0^2) sin(alpha/2) sin(alpha) at the
    # certificate's (phi, theta), for small alpha inside the window
    for maker in (nl.gross_pitaevskii, nl.logarithmic):
        kbar = nl.reduce(maker(1.0))
        for z0 in (0.0, 0.3):
            cert = bn.certify_growth(kbar, z0, 0.3)
            for alpha in (1e-3, 1e-2, 0.05):
                c = math.cos(alpha / 2)  # d cos(alpha)/dt is 4c times the overlap rate
                rate = 4.0 * c * bd.pair_overlap_rate(kbar, c, math.sin(alpha / 2), cert.phi,
                                                      cert.theta)
                budget = -cert.g_local * (1 - z0 ** 2) * math.sin(alpha / 2) \
                    * math.sin(alpha)
                assert rate <= budget * (1.0 - 1e-8) + 1e-15


def test_z_gap_identity_and_geometry_bound():
    rng = np.random.default_rng(9)
    for _ in range(300):
        alpha = float(rng.uniform(0.01, math.pi - 0.01))
        z0 = float(rng.uniform(0.0, 0.99))
        phi = math.acos(z0)
        for theta in (math.pi / 4, 3 * math.pi / 4):
            p = bd.PairOrientation(alpha, phi, theta)
            zp, zm = (v[2] for v in bd.pair_to_bloch(p))
            want = math.sqrt(2 * (1 - z0 ** 2)) * math.sin(alpha / 2)
            assert abs(abs(zp - zm) - want) <= 1e-12
    # |z+ - z-| <= alpha for arbitrary orientations
    for _ in range(300):
        p = bd.PairOrientation(float(rng.uniform(0.0, math.pi)),
                               float(rng.uniform(0.0, math.pi)),
                               float(rng.uniform(0.0, 2 * math.pi)))
        zp, zm = (v[2] for v in bd.pair_to_bloch(p))
        assert abs(zp - zm) <= p.alpha + 1e-12


def test_estimate_lipschitz_linear_and_piecewise():
    est = bn.estimate_lipschitz(nl.reduce(nl.gross_pitaevskii(2.0)))
    assert est.finite
    assert est.g_lip == pytest.approx(2.0, abs=1e-9)

    slopes13 = nl.from_odd_function(
        lambda z: np.where(np.abs(z) < 0.5, z,
                           np.sign(z) * (0.5 + 3.0 * (np.abs(z) - 0.5))))
    est = bn.estimate_lipschitz(nl.reduce(slopes13))
    assert est.finite
    assert est.g_lip == pytest.approx(3.0, rel=1e-6)


def test_estimate_lipschitz_flags_unbounded():
    for n in (nl.square_root_sign(1.0), nl.logarithmic(1.0)):
        est = bn.estimate_lipschitz(nl.reduce(n))
        assert not est.finite


def test_lipschitz_separation_bound_quadratic_holds():
    rep = bn.check_lipschitz_separation_bound(nl.gross_pitaevskii(1.0), 1e-3, 5.0)
    assert rep.bound_ok
    assert rep.max_ratio < 1.0


@pytest.mark.parametrize("g", [1.0, 2.5])
@pytest.mark.parametrize("alpha0", [1e-6, 1e-9])
def test_lipschitz_separation_bound_holds_at_small_angles(g, alpha0):
    # the angle comes from u = atanh(c), not from 2 acos(c), which loses
    # every digit once alpha0 is below ~1e-7
    rep = bn.check_lipschitz_separation_bound(nl.gross_pitaevskii(g), alpha0, 5.0)
    assert rep.bound_ok
    assert rep.max_ratio == pytest.approx(1.0 / (1.0 + 1e-6), rel=0, abs=1e-12)
    assert rep.alphas[0] == pytest.approx(alpha0, rel=1e-15, abs=0)


def test_lipschitz_separation_bound_trivial_for_zero_reduction():
    rep = bn.check_lipschitz_separation_bound(nl.quartic_difference(1.0),
                                              1e-3, 3.0)
    assert rep.bound_ok
    assert np.allclose(rep.alphas, 1e-3)


def test_lipschitz_separation_bound_violated_by_sqrt():
    # constant-time separation beats any finite-Lipschitz envelope
    rep = bn.check_lipschitz_separation_bound(nl.square_root_sign(1.0),
                                              1e-6, 1.0, g_lip=5.0)
    assert not rep.bound_ok
    assert rep.max_ratio > 1.0
    # and without a proxy the estimator refuses
    with pytest.raises(ValueError, match="Lipschitz"):
        bn.check_lipschitz_separation_bound(nl.square_root_sign(1.0), 1e-6, 1.0)


def test_growth_trace_refuses_unmeetable_rtol_and_reversed_angles():
    kbar = nl.reduce(nl.gross_pitaevskii(1.0))
    cert = bn.certify_growth(kbar, 0.0, 0.4)
    for rtol in (float("nan"), 1e-15):
        with pytest.raises(ValueError, match="rtol"):
            bn.growth_trace(kbar, cert, 1e-3, 0.05, rtol=rtol)
    with pytest.raises(ValueError, match="alpha_stop"):
        bn.growth_trace(kbar, cert, 0.05, 1e-3)


# Closed-form reductions, independent of nlqsim.nonlinearity.
_KBAR = {"log": lambda z: 2.0 * math.atanh(z),
         "sqrt": lambda z: math.copysign(math.sqrt(abs(z)), z),
         "odd": lambda z: math.sinh(3.0 * z) / 3.0}


@pytest.mark.parametrize("kind", ["log", "sqrt", "odd"])
def test_growth_trace_matches_a_log_angle_quadrature(kind):
    # the held-orientation quadrature in u = atanh(cos(alpha/2)) against the
    # widening rate d alpha/dt = -sin(phi) sin(theta) (kbar(z-) - kbar(z+))
    # integrated over ln(alpha) in unit pieces
    n = {"log": nl.logarithmic(1.0), "sqrt": nl.square_root_sign(1.0),
         "odd": nl.from_odd_function(lambda z: np.sinh(3.0 * np.asarray(z)) / 3.0)}[kind]
    z0, alpha0, alpha_stop = 0.3, 1e-2, 0.255
    cert = bn.certify_growth(nl.reduce(n), z0, 0.2)
    assert cert.theta == 3.0 * math.pi / 4.0
    sp, cp = math.sqrt(1.0 - z0 * z0), z0
    st, ct = math.sqrt(0.5), -math.sqrt(0.5)
    kbar = _KBAR[kind]

    def dt_dw(w):
        a = math.exp(w)
        ca, sa = math.cos(a / 2.0), math.sin(a / 2.0)
        zp, zm = ca * cp - sa * sp * ct, ca * cp + sa * sp * ct
        return a / (-sp * st * (kbar(zm) - kbar(zp)))

    edges = np.append(np.arange(math.log(alpha0), math.log(alpha_stop), 1.0),
                      math.log(alpha_stop))
    want = sum(quad(dt_dw, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
               for lo, hi in zip(edges[:-1], edges[1:]))
    ts, alphas = bn.growth_trace(nl.reduce(n), cert, alpha0, alpha_stop)
    assert alphas[0] == alpha0 and alphas[-1] == alpha_stop
    assert ts[-1] == pytest.approx(want, rel=1e-9)


def test_growth_trace_gp_equator_matches_closed_form():
    # at z0 = 0, theta = 3 pi/4 the quadratic pair obeys d alpha/dt = g sin(alpha/2)
    # exactly, so t(alpha) = (2/g) ln(tan(alpha/4) / tan(alpha0/4))
    g = 1.5
    kbar = nl.reduce(nl.gross_pitaevskii(g))
    cert = bn.certify_growth(kbar, 0.0, 0.4)
    ts, alphas = bn.growth_trace(kbar, cert, 1e-9, 2.5)
    want = (2.0 / g) * np.log(np.tan(alphas / 4.0) / math.tan(1e-9 / 4.0))
    assert alphas[-1] == 2.5
    assert np.max(np.abs(ts - want) / np.maximum(want, 1e-300)) <= 1e-12


def test_certify_growth_refuses_a_window_that_is_not_positive():
    # Delta = nan passed "Delta <= 0" and certified g_local = nan
    for delta in (math.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match=f"Delta must be > 0, got {delta!r}"):
            bn.certify_growth(nl.reduce(nl.gross_pitaevskii(1.0)), 0.5, delta)


@pytest.mark.parametrize("g_lip", [math.nan, math.inf, -1.0])
def test_separation_bound_refuses_a_lipschitz_constant_that_is_not_finite_and_nonnegative(g_lip):
    # these answered bound_ok = False
    with pytest.raises(ValueError, match=f"g_lip must be finite and >= 0, got {g_lip!r}"):
        bn.check_lipschitz_separation_bound(nl.gross_pitaevskii(1.0), 1e-3, 1.0, g_lip=g_lip)


def test_separation_bound_refuses_an_infinite_duration():
    # duration = inf answered bound_ok = True
    with pytest.raises(ValueError, match="duration must be finite and >= 0, got inf"):
        bn.check_lipschitz_separation_bound(nl.gross_pitaevskii(1.0), 1e-3, math.inf)


def _not_finite_beyond(cut):
    # the identity inside |z| <= cut, NaN outside it
    return nl.from_odd_function(lambda z: np.where(np.abs(z) > cut, math.nan, z))


def test_certify_growth_refuses_a_reduction_that_is_not_finite_in_the_window():
    # certified g_local = nan with a direction drawn from NaN signs
    out = bn.certify_growth(nl.reduce(_not_finite_beyond(0.35)), 0.3, 0.2)
    assert isinstance(out, bn.GrowthRefusal)
    first = 0.3 + np.linspace(0.2 / 10_000, 0.2, 10_000, endpoint=False)
    first = float(first[first > 0.35][0])
    assert out.reason == f"kbar is not finite at z = {first!r}"
    out = bn.certify_growth(nl.reduce(_not_finite_beyond(0.25)), 0.3, 0.2)
    assert out.reason == "kbar is not finite at z = 0.3"


def test_estimate_lipschitz_refuses_a_reduction_that_is_not_finite():
    # answered g_lip = nan, finite = False, which the separation check then
    # blamed on the absence of a finite Lipschitz constant
    n = nl.from_odd_function(lambda z: np.where(z > 0.35, math.nan, z))
    first = np.linspace(-1.0, 1.0, 10_000)
    first = float(first[first > 0.35][0])
    with pytest.raises(ValueError, match=f"kbar is not finite at z = {first!r}"):
        bn.estimate_lipschitz(nl.reduce(n))
    with pytest.raises(ValueError, match=f"kbar is not finite at z = {first!r}"):
        bn.check_lipschitz_separation_bound(n, 1e-3, 1.0)
    with pytest.raises(ValueError, match="Lipschitz constant must be nonnegative, got nan"):
        bn.LipschitzEstimate(math.nan)


def test_certify_growth_refuses_a_window_below_the_grid_resolution():
    # the first sampled offsets underflow to 0, and 0/0 certified g_local = nan
    with np.errstate(invalid="ignore"):
        out = bn.certify_growth(nl.reduce(nl.gross_pitaevskii(1.0)), 0.3, 1e-320)
    assert isinstance(out, bn.GrowthRefusal)
    assert out.reason.startswith("sampled growth floor nan")


# The two sampled bounds as they were before blocked sampling: one linspace
# each, evaluated in one kbar call.
def _frozen_certify_growth(kbar, z0, Delta, grid):
    hi = Delta
    lo = Delta
    if z0 + hi > 1.0:
        hi = 1.0 - z0
    if z0 - lo < -1.0:
        lo = z0 + 1.0
    k0 = float(kbar(z0))
    deltas = np.concatenate([
        -np.linspace(lo / grid, lo, grid, endpoint=False),
        np.linspace(hi / grid, hi, grid, endpoint=False),
    ])
    diffs = np.asarray(kbar(z0 + deltas)) - k0
    g_local = float(np.min(np.abs(diffs) / np.abs(deltas)))
    if g_local < bn.MIN_GROWTH:
        return bn.GrowthRefusal(z0, Delta,
                                f"sampled growth floor {g_local:.3e} below {bn.MIN_GROWTH}")
    up = np.mean(np.sign(diffs * deltas))
    direction = 1 if up >= 0 else -1
    return bn.GrowthCertificate(z0, g_local, min(hi, Delta), direction)


def _frozen_estimate_lipschitz(kbar, grid):
    def sup_quotient(n):
        z = np.linspace(-1.0, 1.0, n)
        vals = np.asarray(kbar(z))
        return float(np.max(np.abs(np.diff(vals)) / np.diff(z)))

    coarse = sup_quotient(grid)
    fine = sup_quotient(grid * bn.REFINE_FACTOR)
    finite = fine <= coarse * bn.UNBOUNDED_GROWTH + 1e-12 or fine < 1e-9
    return bn.LipschitzEstimate(g_lip=fine, finite=finite)


_X = np.linspace(0.0, 1.0, 41)
_KINDS = {"gp": nl.gross_pitaevskii(1.3), "log": nl.logarithmic(0.7),
          "sqrt": nl.square_root_sign(1.0),
          "odd": nl.from_odd_function(lambda z: np.sinh(3.0 * np.asarray(z)) / 3.0),
          "quartic": nl.quartic_difference(1.0),
          "table": nl.piecewise_from_table(_X, 0.8 * _X * _X + 0.3 * np.sin(3.0 * _X))}
_GRIDS = [2, 3, 8191, 8192, 8193, 10_000]


def _bits(out):
    if isinstance(out, bn.GrowthRefusal):
        return out
    if isinstance(out, bn.LipschitzEstimate):
        return out.g_lip.hex(), out.finite
    return out.z0, out.g_local.hex(), out.delta_window.hex(), out.direction


@pytest.mark.filterwarnings("ignore:growth window clipped")
@pytest.mark.parametrize("grid", _GRIDS)
@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_certify_growth_is_the_frozen_certificate_bit_for_bit(kind, grid):
    kbar = nl.reduce(_KINDS[kind])
    for z0 in (0.0, 0.3, 0.6, 0.9):  # 0.9 with Delta = 0.5 is clipped above
        for delta in (0.2, 0.5):
            want = _frozen_certify_growth(kbar, z0, delta, grid)
            assert _bits(bn.certify_growth(kbar, z0, delta, grid)) == _bits(want)


@pytest.mark.parametrize("grid", _GRIDS)
@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_estimate_lipschitz_is_the_frozen_estimate_bit_for_bit(kind, grid):
    kbar = nl.reduce(_KINDS[kind])
    want = _frozen_estimate_lipschitz(kbar, grid)
    assert _bits(bn.estimate_lipschitz(kbar, grid)) == _bits(want)


@pytest.mark.parametrize("start, stop, num, endpoint", [
    (-1.0, 1.0, bn.DEFAULT_GRID, True),
    (-1.0, 1.0, bn.DEFAULT_GRID * bn.REFINE_FACTOR, True),
    *((span / bn.DEFAULT_GRID, span, bn.DEFAULT_GRID, False)
      for span in (0.2, 0.5, 1.0 - 0.9, 1.0 - 0.6)),
    (-1.0, 1.0, 2, True), (0.5 / 3, 0.5, 3, False),
    (1e-320 / bn.DEFAULT_GRID, 1e-320, bn.DEFAULT_GRID, False),  # the step underflows
])
def test_linspace_blocks_are_linspace_bit_for_bit(start, stop, num, endpoint):
    want = np.linspace(start, stop, num, endpoint=endpoint)
    for overlap in (0, 1):
        blocks = list(bn._linspace_blocks(start, stop, num, endpoint, overlap))
        assert all(len(b) <= bn.BLOCK for b in blocks)
        for a, b in zip(blocks[:-1], blocks[1:]):
            assert a[len(a) - overlap:].tobytes() == b[:overlap].tobytes()
        got = np.concatenate([blocks[0]] + [b[overlap:] for b in blocks[1:]])
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("grid", [bn.DEFAULT_GRID, 1_000_000])
def test_sampled_bounds_hold_a_few_blocks_whatever_the_grid(grid):
    # numpy's data buffers are traced; before blocked sampling the default
    # grid peaked at 782 KiB (certify) and 1,251 KiB (Lipschitz) and grew
    # with the grid
    kbar = nl.reduce(nl.logarithmic(1.0))
    for call in (lambda: bn.certify_growth(kbar, 0.3, 0.5, grid),
                 lambda: bn.estimate_lipschitz(kbar, grid)):
        call()
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 512 * 1024
