import math

import numpy as np
import pytest

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


def test_exp_growth_rate_formula_values():
    cert = bn.GrowthCertificate(z0=0.0, g_local=1.0, delta_window=0.5,
                                direction=1, grid=100)
    assert bn.exp_growth_rate(cert) == pytest.approx(1.0 / math.sqrt(2.0))
    cert_half = bn.GrowthCertificate(z0=0.5, g_local=1.0, delta_window=0.5,
                                     direction=1, grid=100)
    assert bn.exp_growth_rate(cert_half) == pytest.approx(math.sqrt(0.375))
    near_pole = bn.GrowthCertificate(z0=0.999999, g_local=1.0,
                                     delta_window=0.1, direction=1, grid=100)
    assert bn.exp_growth_rate(near_pole) == pytest.approx(0.0, abs=2e-3)


def test_validity_angle_formula():
    cert = bn.GrowthCertificate(z0=0.5, g_local=1.0, delta_window=0.3,
                                direction=1, grid=100)
    a = cert.validity_alpha
    assert math.sqrt(2 * (1 - 0.25)) * math.sin(a / 2) == pytest.approx(0.3, abs=1e-12)


def test_growth_trace_respects_certified_exponential():
    # the maintained-orientation dynamics at midpoint latitude z0 grow at
    # least at the certified exponent (the nominal sqrt((1-z0^2)/2) headline
    # constant is not realized by the exact dynamics; see certified_exp_rate)
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
                p = bd.PairOrientation(alpha, cert.phi, cert.theta)
                rate = bd.ip_rate(kbar, p)
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
            zp, zm = p.z_pair()
            want = math.sqrt(2 * (1 - z0 ** 2)) * math.sin(alpha / 2)
            assert abs(abs(zp - zm) - want) <= 1e-12
    # |z+ - z-| <= alpha for arbitrary orientations
    for _ in range(300):
        p = bd.PairOrientation(float(rng.uniform(0.0, math.pi)),
                               float(rng.uniform(0.0, math.pi)),
                               float(rng.uniform(0.0, 2 * math.pi)))
        zp, zm = p.z_pair()
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


def test_bound_report_csv_format():
    text = bn.bound_report_csv([{
        "nonlinearity": "gp:1", "z0": 0.0, "g_local": 1.0, "c": 0.5,
        "bound_ok": True, "max_ratio": 0.25,
    }])
    lines = text.strip().split("\n")
    assert lines[0] == "nonlinearity,z0,g_local,c,bound_ok,max_ratio"
    assert lines[1].startswith("gp:1,0,1,")


def test_growth_trace_refuses_unmeetable_rtol_and_reversed_angles():
    kbar = nl.reduce(nl.gross_pitaevskii(1.0))
    cert = bn.certify_growth(kbar, 0.0, 0.4)
    for rtol in (float("nan"), 1e-15):
        with pytest.raises(ValueError, match="rtol"):
            bn.growth_trace(kbar, cert, 1e-3, 0.05, rtol=rtol)
    with pytest.raises(ValueError, match="alpha_stop"):
        bn.growth_trace(kbar, cert, 0.05, 1e-3)


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
