import math

import numpy as np
import pytest

from nlqsim import nonlinearity as nl


CATALOG = [
    nl.gross_pitaevskii(1.0),
    nl.gross_pitaevskii(2.5),
    nl.logarithmic(1.0),
    nl.logarithmic(0.5),
    nl.square_root_sign(1.0),
    nl.quartic_difference(1.0),
]


def test_reduce_gp_is_exactly_linear():
    kbar = nl.reduce(nl.gross_pitaevskii(2.0))
    assert kbar(0.5) == 1.0
    zs = np.linspace(-1, 1, 1001)
    assert np.max(np.abs(kbar(zs) - 2.0 * zs)) == 0.0
    # the generic defining formula agrees with the shortcut
    assert np.max(np.abs(kbar.generic(zs) - 2.0 * zs)) <= 1e-12


@pytest.mark.parametrize("n", [nl.logarithmic(1.3), nl.square_root_sign(0.7)])
def test_reduce_closed_forms_match_generic_and_keep_digits_near_zero(n):
    kbar = nl.reduce(n)
    zs = np.linspace(0.01, 0.999, 500)
    zs = np.concatenate([-zs, zs])  # away from z = 0, where the generic form loses digits
    assert np.max(np.abs(kbar(zs) / kbar.generic(zs) - 1.0)) <= 1e-12
    for z in (1e-6, 1e-10, 1e-14):
        want = 2.0 * n.g * math.atanh(z) if n.kind is nl.Kind.LOGARITHMIC else n.g * math.sqrt(z)
        assert kbar(z) == pytest.approx(want, rel=1e-14, abs=0.0)
        assert kbar(-z) == -kbar(z)


def test_reduce_vanishes_at_origin():
    for n in CATALOG:
        assert nl.reduce(n)(0.0) == pytest.approx(0.0, abs=1e-15)


def test_reduce_logarithmic_value():
    # kbar(z) = g ln((1+z)/(1-z)); at z = 0.5 this is ln 3
    kbar = nl.reduce(nl.logarithmic(1.0))
    assert kbar(0.5) == pytest.approx(1.0986122886681098, abs=1e-12)


def test_reduce_square_root_sign():
    kbar = nl.reduce(nl.square_root_sign(1.0))
    zs = np.linspace(-1, 1, 501)
    want = np.sign(zs) * np.sqrt(np.abs(zs))
    assert np.max(np.abs(kbar(zs) - want)) <= 1e-12


def test_odd_parity_property():
    rng = np.random.default_rng(0)
    zs = rng.uniform(-1.0, 1.0, size=1000)
    for n in CATALOG:
        kbar = nl.reduce(n)
        assert np.max(np.abs(kbar(zs) + kbar(-zs))) <= 1e-12


def test_quartic_reduction_vanishes():
    kbar = nl.reduce(nl.quartic_difference(1.0))
    zs = np.linspace(-1.0, 1.0, 4001)
    assert np.max(np.abs(kbar(zs))) <= 1e-12


def test_logarithmic_clamped_at_poles():
    kbar = nl.reduce(nl.logarithmic(1.0))
    assert math.isfinite(kbar(1.0))
    assert math.isfinite(kbar(-1.0))
    assert kbar(1.0) == -kbar(-1.0)


def test_build_from_mu_nu_sqrt_example():
    # mu = 0, nu(x) = sqrt(1 - 2 x^2) realizes kbar(z) = sgn(z) sqrt(|z|)
    n = nl.build_from_mu_nu(
        lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        lambda x: np.sqrt(np.maximum(1.0 - 2.0 * np.asarray(x) ** 2, 0.0)),
    )
    kbar = nl.reduce(n)
    # away from z = 0, where sqrt's unbounded slope amplifies rounding of
    # the branch composition
    zs = np.concatenate([np.linspace(-0.999, -1e-6, 200),
                         np.linspace(1e-6, 0.999, 200)])
    assert np.max(np.abs(kbar(zs) - np.sign(zs) * np.sqrt(np.abs(zs)))) <= 1e-12


def test_build_from_mu_nu_identical_branches_cancel():
    f = lambda x: np.cos(np.asarray(x, dtype=float))
    kbar = nl.reduce(nl.build_from_mu_nu(f, f))
    zs = np.linspace(-1, 1, 101)
    assert np.max(np.abs(kbar(zs))) <= 1e-12


def test_build_from_mu_nu_linear_example():
    # mu(x) = x, nu(x) = 2x: kbar(0.5) = sqrt((1-0.5)/2) = 0.5
    n = nl.build_from_mu_nu(lambda x: np.asarray(x, dtype=float),
                            lambda x: 2.0 * np.asarray(x, dtype=float))
    assert nl.reduce(n)(0.5) == pytest.approx(0.5, abs=1e-15)


def test_build_from_mu_nu_roundtrip_closed_form():
    mu = lambda x: np.sin(3.0 * np.asarray(x, dtype=float))
    nu = lambda x: np.asarray(x, dtype=float) ** 2 - 0.2
    kbar = nl.reduce(nl.build_from_mu_nu(mu, nu))
    zs = np.linspace(1e-9, 1.0, 2000)
    closed = nu(np.sqrt((1 - zs) / 2)) - mu(np.sqrt((1 - zs) / 2))
    assert np.max(np.abs(kbar(zs) - closed)) <= 1e-12


def test_build_from_mu_nu_accepts_samples():
    xs = np.linspace(0.0, nl.INV_SQRT2, 200)
    mu = np.stack([xs, xs], axis=1)        # mu(x) = x
    nu = np.stack([xs, 2.0 * xs], axis=1)  # nu(x) = 2x
    n = nl.build_from_mu_nu(mu, nu)
    assert nl.reduce(n)(0.5) == pytest.approx(0.5, abs=1e-9)


def test_build_from_mu_nu_rejects_short_domain():
    xs = np.linspace(0.0, 0.4, 50)  # does not reach 1/sqrt(2)
    samples = np.stack([xs, xs], axis=1)
    with pytest.raises(ValueError, match="cover"):
        nl.build_from_mu_nu(samples, samples)


def test_from_odd_function_reproduces_target():
    target = lambda z: np.tanh(2.0 * np.asarray(z, dtype=float))
    kbar = nl.reduce(nl.from_odd_function(target))
    zs = np.linspace(-1, 1, 501)
    assert np.max(np.abs(kbar(zs) - target(zs))) <= 1e-12


def test_piecewise_table_monotone_interpolation():
    xs = np.linspace(0.0, 1.0, 40)
    ys = xs ** 2
    n = nl.piecewise_from_table(xs, ys)
    grid = np.linspace(0.0, 1.0, 400)
    vals = n.kappa(grid)
    assert np.all(np.diff(vals) >= -1e-12)  # monotone data stays monotone
    assert np.max(np.abs(vals - grid ** 2)) < 2e-4


def test_piecewise_from_csv(tmp_path):
    path = tmp_path / "kappa.csv"
    xs = np.linspace(0.0, 1.0, 30)
    path.write_text("x,kappa\n" + "\n".join(f"{x},{x**2}" for x in xs))
    n = nl.piecewise_from_csv(path, g=2.0)
    assert n.kappa(0.5) == pytest.approx(2.0 * 0.25, abs=1e-3)


def test_parse_spec_strings():
    assert nl.parse("gp:1.0").kind is nl.Kind.GROSS_PITAEVSKII
    assert nl.parse("log:0.5").g == 0.5
    assert nl.parse("sqrt").kind is nl.Kind.SQUARE_ROOT_SIGN
    assert nl.parse("quartic").g == 1.0
    with pytest.raises(ValueError):
        nl.parse("weinberg:1")


def test_parse_roundtrip():
    for spec in ("gp:1", "gp:2.5", "log:0.5", "sqrt:1", "quartic:1"):
        n = nl.parse(spec)
        again = nl.parse(n.spec_string())
        assert again.kind is n.kind and again.g == n.g


def test_strength_validation():
    with pytest.raises(ValueError):
        nl.gross_pitaevskii(-1.0)
    # g = 0 is allowed: it turns the nonlinear term off
    assert nl.gross_pitaevskii(0.0).g == 0.0
