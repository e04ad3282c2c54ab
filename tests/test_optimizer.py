import dataclasses
import math
import re

import numpy as np
import pytest
from scipy.optimize import minimize

from nlqsim import nonlinearity as nl
from nlqsim import optimizer as op
from nlqsim import search as sr
from nlqsim.blochdyn import ip_rate_vectors, pair_overlap_rate, qubit_bloch_vector


def test_rate_functional_zero_for_vanishing_reduction_on_qubits():
    rng = np.random.default_rng(21)
    quartic = nl.quartic_difference(1.0)
    for _ in range(100):
        v = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        e = op.PairEmbedding(2, v[0], v[1])
        if e.overlap() < 1e-6:
            continue
        assert abs(op.rate_functional(quartic, e)) <= 1e-12


def test_rate_functional_optimal_quadratic_pair():
    g = 1.3
    for alpha in (0.3, 1.0, 2.2):
        beta = alpha / 4
        psi = np.array([math.cos(beta), math.sin(beta)], dtype=complex)
        phi = np.array([math.cos(beta), -math.sin(beta)], dtype=complex)
        # rotate into the optimal orientation via the frame search
        res = op.optimize_orientation(nl.gross_pitaevskii(g), alpha, 2,
                                      restarts=8, seed=1)
        want = -(g / 2) * math.sin(alpha / 2) ** 2
        assert res.best_rate == pytest.approx(want, abs=1e-8)


def test_rate_functional_agrees_with_bloch_rate():
    rng = np.random.default_rng(22)
    n = nl.logarithmic(0.9)
    kbar = nl.reduce(n)
    for _ in range(1000):
        v = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        e = op.PairEmbedding(2, v[0], v[1])
        c = e.overlap()
        if c < 1e-3:
            continue
        b1 = qubit_bloch_vector(v[0])
        b2 = qubit_bloch_vector(v[1])
        bloch_rate = ip_rate_vectors(kbar, b1, b2) / (4.0 * c)
        assert abs(op.rate_functional(n, e) - bloch_rate) <= 1e-10


def test_rate_functional_orthogonal_pair_flagged():
    # |<psi|phi>| is not differentiable at 0: the rate is |d<psi|phi>/dt|
    psi = np.array([1.0, 0.0], dtype=complex)
    phi = np.array([0.0, 1.0], dtype=complex)
    n = nl.gross_pitaevskii(1.0)
    rate = op.rate_functional(n, op.PairEmbedding(2, psi, phi))
    w = n.kappa(np.abs(psi)) - n.kappa(np.abs(phi))
    assert rate == abs(nl.weighted_overlap_derivative(w, psi, phi))
    assert rate >= 0.0  # one-sided derivative magnitude


def test_rate_functional_finite_difference_against_nlse():
    rng = np.random.default_rng(23)
    n = nl.gross_pitaevskii(1.0)
    h = 1e-6
    for _ in range(5):
        v = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        e = op.PairEmbedding(4, v[0], v[1])
        if e.overlap() < 0.05:
            continue
        rate = op.rate_functional(n, e)
        psi_h = sr.integrate_nlse(n, None, None, v[0], h,
                                  rtol=1e-12, atol=1e-14).states[-1]
        phi_h = sr.integrate_nlse(n, None, None, v[1], h,
                                  rtol=1e-12, atol=1e-14).states[-1]
        fd = (abs(np.vdot(psi_h, phi_h)) - e.overlap()) / h
        assert abs(fd - rate) <= 1e-4 * max(1.0, abs(rate))


def test_canonical_pair_overlap():
    for alpha in (0.2, 1.0, 2.5):
        pair = op.canonical_pair(alpha)
        c = abs(np.vdot(pair[:, 0], pair[:, 1]))
        assert c == pytest.approx(math.cos(alpha / 2), abs=1e-14)


def test_optimizer_recovers_quadratic_optimum_and_angles():
    g, alpha = 1.0, math.pi / 4
    res = op.optimize_orientation(nl.gross_pitaevskii(g), alpha, 2,
                                  restarts=16, seed=0)
    want = -(g / 2) * math.sin(alpha / 2) ** 2
    assert res.best_rate == pytest.approx(want, abs=1e-8)
    phi_a, theta_a = res.angles
    assert abs(phi_a - math.pi / 2) <= 1e-3
    # theta is defined modulo swapping the pair (theta -> theta + pi)
    theta_err = min(abs(theta_a - 3 * math.pi / 4), abs(theta_a - 7 * math.pi / 4))
    assert theta_err <= 1e-3
    # the reported rate is reproducible from the returned embedding
    assert op.rate_functional(nl.gross_pitaevskii(g), res.argmax) == pytest.approx(
        res.best_rate, abs=1e-10)


def test_optimizer_constraint_preserved_along_trajectory():
    # every visited frame preserves the overlap exactly by construction;
    # check a sample of random frames plus the optimum
    rng = np.random.default_rng(24)
    alpha = 0.8
    states = op._build_states(rng.normal(size=(64, 4, 4)), op.canonical_pair(alpha))
    overlaps = np.abs(np.sum(np.conj(states[:, :, 0]) * states[:, :, 1], axis=1))
    assert np.max(np.abs(overlaps - math.cos(alpha / 2))) <= 1e-10
    res = op.optimize_orientation(nl.gross_pitaevskii(1.0), alpha, 4,
                                  restarts=4, seed=2)
    assert abs(res.argmax.overlap() - math.cos(alpha / 2)) <= 1e-10


def test_optimizer_permutation_symmetry():
    rng = np.random.default_rng(25)
    n = nl.quartic_difference(1.0)
    v = rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    e = op.PairEmbedding(5, v[0], v[1])
    base = op.rate_functional(n, e)
    perm = rng.permutation(5)
    e2 = op.PairEmbedding(5, v[0][perm], v[1][perm])
    assert abs(op.rate_functional(n, e2) - base) <= 1e-10


def test_optimizer_dim_monotonicity():
    n = nl.quartic_difference(1.0)
    alpha = 0.5
    prev = op.optimize_orientation(n, alpha, 2, restarts=8, seed=3)
    for dim in (3, 4, 5):
        res = op.optimize_orientation(n, alpha, dim, restarts=8, seed=3 + dim,
                                      warm_start=prev)
        assert res.best_rate <= prev.best_rate + 1e-10
        prev = res


def test_optimizer_quartic_dimension_structure():
    n = nl.quartic_difference(1.0)
    alpha = 0.5
    r2 = op.optimize_orientation(n, alpha, 2, restarts=8, seed=0)
    assert abs(r2.best_rate) <= 1e-12
    r3 = op.optimize_orientation(n, alpha, 3, restarts=16, seed=3, warm_start=r2)
    assert r3.best_rate < -1e-4


def test_optimizer_deterministic_given_seed():
    n = nl.logarithmic(1.0)
    a = op.optimize_orientation(n, 0.6, 3, restarts=6, seed=42)
    b = op.optimize_orientation(n, 0.6, 3, restarts=6, seed=42)
    assert a.best_rate == b.best_rate
    assert np.array_equal(a.params, b.params)


def test_chain_zero_nonlinearity_gives_zero_rates_and_gaps():
    for alpha in (0.4, 1.2):
        chain = op.orientation_chain(nl.gross_pitaevskii(0.0), alpha, 3, restarts=4, seed=0)
        for r in chain:
            assert r.best_rate == 0.0
            assert r.best_rate - chain[0].best_rate == 0.0


@pytest.mark.parametrize("dim", [1, 9, 0, 2.5, float("nan")])
def test_chain_refuses_a_dimension_outside_two_to_eight(dim):
    message = f"dim must be a whole number in [2, 8], got {dim!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        op.orientation_chain(nl.gross_pitaevskii(1.0), 0.5, dim)


def test_chain_log_optimum_theta_near_three_quarter_pi():
    # the theta optimum drifts away from 3*pi/4 as the pair opens up
    # (measured: 0.0002 rad at alpha=0.1, 0.0729 at alpha=1.8); the
    # approximate-optimum statement targets the near-parallel regime
    for alpha in (0.1, 0.3, 0.8, 1.5):
        (r,) = op.orientation_chain(nl.logarithmic(1.0), alpha, 2, restarts=12, seed=1)
        phi_a, theta_a = r.angles
        assert abs(phi_a - math.pi / 2) <= 1e-3
        theta_err = min(abs(theta_a - 3 * math.pi / 4),
                        abs(theta_a - 7 * math.pi / 4))
        assert theta_err <= 0.05


def test_chain_is_the_hand_chained_links_bit_for_bit():
    n, alpha = nl.quartic_difference(1.0), 0.5
    chain = op.orientation_chain(n, alpha, 5, restarts=6, seed=7)
    prev = op.optimize_orientation(n, alpha, 2, restarts=6, seed=9)
    links = [prev]
    for d in (3, 4, 5):
        prev = op.optimize_orientation(n, alpha, d, restarts=6, seed=7 + d, warm_start=prev)
        links.append(prev)
    assert [r.argmax.dim for r in chain] == [2, 3, 4, 5]
    for got, want in zip(chain, links, strict=True):
        assert (got.best_rate, got.seed, got.restarts, got.converged_sweeps, got.angles) == (
            want.best_rate, want.seed, want.restarts, want.converged_sweeps, want.angles)
        assert np.array_equal(got.params, want.params)
        assert np.array_equal(got.argmax.psi, want.argmax.psi)
        assert np.array_equal(got.argmax.phi, want.argmax.phi)
    assert all(b.best_rate <= a.best_rate for a, b in zip(chain, chain[1:]))


@pytest.mark.parametrize("restarts", [0, 2.5, float("nan"), float("inf"), -1])
def test_optimize_orientation_refuses_restarts_that_are_not_whole_and_positive(restarts):
    # 2.5 and nan ended in numpy's TypeError
    with pytest.raises(ValueError, match=re.escape(
            f"restarts must be a whole number >= 1, got {restarts!r}")):
        op.optimize_orientation(nl.gross_pitaevskii(1.0), 0.5, 3, restarts=restarts)


def test_optimize_orientation_takes_a_whole_float_restart_count():
    n = nl.logarithmic(1.0)
    a = op.optimize_orientation(n, 0.6, 3, restarts=4.0, seed=3)
    b = op.optimize_orientation(n, 0.6, 3, restarts=4, seed=3)
    assert a.restarts == 4 and a.best_rate == b.best_rate
    assert np.array_equal(a.params, b.params)


@pytest.mark.parametrize("max_sweeps", [-3, 0, 2.5, float("nan"), float("inf"), None])
def test_optimize_orientation_refuses_max_sweeps_that_are_not_whole_and_positive(max_sweeps):
    # -3 and nan returned the unoptimized start as capped, 2.5 ran 3
    # iterations and None ended in a TypeError from the loop's comparison
    with pytest.raises(ValueError, match=re.escape(
            f"max_sweeps must be a whole number >= 1, got {max_sweeps!r}")):
        op.optimize_orientation(nl.logarithmic(1.0), 0.6, 3, max_sweeps=max_sweeps)


@pytest.mark.parametrize("dim", [2.5, 1, 0, float("nan"), None])
def test_optimize_orientation_refuses_a_dimension_that_is_not_whole(dim):
    with pytest.raises(ValueError, match=re.escape(
            f"dim must be a whole number >= 2, got {dim!r}")):
        op.optimize_orientation(nl.logarithmic(1.0), 0.6, dim)


@pytest.mark.parametrize("dim", [2, 3])
def test_optimize_orientation_takes_a_whole_float_dimension(dim):
    # orientation_chain took 3.0, and optimize_orientation ended in numpy's
    # "'float' object cannot be interpreted as an integer"
    n = nl.logarithmic(1.0)
    a = op.optimize_orientation(n, 0.6, float(dim), restarts=2, seed=3)
    b = op.optimize_orientation(n, 0.6, dim, restarts=2, seed=3)
    assert type(a.argmax.dim) is int and a.argmax.dim == dim
    assert a.best_rate == b.best_rate and np.array_equal(a.params, b.params)


def _grid_rates(kappa, states):
    """d|<psi|phi>|/dt for each row of a (R, dim, 2) batch of pairs."""
    psi, phi = states[:, :, 0], states[:, :, 1]
    inner = np.sum(np.conj(psi) * phi, axis=1)
    w = kappa.kappa(np.abs(psi)) - kappa.kappa(np.abs(phi))
    return np.real(np.conj(inner / np.abs(inner)) * nl.weighted_overlap_derivative(w, psi, phi))


def _qubit_rotation(theta, beta):
    """The unitary [[c, -e s], [e* s, c]], c = cos theta, s = sin theta,
    e = exp(i beta); (..., 2, 2) for array angles."""
    c, s, e = np.cos(theta), np.sin(theta), np.exp(1j * np.asarray(beta))
    return np.stack([np.stack([c, -e * s], axis=-1), np.stack([np.conj(e) * s, c], axis=-1)],
                    axis=-2)


def _qubit_pairs(alpha, theta, beta):
    """Qubit pairs (columns) of Bloch orientation (2 theta, beta): the
    rotation applied to the pair (cos(alpha/4), +-sin(alpha/4))."""
    half = alpha / 4.0
    return _qubit_rotation(theta, beta) @ np.array([[math.cos(half), math.cos(half)],
                                                    [math.sin(half), -math.sin(half)]])


def _qubit_brute_force(kappa, alpha):
    """Best rate over the rotation angles (theta, beta): a dense grid
    polished by Nelder-Mead from its best point."""
    T, B = np.meshgrid(np.linspace(0.0, math.pi / 2, 121),
                       np.linspace(0.0, 2 * math.pi, 240, endpoint=False), indexing="ij")
    grid = np.stack([T.ravel(), B.ravel()], axis=1)
    rates = _grid_rates(kappa, _qubit_pairs(alpha, grid[:, 0], grid[:, 1]))
    k = int(np.argmin(rates))
    scale = abs(rates[k])
    if scale <= 1e-12:  # no orientation separates: nothing to polish
        return rates[k]

    def f(x):
        states = _qubit_pairs(alpha, x[0], x[1])
        return op.rate_functional(kappa, op.PairEmbedding(2, states[:, 0], states[:, 1])) / scale

    res = minimize(f, grid[k], method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 2000})
    return min(res.fun, rates[k] / scale) * scale


QUBIT_KINDS = {
    "gp": nl.gross_pitaevskii(1.0),
    "log": nl.logarithmic(1.0),
    "sqrt": nl.square_root_sign(1.0),
    "quartic": nl.quartic_difference(1.0),
    "odd": nl.from_odd_function(lambda z: np.sinh(3.0 * np.asarray(z, dtype=float)) / 3.0),
}


@pytest.mark.parametrize("kind", sorted(QUBIT_KINDS))
def test_qubit_optimum_matches_brute_force(kind):
    kappa = QUBIT_KINDS[kind]
    for alpha in (0.01, 0.1, 0.5, 1.0, 2.0, 2.8, 3.1):
        res = op.optimize_orientation(kappa, alpha, 2)
        ref = _qubit_brute_force(kappa, alpha)
        if kind == "quartic":  # kbar == 0: every qubit orientation has rate 0
            assert abs(res.best_rate) <= 1e-12 and abs(ref) <= 1e-12
        else:
            assert res.best_rate == pytest.approx(ref, rel=1e-9, abs=0.0), alpha


def test_qubit_optimum_square_root_small_angle():
    # At phi = pi/2 the pair straddles z = 0 and kbar = g sgn(z) sqrt|z| gives
    # the closed form -g s^(3/2) sqrt(2/3) 3^(-1/4) at tan(theta) = sqrt(2).
    g, alpha = 1.1, 1e-3
    s = math.sin(alpha / 2)
    want = -g * s ** 1.5 * math.sqrt(2.0 / 3.0) * 3.0 ** -0.25
    res = op.optimize_orientation(nl.square_root_sign(g), alpha, 2, restarts=8)
    assert res.best_rate == pytest.approx(want, rel=1e-8, abs=0.0)


def test_qubit_parameters_round_trip():
    kappa = nl.logarithmic(0.8)
    for alpha in (0.3, 1.7):
        res = op.optimize_orientation(kappa, alpha, 2)
        assert res.converged_sweeps == 0 and not res.capped
        # the frame is the rotation of the Bloch orientation (phi, theta)
        phi, theta = res.angles
        want = _qubit_rotation(phi / 2.0, theta)
        assert res.params.shape == (2, 4)
        assert np.allclose(res.params.view(complex), want, rtol=0.0, atol=1e-15)
        states = op._build_states(res.params[None], op.canonical_pair(alpha))[0]
        assert np.array_equal(states[:, 0], res.argmax.psi)
        assert np.array_equal(states[:, 1], res.argmax.phi)
        # the angles are the pair's Bloch orientation: the Bloch-sphere rate
        # kernel at them gives the rate of the returned states
        bloch_rate = pair_overlap_rate(nl.reduce(kappa), math.cos(alpha / 2),
                                       math.sin(alpha / 2), *res.angles)
        assert bloch_rate == pytest.approx(res.best_rate, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("alpha", [0.3, 1.1])
@pytest.mark.parametrize("kind", ["gp", "log", "quartic", "sqrt"])
def test_a_qubit_result_is_built_on_one_kappa_evaluation(kind, alpha, monkeypatch):
    # the states, the rate and its gradient share one kappa(|states|); the
    # parent evaluated kappa three times.  (A custom kind's kappa' takes a
    # central difference of kappa, two calls more.)
    kappa, calls = QUBIT_KINDS[kind], []
    inner = nl.Nonlinearity.kappa
    monkeypatch.setattr(nl.Nonlinearity, "kappa",
                        lambda self, x: calls.append(np.shape(x)) or inner(self, x))
    res = op.optimize_orientation(kappa, alpha, 2)
    assert calls == [(1, 2, 2)]
    monkeypatch.undo()
    assert res.best_rate == op.rate_functional(kappa, res.argmax)
    assert res.grad_norm <= 1e-8


@pytest.mark.parametrize("kind", sorted(QUBIT_KINDS))
@pytest.mark.parametrize("dim", [3, 4, 6])  # 6: criterion 10's largest dimension
def test_rate_gradient_matches_central_differences(kind, dim):
    kappa = QUBIT_KINDS[kind]
    block = op.canonical_pair(0.7)
    params = np.random.default_rng(dim).normal(size=(3, dim, 4))
    # a leans on the first coordinate, so |psi_0| passes 1/sqrt(2), where the
    # square-root kappa turns on
    params[:, 0, :2] += 2.0
    states = op._build_states(params, block)
    grad = op._rate_gradient(kappa, op._frame(params), states, block, kappa.kappa(np.abs(states)))
    h = 1e-6
    fd = np.empty_like(grad)
    for k, c in np.ndindex(params.shape[1:]):
        up, down = params.copy(), params.copy()
        up[:, k, c] += h
        down[:, k, c] -= h
        fd[:, k, c] = (op._batch_rates(kappa, op._build_states(up, block))
                       - op._batch_rates(kappa, op._build_states(down, block))) / (2 * h)
    assert np.max(np.abs(grad - fd)) <= 1e-7 * np.max(np.abs(grad))


def test_two_loop_ignores_what_empty_slots_hold():
    # rho = 0 marks an empty slot, and the uphill reset zeroes rho only; the
    # direction must not depend on the S and Y left there
    rng = np.random.default_rng(11)
    rows, n = 5, 12
    g = rng.normal(size=(rows, n))
    rho = rng.uniform(0.5, 2.0, size=(rows, op._MEMORY))
    rho[:, :4] = 0.0  # slots no row has filled yet
    rho[1] = 0.0  # a row after the uphill reset: steepest descent
    rho[2, 6] = rho[3, -1] = 0.0  # a hole, and an empty newest slot
    S, Y = rng.normal(size=(2, rows, op._MEMORY, n))
    empty = np.broadcast_to(rho[:, :, None] == 0.0, S.shape)
    d = op._two_loop(g, S, Y, rho)
    assert np.array_equal(d.view(np.int64),
                          op._two_loop(g, np.where(empty, 0.0, S), np.where(empty, 0.0, Y),
                                       rho).view(np.int64))
    assert np.array_equal(d[[1, 3]], op._steepest(g[[1, 3]]))
    for r in (0, 2, 4):  # the textbook recursion over each row's own filled slots
        q, filled = g[r].copy(), np.flatnonzero(rho[r])
        a = {}
        for j in filled[::-1]:
            a[j] = rho[r, j] * (S[r, j] @ q)
            q = q - a[j] * Y[r, j]
        q = q / (rho[r, -1] * (Y[r, -1] @ Y[r, -1]))
        for j in filled:
            q = q + (a[j] - rho[r, j] * (Y[r, j] @ q)) * S[r, j]
        assert np.allclose(d[r], q, rtol=1e-12, atol=0.0)


def test_qubit_quartic_rate_is_exactly_zero():
    # kbar == 0 in closed form: the Bloch search returns the identity frame,
    # where |psi_x| = |phi_x| and the rate has no rounding noise
    for alpha in (0.01, 0.5, 1.0, 2.0, 3.1):
        res = op.optimize_orientation(nl.quartic_difference(1.0), alpha, 2)
        assert res.best_rate == 0.0, alpha


def _chain(kappa, alpha, dims=(3, 4, 5, 6)):
    prev = op.optimize_orientation(kappa, alpha, 2, restarts=16, seed=0)
    out = {}
    for d in dims:
        prev = out[d] = op.optimize_orientation(kappa, alpha, d, restarts=24, seed=d,
                                                warm_start=prev)
    return out


def test_quartic_chain_reaches_reference_optima():
    # references: scipy BFGS polished from the capped descent of the
    # coordinate-descent optimizer, which agreed to 4e-16 across d = 4..6
    chain = _chain(nl.quartic_difference(1.0), 0.5)
    assert chain[3].best_rate == pytest.approx(-7.532162954001e-3, rel=1e-9, abs=0.0)
    for d in (4, 5, 6):
        assert chain[d].best_rate == pytest.approx(-7.6510898818517e-3, rel=1e-9, abs=0.0)
    for res in chain.values():
        assert res.grad_norm <= 1e-8


def test_quadratic_chain_holds_the_qubit_optimum():
    g, alpha = 1.0, math.pi / 4
    want = -(g / 2) * math.sin(alpha / 2) ** 2
    for res in _chain(nl.gross_pitaevskii(g), alpha).values():
        assert res.best_rate == pytest.approx(want, rel=1e-12, abs=0.0)
        assert res.grad_norm <= 1e-8


@pytest.mark.parametrize("kappa, alpha, measured", [
    (nl.quartic_difference(1.0), 0.5, {3: 23, 4: 50, 5: 103, 6: 116}),
    (nl.gross_pitaevskii(1.0), math.pi / 4, {3: 31, 4: 44, 5: 36, 6: 38}),
], ids=["quartic", "gp"])
def test_chain_links_stop_within_their_measured_iterations(kappa, alpha, measured):
    # criterion 10's chains, whose quartic d = 6 link once ran to the 400
    # cap; bounds: measured + 20 %
    for d, res in _chain(kappa, alpha).items():
        assert not res.capped, d
        assert res.converged_sweeps <= 1.2 * measured[d], d


# Best rates of cold-start runs of the coordinate-descent optimizer this one
# replaced (120 sweeps, x86-64, numpy 2.4): (kind, dim, best_rate.hex()).
DESCENT_RATES = [
    ("gp", 3, "-0x1.390ac5c60ffe4p-4"),
    ("gp", 4, "-0x1.390ac5c60ffdap-4"),
    ("log", 3, "-0x1.3f787fa48f67ep-3"),
    ("log", 4, "-0x1.3f787fa46c0d8p-3"),
    ("quartic", 3, "-0x1.2f8d796f73c20p-6"),
    ("quartic", 4, "-0x1.375b4297db9aep-6"),
]


@pytest.mark.parametrize("kind,dim,rate_hex", DESCENT_RATES)
def test_no_worse_than_recorded_descent(kind, dim, rate_hex):
    res = op.optimize_orientation(nl.parse(kind + ":1.3"), 0.7, dim, restarts=5,
                                  seed=7 * dim, max_sweeps=120)
    recorded = float.fromhex(rate_hex)
    assert res.best_rate <= recorded + 1e-9 * abs(recorded)
    assert res.converged_sweeps <= 120


def test_restarts_do_not_interact():
    # the first rows of a larger batch start at the same draws and run the
    # same iterations, so adding restarts can only lower the best rate
    kappa = nl.logarithmic(1.0)
    few = op.optimize_orientation(kappa, 0.6, 4, restarts=3, seed=5)
    many = op.optimize_orientation(kappa, 0.6, 4, restarts=9, seed=5)
    assert many.best_rate <= few.best_rate
    one = op.optimize_orientation(kappa, 0.6, 4, restarts=1, seed=5)
    assert few.best_rate <= one.best_rate


@pytest.mark.parametrize("kind, dim", [("log", 4), ("quartic", 3), ("gp", 5), ("sqrt", 4)])
def test_each_row_of_a_batch_is_its_solo_run_bit_for_bit(kind, dim, monkeypatch):
    # rows share array calls, not arithmetic: the rows that backtrack are
    # evaluated as a subset of the batch, and a row that gives up leaves it
    kappa, block = nl.parse(kind + ":1"), op.canonical_pair(0.7)
    starts = np.random.default_rng(11).normal(size=(6, dim, 4))
    sizes = []
    batch_rates = op._batch_rates
    monkeypatch.setattr(op, "_batch_rates", lambda kappa, states: (
        sizes.append(len(states)) or batch_rates(kappa, states)))
    params, rates, _, _ = op._lbfgs(kappa, block, starts, op._MAX_SWEEPS)
    assert len(set(sizes)) > 2  # the batch shrank as rows backtracked and stopped
    for i in range(6):
        solo, solo_rate, _, _ = op._lbfgs(kappa, block, starts[i:i + 1], op._MAX_SWEEPS)
        assert solo[0].tobytes() == params[i].tobytes(), i
        assert solo_rate.tobytes() == rates[i:i + 1].tobytes(), i


def test_each_evaluation_and_each_gradient_makes_one_kappa_call(monkeypatch):
    # _batch_rates evaluates kappa once, on the stacked pair; each gradient,
    # in the search and for the result, takes one more, and the result's
    # states take none of their own.  The counts also show that the search
    # calls _build_states and _batch_rates through the module, where the
    # benchmark's tracer wraps them.
    calls = dict.fromkeys(("kappa", "_build_states", "_batch_rates", "_rate_gradient"), 0)

    def count(owner, name):
        inner = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args: calls.__setitem__(
            name, calls[name] + 1) or inner(*args))

    count(nl.Nonlinearity, "kappa")
    for name in ("_build_states", "_batch_rates", "_rate_gradient"):
        count(op, name)
    kappa, block = nl.logarithmic(1.0), op.canonical_pair(0.6)
    states = op._build_states(np.random.default_rng(2).normal(size=(5, 3, 4)), block)
    op._batch_rates(kappa, states)
    assert calls["kappa"] == 1
    calls.update(dict.fromkeys(calls, 0))
    res = op.optimize_orientation(kappa, 0.6, 3, restarts=4, seed=1)
    assert calls["_build_states"] == calls["_batch_rates"] > res.converged_sweeps > 0
    searched = calls["_rate_gradient"] - 1  # the last gradient is the result's
    assert calls["kappa"] == calls["_batch_rates"] + searched + 1


def test_iteration_cap_sets_capped():
    res = op.optimize_orientation(nl.quartic_difference(1.0), 0.5, 4, restarts=4, seed=1,
                                  max_sweeps=3)
    assert res.capped and res.converged_sweeps == 3


def test_warm_started_restart_at_its_optimum_stops_within_three_evaluations(monkeypatch):
    # the gp chain link d = 2 -> 3 of the optimizer recovery check: restart 0
    # starts at the padded qubit optimum.  The d = 2 search polishes its vertex
    # to a gradient below the 1e-12 stop, so the start is moved off it by 1e-9:
    # its gradient is then above the stop, but the rate it could still gain is
    # rounding noise, and the quadratic model through the first failed trial
    # must end the line search.  Restarts do not interact, so one restart
    # shows restart 0's line search.
    g, alpha = 1.0, math.pi / 4
    gp = nl.gross_pitaevskii(g)
    start = op.optimize_orientation(gp, alpha, 2)
    start = dataclasses.replace(start, params=start.params + [[1e-9, 0, 0, 0], [0, 0, 0, 0]])
    events = []
    batch_rates, rate_gradient = op._batch_rates, op._rate_gradient
    monkeypatch.setattr(op, "_batch_rates", lambda kappa, states: (
        events.append(len(states)) or batch_rates(kappa, states)))
    monkeypatch.setattr(op, "_rate_gradient",
                        lambda *args: events.append("grad") or rate_gradient(*args))
    res = op.optimize_orientation(gp, alpha, 3, restarts=1, seed=3, warm_start=start)
    first = events[events.index("grad") + 1:]
    first = first[:first.index("grad")] if "grad" in first else first
    assert 1 <= len(first) <= 3 and set(first) == {1}
    assert res.best_rate == pytest.approx(start.best_rate, rel=1e-12, abs=0.0)


def test_warm_start_from_a_higher_dimension_is_refused():
    # a d = 4 frame cannot be padded down to d = 3; it was silently truncated
    n = nl.logarithmic(1.0)
    high = op.optimize_orientation(n, 0.6, 4, restarts=2, seed=1)
    with pytest.raises(ValueError, match=re.escape(
            "warm_start must come from a dimension <= dim = 3, got dim = 4")):
        op.optimize_orientation(n, 0.6, 3, restarts=2, seed=1, warm_start=high)
