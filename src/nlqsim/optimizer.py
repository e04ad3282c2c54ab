"""Orientation optimization for state pairs with a fixed overlap.

Searches for the placement of two d-dimensional states psi, phi with
|<psi|phi>| = cos(alpha/2) that makes the nonlinearity-induced overlap rate

    d|<psi|phi>|/dt = Re[ (<psi|phi>/|<psi|phi>|)^* *
                          i sum_x (kappa(|psi_x|) - kappa(|phi_x|)) psi_x^* phi_x ]

as negative as possible.  The pair is fixed to a canonical configuration in
a 2-plane and the search runs over a unitary frame parameterized by a list
of complex Givens rotations applied to both states, which preserves the
overlap constraint exactly.

At dim = 2 the chain is one rotation whose angles (theta, beta) are the
Bloch orientation (phi, theta) = (2 theta, beta) of the pair, so the optimum
comes from the same narrowing-grid search over the Bloch sphere that the
re-optimized discrimination policy uses
(:func:`discrimination.reoptimize_orientation`).  For dim >= 3 the search
is multi-start L-BFGS (Liu & Nocedal, Math. Program. 45, 503 (1989)) on the
rotation angles with the exact gradient from a reverse pass over the chain,
batched across restarts and deterministic given a seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import discrimination
from .nonlinearity import Nonlinearity, overlap_derivative, reduce

_MAX_SWEEPS = 400  # iteration cap of the dim >= 3 search
_MEMORY = 10  # L-BFGS curvature pairs kept per restart
_ARMIJO = 1e-4
_GRAD_TOL = 1e-12
_FIRST_STEP = 0.4  # largest angle change of a steepest-descent step
_REL_DECREASE = 1e-15
# Turn of each rotation into a new coordinate at warm-start restart 1: the
# padded lower-dimensional optimum can be a local minimum (quartic), with
# the better basin a finite step away.
_NEW_COORDINATE_TURN = 0.4


@dataclass(frozen=True)
class PairEmbedding:
    """Two unit vectors in C^dim with overlap magnitude cos(alpha/2)."""

    dim: int
    psi: np.ndarray
    phi: np.ndarray

    def overlap(self) -> float:
        return float(abs(np.vdot(self.psi, self.phi)))


@dataclass
class OptimizationResult:
    best_rate: float
    argmax: PairEmbedding
    restarts: int
    seed: int
    alpha: float
    converged_sweeps: int = 0
    capped: bool = False  # max_sweeps stopped the search (always False at dim 2)
    grad_norm: float = 0.0  # largest |d rate / d param| at the returned frame
    angles: Optional[tuple] = None  # (phi, theta) for dim = 2
    params: np.ndarray = field(default=None, repr=False)


def canonical_pair(alpha: float, dim: int) -> np.ndarray:
    """Canonical pair in the first 2-plane, as a (dim, 2) complex array."""
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim!r}")
    if not 0.0 <= alpha <= math.pi:
        raise ValueError(f"alpha must be in [0, pi], got {alpha!r}")
    beta = alpha / 4.0
    pair = np.zeros((dim, 2), dtype=complex)
    pair[0, 0] = math.cos(beta)
    pair[1, 0] = math.sin(beta)
    pair[0, 1] = math.cos(beta)
    pair[1, 1] = -math.sin(beta)
    return pair


def rate_functional(kappa: Nonlinearity, e: PairEmbedding) -> float:
    """d|<psi|phi>|/dt induced by the nonlinearity alone.

    For orthogonal pairs the magnitude is not differentiable; the one-sided
    derivative magnitude |d<psi|phi>/dt| is returned.
    """
    psi, phi = np.asarray(e.psi, complex), np.asarray(e.phi, complex)
    inner = np.vdot(psi, phi)
    t = overlap_derivative(kappa, psi, phi)
    if abs(inner) < 1e-12:
        return float(abs(t))
    return float(np.real(np.conj(inner / abs(inner)) * t))


def _pair_indices(dim: int):
    return [(i, j) for i in range(dim) for j in range(i + 1, dim)]


def _build_states(params: np.ndarray, base: np.ndarray, pairs) -> np.ndarray:
    """Apply the Givens chain to the canonical pair, batched over restarts.

    params : (R, K, 2) rotation angles (theta, beta) per coordinate pair
    base   : (dim, 2) canonical pair, or (R, dim, 2) states per restart
    returns (R, dim, 2) states
    """
    # A fresh C-order array: the row sums of _batch_rates depend on the layout,
    # and this keeps them equal whether the chain starts at the canonical pair
    # or at cached states.
    states = np.empty(params.shape[:1] + base.shape[-2:], dtype=complex)
    states[...] = base
    _, _, cos, es, ces = _link_factors(params)
    for k, (i, j) in enumerate(pairs):
        c = cos[k]
        ri = states[:, i, :].copy()
        rj = states[:, j, :]
        states[:, i, :] = c * ri - es[k] * rj
        states[:, j, :] = ces[k] * ri + c * rj
    return states


def _link_factors(params):
    """sin(theta) and e = exp(i beta), (R, K), then cos(theta), e sin(theta)
    and conj(e) sin(theta) as (K, R, 1): one index picks a link's factor."""
    sin, phase = np.sin(params[:, :, 0]), np.exp(1j * params[:, :, 1])
    factors = (np.cos(params[:, :, 0]), phase * sin, np.conj(phase) * sin)
    return (sin, phase) + tuple(f.T[:, :, None] for f in factors)


def _batch_rates(kappa: Nonlinearity, states: np.ndarray) -> np.ndarray:
    psi = states[:, :, 0]
    phi = states[:, :, 1]
    inner = np.sum(np.conj(psi) * phi, axis=1)
    t = overlap_derivative(kappa, psi, phi)
    mag = np.abs(inner)
    mag = np.where(mag < 1e-300, 1.0, mag)
    return np.real(np.conj(inner / mag) * t)


_SIGNS = np.array([-1.0, 1.0])  # the psi and phi columns of the state gradient


def _rate_gradient(kappa: Nonlinearity, params: np.ndarray, states: np.ndarray,
                   pairs) -> np.ndarray:
    """d rate / d params, (R, K, 2), for the chain that built ``states``.

    The overlap is real and fixed by the frame, so the rate is
    -sum_x w_x Im(psi_x^* phi_x) with w = kappa(|psi|) - kappa(|phi|), and
    delta rate = Re sum conj(lam) delta states for the state gradient lam.
    One reverse pass, on the states and lam side by side, undoes each
    rotation on both with one row-pair update (the inverse of a rotation is
    its adjoint) and keeps the two rows after and before it; the angle
    derivatives come from the kept rows at the end.
    """
    amp = np.abs(states)
    kap = kappa.kappa(amp)
    w = (kap[:, :, 0] - kap[:, :, 1])[:, :, None]
    im = np.imag(np.conj(states[:, :, 0]) * states[:, :, 1])[:, :, None]
    # kappa'(|x|)/|x| * x, the gradient of kappa(|x|); 0 where x = 0
    radial = np.divide(kappa.kappa_prime(amp), amp, out=np.zeros_like(amp),
                       where=amp > 0.0) * states
    lam = (im * radial - 1j * w * states[:, :, ::-1]) * _SIGNS
    both = np.concatenate([states, lam], axis=2)
    sin, phase, cos, es, ces = _link_factors(params)
    # Rows (i, j) of link k after its rotation, kept[0, :, k], and before
    # it, kept[1, :, k]; columns 0-1 are the states, 2-3 lam.
    kept = np.empty((2, 2, len(pairs)) + both.shape[:1] + (4,), dtype=complex)
    for k, (i, j) in reversed(list(enumerate(pairs))):
        c = cos[k]
        (ni, nj), (ri, rj) = kept[:, :, k]
        ni[...], nj[...] = both[:, i], both[:, j]
        both[:, i] = ri[...] = c * ni + es[k] * nj
        both[:, j] = rj[...] = c * nj - ces[k] * ni
    # d/dtheta of the rotated rows (i, j) is (-e n_j, conj(e) n_i), and
    # d/dbeta is (-i e s r_j, -i conj(e) s r_i).
    (ni, nj), (ri, rj) = kept[..., :2]
    li, lj = np.conj(kept[0, ..., 2:])
    e = phase.T[:, :, None]
    d_theta = np.real(np.conj(e) * lj * ni - e * li * nj).sum(axis=2)
    d_beta = np.imag(e * li * rj + np.conj(e) * lj * ri).sum(axis=2) * sin.T
    return np.stack([d_theta.T, d_beta.T], axis=2)


def optimize_orientation(
    kappa: Nonlinearity,
    alpha: float,
    dim: int,
    restarts: int = 64,
    seed: int = 0,
    warm_start: Optional[OptimizationResult] = None,
    max_sweeps: int = _MAX_SWEEPS,
) -> OptimizationResult:
    """Most negative overlap rate over pair orientations in C^dim.

    At dim = 2 the optimum is the Bloch-sphere search of
    :func:`discrimination.reoptimize_orientation`; ``restarts``, ``seed``,
    ``warm_start`` and ``max_sweeps`` act on the dim >= 3 search only, and
    ``converged_sweeps`` is 0.  There ``grad_norm`` reflects the grid's
    sqrt(eps) resolution (about 1e-8), not a convergence certificate.

    For dim >= 3: multi-start L-BFGS on the Givens-frame angles with the
    exact gradient (:func:`_rate_gradient`), batched over restarts; each
    restart keeps its own memory and line search, so its result does not
    depend on the others.  A restart stops when its gradient is at most
    1e-12, its line search fails, or an accepted step lowers its rate by at
    most 1e-15 of the rate.  ``max_sweeps`` caps the iterations,
    ``converged_sweeps`` is the largest iteration count of any restart, and
    ``capped`` is set when the cap stopped a restart.  Restarts start at
    uniform random angles.  When ``warm_start`` is given (a result from a
    lower dimension), restart 0 starts at its frame padded with zeros, so a
    chain of dimensions never rises, and restart 1 at the same frame with
    every rotation into a new coordinate turned by 0.4.  The reported
    minimum is the exact rate at the returned embedding, and ``grad_norm``
    the largest gradient component there; ties pick the lowest restart
    index.
    """
    if not (restarts >= 1 and float(restarts).is_integer()):
        raise ValueError(f"restarts must be a whole number >= 1, got {restarts!r}")
    restarts = int(restarts)
    if not 0.0 < alpha < math.pi:
        raise ValueError(f"alpha must be in (0, pi) for orientation search, got {alpha!r}")

    pairs = _pair_indices(dim)
    base = canonical_pair(alpha, dim)
    if dim == 2:
        # Looked up on the module so that wrappers installed there apply.
        phi, theta, _ = discrimination.reoptimize_orientation(
            reduce(kappa), math.cos(alpha / 2.0), math.sin(alpha / 2.0))
        params = np.array([[[phi / 2.0, theta]]])
        best, sweeps_done, capped, angles = 0, 0, False, (phi, theta)
    else:
        params = _starting_points(pairs, restarts, seed, warm_start)
        params, rates, sweeps_done, capped = _lbfgs(kappa, base, pairs, params, max_sweeps)
        best, angles = int(np.argmin(rates)), None

    params = params[best:best + 1]
    states = _build_states(params, base, pairs)
    grad = _rate_gradient(kappa, params, states, pairs)
    embedding = PairEmbedding(dim=dim, psi=states[0, :, 0], phi=states[0, :, 1])
    return OptimizationResult(
        best_rate=rate_functional(kappa, embedding), argmax=embedding, restarts=restarts,
        seed=seed, alpha=alpha, converged_sweeps=sweeps_done, capped=capped,
        grad_norm=float(np.max(np.abs(grad))), angles=angles, params=params[0].copy(),
    )


def _starting_points(pairs, restarts, seed, warm_start):
    """(R, K, 2) starting angles: uniform draws, with restarts 0 and 1 taken
    from the padded warm-start frame when there is one."""
    rng = np.random.default_rng(seed)
    params = rng.uniform(-math.pi, math.pi, size=(restarts, len(pairs), 2))
    if warm_start is not None and warm_start.params is not None:
        prev_dim = warm_start.argmax.dim
        padded = np.zeros((len(pairs), 2))
        lookup = {pq: k for k, pq in enumerate(pairs)}
        for k_prev, pq in enumerate(_pair_indices(prev_dim)):
            if pq in lookup:
                padded[lookup[pq]] = warm_start.params[k_prev]
        params[0] = padded
        if restarts > 1:
            params[1] = padded
            new = [k for k, (_, j) in enumerate(pairs) if j >= prev_dim]
            params[1, new, 0] = _NEW_COORDINATE_TURN
    return params


def _lbfgs(kappa, base, pairs, params, max_iter):
    """L-BFGS with Armijo backtracking on every restart row at once.

    Returns (params, rates, iterations, capped).  Each row keeps its own step
    length and memory of the last _MEMORY steps, newest last, where rho = 0
    marks an empty slot whatever S and Y hold; every evaluation is one
    _build_states/_batch_rates call on the rows that need it, and the
    gradient comes from the accepted states.
    """
    R, shape = params.shape[0], params.shape[1:]

    def evaluate(x):
        states = _build_states(x.reshape((-1,) + shape), base, pairs)
        return states, _batch_rates(kappa, states)

    x = params.reshape(R, -1).copy()
    states, rates = evaluate(x)
    grad = _rate_gradient(kappa, params, states, pairs).reshape(R, -1)
    S, Y = np.zeros((2, R, _MEMORY, x.shape[1]))
    rho = np.zeros((R, _MEMORY))
    active = np.max(np.abs(grad), axis=1) > _GRAD_TOL
    iterations = 0
    while active.any() and iterations < max_iter:
        iterations += 1
        rows = np.flatnonzero(active)
        g = grad[rows]
        d = -_two_loop(g, S[rows], Y[rows], rho[rows])
        slope = (g * d).sum(axis=1)
        uphill = slope >= 0.0
        if uphill.any():  # stale curvature pairs: forget them
            rho[rows[uphill]] = 0.0
            d[uphill] = -_steepest(g[uphill])
            slope = (g * d).sum(axis=1)

        # Halve each row's step from 1 until the Armijo condition holds.
        step, rates_new = np.ones(len(rows)), np.empty(len(rows))
        x_new = np.empty_like(g)
        states_new = np.empty((len(rows),) + base.shape, dtype=complex)
        searching, failed = np.ones(len(rows), dtype=bool), np.zeros(len(rows), dtype=bool)
        while searching.any():
            idx = np.flatnonzero(searching)
            trial = x[rows[idx]] + step[idx, None] * d[idx]
            trial_states, trial_rates = evaluate(trial)
            ok = trial_rates <= rates[rows[idx]] + _ARMIJO * step[idx] * slope[idx]
            done, bad = idx[ok], idx[~ok]
            x_new[done], states_new[done], rates_new[done] = (
                trial[ok], trial_states[ok], trial_rates[ok])
            # Give up once the halved step, or the quadratic f0 + slope t + A t^2
            # through the failed trial (largest gain slope^2 / 4A), could lower
            # the rate by no more than the stopping threshold: that is noise.
            t, f0 = step[bad], rates[rows[bad]]
            tiny = _REL_DECREASE * np.abs(f0)
            curv = (trial_rates[~ok] - f0 - t * slope[bad]) / (t * t)
            step[bad] *= 0.5
            hopeless = bad[(-step[bad] * slope[bad] <= tiny)
                           | ((curv > 0.0) & (slope[bad] ** 2 <= 4.0 * curv * tiny))]
            failed[hopeless] = True
            searching[done] = searching[hopeless] = False

        active[rows[failed]] = False
        moved, ok = rows[~failed], ~failed
        if not moved.size:
            continue
        grad_new = _rate_gradient(kappa, x_new[ok].reshape((-1,) + shape), states_new[ok],
                                  pairs).reshape(moved.size, -1)
        s, y = x_new[ok] - x[moved], grad_new - grad[moved]
        sy = (s * y).sum(axis=1)
        u = moved[sy > 0.0]  # keep only pairs with positive curvature
        S[u, :-1], Y[u, :-1], rho[u, :-1] = S[u, 1:], Y[u, 1:], rho[u, 1:]
        S[u, -1], Y[u, -1], rho[u, -1] = s[sy > 0.0], y[sy > 0.0], 1.0 / sy[sy > 0.0]
        gain = rates[moved] - rates_new[ok]
        x[moved], rates[moved], grad[moved] = x_new[ok], rates_new[ok], grad_new
        active[moved] &= ((gain > _REL_DECREASE * np.abs(rates[moved]))
                          & (np.max(np.abs(grad_new), axis=1) > _GRAD_TOL))
    return x.reshape(params.shape), rates, iterations, bool(active.any())


def _steepest(g):
    """Steepest-descent step whose largest angle change is _FIRST_STEP."""
    return _FIRST_STEP * g / np.max(np.abs(g), axis=1, keepdims=True)


def _two_loop(g, S, Y, rho):
    """L-BFGS two-loop recursion H g for each row, newest pair last.  A slot
    with rho = 0 is empty and adds exactly zero, so only the slots that some
    row fills are visited; a row whose newest slot is empty gets _steepest."""
    q, a = g.copy(), np.zeros(rho.shape)
    filled = np.flatnonzero(rho.any(axis=0))
    for j in filled[::-1]:
        a[:, j] = rho[:, j] * (S[:, j] * q).sum(axis=1)
        q -= a[:, j, None] * Y[:, j]
    fresh = rho[:, -1] == 0.0
    q[~fresh] /= (rho[~fresh, -1] * (Y[~fresh, -1] ** 2).sum(axis=1))[:, None]
    for j in filled:
        q += S[:, j] * (a[:, j] - rho[:, j] * (Y[:, j] * q).sum(axis=1))[:, None]
    if fresh.any():
        q[fresh] = _steepest(g[fresh])
    return q


def orientation_chain(kappa: Nonlinearity, alpha: float, dim: int, restarts: int = 64,
                      seed: int = 0) -> list:
    """The :func:`optimize_orientation` results of d = 2, ..., ``dim``, in order.

    ``dim`` is a whole number in 2..8.  Link d is seeded with ``seed + d`` and,
    for d >= 3, warm-started from link d - 1, so the best rate never rises
    along the chain; the last rate minus the first is the gain of embedding
    the pair in ``dim`` modes over the qubit optimum.
    """
    if dim not in range(2, 9):
        raise ValueError(f"dim must be in 2..8, got {dim!r}")
    chain = [optimize_orientation(kappa, alpha, 2, restarts=restarts, seed=seed + 2)]
    for d in range(3, int(dim) + 1):
        chain.append(optimize_orientation(kappa, alpha, d, restarts=restarts, seed=seed + d,
                                          warm_start=chain[-1]))
    return chain
