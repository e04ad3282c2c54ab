"""Orientation optimization for state pairs with a fixed overlap.

Searches for the placement of two d-dimensional states psi, phi with
|<psi|phi>| = cos(alpha/2) that makes the nonlinearity-induced overlap rate

    d|<psi|phi>|/dt = Re[ (<psi|phi>/|<psi|phi>|)^* *
                          i sum_x (kappa(|psi_x|) - kappa(|phi_x|)) psi_x^* phi_x ]

as negative as possible.  The rate depends only on the 2-plane the pair
spans and on the pair's place in it, so the search runs over orthonormal
2-frames (Edelman, Arias & Smith, SIAM J. Matrix Anal. Appl. 20, 303
(1998)): the frame [q1 q2] is the Gram-Schmidt orthonormalization of two
free vectors a, b in C^dim, 4 dim real coordinates, and the states are
[q1 q2] times the 2 x 2 :func:`canonical_pair`, which holds the overlap
exactly.

At dim = 2 the frame is the unitary of the pair's Bloch orientation
(phi, theta), and the optimum comes from the same narrowing-grid search over
the Bloch sphere that the re-optimized discrimination policy uses
(:func:`discrimination.reoptimize_orientation`).  For dim >= 3 the search
is multi-start L-BFGS (Liu & Nocedal, Math. Program. 45, 503 (1989)) on the
frame coordinates from Haar-random starts, with the exact gradient (the
state costate carried back through Gram-Schmidt), batched across restarts
and deterministic given a seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import discrimination
from ._ode import real_number, whole_number
from .nonlinearity import Nonlinearity, reduce, weighted_overlap_derivative

_MAX_SWEEPS = 400  # iteration cap of the dim >= 3 search
_MEMORY = 10  # L-BFGS curvature pairs kept per restart
_ARMIJO = 1e-4
_GRAD_TOL = 1e-12
_FIRST_STEP = 0.4  # largest coordinate change of a steepest-descent step
_REL_DECREASE = 1e-15
# Turn of the frame vectors a and b toward the new coordinates at warm-start
# restart 1: the padded lower-dimensional optimum can be a local minimum
# (quartic), with the better basin a finite step away.
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
    params: np.ndarray = field(default=None, repr=False)  # the returned frame, (dim, 4)


def canonical_pair(alpha: float) -> np.ndarray:
    """The pair (cos(alpha/4), +-sin(alpha/4)) as 2 x 2 columns; overlap cos(alpha/2)."""
    real_number("alpha", alpha, 0.0, math.pi, "[]")
    c, s = math.cos(alpha / 4.0), math.sin(alpha / 4.0)
    return np.array([[c, c], [s, -s]], dtype=complex)


def rate_functional(kappa: Nonlinearity, e: PairEmbedding) -> float:
    """d|<psi|phi>|/dt induced by the nonlinearity alone.

    For orthogonal pairs the magnitude is not differentiable; the one-sided
    derivative magnitude |d<psi|phi>/dt| is returned.
    """
    states = np.stack([np.asarray(e.psi, complex), np.asarray(e.phi, complex)], axis=-1)[None]
    return float(_rates(states, kappa.kappa(np.abs(states)))[0])


def _dot(x, y):
    """<x|y> over the coordinates of (R, dim) batches, as (R, 1)."""
    return np.add.reduce(np.conj(x) * y, axis=1, keepdims=True)


def _frame(params):
    """Gram-Schmidt columns of the frames ``params`` (R, dim, 4), whose rows
    are (Re a_x, Im a_x, Re b_x, Im b_x): q1 = a/r1 and q2 = v/r2 with
    v = b - q1 c, c = <q1|b>.  Returns (q1, q2, r1, r2, c, b), each (R, dim)
    or (R, 1).  The norms are np.linalg.norm's sum, without its dispatch."""
    ab = params.view(complex)
    a, b = ab[:, :, 0], ab[:, :, 1]
    r1 = np.sqrt(np.add.reduce((a.conj() * a).real, axis=1, keepdims=True))
    q1 = a / r1
    c = _dot(q1, b)
    v = b - q1 * c
    r2 = np.sqrt(np.add.reduce((v.conj() * v).real, axis=1, keepdims=True))
    return q1, v / r2, r1, r2, c, b


def _build_states(params: np.ndarray, block: np.ndarray) -> np.ndarray:
    """States [q1 q2] @ block of the frames ``params`` (R, dim, 4), batched
    over restarts; ``block`` is the (2, 2) canonical pair.  Returns
    (R, dim, 2) states."""
    return _states(_frame(params), block)


def _states(gram, block):
    """The states [q1 q2] @ block of the Gram-Schmidt columns ``gram`` (the
    output of :func:`_frame`)."""
    q1, q2 = gram[:2]
    return q1[:, :, None] * block[0] + q2[:, :, None] * block[1]


def _batch_rates(kappa: Nonlinearity, states: np.ndarray) -> np.ndarray:
    """The overlap rate of each pair of (R, dim, 2) ``states``, as (R,), from
    one kappa(|states|) call."""
    return _rates(states, kappa.kappa(np.abs(states)))


def _rates(states, kap):
    """The overlap rate of each pair of (R, dim, 2) ``states``, as (R,), from
    kap = kappa(|states|), evaluated by the caller; at an exactly orthogonal
    pair, the one-sided |d<psi|phi>/dt| of :func:`rate_functional`.  The
    search, its result and :func:`rate_functional` all take the rate here."""
    psi, phi = states[:, :, 0], states[:, :, 1]
    inner = np.add.reduce(np.conj(psi) * phi, axis=1)
    t = weighted_overlap_derivative(kap[:, :, 0] - kap[:, :, 1], psi, phi)
    mag = np.abs(inner)
    orthogonal = mag == 0.0
    rate = np.real(np.conj(inner / np.where(orthogonal, 1.0, mag)) * t)
    return np.where(orthogonal, np.abs(t), rate)


_SIGNS = np.array([-1.0, 1.0])  # the psi and phi columns of the state gradient


def _rate_gradient(kappa: Nonlinearity, gram: tuple, states: np.ndarray, block: np.ndarray,
                   kap: np.ndarray) -> np.ndarray:
    """d rate / d params, (R, dim, 4), for the frames whose Gram-Schmidt
    columns ``gram`` (the output of :func:`_frame`) built ``states``, with
    kap = kappa(|states|).

    The overlap is real and fixed by the frame, so the rate is
    -sum_x w_x Im(psi_x^* phi_x) with w = kappa(|psi|) - kappa(|phi|), and
    delta rate = Re sum conj(lam) delta states for the state gradient lam.
    The frame gradient is lam @ block^T, carried back through the two
    normalizations and the projection of Gram-Schmidt.
    """
    amp = np.abs(states)
    w = (kap[:, :, 0] - kap[:, :, 1])[:, :, None]
    im = np.imag(np.conj(states[:, :, 0]) * states[:, :, 1])[:, :, None]
    # kappa'(|x|)/|x| * x, the gradient of kappa(|x|); 0 where x = 0
    radial = np.divide(kappa.kappa_prime(amp), amp, out=np.zeros_like(amp),
                       where=amp > 0.0) * states
    lam = (im * radial - 1j * w * states[:, :, ::-1]) * _SIGNS
    p = lam @ block.T
    q1, q2, r1, r2, c, b = gram
    # back from q2 to v, from v to b and q1, and from q1 to a
    g_v = (p[:, :, 1] - q2 * _dot(q2, p[:, :, 1]).real) / r2
    along = _dot(q1, g_v)
    g_q1 = p[:, :, 0] - np.conj(c) * g_v - np.conj(along) * b
    grad = np.empty(p.shape, dtype=complex)
    grad[:, :, 0] = (g_q1 - q1 * _dot(q1, g_q1).real) / r1
    grad[:, :, 1] = g_v - q1 * along
    return grad.view(float)


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

    ``dim`` >= 2, ``restarts`` >= 1, ``max_sweeps`` >= 1 and ``seed`` >= 0
    are whole numbers; a whole float such as 3.0 is taken as 3.

    At dim = 2 the optimum is the Bloch-sphere search of
    :func:`discrimination.reoptimize_orientation`; ``restarts``, ``seed``,
    ``warm_start`` and ``max_sweeps`` act on the dim >= 3 search only, and
    ``converged_sweeps`` is 0.  There ``grad_norm`` shows where that search
    stopped, not a convergence certificate: at a trusted vertex of its
    quadratic fit it is down to the gradient's own rounding (7e-18 for gp,
    up to 2e-8 for log at alpha = 2.8), and where the grid narrowed to its
    floor it reflects the grid's sqrt(eps) resolution (about 1e-8).

    For dim >= 3: multi-start L-BFGS on the frame coordinates with the
    exact gradient (:func:`_rate_gradient`), batched over restarts; each
    restart keeps its own memory and line search, so its result does not
    depend on the others.  A restart stops when its gradient is at most
    1e-12, its line search fails, or an accepted step lowers its rate by at
    most 1e-15 of the rate.  ``max_sweeps`` caps the iterations,
    ``converged_sweeps`` is the largest iteration count of any restart, and
    ``capped`` is set when the cap stopped a restart.  Restarts start at
    normal draws of a and b, a Haar-random frame.  When ``warm_start`` is
    given (a result from a dimension up to ``dim``; a higher one is
    refused), restart 0 starts at its frame padded with zeros, so a chain of
    dimensions never rises, and restart 1 at the same frame with a and b
    turned by 0.4 toward the new coordinates.  Ties pick the lowest restart
    index.

    ``params`` is the returned frame at every dim: a (dim, 4) array of rows
    (Re a_x, Im a_x, Re b_x, Im b_x) whose columns a, b are orthonormal, and
    :func:`_build_states` rebuilds the returned pair from it.  At dim = 2 it
    is a = (cos(phi/2), e^{-i theta} sin(phi/2)), b = (-e^{i theta}
    sin(phi/2), cos(phi/2)) for the Bloch orientation ``angles``.  The
    reported minimum is the exact rate at the returned embedding, and
    ``grad_norm`` the largest gradient component in the frame coordinates;
    both come from the one Gram-Schmidt and the one kappa(|states|) that
    build the returned states, and the rate equals
    :func:`rate_functional` of ``argmax`` bit for bit.
    """
    dim = whole_number("dim", dim, 2)
    restarts = whole_number("restarts", restarts, 1)
    max_sweeps = whole_number("max_sweeps", max_sweeps, 1)
    seed = whole_number("seed", seed, 0)
    real_number("alpha", alpha, 0.0, math.pi, text="in (0, pi) for orientation search")
    block = canonical_pair(alpha)
    if warm_start is not None and warm_start.argmax.dim > dim:
        raise ValueError(f"warm_start must come from a dimension <= dim = {dim}, "
                         f"got dim = {warm_start.argmax.dim}")

    if dim == 2:
        # Looked up on the module so that wrappers installed there apply.
        phi, theta, _ = discrimination.reoptimize_orientation(
            reduce(kappa), math.cos(alpha / 2.0), math.sin(alpha / 2.0))
        c, s, e = math.cos(phi / 2.0), math.sin(phi / 2.0), np.exp(1j * theta)
        frame = np.array([[[c, -e * s], [np.conj(e) * s, c]]])
        sweeps_done, capped, angles = 0, False, (phi, theta)
    else:
        params = _starting_points(dim, restarts, seed, warm_start)
        params, rates, sweeps_done, capped = _lbfgs(kappa, block, params, max_sweeps)
        best, angles = int(np.argmin(rates)), None
        frame = np.stack(_frame(params[best:best + 1])[:2], axis=2)

    # One Gram-Schmidt and one kappa(|states|) give the states, the rate and
    # its gradient.
    params = frame.view(float)
    gram = _frame(params)
    states = _states(gram, block)
    kap = kappa.kappa(np.abs(states))
    grad = _rate_gradient(kappa, gram, states, block, kap)
    embedding = PairEmbedding(dim=dim, psi=states[0, :, 0], phi=states[0, :, 1])
    return OptimizationResult(
        best_rate=float(_rates(states, kap)[0]), argmax=embedding, restarts=restarts,
        seed=seed, alpha=alpha, converged_sweeps=sweeps_done, capped=capped,
        grad_norm=float(np.max(np.abs(grad))), angles=angles, params=params[0],
    )


def _starting_points(dim, restarts, seed, warm_start):
    """(R, dim, 4) starting frames: normal draws, with restarts 0 and 1 taken
    from the zero-padded warm-start frame when there is one."""
    params = np.random.default_rng(seed).normal(size=(restarts, dim, 4))
    if warm_start is not None:
        prev = warm_start.argmax.dim
        params[:2] = 0.0
        params[:2, :prev] = warm_start.params
        if restarts > 1 and dim > prev:  # a and b turned toward the new coordinates
            params[1, prev:, ::2] = math.tan(_NEW_COORDINATE_TURN) / math.sqrt(dim - prev)
    return params


def _lbfgs(kappa, block, params, max_iter):
    """L-BFGS with Armijo backtracking on every restart row at once.

    Returns (params, rates, iterations, capped).  Each row keeps its own step
    length and memory of the last _MEMORY steps, newest last, where rho = 0
    marks an empty slot whatever S and Y hold.  All unit steps are one
    _build_states/_batch_rates call, each halving one more on the rows that
    still fail the Armijo condition, and the gradient comes from the
    accepted states.  A row does the same arithmetic whatever the others do.
    """
    R, shape = params.shape[0], params.shape[1:]

    def evaluate(x):
        states = _build_states(x.reshape((-1,) + shape), block)
        return states, _batch_rates(kappa, states)

    def gradient(x, states):
        gram = _frame(x.reshape((-1,) + shape))
        return _rate_gradient(kappa, gram, states, block,
                              kappa.kappa(np.abs(states))).reshape(len(x), -1)

    x = params.reshape(R, -1).copy()
    states, rates = evaluate(x)
    grad = gradient(x, states)
    S, Y = np.zeros((2, R, _MEMORY, x.shape[1]))
    rho = np.zeros((R, _MEMORY))
    active = np.maximum.reduce(np.abs(grad), axis=1) > _GRAD_TOL
    iterations = 0
    while active.any() and iterations < max_iter:
        iterations += 1
        rows = active.nonzero()[0]
        x0, f0, g = x[rows], rates[rows], grad[rows]
        d = -_two_loop(g, S[rows], Y[rows], rho[rows])
        slope = np.add.reduce(g * d, axis=1)
        uphill = slope >= 0.0
        if uphill.any():  # stale curvature pairs: forget them
            rho[rows[uphill]] = 0.0
            d[uphill] = -_steepest(g[uphill])
            slope = np.add.reduce(g * d, axis=1)

        # Halve the step from 1 on the rows that fail the Armijo condition.
        x1 = x0 + d
        states1, f1 = evaluate(x1)
        back = (~(f1 <= f0 + _ARMIJO * slope)).nonzero()[0]
        t, fb, sb, ft = np.ones(back.size), f0[back], slope[back], f1[back]
        while back.size:
            # Give up once the halved step, or the quadratic f0 + slope t + A t^2
            # through the failed trial (largest gain slope^2 / 4A), could lower
            # the rate by no more than the stopping threshold: that is noise.
            tiny = _REL_DECREASE * np.abs(fb)
            curv = (ft - fb - t * sb) / (t * t)
            t = t * 0.5
            go = ~((-t * sb <= tiny) | ((curv > 0.0) & (sb ** 2 <= 4.0 * curv * tiny)))
            active[rows[back[~go]]] = False  # a hopeless row leaves the search
            back, t, fb, sb = back[go], t[go], fb[go], sb[go]
            if not back.size:
                break
            trial = x0[back] + t[:, None] * d[back]
            trial_states, ft = evaluate(trial)
            ok = ft <= fb + _ARMIJO * t * sb
            x1[back[ok]], states1[back[ok]], f1[back[ok]] = trial[ok], trial_states[ok], ft[ok]
            back, t, fb, sb, ft = back[~ok], t[~ok], fb[~ok], sb[~ok], ft[~ok]

        moved = active[rows]  # every row but the ones that gave up
        if not moved.all():
            rows, x0, f0, g = rows[moved], x0[moved], f0[moved], g[moved]
            x1, states1, f1 = x1[moved], states1[moved], f1[moved]
            if not rows.size:
                continue
        grad1 = gradient(x1, states1)
        s, y = x1 - x0, grad1 - g
        sy = np.add.reduce(s * y, axis=1)
        curved = sy > 0.0  # keep only pairs with positive curvature
        u = rows[curved]
        S[u, :-1], Y[u, :-1], rho[u, :-1] = S[u, 1:], Y[u, 1:], rho[u, 1:]
        S[u, -1], Y[u, -1], rho[u, -1] = s[curved], y[curved], 1.0 / sy[curved]
        x[rows], rates[rows], grad[rows] = x1, f1, grad1
        active[rows] = ((f0 - f1 > _REL_DECREASE * np.abs(f1))
                        & (np.maximum.reduce(np.abs(grad1), axis=1) > _GRAD_TOL))
    return x.reshape(params.shape), rates, iterations, bool(active.any())


def _steepest(g):
    """Steepest-descent step whose largest angle change is _FIRST_STEP."""
    return _FIRST_STEP * g / np.maximum.reduce(np.abs(g), axis=1, keepdims=True)


def _two_loop(g, S, Y, rho):
    """L-BFGS two-loop recursion H g for each row, newest pair last.  A slot
    with rho = 0 is empty and adds exactly zero, so only the slots that some
    row fills are visited; a row whose newest slot is empty gets _steepest."""
    q, a = g.copy(), np.zeros(rho.shape)
    filled = np.flatnonzero(rho.any(axis=0))
    for j in filled[::-1]:
        a[:, j] = rho[:, j] * np.add.reduce(S[:, j] * q, axis=1)
        q -= a[:, j, None] * Y[:, j]
    fresh = rho[:, -1] == 0.0
    q[~fresh] /= (rho[~fresh, -1] * np.add.reduce(Y[~fresh, -1] ** 2, axis=1))[:, None]
    for j in filled:
        q += S[:, j] * (a[:, j] - rho[:, j] * np.add.reduce(Y[:, j] * q, axis=1))[:, None]
    if fresh.any():
        q[fresh] = _steepest(g[fresh])
    return q


def orientation_chain(kappa: Nonlinearity, alpha: float, dim: int, restarts: int = 64,
                      seed: int = 0) -> list:
    """The :func:`optimize_orientation` results of d = 2, ..., ``dim``, in order.

    ``dim`` is a whole number in 2..8 and ``seed`` one >= 0.  Link d is
    seeded with ``seed + d`` and, for d >= 3, warm-started from link d - 1,
    so the best rate never rises along the chain; the last rate minus the
    first is the gain of embedding the pair in ``dim`` modes over the qubit
    optimum.
    """
    dim = whole_number("dim", dim, 2, 8)
    seed = whole_number("seed", seed, 0)
    chain = [optimize_orientation(kappa, alpha, 2, restarts=restarts, seed=seed + 2)]
    for d in range(3, dim + 1):
        chain.append(optimize_orientation(kappa, alpha, d, restarts=restarts, seed=seed + d,
                                          warm_start=chain[-1]))
    return chain
