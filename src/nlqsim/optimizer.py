"""Orientation optimization for state pairs with a fixed overlap.

Searches for the placement of two d-dimensional states psi, phi with
|<psi|phi>| = cos(alpha/2) that makes the nonlinearity-induced overlap rate

    d|<psi|phi>|/dt = Re[ (<psi|phi>/|<psi|phi>|)^* *
                          i sum_x (kappa(|psi_x|) - kappa(|phi_x|)) psi_x^* phi_x ]

as negative as possible.  The pair is fixed to a canonical configuration in
a 2-plane and the search runs over a unitary frame parameterized by a list
of complex Givens rotations applied to both states, which preserves the
overlap constraint exactly.  Optimization is multi-start derivative-free
coordinate descent, batched across restarts and deterministic given a seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .nonlinearity import Nonlinearity, overlap_derivative

_STEP_INIT = 0.4
_STEP_MIN = 5e-8
_CONVERGENCE = 1e-12
_MAX_SWEEPS = 400


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
    degenerate: bool = False
    angles: Optional[tuple] = None  # (phi, theta) for dim = 2
    params: np.ndarray = field(default=None, repr=False)

    @property
    def non_separating(self) -> bool:
        """No orientation found that shrinks the overlap."""
        return self.best_rate >= -1e-12


def canonical_pair(alpha: float, dim: int) -> np.ndarray:
    """Canonical pair in the first 2-plane, as a (dim, 2) complex array."""
    if dim < 2:
        raise ValueError("dim must be >= 2")
    if not 0.0 <= alpha <= math.pi:
        raise ValueError("alpha must be in [0, pi]")
    beta = alpha / 4.0
    pair = np.zeros((dim, 2), dtype=complex)
    pair[0, 0] = math.cos(beta)
    pair[1, 0] = math.sin(beta)
    pair[0, 1] = math.cos(beta)
    pair[1, 1] = -math.sin(beta)
    return pair


def rate_functional_flagged(kappa: Nonlinearity, e: PairEmbedding):
    """Overlap-magnitude rate and a degeneracy flag.

    For orthogonal pairs the magnitude is not differentiable; the one-sided
    derivative magnitude is returned with the flag set.
    """
    psi, phi = np.asarray(e.psi, complex), np.asarray(e.phi, complex)
    inner = np.vdot(psi, phi)
    t = overlap_derivative(kappa, psi, phi)
    if abs(inner) < 1e-12:
        return float(abs(t)), True
    return float(np.real(np.conj(inner / abs(inner)) * t)), False


def rate_functional(kappa: Nonlinearity, e: PairEmbedding) -> float:
    """d|<psi|phi>|/dt induced by the nonlinearity alone."""
    rate, _ = rate_functional_flagged(kappa, e)
    return rate


def qubit_bloch_vector(psi: np.ndarray) -> np.ndarray:
    """Bloch vector of a 2-component state (a, b):
    (2 Re a* b, 2 Im a* b, |a|^2 - |b|^2)."""
    a, b = psi[0], psi[1]
    return np.array([
        2.0 * (a.conjugate() * b).real,
        2.0 * (a.conjugate() * b).imag,
        abs(a) ** 2 - abs(b) ** 2,
    ])


def bloch_angles(psi: np.ndarray, phi: np.ndarray):
    """Orientation (alpha, phi_angle, theta) of a qubit pair, gauged so the
    midpoint lies in the xz half-plane with x >= 0."""
    v1, v2 = qubit_bloch_vector(psi), qubit_bloch_vector(phi)
    dot = float(np.clip(np.dot(v1, v2), -1.0, 1.0))
    alpha = math.acos(dot)
    mid = v1 + v2
    nm = np.linalg.norm(mid)
    if nm < 1e-12:
        raise ValueError("midpoint undefined for antipodal pair")
    mid /= nm
    gamma = math.atan2(mid[1], mid[0])
    rz = np.array([
        [math.cos(-gamma), -math.sin(-gamma), 0.0],
        [math.sin(-gamma), math.cos(-gamma), 0.0],
        [0.0, 0.0, 1.0],
    ])
    v1, v2, mid = rz @ v1, rz @ v2, rz @ mid
    phi_angle = math.acos(float(np.clip(mid[2], -1.0, 1.0)))
    diff = v1 - v2
    nd = np.linalg.norm(diff)
    if nd < 1e-12:
        return alpha, phi_angle, 0.0
    diff /= nd
    e_phi = np.array([math.cos(phi_angle), 0.0, -math.sin(phi_angle)])
    e_y = np.array([0.0, 1.0, 0.0])
    theta = math.atan2(float(np.dot(diff, e_y)), float(np.dot(diff, e_phi))) % (2.0 * math.pi)
    return alpha, phi_angle, theta


def _pair_indices(dim: int):
    return [(i, j) for i in range(dim) for j in range(i + 1, dim)]


def _build_states(params: np.ndarray, base: np.ndarray, pairs) -> np.ndarray:
    """Apply the Givens chain to the canonical pair, batched over restarts.

    params : (R, K, 2) rotation angles (theta, beta) per coordinate pair
    base   : (dim, 2) canonical pair
    returns (R, dim, 2) states
    """
    R = params.shape[0]
    states = np.broadcast_to(base, (R,) + base.shape).astype(complex).copy()
    cos = np.cos(params[:, :, 0])
    sin = np.sin(params[:, :, 0])
    phase = np.exp(1j * params[:, :, 1])
    for k, (i, j) in enumerate(pairs):
        c = cos[:, k, None]
        s = sin[:, k, None]
        e = phase[:, k, None]
        ri = states[:, i, :].copy()
        rj = states[:, j, :]
        states[:, i, :] = c * ri - e * s * rj
        states[:, j, :] = np.conj(e) * s * ri + c * rj
    return states


def _batch_rates(kappa: Nonlinearity, states: np.ndarray) -> np.ndarray:
    psi = states[:, :, 0]
    phi = states[:, :, 1]
    inner = np.sum(np.conj(psi) * phi, axis=1)
    t = overlap_derivative(kappa, psi, phi)
    mag = np.abs(inner)
    mag = np.where(mag < 1e-300, 1.0, mag)
    return np.real(np.conj(inner / mag) * t)


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

    Multi-start coordinate descent on the Givens-frame parameterization;
    per-restart step sizes shrink when a sweep yields no improvement, and a
    restart is converged once a full sweep improves its rate by less than
    1e-12.  Restart 0 starts at the identity frame; when ``warm_start`` is
    given (a result from a lower dimension), restart 1 starts from its
    frame padded with zeros.  The reported minimum is the exact rate at the
    returned embedding; ties pick the lowest restart index.
    """
    if dim < 2:
        raise ValueError("dim must be >= 2")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if not 0.0 < alpha < math.pi:
        raise ValueError("alpha must be in (0, pi) for orientation search")

    pairs = _pair_indices(dim)
    K = len(pairs)
    base = canonical_pair(alpha, dim)
    rng = np.random.default_rng(seed)
    params = rng.uniform(-math.pi, math.pi, size=(restarts, K, 2))
    params[0] = 0.0
    if warm_start is not None and warm_start.params is not None and restarts > 1:
        params[1] = 0.0
        prev_pairs = _pair_indices(warm_start.argmax.dim)
        lookup = {pq: k for k, pq in enumerate(pairs)}
        for k_prev, pq in enumerate(prev_pairs):
            if pq in lookup:
                params[1, lookup[pq]] = warm_start.params[k_prev]

    rates = _batch_rates(kappa, _build_states(params, base, pairs))
    steps = np.full(restarts, _STEP_INIT)
    active = np.ones(restarts, dtype=bool)
    sweeps_done = 0

    for sweep in range(max_sweeps):
        if not active.any():
            break
        sweeps_done = sweep + 1
        best_sweep_gain = np.zeros(restarts)
        for k in range(K):
            for comp in (0, 1):
                for sign in (1.0, -1.0):
                    trial = params.copy()
                    trial[:, k, comp] += sign * steps
                    trial_rates = _batch_rates(kappa, _build_states(trial, base, pairs))
                    better = trial_rates < rates - 1e-16
                    take = better & active
                    if take.any():
                        params[take] = trial[take]
                        best_sweep_gain[take] = np.maximum(
                            best_sweep_gain[take], rates[take] - trial_rates[take])
                        rates[take] = trial_rates[take]
        no_gain = best_sweep_gain <= _CONVERGENCE
        steps = np.where(no_gain, steps * 0.5, steps)
        active &= ~(no_gain & (steps < _STEP_MIN))

    best = int(np.argmin(rates))
    states = _build_states(params[best:best + 1], base, pairs)[0]
    psi, phi = states[:, 0], states[:, 1]
    embedding = PairEmbedding(dim=dim, psi=psi, phi=phi)
    rate, degenerate = rate_functional_flagged(kappa, embedding)

    angles = None
    if dim == 2:
        a, p, t = bloch_angles(psi, phi)
        angles = (p, t)

    return OptimizationResult(
        best_rate=rate, argmax=embedding, restarts=restarts, seed=seed,
        alpha=alpha, converged_sweeps=sweeps_done, degenerate=degenerate,
        angles=angles, params=params[best].copy(),
    )


def optimality_gap_scan(
    kappa: Nonlinearity,
    alpha_grid: Sequence[float],
    dims: Sequence[int],
    restarts: int = 16,
    seed: int = 0,
) -> list:
    """Best rates and gaps versus the qubit optimum across (alpha, dim).

    Returns rows of dicts with keys alpha, dim, best_rate, gap_vs_dim2;
    higher dimensions are warm-started from the previous dimension's frame.
    """
    dims = sorted(set(dims))
    if any(d < 2 or d > 8 for d in dims):
        raise ValueError("dims must lie in {2, ..., 8}")
    rows = []
    for alpha in alpha_grid:
        base_result = optimize_orientation(kappa, alpha, 2, restarts=restarts, seed=seed)
        per_dim = {2: base_result}
        for d in dims:
            if d == 2:
                result = base_result
            else:
                prev = per_dim.get(d - 1) or base_result
                result = optimize_orientation(kappa, alpha, d, restarts=restarts,
                                              seed=seed + d, warm_start=prev)
                per_dim[d] = result
            rows.append({
                "alpha": alpha,
                "dim": d,
                "best_rate": result.best_rate,
                "gap_vs_dim2": result.best_rate - base_result.best_rate,
                "angles": result.angles,
            })
    return rows


def gap_scan_csv(rows) -> str:
    out = ["alpha,dim,best_rate,gap_vs_dim2"]
    for r in rows:
        out.append(f"{r['alpha']:.17g},{r['dim']},{r['best_rate']:.17g},"
                   f"{r['gap_vs_dim2']:.17g}")
    return "\n".join(out) + "\n"
