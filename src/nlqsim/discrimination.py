"""Optimal qubit-pair discrimination protocols.

For the quadratic nonlinearity ``g x^2`` the optimally-oriented pair
(phi = pi/2, theta = 3*pi/4) has overlap c = cos(alpha/2) obeying

    dc/dt = -(g/2) (1 - c^2),
    c(t)  = (c0 cosh(gt/2) - sinh(gt/2)) / (cosh(gt/2) - c0 sinh(gt/2)),

reaching orthogonality at t_perp = (2/g) ln(cot(alpha0/4)).  The drive
keeping the pair optimally oriented is an x rotation at omega = (g/2) c.

For a general reduced nonlinearity kbar the same orientation gives

    dc/dt = -(1/sqrt(2)) kbar(s / sqrt(2)) s,   s = sin(alpha/2),

and ``time_to_overlap`` integrates either this fixed-orientation law or a
per-step re-optimized orientation found by grid search with local descent.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _ode
from .blochdyn import SimTrace, pair_overlap_rate
from .nonlinearity import Nonlinearity, ReducedNonlinearity, reduce

SQRT2 = math.sqrt(2.0)

# A run is declared stalled if the initial separation rate is weaker than
# this (scaled by max(g, 1)); covers reductions that vanish identically.
NO_PROGRESS_RATE = 1e-14

# Generic termination threshold standing in for exact orthogonality when a
# caller asks for target overlap 0 without zero-crossing detection.
ORTHO_OVERLAP = 1e-9


class OrientationPolicy(enum.Enum):
    FIXED_OPTIMAL_GP = "fixed"
    REOPTIMIZED = "reopt"


@dataclass
class DiscriminationResult:
    """Outcome of driving a pair from overlap cos(alpha0/2) to a target."""

    t_perp: float
    trace: SimTrace
    control: np.ndarray  # rows (t, omega)
    target_overlap: float
    status: str = "reached"  # reached | no_progress | max_time | failed
    diagnostic: str = ""

    @property
    def reached(self) -> bool:
        return self.status == "reached"


def epsilon_to_alpha0(epsilon: float) -> float:
    """Exact conversion of overlap deficit to Bloch separation angle.

    Evaluates 2 acos(1 - epsilon) as the identical 4 asin(sqrt(epsilon/2)),
    which keeps full relative precision for tiny epsilon.
    """
    if not 0.0 <= epsilon <= 2.0:
        raise ValueError("epsilon must be in [0, 2]")
    return 4.0 * math.asin(math.sqrt(epsilon / 2.0))


def gp_overlap_closed_form(g: float, alpha0: float, t, flag_pole: bool = False):
    """Overlap cos(alpha/2) at time t under the optimal quadratic protocol.

    Evaluated in the tanh form (c0 - tanh(gt/2)) / (1 - c0 tanh(gt/2)),
    which is stable for large gt.  When ``flag_pole`` is set, returns
    (value, pole) with pole True where |denominator| < 1e-14.
    """
    if g <= 0:
        raise ValueError("g must be > 0")
    if not 0.0 < alpha0 <= math.pi + 1e-12:
        raise ValueError("alpha0 must be in (0, pi]")
    c0 = math.cos(alpha0 / 2)
    tau = np.tanh(g * np.asarray(t, dtype=float) / 2.0)
    den = 1.0 - c0 * tau
    pole = np.abs(den) < 1e-14
    val = (c0 - tau) / np.where(pole, 1.0, den)
    # Continuity value at a flagged denominator: identical states stay at
    # overlap 1 (c0 rounded to 1), otherwise keep the sign of the numerator.
    cont = 1.0 if c0 == 1.0 else np.sign(c0 - tau)
    val = np.where(pole, cont, val)
    if np.ndim(t) == 0:
        val = float(val)
        pole = bool(pole)
    return (val, pole) if flag_pole else val


def gp_t_perp(g: float, alpha0: float) -> float:
    """Time to orthogonality, (2/g) ln(cot(alpha0/4)); inf at alpha0 = 0."""
    if g <= 0:
        raise ValueError("g must be > 0")
    if alpha0 < 0 or alpha0 > math.pi + 1e-12:
        raise ValueError("alpha0 must be in [0, pi]")
    if alpha0 == 0.0:
        return math.inf
    return (2.0 / g) * math.log(1.0 / math.tan(alpha0 / 4.0))


def gp_time_to_overlap(g: float, alpha0: float, target: float) -> float:
    """Closed-form time for the quadratic protocol to reach a target overlap."""
    c0 = math.cos(alpha0 / 2)
    if not 0.0 <= target < c0:
        raise ValueError("target overlap must be in [0, cos(alpha0/2))")
    return (2.0 / g) * (math.atanh(c0) - math.atanh(target))


def gp_control_omega(g: float, alpha: float) -> float:
    """x-axis drive rate keeping the pair optimally oriented (y = z)."""
    if not 0.0 <= alpha <= math.pi + 1e-12:
        raise ValueError("alpha must be in [0, pi]")
    return 0.5 * g * math.cos(alpha / 2.0)


def control_omega(kbar: ReducedNonlinearity, c: float) -> float:
    """Orientation-holding drive rate for a general reduction at overlap c.

    Solving d/dt (y - z) = 0 at phi = pi/2, theta = 3*pi/4 gives
    omega = kbar(s/sqrt(2)) c / (sqrt(2) s); reduces to (g/2) c for the
    quadratic form.  Diverges as s -> 0 for sub-linear reductions.
    """
    s = math.sqrt(max(0.0, 1.0 - c * c))
    if s < 1e-300:
        # Limit for linearizable kbar; callers never drive from alpha = 0.
        return 0.5 * float(kbar(1e-12)) / (1e-12 * SQRT2) * c * SQRT2
    return float(kbar(s / SQRT2)) * c / (SQRT2 * s)


def log_overlap_rate(g: float, alpha) -> float:
    """Overlap rate for the logarithmic nonlinearity at the quadratic-optimal
    orientation: (g/sqrt(2)) ln((sqrt(2)-sin(a/2))/(sqrt(2)+sin(a/2))) sin(a/2)."""
    s = np.sin(np.asarray(alpha, dtype=float) / 2.0)
    out = (g / SQRT2) * np.log((SQRT2 - s) / (SQRT2 + s)) * s
    return float(out) if out.ndim == 0 else out


def gp_overlap_rate(g: float, alpha) -> float:
    """dc/dt = -(g/2) sin^2(alpha/2) for the quadratic nonlinearity."""
    s = np.sin(np.asarray(alpha, dtype=float) / 2.0)
    out = -(g / 2.0) * s * s
    return float(out) if out.ndim == 0 else out


def _sin_half(c):
    """s = sin(alpha/2) from the overlap c = cos(alpha/2)."""
    c = np.asarray(c, dtype=float)
    return np.sqrt(np.clip(1.0 - c * c, 0.0, 1.0))


def fixed_orientation_rate(kbar: ReducedNonlinearity, c):
    """dc/dt at the quadratic-optimal orientation (phi, theta) = (pi/2, 3 pi/4):
    -(1/sqrt(2)) kbar(s/sqrt(2)) s with s = sin(alpha/2)."""
    return pair_overlap_rate(kbar, c, _sin_half(c), math.pi / 2.0, 3.0 * math.pi / 4.0)


# Orientation grid for the re-optimized policy: 256 x 256 in (phi, theta),
# then compass descent from the best cell.
_GRID_N = 256


def reoptimize_orientation(kbar: ReducedNonlinearity, c: float):
    """Most negative dc/dt over (phi, theta) at overlap c.

    Returns (phi, theta, rate).  Grid search on a 256x256 mesh refined by
    a shrinking compass search around the best cell.
    """
    s = _sin_half(c)
    phis = np.linspace(0.0, math.pi, _GRID_N)
    thetas = np.linspace(0.0, 2.0 * math.pi, _GRID_N, endpoint=False)
    P, T = np.meshgrid(phis, thetas, indexing="ij")
    rates = pair_overlap_rate(kbar, c, s, P, T)
    i, j = np.unravel_index(np.argmin(rates), rates.shape)
    phi, theta, best = float(P[i, j]), float(T[i, j]), float(rates[i, j])

    step = math.pi / _GRID_N
    for _ in range(60):
        improved = False
        for dphi, dtheta in ((step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step)):
            cand_phi = min(max(phi + dphi, 0.0), math.pi)
            cand_theta = (theta + dtheta) % (2.0 * math.pi)
            r = pair_overlap_rate(kbar, c, s, cand_phi, cand_theta)
            if r < best:
                phi, theta, best = cand_phi, cand_theta, r
                improved = True
        if not improved:
            step *= 0.5
            if step < 1e-12:
                break
    return phi, theta, best


def separation_trace(
    n: Nonlinearity,
    alpha0: float,
    policy: OrientationPolicy = OrientationPolicy.FIXED_OPTIMAL_GP,
    target_overlap: Optional[float] = None,
    duration: Optional[float] = None,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    t_eval: Optional[np.ndarray] = None,
) -> DiscriminationResult:
    """Integrate the reduced overlap dynamics from separation alpha0.

    Stops at the first crossing of ``target_overlap`` (event-located on the
    integrator's interpolant) or after ``duration``, whichever is given.
    A reduction with no initial separating rate yields a ``no_progress``
    result instead of a run to the time cap.
    """
    if not 0.0 < alpha0 <= math.pi + 1e-12:
        raise ValueError("alpha0 must be in (0, pi]")
    c0 = math.cos(alpha0 / 2.0)
    if target_overlap is not None and not 0.0 <= target_overlap < c0:
        raise ValueError("target overlap must be in [0, cos(alpha0/2))")
    kbar = reduce(n)

    orientation = {"phi": math.pi / 2.0, "theta": 3.0 * math.pi / 4.0}
    reopt = policy is OrientationPolicy.REOPTIMIZED
    if reopt:
        phi, theta, _ = reoptimize_orientation(kbar, c0)
        orientation["phi"], orientation["theta"] = phi, theta

    def f(t, y):
        c = float(np.clip(y[0], -1.0, 1.0))
        return np.array([
            pair_overlap_rate(kbar, c, _sin_half(c), orientation["phi"], orientation["theta"])
        ])

    rate0 = f(0.0, np.array([c0]))[0]
    scale = max(n.g, 1.0)
    if rate0 >= -NO_PROGRESS_RATE * scale:
        empty = SimTrace(np.array([0.0]), np.array([c0]), _ode.StepStats())
        return DiscriminationResult(
            math.inf, empty, np.array([[0.0, 0.0]]), target_overlap or 0.0,
            status="no_progress",
            diagnostic=f"initial separation rate {rate0:.3e} is not negative",
        )

    event = None
    if target_overlap is not None:
        tgt = target_overlap

        def event(t, y):
            return y[0] - tgt

    if duration is not None:
        horizon = duration
    else:
        # Generous cap: the rate certificate above guarantees progress at
        # least like an exponential with exponent |rate0|/alpha-ish.
        horizon = 1e4 / scale + 100.0 * (1.0 + abs(math.log(max(alpha0, 1e-300))))

    controls = [(0.0, control_omega(kbar, c0))]

    def hook(t, y):
        c = float(np.clip(y[0], -1.0, 1.0))
        if reopt:
            phi, theta, _ = reoptimize_orientation(kbar, c)
            orientation["phi"], orientation["theta"] = phi, theta
        controls.append((t, control_omega(kbar, max(min(c, 1.0), -1.0))))

    res = _ode.solve(f, 0.0, horizon, np.array([c0]), rtol=rtol, atol=atol,
                     event=event, step_hook=hook, t_eval=t_eval)

    trace = SimTrace(res.ts, res.ys[:, 0], res.stats, overlaps=res.ys[:, 0],
                     failed=res.failed, failure_reason=res.failure_reason)
    control = np.array(controls)

    if res.failed:
        return DiscriminationResult(math.nan, trace, control,
                                    target_overlap if target_overlap is not None else 0.0,
                                    status="failed", diagnostic=res.failure_reason)
    if event is not None and res.event_time is None:
        return DiscriminationResult(
            math.inf, trace, control, target_overlap,
            status="max_time",
            diagnostic=f"target overlap {target_overlap} not reached by t={horizon:.3g}",
        )
    t_end = res.event_time if res.event_time is not None else res.ts[-1]
    return DiscriminationResult(float(t_end), trace, control,
                                target_overlap if target_overlap is not None else 0.0)


def time_to_overlap(
    n: Nonlinearity,
    alpha0: float,
    target_overlap: float,
    orientation_policy: OrientationPolicy = OrientationPolicy.FIXED_OPTIMAL_GP,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> DiscriminationResult:
    """First time the pair overlap reaches ``target_overlap``."""
    return separation_trace(n, alpha0, policy=orientation_policy,
                            target_overlap=target_overlap, rtol=rtol, atol=atol)


def fig_overlap_vs_gt(g: float = 1.0, alpha0: float = 0.1, gt_max: float = 7.5,
                      samples: int = 512):
    """Columns (g*t, overlap) for the closed-form quadratic decay curve."""
    gts = np.linspace(0.0, gt_max, samples)
    overlap = gp_overlap_closed_form(g, alpha0, gts / g)
    return gts, overlap


def fig_tperp_vs_alpha0(g: float = 1.0, samples: int = 512):
    """Columns (alpha0, g * t_perp) over alpha0 in (0, pi]."""
    alphas = np.linspace(math.pi / samples, math.pi, samples)
    gtp = np.array([g * gp_t_perp(g, a) for a in alphas])
    return alphas, gtp


def fig_rate_comparison(samples: int = 1000):
    """Columns (overlap, log-rate at g=1, quadratic rate at g=2) on (0, 1)."""
    cs = np.linspace(0.0, 1.0, samples + 2)[1:-1]
    alphas = 2.0 * np.arccos(cs)
    return cs, log_overlap_rate(1.0, alphas), gp_overlap_rate(2.0, alphas)
