"""Optimal qubit-pair discrimination protocols.

For the quadratic nonlinearity ``g x^2`` the optimally-oriented pair
(phi = pi/2, theta = 3*pi/4) has overlap c = cos(alpha/2) obeying

    dc/dt = -(g/2) (1 - c^2),
    c(t)  = (c0 cosh(gt/2) - sinh(gt/2)) / (cosh(gt/2) - c0 sinh(gt/2)),

reaching orthogonality at t_perp = (2/g) ln(cot(alpha0/4)).  The drive
keeping the pair optimally oriented is an x rotation at omega = (g/2) c.

For a general reduced nonlinearity kbar the same orientation gives

    dc/dt = -(1/sqrt(2)) kbar(s / sqrt(2)) s,   s = sin(alpha/2),

and the re-optimized policy takes the most negative rate over all
orientations instead.  Either way dc/dt = R(c), so the time is a quadrature
in u = atanh(c) (c = tanh u, s = sech u), from the exact start
u0 = ln cot(alpha0/4); the quadratic law has the constant integrand 2/g:

    t(u) = int_u^u0 sech^2(v) / -R(v) dv.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import quad

from . import _ode
from .blochdyn import SimTrace, pair_overlap_rate
from .nonlinearity import Nonlinearity, ReducedNonlinearity, reduce

SQRT2 = math.sqrt(2.0)

# A run is declared stalled where the separation rate is weaker than this
# times max(g, 1) sin(alpha/2): rounding noise in kbar enters the rate
# multiplied by sin(alpha/2).  Covers reductions that vanish identically.
NO_PROGRESS_RATE = 1e-14

# Smallest relative tolerance scipy's quad accepts, 50 machine epsilons.
QUAD_RTOL_FLOOR = 50.0 * np.finfo(float).eps

# tanh(u) rounds to -1 below u = -U_MAX, where a run of given duration stops.
U_MAX = 20.0


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
    status: str = "reached"  # reached | no_progress
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


def control_omega(kbar: ReducedNonlinearity, c: float, s: float) -> float:
    """Orientation-holding drive rate for a general reduction at overlap c,
    with s = sin(alpha/2) given by the caller (1 - c^2 loses its digits as
    c -> 1).

    Solving d/dt (y - z) = 0 at phi = pi/2, theta = 3*pi/4 gives
    omega = kbar(s/sqrt(2)) c / (sqrt(2) s); reduces to (g/2) c for the
    quadratic form.  Diverges as s -> 0 for sub-linear reductions.
    """
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


# Offsets of the re-optimized policy's 9 x 9 orientation grid, in units of
# the window's half-width.
_GRID = np.linspace(-1.0, 1.0, 9)


def reoptimize_orientation(kbar: ReducedNonlinearity, c: float, s: float):
    """Most negative dc/dt over (phi, theta) at overlap c, s = sin(alpha/2).

    Returns (phi, theta, rate).  Each round evaluates a 9 x 9 grid on the
    current window and centres a window a quarter as wide on its best point,
    from the whole (phi, theta) range down to a half-width of 1e-10.
    """
    phi, theta = math.pi / 2.0, math.pi
    half_phi, half_theta = math.pi / 2.0, math.pi
    while half_theta > 1e-10:
        P, T = np.meshgrid(np.clip(phi + half_phi * _GRID, 0.0, math.pi),
                           theta + half_theta * _GRID, indexing="ij")
        rates = pair_overlap_rate(kbar, c, s, P, T)
        k = np.argmin(rates)
        phi, theta, best = float(P.flat[k]), float(T.flat[k]), float(rates.flat[k])
        half_phi, half_theta = half_phi / 4.0, half_theta / 4.0
    return phi, theta % (2.0 * math.pi), best


def check_rtol(rtol: float) -> float:
    """``rtol`` if it is a finite relative tolerance the quadrature can meet,
    else ``ValueError`` naming the floor."""
    if not (math.isfinite(rtol) and rtol >= QUAD_RTOL_FLOOR):
        raise ValueError(f"rtol must be a finite number >= {QUAD_RTOL_FLOOR:.3g} "
                         f"(the floor of the quadrature), got {rtol!r}")
    return rtol


def quad_panel(f, a: float, b: float, rtol: float) -> float:
    """Integral of f over [a, b] to relative tolerance ``rtol``."""
    return quad(f, a, b, epsabs=0.0, epsrel=rtol, limit=200)[0]


def _tanh_sech(u: float):
    """(c, s) = (tanh u, sech u); s = 2 e^-|u| / (1 + e^-2|u|) keeps full
    relative precision where cosh u would overflow."""
    e = math.exp(-abs(u))
    return math.tanh(u), 2.0 * e / (1.0 + e * e)


class _Stall(Exception):
    """Raised with (c, rate) where the separation rate is not reliably negative."""


def separation_trace(
    n: Nonlinearity,
    alpha0: float,
    policy: OrientationPolicy = OrientationPolicy.FIXED_OPTIMAL_GP,
    target_overlap: Optional[float] = None,
    duration: Optional[float] = None,
    rtol: float = 1e-10,
    t_eval: Optional[np.ndarray] = None,
) -> DiscriminationResult:
    """Drive the pair from separation alpha0 until the overlap reaches
    ``target_overlap`` or for ``duration``; exactly one must be given.

    The time t(u) is integrated in unit panels of u to relative tolerance
    ``rtol``.  The trace holds the panel ends, or the ``t_eval`` samples
    within the run.  A rate weaker than ``NO_PROGRESS_RATE`` max(g, 1)
    sin(alpha/2) anywhere on the way yields ``no_progress`` and t = inf.
    """
    if not 0.0 < alpha0 <= math.pi + 1e-12:
        raise ValueError("alpha0 must be in (0, pi]")
    c0 = math.cos(alpha0 / 2.0)
    if (target_overlap is None) == (duration is None):
        raise ValueError("give exactly one of target_overlap and duration")
    if target_overlap is not None and not 0.0 <= target_overlap < c0:
        raise ValueError("target overlap must be in [0, cos(alpha0/2))")
    if duration is not None and not duration >= 0.0:
        raise ValueError("duration must be >= 0")
    check_rtol(rtol)
    kbar = reduce(n)
    floor = NO_PROGRESS_RATE * max(n.g, 1.0)
    reopt = policy is OrientationPolicy.REOPTIMIZED

    def dt_du(u):
        c, s = _tanh_sech(u)
        if reopt:
            rate = reoptimize_orientation(kbar, c, s)[2]
        else:
            rate = pair_overlap_rate(kbar, c, s, math.pi / 2.0, 3.0 * math.pi / 4.0)
        if not rate < -floor * s:
            raise _Stall(c, rate)
        return s * s / -rate

    u_end = -U_MAX if target_overlap is None else math.atanh(target_overlap)
    t_stop = math.inf if duration is None else duration
    us, ts = [-math.log(math.tan(alpha0 / 4.0))], [0.0]
    try:
        dt_du(us[0])
        while us[-1] > u_end and ts[-1] < t_stop:
            u = max(us[-1] - 1.0, u_end)
            ts.append(ts[-1] + quad_panel(dt_du, u, us[-1], rtol))
            us.append(u)
        panels, t_end = len(us) - 1, min(ts[-1], t_stop)
        if ts[-1] < t_stop < math.inf:
            # The overlap rounds to -1 beyond u = -U_MAX and stays there.
            us.append(-math.inf)
            ts.append(t_stop)
            t_end = t_stop
        if t_eval is None:
            samples = [t for t in ts if t < t_end] + [t_end]
        else:
            samples = [t for t in np.asarray(t_eval, dtype=float) if 0.0 <= t <= t_end]
        us = [_u_at(dt_du, t, us, ts, rtol) for t in samples]
    except _Stall as stall:
        empty = SimTrace(np.array([0.0]), np.array([c0]), _ode.StepStats())
        return DiscriminationResult(
            math.inf, empty, np.array([[0.0, 0.0]]), target_overlap or 0.0,
            status="no_progress", diagnostic="separation rate {1:.3e} at overlap "
            "{0:.17g} is not reliably negative".format(*stall.args))
    cs = np.tanh(np.array(us, dtype=float))
    trace = SimTrace(np.array(samples, dtype=float), cs, _ode.StepStats(accepted=panels),
                     overlaps=cs)
    control = np.array([(t, control_omega(kbar, *_tanh_sech(u))) for t, u in zip(samples, us)])
    return DiscriminationResult(float(t_end), trace, control,
                                target_overlap if target_overlap is not None else 0.0)


def _u_at(dt_du, T, us, ts, rtol):
    """u at time T on the panels (us, ts): Newton steps on the decreasing
    t(u) = ts[k] + int_u^us[k] dt_du, kept inside the shrinking bracket
    (bisection where a step leaves it), until t is within rtol T of T."""
    k = int(np.searchsorted(ts, T, side="right")) - 1
    if ts[k] == T:
        return us[k]
    if us[k + 1] == -math.inf:
        return -math.inf
    lo, hi = us[k + 1], us[k]
    u, t = hi, ts[k]
    for _ in range(100):
        if abs(t - T) <= rtol * T:
            break
        step = u - (T - t) / dt_du(u)
        step = step if lo < step < hi else 0.5 * (lo + hi)
        t += quad_panel(dt_du, step, u, rtol)
        u = step
        lo, hi = (u, hi) if t > T else (lo, u)
    return u


def time_to_overlap(
    n: Nonlinearity,
    alpha0: float,
    target_overlap: float,
    orientation_policy: OrientationPolicy = OrientationPolicy.FIXED_OPTIMAL_GP,
    rtol: float = 1e-10,
) -> DiscriminationResult:
    """First time the pair overlap reaches ``target_overlap``."""
    return separation_trace(n, alpha0, policy=orientation_policy,
                            target_overlap=target_overlap, rtol=rtol)


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
