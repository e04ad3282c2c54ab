"""Optimal qubit-pair discrimination protocols.

For the quadratic nonlinearity ``g x^2`` the optimally-oriented pair
(phi = pi/2, theta = 3*pi/4) has overlap c = cos(alpha/2) obeying

    dc/dt = -(g/2) (1 - c^2),
    c(t)  = tanh(u0 - gt/2),   u0 = atanh(c0) = ln cot(alpha0/4),

reaching orthogonality at t_perp = (2/g) u0.  The drive keeping the pair
so oriented is an x rotation at omega = (g/2) c (``control_omega`` in general).

For a general reduced nonlinearity kbar the same orientation gives

    dc/dt = -(1/sqrt(2)) kbar(s / sqrt(2)) s,   s = sin(alpha/2),

any other held orientation (phi, theta) gives ``pair_overlap_rate`` there,
and the re-optimized policy takes the most negative rate over all
orientations.  Each way dc/dt = R(c), so the time is one quadrature,
``separation_trace``, in u = atanh(c) (c = tanh u, s = sech u) from the
exact start u0; the quadratic law has the constant integrand 2/g:

    t(u) = int_u^u0 sech^2(v) / -R(v) dv.

The unit panels in u are integrated together by ``quad_panels``: an
adaptive G10/K21 Gauss-Kronrod rule per panel, whose integrand takes every
node of every open piece of every open panel as one array, so a
re-optimized run evaluates its orientation grid once per level for all of
them, in calls of at most ``QUAD_LIMIT`` pieces.  A level ends its panels
once every piece has closed.  A run to a target overlap integrates all its
panels at once; a run of given duration, one panel at a time up to the one
that holds its end.  The run's start is checked for a stall as the first
point of the first level, so a level costs one integrand call.  Each panel
bisects at most to ``QUAD_LIMIT`` pieces and warns
(``IntegrationWarning``) where that misses the tolerance.

Every sample comes from that quadrature, with no further integrand call.
A sample at a panel end is that end.  A sample inside a panel (the end of
a run of given duration, a ``t_eval`` time) is read from the degree-20
polynomial through the 21 Kronrod node values of the piece that holds it:
K21 integrates that polynomial exactly, so its integral meets the piece
sums, and Newton steps on it find the u of the sample's time.

A ``DiscriminationResult`` holds the sampled times, overlaps and angles of
that quadrature and its count of unit panels in u; it steps no ODE and
carries no drive.  Inputs are refused by ``_ode``'s rules; ``check_start``
states a run's start, alpha0 and duration, once for every module.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._ode import real_number, sample_times, whole_number
from .blochdyn import pair_overlap_rate
from .nonlinearity import Nonlinearity, ReducedNonlinearity, reduce

SQRT2 = math.sqrt(2.0)

# A run is declared stalled where the separation rate is weaker than this
# times max(g, 1) sin(alpha/2): rounding noise in kbar enters the rate
# multiplied by sin(alpha/2).  Covers reductions that vanish identically.
NO_PROGRESS_RATE = 1e-14

# Smallest relative tolerance the quadrature accepts, 50 machine epsilons:
# the rounding floor of its error estimate, as in QUADPACK.
QUAD_RTOL_FLOOR = 50.0 * np.finfo(float).eps

# tanh(u) rounds to -1 below u = -U_MAX, where a run of given duration stops.
U_MAX = 20.0

# The range of a target overlap, below the start's c0 = cos(alpha0/2) = hi.
_TARGET_RANGE = "in [0, cos(alpha0/2)) = [0, {hi!r})"


class OrientationPolicy(enum.Enum):
    FIXED_OPTIMAL_GP = "fixed"  # held at (phi, theta) = (pi/2, 3 pi/4)
    REOPTIMIZED = "reopt"


@dataclass
class DiscriminationResult:
    """Outcome of driving a pair from overlap cos(alpha0/2) to a target."""

    t_perp: float
    times: np.ndarray
    overlaps: np.ndarray  # cos(alpha/2) at each time
    panels: int  # unit panels in u integrated
    alphas: np.ndarray  # pair angle at each time, 4 atan(e^-u)
    target_overlap: float
    status: str = "reached"  # reached | no_progress
    diagnostic: str = ""

    @property
    def reached(self) -> bool:
        return self.status == "reached"


def epsilon_to_alpha0(epsilon: float) -> float:
    """Exact conversion of overlap deficit to Bloch separation angle.

    Evaluates 2 acos(1 - epsilon) as the identical 4 asin(sqrt(epsilon/2)),
    which keeps full relative precision for tiny epsilon.  Only [0, 1] maps
    to an angle in [0, pi]; the clip keeps epsilon = 1 at pi, not an ulp past.
    """
    real_number("epsilon", epsilon, 0.0, 1.0, "[]")
    return min(math.pi, 4.0 * math.asin(math.sqrt(epsilon / 2.0)))


def gp_overlap_closed_form(g: float, alpha0: float, t):
    """Overlap cos(alpha/2) at time t under the optimal quadratic protocol,
    tanh(u0 - gt/2) with u0 = ln cot(alpha0/4): the overlap keeps its digits
    where cos(alpha0/2) rounds to 1."""
    real_number("g", g, 0.0)
    check_start(alpha0)
    val = np.tanh(math.log(1.0 / math.tan(alpha0 / 4.0)) - g * np.asarray(t, dtype=float) / 2.0)
    return float(val) if np.ndim(t) == 0 else val


def gp_t_perp(g: float, alpha0: float) -> float:
    """Time to orthogonality, (2/g) ln(cot(alpha0/4)); inf at alpha0 = 0."""
    if alpha0 == 0.0 and 0.0 < g < math.inf:
        return math.inf
    return gp_time_to_overlap(g, alpha0, 0.0)


def gp_time_to_overlap(g: float, alpha0: float, target: float) -> float:
    """Closed-form time for the quadratic protocol to reach a target overlap,
    (2/g) (ln cot(alpha0/4) - atanh(target)); ln cot(alpha0/4) is
    atanh(cos(alpha0/2)) without its cancellation at small alpha0."""
    real_number("g", g, 0.0)
    check_start(alpha0)
    real_number("target overlap", target, 0.0, math.cos(alpha0 / 2), "[)", _TARGET_RANGE)
    return (2.0 / g) * (math.log(1.0 / math.tan(alpha0 / 4.0)) - math.atanh(target))


def control_omega(kbar: ReducedNonlinearity, c: float, s: float) -> float:
    """Orientation-holding drive rate for a general reduction at overlap c
    and s = sin(alpha/2), e.g. a result's ``overlaps`` and sin(``alphas``/2);
    s is taken, not recomputed as sqrt(1 - c^2), which loses digits as c -> 1.

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
    real_number("g", g)
    s = np.sin(np.asarray(alpha, dtype=float) / 2.0)
    out = (g / SQRT2) * np.log((SQRT2 - s) / (SQRT2 + s)) * s
    return float(out) if out.ndim == 0 else out


def gp_overlap_rate(g: float, alpha) -> float:
    """dc/dt = -(g/2) sin^2(alpha/2) for the quadratic nonlinearity."""
    real_number("g", g)
    s = np.sin(np.asarray(alpha, dtype=float) / 2.0)
    out = -(g / 2.0) * s * s
    return float(out) if out.ndim == 0 else out


# The re-optimized policy's 9 x 9 orientation grid: offsets in units of the
# window's half-width, and the half-widths in theta of its rounds, quartered
# from pi while above sqrt(eps), about 1.5e-8 (14 rounds); within that the
# rates differ by rounding alone (Numerical Recipes, sec. 10.1).  The window
# in phi is half as wide.  Each round's offsets in radians, precomputed.
_GRID = np.linspace(-1.0, 1.0, 9)
_HALF = math.pi / 4.0 ** np.arange(20)
_HALF = _HALF[_HALF > math.sqrt(np.finfo(float).eps)]
_PHI_OFFSETS = np.multiply.outer(0.5 * _HALF, _GRID)
_THETA_OFFSETS = np.multiply.outer(_HALF, _GRID)

# From this round (the 8th) on each window is fitted: its half-width in
# theta, pi/4^7 ~ 2e-4, is the first on which a rate with derivatives of
# order one is cubic to rounding (quartic terms ~ 1e-15 of the rate).
_FIT_FROM = 7
# Largest error, relative to the rate, that a trusted vertex may carry.
_POLISH_RTOL = 1e-14

# Least-squares fits to a window's 81 rates over the grid offsets x (phi)
# and y (theta) in units of the spacing, -4..4.  One product with _FIT gives
# the quadratic's coefficients of x, y, x^2, xy, y^2, then the residuals of
# the quadratic fit and of the cubic fit at the 81 points.
_X, _Y = (a.ravel() for a in np.meshgrid(np.arange(-4.0, 5.0), np.arange(-4.0, 5.0),
                                         indexing="ij"))
_QUADRATIC = np.column_stack([np.ones(81), _X, _Y, _X * _X, _X * _Y, _Y * _Y])
_CUBIC = np.column_stack([_QUADRATIC, _X ** 3, _X * _X * _Y, _X * _Y * _Y, _Y ** 3])
_FIT = np.column_stack([np.linalg.pinv(_QUADRATIC)[1:].T] + [
    np.eye(81) - basis @ np.linalg.pinv(basis) for basis in (_QUADRATIC, _CUBIC)])


def _vertex(rates, best):
    """Minimum of the quadratic gx x + gy y + hxx x^2 + hxy xy + hyy y^2
    fitted to each row of 81 ``rates`` (lowest ``best``), as offsets (x, y)
    in grid spacings, and whether it is trusted: the fit's Hessian is
    positive definite, the minimum lies in the window, the cubic fit's
    residual (the rates' rounding noise) is at most 2 _POLISH_RTOL of the
    rate, and the quadratic fit's residual r, taken for the error of its
    gradient, moves the vertex's rate by at most r^2 (hxx + hyy) / det,
    det = 4 hxx hyy - hxy^2, which must be within _POLISH_RTOL of the rate.
    """
    # one row product per point, so a point's fit does not depend on the batch
    fit = ((rates - best[:, None])[:, None, :] @ _FIT)[:, 0]
    gx, gy, hxx, hxy, hyy = fit[:, :5].T
    misfit, noise = np.abs(fit[:, 5:]).reshape(-1, 2, 81).max(axis=2).T
    det = 4.0 * hxx * hyy - hxy * hxy
    x, y = hxy * gy - 2.0 * hyy * gx, hxy * gx - 2.0 * hxx * gy  # times det
    tol = _POLISH_RTOL * np.abs(best)
    trust = ((np.minimum(hxx, det) > 0.0) & (np.maximum(np.abs(x), np.abs(y)) <= 4.0 * det)
             & (noise <= 2.0 * tol) & (misfit * misfit * (hxx + hyy) <= det * tol))
    det = np.where(trust, det, 1.0)
    return x / det, y / det, trust


def reoptimize_orientation(kbar: ReducedNonlinearity, c, s):
    """Most negative dc/dt over (phi, theta) at overlap c, s = sin(alpha/2).

    Returns (phi, theta, rate): floats for scalar c and s, else arrays of
    their common shape.  Each round evaluates a 9 x 9 grid on every point's
    current window and centres a window a quarter as wide on its best
    point, from the whole (phi, theta) range down to a half-width of
    sqrt(eps) in at most 14 rounds: near the minimum the rate is quadratic
    in the offset, so offsets below sqrt(eps) change it by less than its
    rounding.  A window whose 81 rates are all equal ends the search.

    From round 8 on (half-width pi/4^7 in theta), each window's rates are
    fitted with a quadratic by least squares, and its vertex is trusted
    where the fit's Hessian is positive definite, the vertex lies in the
    window (not cut at phi = 0 or pi), the residual of a cubic fit (the
    rates' rounding noise) is at most 2e-14 of the rate, and the quadratic
    fit's residual is small enough against its curvature that the vertex's
    error in rate is below 1e-14 of the rate.  A trusted point takes one
    more round, on the window centred on the vertex, and returns the better
    of that window's best point and the one before; a smooth rate so ends
    after 9 grid calls.  Elsewhere (the kink of a square-root reduction,
    rates that are rounding noise, a flat direction) the narrowing goes on
    to the floor, so no point takes more than 14 rounds.
    The points narrow in lockstep, one grid call (one kbar call) a round
    for all still searching, and each comes out bit for bit as it would
    alone.
    """
    c, s = np.asarray(c, dtype=float), np.asarray(s, dtype=float)
    shape = c.shape
    c, s = c.reshape(-1, 1, 1), s.reshape(-1, 1, 1)
    out = np.empty((3, len(c)))  # phi, theta and rate of each finished point
    live = np.arange(len(c))  # the points still searching
    phi, theta = np.full(len(c), math.pi / 2.0), np.full(len(c), math.pi)
    polishing = False  # whether some point's window is centred on its vertex
    for r in range(len(_HALF)):
        phis = (phi[:, None] + _PHI_OFFSETS[r]).clip(0.0, math.pi)
        thetas = theta[:, None] + _THETA_OFFSETS[r]
        rates = pair_overlap_rate(kbar, c, s, phis[:, :, None], thetas[:, None, :])
        rates = rates.reshape(-1, 81)
        k = rates.argmin(axis=1)
        i, j = divmod(k, 9)
        rows = np.arange(len(k))
        phi, theta, rate = phis[rows, i], thetas[rows, j], rates[rows, k]
        done = rates.max(axis=1) == rate
        if polishing:  # each polished point keeps the better of its last two rounds
            old = polished & (kept[2] <= rate)
            phi, theta = np.where(old, kept[0], phi), np.where(old, kept[1], theta)
            rate = np.where(old, kept[2], rate)
            done |= polished
            polishing = False
        if _FIT_FROM <= r < len(_HALF) - 1 and not done.all():
            x, y, polished = _vertex(rates, rate)
            polished &= ~done & (phis[:, 0] > 0.0) & (phis[:, 8] < math.pi)
            polishing = np.logical_or.reduce(polished)
            if polishing:
                kept = phi, theta, rate
                phi = np.where(polished, phis[:, 4] + x * _PHI_OFFSETS[r, 5], phi)
                theta = np.where(polished, thetas[:, 4] + y * _THETA_OFFSETS[r, 5], theta)
        elif r == len(_HALF) - 1:
            done[:] = True
        if np.logical_or.reduce(done):
            out[:, live[done]] = phi[done], theta[done], rate[done]
            go = ~done
            if not go.any():
                break
            live, c, s, phi, theta = live[go], c[go], s[go], phi[go], theta[go]
            if polishing:
                polished, kept = polished[go], tuple(a[go] for a in kept)
    phi, theta, rate = out[0], out[1] % (2.0 * math.pi), out[2]
    if not shape:
        return float(phi[0]), float(theta[0]), float(rate[0])
    return phi.reshape(shape), theta.reshape(shape), rate.reshape(shape)


def check_start(alpha0: float, duration: Optional[float] = None) -> None:
    """``ValueError`` unless alpha0 is in (0, pi], to 1e-12, and a duration finite and >= 0."""
    real_number("alpha0", alpha0, 0.0, math.pi + 1e-12, "(]", "in (0, pi]")
    if duration is not None:
        real_number("duration", duration, 0.0, ends="[)")


# QUADPACK's 21-point Gauss-Kronrod rule on [-1, 1] (Piessens et al. 1983,
# qk21): the Kronrod nodes from 1 down to 0 and their weights, and the
# weights of the 10-point Gauss rule on the nodes of odd index.  Both rules
# are mirrored about 0.
_XK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_WK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])
GK21_NODES = np.concatenate([_XK, -_XK[-2::-1]])
GK21_WEIGHTS = np.concatenate([_WK, _WK[-2::-1]])
G10_WEIGHTS = np.concatenate([_WG, _WG[::-1]])  # on GK21_NODES[1::2]

# Most pieces a panel is split into, as scipy's quad(limit=200).
QUAD_LIMIT = 200


def _gk21(f, lo, hi):
    """QUADPACK's qk21 on every piece [lo_i, hi_i] from one call of f on all
    their nodes: (integrals, error estimates, integrals of |f|, the values
    of f at each piece's 21 nodes)."""
    centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    # One 1 x 21 row per piece: a stack of row products rounds each piece's
    # sums as for that piece alone, whichever pieces share the call.
    fx = np.asarray(f((centre[:, None] + half[:, None] * GK21_NODES).ravel()),
                    dtype=float).reshape(len(lo), 1, -1)
    resk, resg = (fx @ GK21_WEIGHTS)[:, 0], (fx[..., 1::2] @ G10_WEIGHTS)[:, 0]
    resabs = (np.abs(fx) @ GK21_WEIGHTS)[:, 0] * np.abs(half)
    resasc = (np.abs(fx - 0.5 * resk[:, None, None]) @ GK21_WEIGHTS)[:, 0] * np.abs(half)
    err = np.abs((resk - resg) * half)
    ratio = 200.0 * err / np.where(resasc > 0.0, resasc, 1.0)
    err = np.where(resasc > 0.0, resasc * np.minimum(1.0, ratio ** 1.5), err)
    return resk * half, np.maximum(QUAD_RTOL_FLOOR * resabs, err), resabs, fx[:, 0]


def quad_panels(f, edges, rtol: float, nodes: bool = False):
    """Integral of f over each panel [edges[i], edges[i + 1]] to relative
    tolerance ``rtol``, as an array with one entry per panel; with ``nodes``,
    also the pieces the panels end with, as (lo, hi, values of f at their
    21 nodes), which tile the panels.

    An adaptive Gauss-Kronrod G10/K21 rule with QUADPACK's error estimate.
    ``f`` takes a 1-d array of points and returns its values there; each
    level calls it on the 21 nodes of every piece still open in every panel
    still open, ``QUAD_LIMIT`` pieces a call at most, so a call is never
    larger than one panel's own rule could make it.  Each panel is its own
    adaptive rule: a piece closes once its error estimate is at most
    ``rtol`` times its integral of |f| (the integral itself for a one-signed
    f), and every piece still open is bisected, until the panel's summed
    estimate is at most ``rtol`` times its integral.  A level on which
    every piece closes ends every panel still open, with no per-panel
    bookkeeping.  A panel bisected past ``QUAD_LIMIT`` pieces keeps its
    estimate so far and, once every panel is done, raises one
    ``IntegrationWarning`` naming it; an exception from f leaves no warning
    behind.
    """
    edges = np.asarray(edges, dtype=float)
    n = len(edges) - 1
    lo, hi, owner = edges[:-1], edges[1:], np.arange(n)
    out = np.zeros(n)  # integral of each panel's closed pieces, then its result
    closed_err = np.zeros(n)
    closed = np.zeros(n, dtype=np.intp)
    missed = np.zeros(n, dtype=bool)
    pieces = []
    while len(lo):
        if len(lo) <= QUAD_LIMIT:
            res, err, resabs, fx = _gk21(f, lo, hi)
        else:
            calls = [_gk21(f, lo[i:i + QUAD_LIMIT], hi[i:i + QUAD_LIMIT])
                     for i in range(0, len(lo), QUAD_LIMIT)]
            res, err, resabs, fx = (np.concatenate(parts) for parts in zip(*calls))
        done = err <= rtol * resabs  # a NaN estimate is never done
        if done.all():  # every panel has 0 pieces pending: each ends with this level
            out += np.bincount(owner, res, n)
            if nodes:
                pieces.append((lo, hi, fx))
            break
        total = out + np.bincount(owner, res, n)
        met = closed_err + np.bincount(owner, err, n) <= rtol * np.abs(total)
        is_open = ~done
        pending = np.bincount(owner[is_open], minlength=n)
        owner_done = owner[done]
        closed += np.bincount(owner_done, minlength=n)
        capped = ~met & (pending > 0) & (closed + 2 * pending > QUAD_LIMIT)
        stop = met | (pending == 0) | capped  # a panel closed before has pending 0
        out = np.where(stop, total, out + np.bincount(owner_done, res[done], n))
        closed_err += np.bincount(owner_done, err[done], n)
        missed |= capped
        keep = is_open & ~stop[owner]
        if nodes:
            pieces.append((lo[~keep], hi[~keep], fx[~keep]))
        if not keep.any():
            break
        lo, hi, owner = lo[keep], hi[keep], owner[keep]
        mid = 0.5 * (lo + hi)
        lo, hi, owner = np.concatenate([lo, mid]), np.concatenate([mid, hi]), np.tile(owner, 2)
    for i in np.flatnonzero(missed):
        from scipy.integrate import IntegrationWarning  # slow to import; only warnings use it
        warnings.warn(f"quadrature on [{edges[i]:.17g}, {edges[i + 1]:.17g}] did not "
                      f"reach rtol {rtol:.3g} within {QUAD_LIMIT} pieces",
                      IntegrationWarning, stacklevel=2)
    if nodes:
        return out, tuple(np.concatenate(parts) for parts in zip(*pieces))
    return out


def _tanh_sech(u):
    """(c, s) = (tanh u, sech u), elementwise; s = 2 e^-|u| / (1 + e^-2|u|)
    keeps full relative precision where cosh u would overflow."""
    e = np.exp(-np.abs(u))
    return np.tanh(u), 2.0 * e / (1.0 + e * e)


class _Stall(Exception):
    """Raised with (c, rate) where the separation rate is not reliably negative."""


def _held_orientation(policy):
    """(phi, theta) a policy other than REOPTIMIZED holds, or ``ValueError``."""
    if policy is OrientationPolicy.FIXED_OPTIMAL_GP:
        return math.pi / 2.0, 3.0 * math.pi / 4.0
    held = np.asarray(policy if isinstance(policy, (tuple, list)) else [], dtype=float)
    if held.shape != (2,) or not np.all(np.isfinite(held)):
        raise ValueError("policy must be an OrientationPolicy or a finite "
                         f"(phi, theta), got {policy!r}")
    return float(held[0]), float(held[1])


def separation_trace(
    n: Nonlinearity,
    alpha0: float,
    policy: OrientationPolicy | tuple = OrientationPolicy.FIXED_OPTIMAL_GP,
    target_overlap: Optional[float] = None,
    duration: Optional[float] = None,
    rtol: float = 1e-10,
    t_eval: Optional[np.ndarray] = None,
) -> DiscriminationResult:
    """Drive the pair from separation alpha0 until the overlap reaches
    ``target_overlap`` or for ``duration``; exactly one must be given.
    ``policy`` re-optimizes the orientation at every overlap or holds it at
    (phi, theta), which ``FIXED_OPTIMAL_GP`` sets to (pi/2, 3 pi/4).

    The time t(u) is integrated in unit panels of u to relative tolerance
    ``rtol``.  ``times`` holds the panel ends, or the ``t_eval`` samples
    within the run; ``t_eval`` must be a 1-d array of finite, strictly
    increasing times >= 0, and those past the run's end are dropped.  A
    sample inside a panel is read from the polynomial through the node
    values of the quadrature piece that holds it, so samples cost no
    integrand call.  A rate weaker than ``NO_PROGRESS_RATE`` max(g, 1)
    sin(alpha/2) anywhere on the way yields ``no_progress`` and t = inf.
    The start is checked with the first level's nodes, as the first point
    of the integrand's first call, so a run stalled there ends at c0; a
    run of duration 0 evaluates nothing.
    """
    check_start(alpha0, duration)
    c0 = math.cos(alpha0 / 2.0)
    if (target_overlap is None) == (duration is None):
        raise ValueError("give exactly one of target_overlap and duration")
    if target_overlap is not None:
        real_number("target overlap", target_overlap, 0.0, c0, "[)", _TARGET_RANGE)
    real_number("rtol", rtol, QUAD_RTOL_FLOOR, ends="[)",
                text="a finite number >= {lo:.3g} (the floor of the quadrature)")
    times = None if t_eval is None else sample_times(t_eval, 0, math.inf)
    kbar = reduce(n)
    floor = NO_PROGRESS_RATE * max(n.g, 1.0)
    held = None if policy is OrientationPolicy.REOPTIMIZED else _held_orientation(policy)
    start = []  # the run's start, until the first integrand call of a rule from it

    def dt_du(u):
        # The start goes first, so a stall there is the one reported.
        first = len(start)
        if first:
            u = np.concatenate((start, u))
            start.clear()
        c, s = _tanh_sech(u)
        if held is None:
            rate = reoptimize_orientation(kbar, c, s)[2]
        else:
            rate = pair_overlap_rate(kbar, c, s, *held)
        stalled = ~(rate < -floor * s)
        if stalled.any():
            k = stalled.argmax()
            raise _Stall(float(c[k]), float(rate[k]))
        return (s * s / -rate)[first:]

    u_end = -U_MAX if target_overlap is None else math.atanh(target_overlap)
    t_stop = math.inf if duration is None else duration
    # Only a duration run or t_eval can ask for a time inside a panel.
    dense = duration is not None or t_eval is not None
    us, ts, pieces = [-math.log(math.tan(alpha0 / 4.0))], [0.0], []
    try:
        # A target's panels are all known and share one rule; a duration
        # takes one panel at a time, up to the one that holds t_stop.
        single = duration is not None
        while us[-1] > u_end and ts[-1] < t_stop:
            edges, batch = [us[-1]], 1 if single else math.inf
            while edges[-1] > u_end and len(edges) <= batch:
                edges.append(max(edges[-1] - 1.0, u_end))
            if len(us) == 1:  # the start rides the first call of a rule from it
                start.append(us[0])
            try:
                dts = quad_panels(dt_du, edges[::-1], rtol, nodes=dense)
            except _Stall:
                if len(edges) == 2:
                    raise
                single = True  # a run stops at its first stalled panel
                continue
            if dense:
                dts, closed = dts
                pieces.append(closed)
            for u, dt in zip(edges[1:], dts[::-1]):
                ts.append(ts[-1] + float(dt))
                us.append(u)
    except _Stall as stall:
        c, rate = stall.args
        return DiscriminationResult(
            math.inf, np.array([0.0]), np.array([c0]), 0, np.array([alpha0]),
            target_overlap or 0.0, status="no_progress",
            # + 0.0 prints a rate of -0 as 0
            diagnostic=f"separation rate {rate + 0.0:.3e} at overlap {c:.17g} "
            "is not reliably negative")
    panels, t_end = len(us) - 1, min(ts[-1], t_stop)
    if ts[-1] < t_stop < math.inf:
        # The overlap rounds to -1 beyond u = -U_MAX and stays there.
        us.append(-math.inf)
        ts.append(t_stop)
        t_end = t_stop
    us, ts = np.array(us), np.array(ts)
    if t_eval is None and ts[-1] == t_end:
        samples, u = ts, us  # the panel ends, which the run holds
    else:
        samples = np.append(ts[ts < t_end], t_end) if t_eval is None else times[times <= t_end]
        k = np.searchsorted(ts, samples)  # the first panel end at or after each time
        u = us[k]
        inside = (ts[k] != samples) & (u > -math.inf)
        if inside.any():
            u[inside] = _dense_u(samples[inside], k[inside] - 1, us, ts,
                                 *(np.concatenate(parts) for parts in zip(*pieces)))
    return DiscriminationResult(float(t_end), samples, np.tanh(u), panels,
                                4.0 * np.arctan(np.exp(-u)),
                                target_overlap if target_overlap is not None else 0.0)


def _legendre(x, degree):
    """P_0(x) ... P_degree(x) along a last axis, by Bonnet's recurrence."""
    p = [np.ones_like(x), x]
    for n in range(1, degree):
        p.append(((2 * n + 1) * x * p[n] - n * p[n - 1]) / (n + 1))
    return np.stack(p, axis=-1)


# Maps from the values at the 21 Kronrod nodes to the Legendre coefficients
# of the degree-20 polynomial through them, and of its integral from x to 1
# (int_x^1 P_n = (P_n-1 - P_n+1) / (2n + 1), and 1 - x for n = 0).  K21
# integrates that polynomial exactly, so its integral over a piece is the
# piece's K21 sum.
_TO_LEGENDRE = np.linalg.inv(_legendre(GK21_NODES, 20))
_TAIL = (np.eye(22, 21, 1) - np.eye(22, 21, -1)) / (2 * np.arange(21) + 1)
_TAIL[0, 0] = 1.0
_TO_TAIL = _TAIL @ _TO_LEGENDRE


def _dense_u(times, k, us, ts, lo, hi, fx):
    """u at each time in (ts[k], ts[k + 1]) on the panels (us, ts), tiled by
    the pieces [lo, hi] with dt/du at their Kronrod nodes ``fx``.

    In a piece, with u = centre + half x, the time is that at its top plus
    half times the integral from x to 1 of the polynomial through its node
    values.  Each time is solved for by Newton steps on that polynomial,
    kept inside the shrinking bracket (bisection where a step leaves it);
    no integrand call is made.
    """
    order = np.argsort(-hi)  # the pieces in the order time passes them
    lo, hi, fx = lo[order], hi[order], fx[order]
    half = 0.5 * (hi - lo)
    tail = (fx @ _TO_TAIL.T) * half[:, None]
    span = tail @ (-1.0) ** np.arange(22)  # at x = -1: each piece's duration
    # The time at each piece's top, counted from its panel's start, so that
    # rounding does not build up over the panels.
    panel = np.searchsorted(-us, -hi, side="right") - 1
    first = np.searchsorted(panel, np.arange(len(us)))
    before = np.cumsum(span) - span
    top = ts[panel] + before - before[first[panel]]
    j = np.clip(np.searchsorted(top, times, side="right") - 1, first[k], first[k + 1] - 1)
    dt = times - top[j]
    tail, slope = tail[j], (fx[j] @ _TO_LEGENDRE.T) * half[j, None]  # slope = -dt/dx
    x = np.clip(1.0 - 2.0 * dt / span[j], -1.0, 1.0)
    a, b = np.full(len(x), -1.0), np.ones(len(x))
    for _ in range(60):  # bisection alone would end within 53
        p = _legendre(x, 21)
        terms = p * tail
        t = np.sum(terms, axis=1)
        # done once t - dt is at the rounding of its terms
        rounding = 8.0 * np.finfo(float).eps * (times + np.sum(np.abs(terms), axis=1))
        if np.all(np.abs(t - dt) <= rounding):
            break
        late = t > dt  # t falls as x grows
        a, b = np.where(late, x, a), np.where(late, b, x)
        step = x + (t - dt) / np.sum(p[:, :21] * slope, axis=1)
        x = np.where((a <= step) & (step <= b), step, 0.5 * (a + b))
    return 0.5 * (lo[j] + hi[j]) + half[j] * x


def time_to_overlap(
    n: Nonlinearity,
    alpha0: float,
    target_overlap: float,
    orientation_policy: OrientationPolicy | tuple = OrientationPolicy.FIXED_OPTIMAL_GP,
    rtol: float = 1e-10,
) -> DiscriminationResult:
    """First time the pair overlap reaches ``target_overlap``."""
    return separation_trace(n, alpha0, policy=orientation_policy,
                            target_overlap=target_overlap, rtol=rtol)


def fig_overlap_vs_gt():
    """Columns (g*t, overlap) of the closed-form quadratic decay from
    alpha0 = 0.1, 512 points on g*t in [0, 7.5]."""
    gts = np.linspace(0.0, 7.5, 512)
    return gts, gp_overlap_closed_form(1.0, 0.1, gts)


def fig_tperp_vs_alpha0():
    """Columns (alpha0, g * t_perp), 512 points on alpha0 in (0, pi]."""
    alphas = np.linspace(math.pi / 512, math.pi, 512)
    return alphas, np.array([gp_t_perp(1.0, a) for a in alphas])


def fig_rate_comparison(samples: int = 1000):
    """Columns (overlap, log-rate at g=1, quadratic rate at g=2) at ``samples``
    (a whole number >= 1) evenly spaced overlaps inside (0, 1)."""
    samples = whole_number("samples", samples, 1)
    cs = np.linspace(0.0, 1.0, samples + 2)[1:-1]
    alphas = 2.0 * np.arccos(cs)
    return cs, log_overlap_rate(1.0, alphas), gp_overlap_rate(2.0, alphas)
