"""Certificates and checkers for separation-speed bounds.

Two regimes control how fast a reduced nonlinearity kbar can drive two
states apart:

* if kbar grows at least linearly around some latitude z0,
  |kbar(z0) - kbar(z0 + d)| >= g_local |d| for |d| < Delta, the pair placed
  at midpoint latitude z0 separates exponentially;
* if kbar is Lipschitz with constant g_lip, no protocol can beat
  alpha(t) <= exp(2 g_lip t) alpha0, and non-Lipschitz reductions (e.g. the
  square-root-sign form) violate any such proxy bound.

All certificates are sampled-numerical: grids with one refinement round to
detect unbounded difference quotients.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .blochdyn import pair_overlap_rate
from .discrimination import OrientationPolicy, check_rtol, quad_panel, separation_trace
from .nonlinearity import Nonlinearity, ReducedNonlinearity

DEFAULT_GRID = 10_000
REFINE_FACTOR = 4
# Quotient growth beyond this under grid refinement flags a non-Lipschitz
# reduction.
UNBOUNDED_GROWTH = 1.5
MIN_GROWTH = 1e-9


@dataclass(frozen=True)
class GrowthCertificate:
    """Sampled linear-growth certificate around latitude z0.

    ``direction`` selects the theta branch (+1 -> 3*pi/4, -1 -> pi/4) that
    makes the higher-latitude state the one with the larger kbar value.
    ``validity_alpha`` is the largest pair angle keeping both latitudes
    inside the certified window: sqrt(2 (1 - z0^2)) sin(alpha/2) <= Delta.
    """

    z0: float
    g_local: float
    delta_window: float
    direction: int
    grid: int

    @property
    def validity_alpha(self) -> float:
        span = math.sqrt(2.0 * (1.0 - self.z0 ** 2))
        if span <= 0.0:
            return 0.0
        return 2.0 * math.asin(min(1.0, self.delta_window / span))

    @property
    def theta(self) -> float:
        return 3.0 * math.pi / 4.0 if self.direction > 0 else math.pi / 4.0

    @property
    def phi(self) -> float:
        return math.acos(min(1.0, max(-1.0, self.z0)))


@dataclass(frozen=True)
class GrowthRefusal:
    """No usable linear growth around z0 (e.g. a vanishing reduction)."""

    z0: float
    delta_window: float
    reason: str


@dataclass(frozen=True)
class LipschitzEstimate:
    g_lip: float
    grid_resolution: float
    finite: bool = True

    def __post_init__(self):
        if self.g_lip < 0:
            raise ValueError("Lipschitz constant must be nonnegative")


@dataclass
class SeparationBoundReport:
    """Outcome of checking alpha(t) <= exp(2 g_lip t) alpha0 on a trace."""

    g_lip: float
    alpha0: float
    duration: float
    bound_ok: bool
    max_ratio: float
    times: np.ndarray
    alphas: np.ndarray


def certify_growth(kbar: ReducedNonlinearity, z0: float, Delta: float,
                   grid: int = DEFAULT_GRID):
    """Largest sampled g with |kbar(z0) - kbar(z0 + d)| >= g |d|, |d| < Delta.

    Returns a :class:`GrowthCertificate`, or a :class:`GrowthRefusal` when
    the sampled growth floor is below 1e-9.  Windows sticking out of [-1, 1]
    are clipped with a warning.
    """
    if not 0.0 <= z0 < 1.0:
        raise ValueError("z0 must be in [0, 1)")
    if Delta <= 0:
        raise ValueError("Delta must be > 0")
    if grid < 2:
        raise ValueError("grid must be >= 2")

    hi = Delta
    lo = Delta
    if z0 + hi > 1.0:
        hi = 1.0 - z0
        warnings.warn(f"growth window clipped above to {hi:.3g} (z0 + Delta > 1)")
    if z0 - lo < -1.0:
        lo = z0 + 1.0

    k0 = float(kbar(z0))
    deltas = np.concatenate([
        -np.linspace(lo / grid, lo, grid, endpoint=False),
        np.linspace(hi / grid, hi, grid, endpoint=False),
    ])
    quotients = np.abs(np.asarray(kbar(z0 + deltas)) - k0) / np.abs(deltas)
    g_local = float(np.min(quotients))
    if g_local < MIN_GROWTH:
        return GrowthRefusal(z0, Delta, f"sampled growth floor {g_local:.3e} below {MIN_GROWTH}")

    # Branch choice: pick theta so that kbar(z_plus) > kbar(z_minus); the
    # higher-z state has the larger kbar iff kbar increases through z0.
    up = np.mean(np.sign((np.asarray(kbar(z0 + deltas)) - k0) * deltas))
    direction = 1 if up >= 0 else -1
    return GrowthCertificate(z0, g_local, min(hi, Delta), direction, grid)


def certified_exp_rate(cert: GrowthCertificate, alpha_max: Optional[float] = None) -> float:
    """Rigorous exponential growth exponent realized by the certificate.

    The oriented pair at midpoint latitude z0 has
    |z+ - z-| = sqrt(2 (1 - z0^2)) sin(alpha/2), so the certified rate gives
    d(alpha)/dt >= g_local (1 - z0^2) sin(alpha/2), and with
    sin(x)/x decreasing,

        alpha(t) >= exp(c t) alpha0,
        c = g_local (1 - z0^2) / 2 * sinc_floor,

    where sinc_floor = sin(a/2)/(a/2) at the largest angle checked.
    """
    a = cert.validity_alpha if alpha_max is None else min(alpha_max, cert.validity_alpha)
    if a <= 0:
        return 0.0
    sinc_floor = math.sin(a / 2.0) / (a / 2.0)
    return cert.g_local * (1.0 - cert.z0 ** 2) / 2.0 * sinc_floor


def exp_growth_rate(cert: GrowthCertificate) -> float:
    """Nominal exponential exponent c = g_local sqrt((1 - z0^2) / 2).

    This is the headline constant for the latitude-z0 growth argument.  The
    exactly certified exponent is smaller by a constant factor (see
    :func:`certified_exp_rate`); the companion ODE check in the test suite
    verifies the certified rate.
    """
    return cert.g_local * math.sqrt((1.0 - cert.z0 ** 2) / 2.0)


def growth_trace(kbar: ReducedNonlinearity, cert: GrowthCertificate, alpha0: float,
                 alpha_stop: float, rtol: float = 1e-10):
    """Times at which the pair held at the certificate's (phi, theta) widens
    from alpha0 to alpha_stop.

    Returns (times, alphas) at the ends of unit panels in ln(alpha), the
    last at alpha_stop.  The time is the quadrature of alpha / (d alpha/dt)
    over ln(alpha), with d(alpha)/dt = -(2/s) dc/dt, c = cos(alpha/2) and
    s = sin(alpha/2); a pair that stops widening on the way is refused.
    """
    check_rtol(rtol)
    if not 0.0 < alpha0 < alpha_stop <= math.pi:
        raise ValueError("need 0 < alpha0 < alpha_stop <= pi")

    def dt_dw(w):
        a = math.exp(w)
        s = math.sin(a / 2.0)
        widen = -2.0 * pair_overlap_rate(kbar, math.cos(a / 2.0), s, cert.phi, cert.theta) / s
        if not widen > 0.0:
            raise ValueError(f"the pair stops widening at alpha = {a:.6g}")
        return a / widen

    ws = np.append(np.arange(math.log(alpha0), math.log(alpha_stop), 1.0), math.log(alpha_stop))
    times = np.concatenate([[0.0], np.cumsum([quad_panel(dt_dw, a, b, rtol)
                                              for a, b in zip(ws[:-1], ws[1:])])])
    alphas = np.exp(ws)
    alphas[0], alphas[-1] = alpha0, alpha_stop
    return times, alphas


def estimate_lipschitz(kbar: ReducedNonlinearity, grid: int = DEFAULT_GRID) -> LipschitzEstimate:
    """Supremum of sampled difference quotients of kbar over [-1, 1].

    One refinement round (grid x 4) detects unbounded quotients; estimates
    that keep growing are flagged non-finite (``finite = False``), with the
    refined supremum reported.
    """
    if grid < 2:
        raise ValueError("grid must be >= 2")

    def sup_quotient(n):
        z = np.linspace(-1.0, 1.0, n)
        vals = np.asarray(kbar(z))
        return float(np.max(np.abs(np.diff(vals)) / np.diff(z)))

    coarse = sup_quotient(grid)
    fine = sup_quotient(grid * REFINE_FACTOR)
    # Quotients made of pure rounding dust (vanishing reductions) grow under
    # refinement without meaning anything; an absolute floor absorbs them.
    finite = fine <= coarse * UNBOUNDED_GROWTH + 1e-12 or fine < 1e-9
    return LipschitzEstimate(g_lip=fine, grid_resolution=2.0 / (grid * REFINE_FACTOR),
                             finite=finite)


def check_lipschitz_separation_bound(
    n: Nonlinearity,
    alpha0: float,
    duration: float,
    g_lip: Optional[float] = None,
    rtol: float = 1e-10,
) -> SeparationBoundReport:
    """Check alpha(t) <= exp(2 g_lip t) alpha0 (1 + 1e-6) on a re-optimized
    separation trace.

    ``g_lip`` defaults to the sampled Lipschitz estimate; a non-finite
    estimate (square-root-type reductions) requires an explicit proxy, and
    the report then typically flags the expected violation.
    """
    from .nonlinearity import reduce as _reduce

    kbar = _reduce(n)
    if g_lip is None:
        est = estimate_lipschitz(kbar)
        if not est.finite:
            raise ValueError(
                "no finite Lipschitz constant; pass an explicit g_lip proxy")
        g_lip = est.g_lip

    result = separation_trace(n, alpha0, policy=OrientationPolicy.REOPTIMIZED,
                              duration=duration, rtol=rtol)
    times = result.trace.times
    cs = np.clip(np.asarray(result.trace.states, dtype=float), -1.0, 1.0)
    alphas = 2.0 * np.arccos(cs)
    if result.status == "no_progress":
        times = np.array([0.0, duration])
        alphas = np.array([alpha0, alpha0])
    bound = np.exp(2.0 * g_lip * times) * alpha0 * (1.0 + 1e-6)
    ratios = alphas / bound
    max_ratio = float(np.max(ratios))
    return SeparationBoundReport(g_lip=g_lip, alpha0=alpha0, duration=duration,
                                 bound_ok=max_ratio <= 1.0, max_ratio=max_ratio,
                                 times=times, alphas=alphas)


def bound_report_csv(rows) -> str:
    """CSV report: nonlinearity,z0,g_local,c,bound_ok,max_ratio."""
    out = ["nonlinearity,z0,g_local,c,bound_ok,max_ratio"]
    for r in rows:
        out.append(
            f"{r['nonlinearity']},{r['z0']:.17g},{r['g_local']:.17g},"
            f"{r['c']:.17g},{r['bound_ok']},{r['max_ratio']:.17g}"
        )
    return "\n".join(out) + "\n"
