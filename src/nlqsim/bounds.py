"""Certificates and checkers for separation-speed bounds.

Two regimes control how fast a reduced nonlinearity kbar can drive two
states apart:

* if kbar grows at least linearly around some latitude z0,
  |kbar(z0) - kbar(z0 + d)| >= g_local |d| for |d| < Delta, the pair placed
  at midpoint latitude z0 separates exponentially, at least at the
  exponent ``certified_exp_rate``, the only one reported;
* if kbar is Lipschitz with constant g_lip, no protocol can beat
  alpha(t) <= exp(2 g_lip t) alpha0, and non-Lipschitz reductions (e.g. the
  square-root-sign form) violate any such proxy bound.

All certificates are sampled-numerical: grids with one refinement round to
detect unbounded difference quotients.  The grids are sampled in blocks of
at most ``BLOCK`` = 8,192 points (64 KiB per float64 array), so every array,
kbar's temporaries included, stays under glibc's 128 KiB mmap threshold and
comes from the heap instead of fresh pages that fault on first touch; memory
does not grow with ``grid``.  A reduction that is not finite on a grid is
refused at the first such z.  Both trajectory checks integrate the overlap
law with ``discrimination.separation_trace``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from ._ode import real_number, whole_number
from .discrimination import OrientationPolicy, check_start, separation_trace
from .nonlinearity import Nonlinearity, ReducedNonlinearity, reduce

DEFAULT_GRID = 10_000
REFINE_FACTOR = 4
# Quotient growth beyond this under grid refinement flags a non-Lipschitz
# reduction.
UNBOUNDED_GROWTH = 1.5
MIN_GROWTH = 1e-9
# Points per sampled block (see the module docstring).
BLOCK = 8192


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
    finite: bool = True

    def __post_init__(self):
        real_number("Lipschitz constant", self.g_lip, 0.0, math.inf, "[]")


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


def _linspace_blocks(start: float, stop: float, num: int, endpoint: bool = True,
                     overlap: int = 0) -> Iterator[np.ndarray]:
    """``np.linspace(start, stop, num, endpoint)`` in blocks of at most
    ``BLOCK`` points, consecutive blocks sharing ``overlap`` points.

    The values equal linspace's bit for bit: numpy computes
    ``arange(i) * step + start`` (``arange(i) / div * delta`` when the step
    underflows to 0) and sets the last point to ``stop``.
    """
    div = num - 1 if endpoint else num
    delta = stop - start
    step = delta / div
    i = 0
    while True:
        j = min(i + BLOCK, num)
        y = np.arange(i, j, dtype=float)
        if step == 0:
            y /= div
            y *= delta
        else:
            y *= step
        y += start
        if endpoint and j == num:
            y[-1] = stop
        yield y
        if j == num:
            return
        i = j - overlap


def _first_not_finite(z: np.ndarray, vals: np.ndarray) -> Optional[float]:
    """The first z at which vals is not finite, or None."""
    finite = np.isfinite(vals)
    return None if finite.all() else float(z[np.argmin(finite)])


def certify_growth(kbar: ReducedNonlinearity, z0: float, Delta: float,
                   grid: int = DEFAULT_GRID):
    """Largest sampled g with |kbar(z0) - kbar(z0 + d)| >= g |d|, |d| < Delta.

    Returns a :class:`GrowthCertificate`, or a :class:`GrowthRefusal` when
    the sampled growth floor is below 1e-9 or kbar is not finite at a
    sampled z (the first one is named).  Windows sticking out of [-1, 1]
    are clipped with a warning.
    """
    real_number("z0", z0, 0.0, 1.0, "[)")
    real_number("Delta", Delta, 0.0, math.inf, "(]")
    grid = whole_number("grid", grid, 2)

    hi = Delta
    lo = Delta
    if z0 + hi > 1.0:
        hi = 1.0 - z0
        warnings.warn(f"growth window clipped above to {hi:.3g} (z0 + Delta > 1)")
    if z0 - lo < -1.0:
        lo = z0 + 1.0

    k0 = float(kbar(z0))
    if not math.isfinite(k0):
        return GrowthRefusal(z0, Delta, f"kbar is not finite at z = {z0!r}")
    g_local, up = math.inf, 0.0
    for sign, span in ((-1.0, lo), (1.0, hi)):
        for deltas in _linspace_blocks(span / grid, span, grid, endpoint=False):
            deltas *= sign
            z = z0 + deltas
            vals = np.asarray(kbar(z))
            bad = _first_not_finite(z, vals)
            if bad is not None:
                return GrowthRefusal(z0, Delta, f"kbar is not finite at z = {bad!r}")
            diffs = vals - k0
            g_local = np.minimum(g_local, np.min(np.abs(diffs) / np.abs(deltas)))
            # Branch choice: pick theta so that kbar(z_plus) > kbar(z_minus);
            # the higher-z state has the larger kbar iff kbar increases
            # through z0.  The signs sum exactly, block by block.
            up += np.add.reduce(np.sign(diffs * deltas))
    g_local = float(g_local)
    if not g_local >= MIN_GROWTH:
        return GrowthRefusal(z0, Delta, f"sampled growth floor {g_local:.3e} below {MIN_GROWTH}")
    direction = 1 if up >= 0 else -1
    return GrowthCertificate(z0, g_local, min(hi, Delta), direction)


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


def growth_trace(kbar: ReducedNonlinearity, cert: GrowthCertificate, alpha0: float,
                 alpha_stop: float, rtol: float = 1e-10):
    """Times at which the pair held at the certificate's (phi, theta) widens
    from alpha0 to alpha_stop.

    Returns (times, alphas) at the ends of the unit panels in u = atanh(c),
    c = cos(alpha/2), of ``separation_trace`` with that orientation held, the
    last at alpha_stop.  A pair that stops widening on the way is refused.
    """
    if not 0.0 < alpha0 < alpha_stop <= math.pi:
        raise ValueError(f"need 0 < alpha0 < alpha_stop <= pi, got alpha0={alpha0!r} "
                         f"and alpha_stop={alpha_stop!r}")
    res = separation_trace(kbar.source, alpha0, policy=(cert.phi, cert.theta),
                           target_overlap=math.cos(alpha_stop / 2.0), rtol=rtol)
    if not res.reached:
        raise ValueError(f"the pair stops widening: {res.diagnostic}")
    return res.times, np.concatenate(([alpha0], res.alphas[1:-1], [alpha_stop]))


def estimate_lipschitz(kbar: ReducedNonlinearity, grid: int = DEFAULT_GRID) -> LipschitzEstimate:
    """Supremum of sampled difference quotients of kbar over [-1, 1].

    One refinement round (grid x 4) detects unbounded quotients; estimates
    that keep growing are flagged non-finite (``finite = False``), with the
    refined supremum reported.  A kbar that is not finite at a sampled z is
    refused (``ValueError``) at the first one.
    """
    grid = whole_number("grid", grid, 2)

    def sup_quotient(n):
        # Blocks share their edge point, so each quotient is formed once.
        top = -math.inf
        for z in _linspace_blocks(-1.0, 1.0, n, overlap=1):
            vals = np.asarray(kbar(z))
            bad = _first_not_finite(z, vals)
            if bad is not None:
                raise ValueError(f"kbar is not finite at z = {bad!r}")
            top = np.maximum(top, np.max(np.abs(np.diff(vals)) / np.diff(z)))
        return float(top)

    coarse = sup_quotient(grid)
    fine = sup_quotient(grid * REFINE_FACTOR)
    # Quotients made of pure rounding dust (vanishing reductions) grow under
    # refinement without meaning anything; an absolute floor absorbs them.
    finite = fine <= coarse * UNBOUNDED_GROWTH + 1e-12 or fine < 1e-9
    return LipschitzEstimate(g_lip=fine, finite=finite)


def check_lipschitz_separation_bound(
    n: Nonlinearity,
    alpha0: float,
    duration: float,
    g_lip: Optional[float] = None,
) -> SeparationBoundReport:
    """Check alpha(t) <= exp(2 g_lip t) alpha0 (1 + 1e-6) on a re-optimized
    separation trace, taken to ``separation_trace``'s default ``rtol``.

    ``g_lip`` defaults to the sampled Lipschitz estimate; a non-finite
    estimate (square-root-type reductions) requires an explicit proxy, and
    the report then typically flags the expected violation.
    """
    check_start(alpha0, duration)
    kbar = reduce(n)
    if g_lip is None:
        est = estimate_lipschitz(kbar)
        if not est.finite:
            raise ValueError(
                "no finite Lipschitz constant; pass an explicit g_lip proxy")
        g_lip = est.g_lip
    real_number("g_lip", g_lip, 0.0, ends="[)")

    result = separation_trace(n, alpha0, policy=OrientationPolicy.REOPTIMIZED,
                              duration=duration)
    times, alphas = result.times, result.alphas
    if result.status == "no_progress":
        times = np.array([0.0, duration])
        alphas = np.array([alpha0, alpha0])
    bound = np.exp(2.0 * g_lip * times) * alpha0 * (1.0 + 1e-6)
    ratios = alphas / bound
    max_ratio = float(np.max(ratios))
    return SeparationBoundReport(g_lip=g_lip, alpha0=alpha0, duration=duration,
                                 bound_ok=max_ratio <= 1.0, max_ratio=max_ratio,
                                 times=times, alphas=alphas)
