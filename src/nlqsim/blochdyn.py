"""Bloch-sphere dynamics of qubit pairs under a reduced nonlinearity.

The nonlinear term alone rotates a Bloch vector (x, y, z) around its line
of latitude at rate kbar(z):

    d/dt (x, y, z) = kbar(z) (-y, x, 0).

An optional linear drive omega(t) about a fixed axis adds the usual rigid
rotation, omega(t) * (axis x v).  Pairs of states with fixed Bloch-sphere
separation alpha are parameterized by the midpoint polar angle phi and the
rotation theta about the midpoint (midpoint gauged into the xz plane):

    x_pm = cos(a/2) sin(phi) +- sin(a/2) cos(phi) cos(theta)
    y_pm = +- sin(a/2) sin(theta)
    z_pm = cos(a/2) cos(phi) -+ sin(a/2) sin(phi) cos(theta)

``integrate`` steps one or two Bloch vectors with ``_ode.solve`` and returns
its ``SimTrace``, with cos(alpha) of a pair in ``overlaps``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from . import _ode
from .nonlinearity import ReducedNonlinearity

UNIT_TOL = 1e-9


def _as_unit(v, tol=UNIT_TOL) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError("Bloch vector must be a real 3-vector")
    n = np.linalg.norm(v)
    if abs(n - 1.0) > tol:
        raise ValueError(f"Bloch vector must be unit length, |v| = {n}")
    return v / n


@dataclass(frozen=True)
class PairOrientation:
    """Two Bloch vectors at separation ``alpha``, midpoint in the xz plane.

    alpha : separation angle on the Bloch sphere, in [0, pi]
    phi   : polar angle of the midpoint from the +z axis, in [0, pi]
    theta : rotation about the midpoint, in [0, 2*pi)
    """

    alpha: float
    phi: float
    theta: float

    def __post_init__(self):
        if not 0.0 <= self.alpha <= math.pi + 1e-12:
            raise ValueError(f"alpha must be in [0, pi], got {self.alpha}")
        if not 0.0 <= self.phi <= math.pi + 1e-12:
            raise ValueError(f"phi must be in [0, pi], got {self.phi}")

    def z_pair(self):
        """Latitudes (z_plus, z_minus) of the two states."""
        ca, sa = math.cos(self.alpha / 2), math.sin(self.alpha / 2)
        zp = ca * math.cos(self.phi) - sa * math.sin(self.phi) * math.cos(self.theta)
        zm = ca * math.cos(self.phi) + sa * math.sin(self.phi) * math.cos(self.theta)
        return zp, zm


@dataclass(frozen=True)
class DriveSchedule:
    """Rotation about a fixed unit axis at (possibly time-dependent) rate omega."""

    axis: np.ndarray
    omega: Union[float, Callable[[float], float]]

    def __post_init__(self):
        axis = np.asarray(self.axis, dtype=float)
        if axis.shape != (3,):
            raise ValueError("drive axis must be a 3-vector")
        n = np.linalg.norm(axis)
        if n < 1e-12:
            raise ValueError("drive axis must be nonzero")
        object.__setattr__(self, "axis", axis / n)

    def rate(self, t: float) -> float:
        return self.omega(t) if callable(self.omega) else float(self.omega)


def x_drive(omega) -> DriveSchedule:
    return DriveSchedule(np.array([1.0, 0.0, 0.0]), omega)


def pair_to_bloch(p: PairOrientation):
    """Closed-form Bloch vectors of the oriented pair."""
    ca, sa = math.cos(p.alpha / 2), math.sin(p.alpha / 2)
    sp, cp = math.sin(p.phi), math.cos(p.phi)
    st, ct = math.sin(p.theta), math.cos(p.theta)
    vp = np.array([ca * sp + sa * cp * ct, sa * st, ca * cp - sa * sp * ct])
    vm = np.array([ca * sp - sa * cp * ct, -sa * st, ca * cp + sa * sp * ct])
    return vp, vm


def optimal_pair(alpha: float) -> PairOrientation:
    """Orientation maximizing the quadratic-nonlinearity separation rate."""
    return PairOrientation(alpha, math.pi / 2, 3 * math.pi / 4)


def ip_rate_vectors(kbar: ReducedNonlinearity, v1, v2) -> float:
    """Rate of change of v1 . v2 under the nonlinear flow, from raw vectors."""
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    cross_z = v1[0] * v2[1] - v1[1] * v2[0]
    return float(cross_z * (kbar(v1[2]) - kbar(v2[2])))


def pair_overlap_rate(kbar: ReducedNonlinearity, c, s, phi, theta):
    """dc/dt of the overlap c = cos(alpha/2) of the pair at orientation
    (phi, theta) under the nonlinear flow, with s = sin(alpha/2):

        dc/dt = (s/2) sin(phi) sin(theta) (kbar(z_minus) - kbar(z_plus)),
        z_pm  = c cos(phi) -+ s sin(phi) cos(theta).

    kbar is called once, on the stack (z_minus, z_plus).  Vectorized over
    all arguments, where c cos(phi) has no more axes than s sin(phi)
    cos(theta); d cos(alpha)/dt is 4c times this.
    """
    c = np.asarray(c, dtype=float)
    s = np.asarray(s, dtype=float)
    sp, cp = np.sin(phi), np.cos(phi)
    st, ct = np.sin(theta), np.cos(theta)
    k = kbar(c * cp + np.multiply.outer((1.0, -1.0), s * sp * ct))
    out = 0.5 * s * sp * st * (k[0] - k[1])
    return float(out) if out.ndim == 0 else out


def ip_rate(kbar: ReducedNonlinearity, p: PairOrientation) -> float:
    """Rate of change of cos(alpha) for an oriented pair:

    d/dt cos(alpha) = sin(alpha) sin(phi) sin(theta) (kbar(z_minus) - kbar(z_plus)).
    """
    c = math.cos(p.alpha / 2)
    return 4.0 * c * pair_overlap_rate(kbar, c, math.sin(p.alpha / 2), p.phi, p.theta)


def _flow(kbar, drive):
    if drive is not None:
        cross = np.cross(drive.axis, np.eye(3))  # v @ cross == axis x v, row by row

    def f(t, v):
        k = kbar(v[:, 2])
        dv = np.empty_like(v)
        dv[:, 0] = -k * v[:, 1]
        dv[:, 1] = k * v[:, 0]
        dv[:, 2] = 0.0
        if drive is not None:
            dv += drive.rate(t) * (v @ cross)
        return dv

    return f


def integrate(
    kbar: ReducedNonlinearity,
    drive: Optional[DriveSchedule],
    initial,
    duration: float,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    t_eval: Optional[np.ndarray] = None,
) -> _ode.SimTrace:
    """Integrate one or two Bloch vectors under nonlinearity plus drive.

    The flow is d/dt v = kbar(z) (-y, x, 0) + omega(t) (axis x v), stepped
    by ``_ode.solve`` on the (k, 3) stack, which projects the vectors back
    to the unit sphere after each accepted step and records the worst
    drift in ``stats``.  A pair's cos(alpha) goes in ``overlaps``.
    Step-size underflow returns a trace with ``failed`` set and the partial
    history.
    """
    if duration < 0:
        raise ValueError("duration must be >= 0")
    vs = np.atleast_2d(np.asarray(initial, dtype=float))
    if vs.shape[1] != 3 or vs.shape[0] not in (1, 2):
        raise ValueError("initial must be one or two Bloch 3-vectors")
    vs = np.stack([_as_unit(v) for v in vs])

    tr = _ode.solve(_flow(kbar, drive), 0.0, float(duration), vs,
                    rtol=rtol, atol=atol, t_eval=t_eval)
    if vs.shape[0] == 2:
        tr.overlaps = np.einsum("ij,ij->i", tr.states[:, 0], tr.states[:, 1])
    return tr
