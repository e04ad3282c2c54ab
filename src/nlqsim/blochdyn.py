"""Bloch-sphere dynamics of qubit pairs under a reduced nonlinearity.

The nonlinear term alone rotates a Bloch vector (x, y, z) around its line
of latitude at rate kbar(z):

    d/dt (x, y, z) = kbar(z) (-y, x, 0).

A linear drive omega(t) about a fixed unit axis a adds the usual rigid
rotation, omega(t) (a x v).  Pairs of states with fixed Bloch-sphere
separation alpha are parameterized by the midpoint polar angle phi and the
rotation theta about the midpoint (midpoint gauged into the xz plane):

    x_pm = cos(a/2) sin(phi) +- sin(a/2) cos(phi) cos(theta)
    y_pm = +- sin(a/2) sin(theta)
    z_pm = cos(a/2) cos(phi) -+ sin(a/2) sin(phi) cos(theta)

``integrate`` steps the amplitudes (a, b), z = |a|^2 - |b|^2, of the flow
i psi' = (kappa(|psi|) + omega(t) a.sigma/2) psi through the package's one
stepping path, ``_ode.solve_in_frame``, so it uses kappa, whose kbar(z) is
kappa(|a|) - kappa(|b|), and never calls kbar.  Its drive is an
``_ode.Schedule`` on the modes (0, 1), such as ``axis_drive`` builds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _ode
from ._ode import Schedule, solve_in_frame
from .nonlinearity import ReducedNonlinearity


@dataclass(frozen=True)
class PairOrientation:
    """Two Bloch vectors at separation ``alpha``, midpoint in the xz plane.

    alpha : separation angle on the Bloch sphere, in [0, pi]
    phi   : polar angle of the midpoint from the +z axis, in [0, pi]
    theta : rotation about the midpoint, any finite angle (period 2*pi)
    """

    alpha: float
    phi: float
    theta: float

    def __post_init__(self):
        if not 0.0 <= self.alpha <= math.pi + 1e-12:
            raise ValueError(f"alpha must be in [0, pi], got {self.alpha}")
        if not 0.0 <= self.phi <= math.pi + 1e-12:
            raise ValueError(f"phi must be in [0, pi], got {self.phi}")
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta}")


def axis_drive(axis, omega):
    """The rotation omega(t) (a x v) about a = axis / |axis| as the two-mode
    ``Schedule`` H = omega(t) a.sigma/2; ``axis`` must be a finite nonzero
    real 3-vector, ``omega`` a finite float or a real callable of t."""
    a = np.asarray(axis, dtype=float)
    n = np.linalg.norm(a) if a.shape == (3,) else math.nan
    if not 1e-12 <= n < math.inf:
        raise ValueError(f"drive axis must be a finite nonzero real 3-vector, got {axis!r}")
    x, y, z = a / n
    return Schedule((0, 1), 0.5 * np.array([[z, x - 1j * y], [x + 1j * y, -z]]), omega)


def x_drive(omega):
    """The rotation omega(t) about x, ``Schedule((0, 1), sigma_x/2, omega)``."""
    return axis_drive((1.0, 0.0, 0.0), omega)


def qubit_bloch_vector(psi) -> np.ndarray:
    """Bloch vectors of 2-component states (a, b) along the last axis:
    (2 Re a* b, 2 Im a* b, |a|^2 - |b|^2)."""
    psi = np.asarray(psi)
    a, b = psi[..., 0], psi[..., 1]
    ab = a.conj() * b
    return np.stack([2.0 * ab.real, 2.0 * ab.imag, abs(a) ** 2 - abs(b) ** 2], axis=-1)


def _spinor(v) -> np.ndarray:
    """Spinors (a, b) of the unit Bloch vector rows ``v``, gauged so that the
    larger of |a|, |b| is the real sqrt((1 + |z|)/2): no division near a pole."""
    x, y, z = v.T
    big = np.sqrt((1.0 + np.abs(z)) / 2.0)
    small = (x + 1j * y) / (2.0 * big)
    return np.where((z >= 0.0)[:, None], np.stack([big, small], axis=1),
                    np.stack([small.conj(), big], axis=1))


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


_PLUS_MINUS = np.array([1.0, -1.0])  # z_minus first, then z_plus


def pair_overlap_rate(kbar: ReducedNonlinearity, c, s, phi, theta):
    """dc/dt of the overlap c = cos(alpha/2) of the pair at orientation
    (phi, theta) under the nonlinear flow, with s = sin(alpha/2):

        dc/dt = (s/2) sin(phi) sin(theta) (kbar(z_minus) - kbar(z_plus)),
        z_pm  = c cos(phi) -+ s sin(phi) cos(theta).

    kbar is called once, on the stack (z_minus, z_plus).  Vectorized over
    all arguments, where c cos(phi) has no more axes than s sin(phi)
    cos(theta); d cos(alpha)/dt is 4c times this.
    """
    sp, cp = np.sin(phi), np.cos(phi)
    st, ct = np.sin(theta), np.cos(theta)
    ssp = s * sp  # 0.5 ssp is (0.5 s) sp to the bit: halving is exact
    k = kbar(c * cp + np.multiply.outer(_PLUS_MINUS, ssp * ct))
    out = 0.5 * ssp * st * (k[0] - k[1])
    return float(out) if out.ndim == 0 else out


def integrate(
    kbar: ReducedNonlinearity,
    drive,
    initial,
    duration: float,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    t_eval: Optional[np.ndarray] = None,
) -> _ode.SimTrace:
    """Integrate one or two Bloch vectors under ``kbar``'s nonlinearity plus
    ``drive`` (None or a ``Schedule`` on the modes (0, 1)).

    The vectors' spinors are stepped under kappa = ``kbar.source`` by
    ``_ode.solve_in_frame`` and mapped back by ``qubit_bloch_vector``, so
    ``rtol``, ``atol`` and ``stats.max_norm_drift`` are about amplitudes.
    Undriven, each vector turns about z by kbar(z) t in closed form, with no
    step, and without ``t_eval`` t = 0 and ``duration`` are recorded.  A
    pair's cos(alpha) goes in ``overlaps``.  ``duration`` must be finite and
    >= 0 and each vector unit length to 1e-9 (NaN is refused).  Step
    underflow returns a trace with ``failed`` set and the partial history.
    """
    if not 0.0 <= duration < math.inf:
        raise ValueError(f"duration, the end time t1, must be finite and >= 0, got {duration!r}")
    vs = np.atleast_2d(np.asarray(initial, dtype=float))
    if vs.shape[1:] != (3,) or len(vs) not in (1, 2):
        raise ValueError("initial must be one or two Bloch 3-vectors, "
                         f"got shape {np.shape(initial)}")
    norm = np.linalg.norm(vs, axis=1, keepdims=True)
    if not np.all(np.abs(norm - 1.0) <= 1e-9):  # false on NaN too
        raise ValueError(f"Bloch vectors must be unit length to 1e-9, got {vs.tolist()}")
    if drive is not None and not (isinstance(drive, Schedule) and drive.support == (0, 1)):
        raise ValueError(f"drive must be None or a Schedule on the modes (0, 1), got {drive!r}")

    tr = solve_in_frame(kbar.source, 0.0, drive, _spinor(vs / norm), float(duration), rtol,
                        atol, t_eval)
    tr.states = qubit_bloch_vector(tr.states)
    if vs.shape[0] == 2:
        tr.overlaps = np.einsum("ij,ij->i", tr.states[:, 0], tr.states[:, 1])
    return tr
