"""Mean-field (product-state) overlap identities and the approximation's
validity horizon.

An N-boson two-mode product state parameterized by a qubit psi satisfies
<MF(psi)|MF(phi)> = (<psi|phi>)^N, so distinguishing mean-field states is
the same problem as distinguishing N product copies.  The optimal
copy-count for overlap 1 - eps is Theta(1/eps), while the quadratic
nonlinearity of strength g separates such states in time
(2/g) atanh(1 - eps); equating eps = 1/N gives the horizon

    t_star = (2/g) atanh(1 - 1/N),

which scales as (1/g) log N, and as (log N)/N for a homogeneous condensate
where g = U N at fixed interaction strength U.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .discrimination import epsilon_to_alpha0, gp_time_to_overlap, whole_number


@dataclass(frozen=True)
class CondensateParams:
    """Atom count and interaction strength of a homogeneous condensate."""

    n_atoms: int
    U: float

    def __post_init__(self):
        whole_number("n_atoms", self.n_atoms, 2)
        if not 0.0 < self.U < math.inf:
            raise ValueError(f"U must be finite and > 0, got {self.U!r}")

    @property
    def g(self) -> float:
        """Effective nonlinearity U * n_atoms."""
        return self.U * self.n_atoms


def meanfield_overlap(inner: complex, n_atoms: int) -> complex:
    """<MF(psi)|MF(phi)> = inner^n_atoms."""
    whole_number("n_atoms", n_atoms, 1)
    if not abs(inner) <= 1.0 + 1e-12:  # false on NaN too
        raise ValueError(f"|inner| must be <= 1, got {inner!r}")
    return complex(inner) ** n_atoms


def bosonic_overlap_bruteforce(psi: np.ndarray, phi: np.ndarray, n_atoms: int) -> complex:
    """Two-mode occupation-basis oracle for the product-state overlap.

    Expands (psi_0 a0+ + psi_1 a1+)^N |0> / sqrt(N!) over |k, N-k> with
    amplitudes sqrt(C(N, k)) psi_0^k psi_1^(N-k) and takes the inner
    product directly.  Intended for small N.
    """
    n_atoms = whole_number("n_atoms", n_atoms, 1)
    psi = np.asarray(psi, dtype=complex)
    phi = np.asarray(phi, dtype=complex)
    if psi.shape != (2,) or phi.shape != (2,):
        raise ValueError(f"two-mode states required, got shapes {psi.shape} and {phi.shape}")
    ks = np.arange(n_atoms + 1)
    binom = np.array([math.comb(n_atoms, int(k)) for k in ks], dtype=float)
    amp_psi = np.sqrt(binom) * psi[0] ** ks * psi[1] ** (n_atoms - ks)
    amp_phi = np.sqrt(binom) * phi[0] ** ks * phi[1] ** (n_atoms - ks)
    return complex(np.vdot(amp_psi, amp_phi))


def gp_validity_time(p: CondensateParams, target_overlap: float = 0.0) -> float:
    """Horizon beyond which the mean-field description breaks down.

    With eps = 1/n_atoms (the optimal-measurement copy-count relation taken
    with constant 1), this is the discrimination time of the quadratic
    protocol from overlap 1 - eps to ``target_overlap``:

        t_star = (2/g) (atanh(1 - 1/n) - atanh(target_overlap)),

    i.e. (2/g) atanh(1 - 1/n) for the default target 0.  The angle comes
    from ``epsilon_to_alpha0``, which keeps its digits at any n.
    """
    return gp_time_to_overlap(p.g, epsilon_to_alpha0(1.0 / p.n_atoms), target_overlap)


def validity_scaling_constant(p: CondensateParams, target_overlap: float = 0.0) -> float:
    """t_star * n_atoms / ln(n_atoms): the homogeneous-condensate constant."""
    return gp_validity_time(p, target_overlap) * p.n_atoms / math.log(p.n_atoms)
