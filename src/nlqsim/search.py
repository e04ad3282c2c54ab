"""Continuous-time unstructured search via qubit discrimination.

Pipeline: evolve the uniform superposition |s> under the oracle Hamiltonian
|m><m| for time t1, convert the expectation <s|U|s> into a single-qubit
state with a postselected Hadamard test, then drive the two hypothesis
qubits apart with the nonlinearity until their overlap reaches a constant
(1/sqrt(2)), and decide by an optimal two-state measurement.

Also provides an N-dimensional nonlinear Schrodinger integrator and an
audit that co-integrates the no-marked-item state with all N marked-item
states to verify the information-theoretic floor

    sum_m |<psi|psi_m>| >= N - t sqrt(N) (1 + 2 g sqrt(N)).
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from . import _ode
from .blochdyn import SimTrace
from .discrimination import (OrientationPolicy, epsilon_to_alpha0,
                             gp_overlap_closed_form, time_to_overlap)
from .nonlinearity import Nonlinearity, overlap_derivative

SQRT2 = math.sqrt(2.0)
TARGET_OVERLAP = 1.0 / SQRT2  # constant-advantage discrimination target
AUDIT_N_CAP = 256
MIN_EPSILON = 1e-15


class Decision(enum.Enum):
    MARKED = "marked"
    UNMARKED = "unmarked"


@dataclass(frozen=True)
class SearchInstance:
    """Catalog of size N with zero or one marked item (1-indexed)."""

    N: int
    marked: Optional[int] = None

    def __post_init__(self):
        if self.N < 2:
            raise ValueError("N must be >= 2")
        if self.marked is not None and not 1 <= self.marked <= self.N:
            raise ValueError(f"marked item must be in [1, {self.N}]")


@dataclass(frozen=True)
class HadamardTestOutcome:
    success_prob: float
    postselected_qubit: np.ndarray  # amplitudes on |0>, |1>
    overlap_with_zero: float


@dataclass
class SearchReport:
    N: int
    g: float
    t1: float
    t2: float
    total_time: float
    decision: Decision
    success_probability: float
    complexity_budget: float
    epsilon: float
    alpha0: float

    def csv_row(self) -> str:
        return (f"{self.N},{self.g:.17g},{self.t1:.17g},{self.t2:.17g},"
                f"{self.total_time:.17g},{self.complexity_budget:.17g},"
                f"{self.decision.value},{self.success_probability:.17g}")

    @staticmethod
    def csv_header() -> str:
        return "N,g,t1,t2,total,budget,decision,success_prob"


def uniform_state(N: int) -> np.ndarray:
    psi = np.full(N, 1.0 / math.sqrt(N), dtype=complex)
    return psi / np.linalg.norm(psi)


def oracle_overlap(N: int, t1: float, marked: bool) -> complex:
    """<s|U|s> for U = exp(-i t1 |m><m|): 1 - (1 - exp(-i t1))/N if marked."""
    if N < 2:
        raise ValueError("N must be >= 2")
    if t1 < 0:
        raise ValueError("t1 must be >= 0")
    if not marked:
        return 1.0 + 0.0j
    return 1.0 - (1.0 - cmath.exp(-1j * t1)) / N


def hadamard_test(N: int, t1: float, marked: bool) -> HadamardTestOutcome:
    """Closed-form Hadamard-test outcome after postselecting on |s>.

    success probability (1 + |u|^2)/2 and qubit
    ((1+u)|0> + (1-u)|1>) / sqrt(2 (1 + |u|^2)) for u = <s|U|s>.
    The no-marked-item branch has u = 1 exactly: certain success and |0>.
    """
    u = oracle_overlap(N, t1, marked)
    if not marked:
        return HadamardTestOutcome(1.0, np.array([1.0 + 0.0j, 0.0 + 0.0j]), 1.0)
    norm_sq = 2.0 * (1.0 + abs(u) ** 2)
    qubit = np.array([1.0 + u, 1.0 - u], dtype=complex) / math.sqrt(norm_sq)
    success = (1.0 + abs(u) ** 2) / 2.0
    overlap0 = abs(1.0 + u) / math.sqrt(norm_sq)
    return HadamardTestOutcome(success, qubit, overlap0)


def hadamard_test_bruteforce(N: int, t1: float, marked: bool,
                             m: int = 1) -> HadamardTestOutcome:
    """Simulate the ancilla-plus-register circuit on all 2N amplitudes.

    H on the ancilla, controlled oracle evolution, H again, then projection
    of the register onto |s>.  Serves as an independent oracle for the
    closed forms.
    """
    s = uniform_state(N)
    # amplitudes[a, x]: ancilla a in {0, 1}, register x
    amp = np.zeros((2, N), dtype=complex)
    amp[0] = s
    h = np.array([[1, 1], [1, -1]], dtype=complex) / SQRT2
    amp = h @ amp
    if marked:
        phases = np.ones(N, dtype=complex)
        phases[m - 1] = cmath.exp(-1j * t1)
        amp[1] = amp[1] * phases
    amp = h @ amp
    # Postselect the register on |s>
    a0 = np.vdot(s, amp[0])
    a1 = np.vdot(s, amp[1])
    success = abs(a0) ** 2 + abs(a1) ** 2
    qubit = np.array([a0, a1]) / math.sqrt(success)
    return HadamardTestOutcome(float(success), qubit, float(abs(qubit[0])))


def _overlap_deficit(N: int, t1: float) -> float:
    """eps = 1 - |<0|q>| of the postselected marked-item qubit, without
    cancellation: with d = 1 - u = (1 - e^{-i t1})/N,
    x = |d|^2 / (4 - 4 Re d + 2 |d|^2) = 1 - |<0|q>|^2, and
    eps = x / (1 + sqrt(1 - x))."""
    d = (1.0 - cmath.exp(-1j * t1)) / N
    x = abs(d) ** 2 / (4.0 - 4.0 * d.real + 2.0 * abs(d) ** 2)
    return x / (1.0 + math.sqrt(1.0 - x))


def helstrom_success(overlap: float) -> float:
    """Optimal success probability for equal-prior discrimination of two
    pure states with overlap magnitude ``overlap``."""
    return 0.5 * (1.0 + math.sqrt(max(0.0, 1.0 - overlap ** 2)))


def default_t1(N: int, g: float) -> float:
    """Oracle time t1 = max(1, (1/g) ln(g N)), clamped to [1, sqrt(N)]."""
    if g <= 0:
        raise ValueError("g must be > 0 to pick t1 automatically")
    raw = math.log(g * N) / g if g * N > 1.0 else 1.0
    return min(max(1.0, raw), math.sqrt(N))


def complexity_budget(N: int, g: float) -> float:
    """min{(1/g) ln(gN), sqrt(N)}, falling back to the quadratic-search
    budget sqrt(N) when the nonlinearity is too weak to help
    (g < ln(N)/sqrt(N) or gN <= 1)."""
    root_n = math.sqrt(N)
    if g <= 0 or g * N <= 1.0 or g < math.log(N) / root_n:
        return root_n
    return min(math.log(g * N) / g, root_n)


def run_search(
    instance: SearchInstance,
    n: Nonlinearity,
    t1: Union[str, float, None] = "auto",
    seed: int = 0,
    rtol: float = 1e-10,
) -> SearchReport:
    """Full search pipeline on one instance.

    The decision is a seeded sample of the optimal two-outcome measurement
    on the separated states; ``success_probability`` is its exact success
    chance (1 + sqrt(1 - c^2))/2 at the target overlap c = 1/sqrt(2).
    """
    if t1 in ("auto", None):
        t1_val = default_t1(instance.N, n.g)
    else:
        t1_val = float(t1)
        if t1_val <= 0:
            raise ValueError("t1 must be > 0")

    epsilon = _overlap_deficit(instance.N, t1_val)
    if epsilon < MIN_EPSILON:
        raise ValueError(
            f"t1 = {t1_val:.3g} leaves the hypothesis states indistinguishable "
            f"at double precision (epsilon = {epsilon:.3e}); raise t1")

    alpha0 = epsilon_to_alpha0(epsilon)
    disc = time_to_overlap(n, alpha0, TARGET_OVERLAP,
                           orientation_policy=OrientationPolicy.FIXED_OPTIMAL_GP,
                           rtol=rtol)
    if not disc.reached:
        raise ValueError(f"nonlinearity does not separate the hypothesis states: "
                         f"{disc.status} ({disc.diagnostic})")
    t2 = disc.t_perp

    success = helstrom_success(TARGET_OVERLAP)
    truth = Decision.MARKED if instance.marked is not None else Decision.UNMARKED
    rng = np.random.default_rng(seed)
    if rng.random() < success:
        decision = truth
    else:
        decision = Decision.UNMARKED if truth is Decision.MARKED else Decision.MARKED

    return SearchReport(
        N=instance.N, g=n.g, t1=t1_val, t2=t2, total_time=t1_val + t2,
        decision=decision, success_probability=success,
        complexity_budget=complexity_budget(instance.N, n.g),
        epsilon=epsilon, alpha0=alpha0,
    )


def _as_hamiltonian(H, dim: int, duration: float):
    """Normalize an H spec (None, matrix, or callable) and reject
    non-Hermitian inputs (callables are checked at sampled times)."""
    if H is None:
        return None

    def check(mat, label):
        mat = np.asarray(mat, dtype=complex)
        if mat.shape != (dim, dim):
            raise ValueError(f"H{label} must be {dim}x{dim}, got {mat.shape}")
        if not np.allclose(mat, mat.conj().T, atol=1e-12):
            raise ValueError(f"H{label} is not Hermitian")
        return mat

    if callable(H):
        for ts in (0.0, 0.5 * duration, duration):
            check(H(ts), f"({ts:.3g})")
        return H
    mat = check(H, "")
    return lambda t: mat


def integrate_nlse(
    kappa: Nonlinearity,
    H,
    oracle: Optional[int],
    psi0: np.ndarray,
    duration: float,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    t_eval: Optional[np.ndarray] = None,
) -> SimTrace:
    """Integrate i dpsi/dt = (|m><m| [if oracle] + H(t)) psi + K psi.

    K is the diagonal amplitude nonlinearity (K psi)_x = kappa(|psi_x|)
    psi_x; since kappa is real the flow is norm-preserving, and the state is
    re-normalized after each accepted step (drift recorded in step stats).
    ``oracle`` is a 1-indexed marked item or None.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.ndim != 1:
        raise ValueError("psi0 must be a vector")
    dim = len(psi0)
    nrm = np.linalg.norm(psi0)
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError("psi0 must be unit norm")
    psi0 = psi0 / nrm
    if duration < 0:
        raise ValueError("duration must be >= 0")
    if oracle is not None and not 1 <= oracle <= dim:
        raise ValueError("oracle index out of range")

    Hfn = _as_hamiltonian(H, dim, duration)
    oracle_idx = None if oracle is None else oracle - 1

    def f(t, psi):
        rhs = kappa.kappa(np.abs(psi)) * psi
        if oracle_idx is not None:
            rhs = rhs.copy()
            rhs[oracle_idx] += psi[oracle_idx]
        if Hfn is not None:
            rhs = rhs + Hfn(t) @ psi
        return -1j * rhs

    if duration == 0.0:
        return SimTrace(np.array([0.0]), psi0[np.newaxis], _ode.StepStats())

    res = _ode.solve(
        f, 0.0, duration, psi0, rtol=rtol, atol=atol, t_eval=t_eval,
        renorm=lambda y: y / np.linalg.norm(y),
        norm_drift=lambda y: abs(float(np.linalg.norm(y)) - 1.0),
    )
    return SimTrace(res.ts, res.ys, res.stats,
                    failed=res.failed, failure_reason=res.failure_reason)


def search_schedule(N: int, g: float, t1: float) -> Callable[[float], np.ndarray]:
    """The driving schedule used by the search pipeline, as an N-dimensional
    instance-independent H(t).

    Zero while the oracle is queried (t <= t1); afterwards the
    orientation-holding x rotation of the discrimination stage, acting on
    the two-dimensional span of the first two catalog states.
    """
    alpha0 = epsilon_to_alpha0(_overlap_deficit(N, t1))
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

    def H(t):
        mat = np.zeros((N, N), dtype=complex)
        if t > t1 and alpha0 > 0:
            c = gp_overlap_closed_form(g if g > 0 else 1.0, alpha0, t - t1)
            omega = 0.5 * max(g, 0.0) * max(min(c, 1.0), -1.0)
            mat[:2, :2] = 0.5 * omega * sx
        return mat

    return H


@dataclass
class AuditReport:
    """Co-integrated overlap-sum trace against the analytic floor.

    ``derivative_check`` is the worst relative mismatch between the
    analytic per-pair overlap derivative and a centered finite difference
    of the recorded trace at interior sample times.
    """

    N: int
    g: float
    times: np.ndarray
    S: np.ndarray
    bound: np.ndarray
    margin: np.ndarray
    bound_ok: bool
    min_margin: float
    derivative_check: float = 0.0

    def to_csv(self) -> str:
        out = ["t,S,bound,margin"]
        for t, s, b, m in zip(self.times, self.S, self.bound, self.margin):
            out.append(f"{t:.17g},{s:.17g},{b:.17g},{m:.17g}")
        return "\n".join(out) + "\n"


def pairwise_overlap_derivative(kappa: Nonlinearity, psi: np.ndarray,
                                psi_m: np.ndarray, m: int) -> complex:
    """Analytic d<psi|psi_m>/dt under shared H(t):

    -i <psi|m><m|psi_m> + i sum_x (kappa(|psi_x|) - kappa(|psi_m,x|))
                                  <psi|x><x|psi_m>.
    The driving Hamiltonian cancels from this expression.
    """
    oracle = -1j * np.conj(psi[m - 1]) * psi_m[m - 1]
    return complex(oracle + overlap_derivative(kappa, psi, psi_m))


def lower_bound_audit(
    kappa: Nonlinearity,
    H,
    N: int,
    duration: float,
    rtol: float = 1e-8,
    atol: float = 1e-10,
    samples: int = 200,
) -> AuditReport:
    """Co-integrate the unmarked state and all N marked states from |s>
    under the same H(t) and check

        S(t) = sum_m |<psi|psi_m>| >= N - t sqrt(N) (1 + 2 g sqrt(N))

    at every recorded time.  |kappa| is sampled on [0, 1] to determine the
    bound's g.  Refuses N above ``AUDIT_N_CAP`` (the stacked integration
    grows as N^2 states).
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    if N > AUDIT_N_CAP:
        raise ValueError(f"audit refuses N = {N} above the cap {AUDIT_N_CAP}")
    xs = np.linspace(0.0, 1.0, 2001)
    g_bound = float(np.max(np.abs(np.asarray(kappa.kappa(xs)))))

    Hfn = _as_hamiltonian(H, N, duration)

    s = uniform_state(N)
    Y0 = np.tile(s, (N + 1, 1))  # row 0: unmarked; row m: marked item m
    mask = np.zeros((N + 1, N))
    mask[1:, :] = np.eye(N)

    def f(t, y):
        Y = y.reshape(N + 1, N)
        rhs = np.asarray(kappa.kappa(np.abs(Y))) * Y
        rhs += mask * Y
        if Hfn is not None:
            rhs = rhs + Y @ Hfn(t).T
        return (-1j * rhs).reshape(-1)

    def renorm(y):
        Y = y.reshape(N + 1, N)
        Y = Y / np.linalg.norm(Y, axis=1, keepdims=True)
        return Y.reshape(-1)

    t_eval = np.linspace(0.0, duration, samples + 1)
    res = _ode.solve(f, 0.0, duration, Y0.reshape(-1).astype(complex),
                     rtol=rtol, atol=atol, t_eval=t_eval, renorm=renorm)
    if res.failed:
        raise RuntimeError(f"audit integration failed: {res.failure_reason}")

    Ys = res.ys.reshape(len(res.ts), N + 1, N)
    S = np.array([
        float(np.sum(np.abs(np.einsum("j,mj->m", np.conj(Y[0]), Y[1:]))))
        for Y in Ys
    ])
    root_n = math.sqrt(N)
    bound = N - res.ts * root_n * (1.0 + 2.0 * g_bound * root_n)
    margin = S - bound
    min_margin = float(np.min(margin))

    # Per-pair derivative identity, finite-differenced on the recorded grid:
    # d<psi|psi_m>/dt = -i <psi|m><m|psi_m> + i sum_x (kappa diff) products.
    deriv_err = 0.0
    interior = range(1, len(res.ts) - 1, max(1, (len(res.ts) - 2) // 8))
    for i in interior:
        dt_c = res.ts[i + 1] - res.ts[i - 1]
        for m in (1, N):
            fd = (np.vdot(Ys[i + 1][0], Ys[i + 1][m])
                  - np.vdot(Ys[i - 1][0], Ys[i - 1][m])) / dt_c
            an = pairwise_overlap_derivative(kappa, Ys[i][0], Ys[i][m], m)
            deriv_err = max(deriv_err, abs(fd - an) / max(abs(an), 1e-6))
    return AuditReport(N=N, g=g_bound, times=res.ts, S=S, bound=bound,
                       margin=margin, bound_ok=min_margin >= -1e-9 * N,
                       min_margin=min_margin, derivative_check=deriv_err)
