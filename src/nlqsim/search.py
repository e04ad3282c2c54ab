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

Both step i psi' = (H(t) + |m><m| + K) psi through ``_ode.solve_in_frame``,
one right-hand side in one co-rotating frame that turns each amplitude at
the rate the undriven flow turns it, kappa(|psi_x(0)|) + [x = m]; every H is
a ``Schedule``, a fixed generator on a few coordinates times omega(t),
switched on at its ``t_on``.  Before t_on the flow keeps every |psi_x|, so
that stretch (the search's oracle stage) is written down in closed form and
the steps start at the switch.  H = None is a drive that never switches on:
the whole run is the closed form and takes no step.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import _ode
from ._ode import Schedule, as_schedule, real_number, solve_in_frame, whole_number
from .discrimination import OrientationPolicy, epsilon_to_alpha0, time_to_overlap
from .nonlinearity import Nonlinearity, weighted_overlap_derivative

SQRT2 = math.sqrt(2.0)
TARGET_OVERLAP = 1.0 / SQRT2  # constant-advantage discrimination target
AUDIT_N_CAP = 256


class Decision(enum.Enum):
    MARKED = "marked"
    UNMARKED = "unmarked"


@dataclass(frozen=True)
class SearchInstance:
    """Catalog of size N with zero or one marked item (1-indexed)."""

    N: int
    marked: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "N", whole_number("N", self.N, 2))
        if self.marked is not None:
            object.__setattr__(self, "marked", whole_number("marked", self.marked, 1, self.N))


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


def uniform_state(N: int) -> np.ndarray:
    psi = np.full(N, 1.0 / math.sqrt(N), dtype=complex)
    return psi / np.linalg.norm(psi)


def oracle_overlap(N: int, t1: float, marked: bool) -> complex:
    """<s|U|s> for U = exp(-i t1 |m><m|): 1 - (1 - exp(-i t1))/N if marked."""
    whole_number("N", N, 2)
    real_number("t1", t1, 0.0, ends="[)")
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
    closed forms on their range (finite t1 >= 0); ``m`` is the marked item, in [1, N].
    """
    N = whole_number("N", N, 2)
    m = whole_number("m", m, 1, N)
    real_number("t1", t1, 0.0, ends="[)")
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
    pure states with overlap magnitude ``overlap``, in [0, 1]."""
    real_number("overlap", overlap, 0.0, 1.0, "[]")
    return 0.5 * (1.0 + math.sqrt(1.0 - overlap ** 2))


def default_t1(N: int, g: float) -> float:
    """Oracle time t1 = max(1, (1/g) ln(g N)), clamped to [1, sqrt(N)]."""
    whole_number("N", N, 2)
    real_number("g", g, 0.0, text="finite and > 0 to pick t1 automatically")
    raw = math.log(g * N) / g if g * N > 1.0 else 1.0
    return min(max(1.0, raw), math.sqrt(N))


def complexity_budget(N: int, g: float) -> float:
    """min{(1/g) ln(gN), sqrt(N)}, falling back to the quadratic-search
    budget sqrt(N) when the nonlinearity is too weak to help
    (g < ln(N)/sqrt(N) or gN <= 1)."""
    N = whole_number("N", N, 2)
    real_number("g", g)
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

    The decision is a sample, seeded by the whole number ``seed`` >= 0, of
    the optimal two-outcome measurement on the separated states;
    ``success_probability`` is its exact success chance (1 + sqrt(1 - c^2))/2
    at the target overlap c = 1/sqrt(2).
    """
    seed = whole_number("seed", seed, 0)
    t1_val = (default_t1(instance.N, n.g) if t1 in ("auto", None)
              else real_number("t1", float(t1), 0.0))

    epsilon = _overlap_deficit(instance.N, t1_val)
    if epsilon == 0.0:
        raise ValueError(
            f"t1 = {t1_val:.3g} leaves the hypothesis states indistinguishable "
            f"at double precision (the overlap deficit underflows to 0); raise t1")

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


def integrate_nlse(
    kappa: Nonlinearity,
    H,
    oracle: Optional[int],
    psi0: np.ndarray,
    duration: float,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    t_eval: Optional[np.ndarray] = None,
) -> _ode.SimTrace:
    """Integrate i dpsi/dt = (H(t) + |m><m| [if oracle]) psi + K psi;
    ``H`` is None, an N x N matrix or a ``Schedule``, ``oracle`` a 1-indexed
    marked item or None, ``duration`` (the end time t1) finite and >= 0.
    K is the diagonal amplitude nonlinearity (K psi)_x = kappa(|psi_x|)
    psi_x, so the flow is norm-preserving; ``_ode.solve`` re-normalizes the
    state after each accepted step (drift recorded in ``stats``).  The steps
    are taken in the frame of ``_ode.solve_in_frame``.  Up to a ``Schedule``'s
    ``t_on`` the exact psi0 e^{-i (kappa(|psi0|) + [x = m]) t} is taken as it
    is, so the steps start at t_on.  A run with H = None, or one that ends
    before t_on, takes none and without ``t_eval`` records t = 0 and the end.
    A kappa(|psi0|) that is not finite gives a failed trace.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.ndim != 1:
        raise ValueError(f"psi0 must be a vector, got shape {psi0.shape}")
    dim = len(psi0)
    nrm = np.linalg.norm(psi0)
    if not abs(nrm - 1.0) <= 1e-9:  # false on NaN too
        raise ValueError(f"psi0 must be unit norm to 1e-9, got {psi0!r}")
    psi0 = psi0 / nrm
    if oracle is not None:
        oracle = whole_number("oracle", oracle, 1, dim)

    diag = 0.0 if oracle is None else (np.arange(dim) == oracle - 1) * 1.0
    return solve_in_frame(kappa, diag, as_schedule(H, dim), psi0, duration, rtol, atol, t_eval)


def search_schedule(N: int, g: float, t1: float) -> Schedule:
    """The search pipeline's instance-independent drive: sigma_x/2 on the
    first two catalog states, off while the oracle is queried (t < t1, the
    schedule's ``t_on``), then at the orientation-holding omega(t) = (g/2)
    tanh(u0 - g (t - t1)/2), u0 = ln cot(alpha0/4) taken once from the
    stable deficit.  omega is right-continuous at t1, where it jumps from 0
    to (g/2) tanh(u0).  ``N`` must be >= 2 and ``t1`` finite and > 0, as in
    ``run_search``; ``g`` finite and >= 0, where g = 0 gives the zero drive."""
    whole_number("N", N, 2)
    real_number("t1", t1, 0.0)
    real_number("g", g, 0.0, ends="[)")
    alpha0 = epsilon_to_alpha0(_overlap_deficit(N, t1))
    sx_half = np.array([[0.0, 0.5], [0.5, 0.0]])
    if not (alpha0 > 0 and g > 0):
        return Schedule((0, 1), sx_half, 0.0, t_on=t1)
    u0 = math.log(1.0 / math.tan(alpha0 / 4.0))
    return Schedule((0, 1), sx_half, lambda t: 0.5 * g * np.tanh(u0 - g * (t - t1) / 2.0),
                    t_on=t1)


@dataclass
class AuditReport:
    """Co-integrated overlap-sum trace against the analytic floor.

    ``S`` sums over all N marked states, however few class-weighted rows
    were integrated.  ``derivative_check`` is the worst relative mismatch between
    the analytic per-pair overlap derivative and a centered finite
    difference of the recorded trace at interior sample times.
    ``step_stats`` holds the integrator's step counts and its worst drift
    from unit norm.
    """

    N: int
    g: float
    times: np.ndarray
    S: np.ndarray
    bound: np.ndarray
    margin: np.ndarray
    bound_ok: bool
    min_margin: float
    step_stats: _ode.StepStats
    derivative_check: float = 0.0


def pairwise_overlap_derivative(kappa: Nonlinearity, psi: np.ndarray,
                                psi_m: np.ndarray, m: int) -> complex:
    """Analytic d<psi|psi_m>/dt under shared H(t):

    -i <psi|m><m|psi_m> + i sum_x (kappa(|psi_x|) - kappa(|psi_m,x|))
                                  <psi|x><x|psi_m>.
    The driving Hamiltonian cancels from this expression.
    """
    oracle = -1j * np.conj(psi[m - 1]) * psi_m[m - 1]
    w = kappa.kappa(np.abs(psi)) - kappa.kappa(np.abs(psi_m))
    return complex(oracle + weighted_overlap_derivative(w, psi, psi_m))


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

    at the ``samples`` + 1 recorded times (``samples`` whole and >= 2), with the
    bound's g = max |kappa| sampled on [0, 1].  The samples are
    interpolated within the steps, so they cost no steps.  ``H`` is None, a
    ``Schedule`` (such as ``search_schedule``) or a dense N x N matrix.
    Outside the p support coordinates of H every coordinate is alike, so
    the amplitudes fall into classes: each support coordinate, one marked
    coordinate j outside it, and the other N - p - 1; empty classes are
    dropped.  The marked rows reduce to one per support coordinate plus
    row j, which stands for all N - p rows marked outside the support.  A
    class of size w is integrated in the scaled amplitude z = sqrt(w) y,
    through the right-hand side of ``integrate_nlse``.  A dense H makes
    every coordinate its own class; a support above ``AUDIT_N_CAP`` is
    refused.  None and the search schedule run at any N on at most four
    classes.

    The oracle stage of the search schedule, before its ``t_on`` = t1, is
    the closed form of ``_ode.solve_in_frame``, so the steps start at t1 and
    none straddles the drive's jump there.  With H = None the whole run is
    that closed form and takes no step.
    The rows are integrated in the frame of ``_ode.solve_in_frame``, one per
    row: class c of row r turns at kappa(|z_c(0)|) plus row r's oracle on c,
    or at the row's mean of these over the classes H couples.  So no steps
    go to the turn of the big class (at g for gp), of the 1/sqrt(N) classes
    (at 2 ln(1/sqrt(N)) for log) or of row j's marked class (at 1).  The
    frames differ between rows, so S is formed from lab-frame states.
    ``atol`` is in units of 1/sqrt(N), one coordinate's starting amplitude,
    so at N = 2^40 row j is solved to ``rtol`` on its 1e-6 amplitudes.
    ``duration`` must be finite and > 0.
    """
    N = whole_number("N", N, 2)
    real_number("duration", duration, 0.0)
    samples = whole_number("samples", samples, 2)
    H = as_schedule(H, N)
    p = 0 if H is None else len(H.support)
    if p > AUDIT_N_CAP:
        raise ValueError(f"audit refuses an H on {p} coordinates above the cap {AUDIT_N_CAP}")
    if H is not None:  # on the class coordinates, where the support's p classes lead
        H = Schedule(range(p), H.generator, H.omega, H.t_on)
    g_bound = float(np.max(np.abs(kappa.kappa(np.linspace(0.0, 1.0, 2001)))))

    w = np.array([1.0] * p + [min(N - p, 1), N - p - 1.0])
    w = w[w > 0]
    R = min(len(w), p + 1)  # marked rows: one per support coordinate, then j
    mult = np.array([1.0] * p + [N - p])[:R]
    z0 = np.sqrt(w) / math.sqrt(N)
    Y0 = np.tile(z0 / np.linalg.norm(z0), (R + 1, 1)).astype(complex)
    oracles = np.zeros(Y0.shape)  # the oracle's 1 on row r's marked class r - 1
    oracles[1:, :R] = np.eye(R)
    tr = solve_in_frame(kappa, oracles, H, Y0, duration, rtol, atol / math.sqrt(N),
                        np.linspace(0.0, duration, samples + 1))
    if tr.failed:
        raise RuntimeError(f"audit integration failed: {tr.failure_reason}")
    times, ys = tr.times, tr.states

    S = np.abs(np.einsum("tc,trc->tr", np.conj(ys[:, 0]), ys[:, 1:])) @ mult
    root_n = math.sqrt(N)
    bound = N - times * root_n * (1.0 + 2.0 * g_bound * root_n)
    margin = S - bound
    min_margin = float(np.min(margin))

    # Per-pair derivative identity, finite-differenced on the recorded grid.
    deriv_err = 0.0
    for i in range(1, len(times) - 1, max(1, (len(times) - 2) // 8)):
        dt_c = times[i + 1] - times[i - 1]
        for m in (1, R):
            fd = (np.vdot(ys[i + 1, 0], ys[i + 1, m])
                  - np.vdot(ys[i - 1, 0], ys[i - 1, m])) / dt_c
            an = pairwise_overlap_derivative(kappa, ys[i, 0], ys[i, m], m)
            deriv_err = max(deriv_err, abs(fd - an) / max(abs(an), 1e-6))
    return AuditReport(N=N, g=g_bound, times=times, S=S, bound=bound,
                       margin=margin, bound_ok=min_margin >= -1e-9 * N,
                       min_margin=min_margin, step_stats=tr.stats,
                       derivative_check=deriv_err)
