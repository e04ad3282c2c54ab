"""Adaptive embedded Runge-Kutta integration of norm-preserving flows.

``solve`` implements the Dormand-Prince 5(4) pair over a fixed interval
[t0, t1].  The step-size control is integral: the next step is h * 0.9 *
err^(-1/5), clipped to [0.2 h, 5 h], with no memory of earlier errors; the
step after a rejection may shrink but not grow (Hairer's facmax = 1).
Sample times are filled from each accepted step by the pair's 4th-order
continuous extension (Shampine 1986), so they never end a step.  The state
is a real or complex array whose rows along the last axis have unit norm:
one vector (a state vector), or a stack of them (qubit spinors, the
audit's states).  After every accepted step, and at every sample, each row
is divided by its norm; the largest drift from unit norm before a step
end's projection is recorded.  A step costs six calls of ``f``: its last
stage, at the unprojected end, is the next step's first (FSAL).  The seven
stage slopes of a step live in one preallocated buffer, so each stage, the
error estimate and a step's samples are each one small matrix product over
its flattened rows, and an ``f`` that reuses its output array is copied,
not aliased.  Error norms use elementwise magnitudes.  ``SimTrace`` is the
package's one trajectory record.  ``solve_in_frame``, its one caller, steps
the amplitude flow of ``search`` and ``blochdyn`` in a co-rotating frame,
every drive a ``Schedule``.  Scalar autonomous problems (the overlap laws
of ``discrimination`` and ``bounds``) are quadratures and do not come here.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

# Dormand-Prince 5(4) tableau (FSAL: the last stage of an accepted step is
# the first stage of the next).
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
])
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_E = _B5 - _B4
# Dense output (Shampine; scipy's RK45.P): y(t + s h) = y(t) + h K.T @ _P @ (s, .., s^4)
_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])

MIN_STEP_FACTOR = 0.2
MAX_STEP_FACTOR = 5.0
SAFETY = 0.9
ORDER_EXP = 1 / 5


@dataclass
class StepStats:
    """Bookkeeping for one adaptive integration run."""

    accepted: int = 0
    rejected: int = 0
    max_norm_drift: float = 0.0


@dataclass
class SimTrace:
    """Recorded trajectory of an adaptive integration.

    ``times``/``states`` hold the recorded samples (the ``t_eval`` times when
    given, interpolated within the steps, otherwise every accepted step);
    ``states`` has the shape of ``y0`` after its leading time axis.
    ``overlaps`` holds cos(alpha) of a Bloch pair where ``blochdyn.integrate``
    records it.  ``failed`` is set on step-size underflow, or when ``f`` is
    not finite at the start; the partial trajectory up to it is kept.
    """

    times: np.ndarray
    states: np.ndarray
    stats: StepStats
    overlaps: Optional[np.ndarray] = None
    failed: bool = False
    failure_reason: str = ""


def _error_norm(err, y0, y1, rtol, atol):
    scale = atol + rtol * np.maximum(np.abs(y0), np.abs(y1))
    return math.sqrt(np.add.reduce(np.abs(err / scale) ** 2, axis=None) / err.size)  # np.mean


def _initial_step(f, t0, y0, f0, t1, rtol, atol):
    """Hairer-style starting step-size heuristic."""
    scale = atol + rtol * np.abs(y0)
    d0 = np.sqrt(np.mean(np.abs(y0 / scale) ** 2))
    d1 = np.sqrt(np.mean(np.abs(f0 / scale) ** 2))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    y1 = y0 + h0 * f0
    f1 = f(t0 + h0, y1)
    d2 = np.sqrt(np.mean(np.abs((f1 - f0) / scale) ** 2)) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** ORDER_EXP
    return min(100 * h0, h1, abs(t1 - t0))


def _project(y):
    """``y`` with each row along the last axis divided by its norm, and the
    largest | |row| - 1 | before the division (np.linalg.norm's sum)."""
    norm = np.sqrt(np.add.reduce((y.conj() * y).real, axis=-1, keepdims=True))
    return y / norm, float(np.abs(norm - 1.0).max())


def sample_times(t_eval, t0: float, t1: float) -> np.ndarray:
    """``t_eval`` as a float array; ``ValueError`` unless it is finite,
    strictly increasing and inside [t0, t1]."""
    times = np.asarray(t_eval, dtype=float)
    if not (times.ndim == 1 and np.all(np.diff(times) > 0.0)
            and np.all((t0 <= times) & (times <= t1))):
        raise ValueError(f"t_eval must be finite, strictly increasing and "
                         f"inside [{t0!r}, {t1!r}], got {t_eval!r}")
    return times


def solve(
    f: Callable[[float, np.ndarray], np.ndarray],
    t0: float,
    t1: float,
    y0: np.ndarray,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    t_eval: Optional[np.ndarray] = None,
) -> SimTrace:
    """Integrate the norm-preserving flow ``y' = f(t, y)`` from ``t0`` to
    ``t1``, starting from unit-norm rows ``y0``.

    After every accepted step the rows are projected back to unit norm;
    ``stats.max_norm_drift`` is the largest drift before a projection, and
    so bounds the error of the next step's first slope, the last one taken
    at the unprojected end (FSAL).  ``f`` is called at t0, once more by the
    starting-step heuristic and six times per attempted step.  ``t_eval``
    holds strictly increasing sample times in [t0, t1], recorded as given.
    They do not end steps: a sample inside a step is interpolated from its
    stage slopes and projected to unit norm, and one at a step end records
    that step's state.  So the steps and ``stats`` do not depend on
    ``t_eval``, and a sample is as accurate as ``rtol`` asks, no more.
    Without it, every accepted step is recorded.

    ``t0`` and ``t1`` must be finite with t0 <= t1 (t1 = t0 records the
    start and takes no step), ``rtol`` and ``atol`` finite and > 0, and
    ``t_eval`` finite, strictly increasing and inside [t0, t1]; anything
    else raises ``ValueError`` before ``f`` is first called.
    """
    if not (np.isfinite(t0) and np.isfinite(t1) and t0 <= t1):
        raise ValueError(f"t0 and t1 must be finite with t0 <= t1, got t0={t0!r} and t1={t1!r}")
    for name, tol in (("rtol", rtol), ("atol", atol)):
        if not (np.isfinite(tol) and tol > 0.0):
            raise ValueError(f"{name} must be a finite number > 0, got {tol!r}")
    eval_times = None if t_eval is None else sample_times(t_eval, t0, t1)
    eval_idx = 0
    y = np.array(y0, copy=True)
    t = float(t0)
    stats = StepStats()

    ts, ys = ([t], [y.copy()]) if eval_times is None else ([], [])
    if eval_times is not None:
        while eval_idx < len(eval_times) and eval_times[eval_idx] <= t + 1e-300:
            ts.append(eval_times[eval_idx])
            ys.append(y.copy())
            eval_idx += 1

    def record(reason=""):
        """The samples so far: (n,) times, (n,) + y0.shape states; n >= 0."""
        return SimTrace(np.array(ts), np.array(ys).reshape((len(ts),) + y.shape), stats,
                        failed=bool(reason), failure_reason=reason)

    if t1 == t0:
        return record()
    fk = f(t, y)
    if not np.isfinite(fk).all():  # else the starting step is NaN and never shrinks
        return record(f"right-hand side is not finite at t0={t:.6g}")
    h = _initial_step(f, t, y, fk, t1, rtol, atol)
    K = np.empty((7,) + fk.shape, dtype=np.result_type(fk, y))  # stage slopes
    Kf = K.reshape(7, -1)
    K[0] = fk
    AE = np.vstack((_A, _E)).astype(K.dtype)  # cast once, not by every product with Kf

    max_growth = MAX_STEP_FACTOR
    while t < t1:
        h = min(h, t1 - t)
        if h < 1e-14 * max(1.0, abs(t)):
            return record(f"step size underflow at t={t:.6g}")

        hAE = h * AE
        for i in range(1, 7):
            yi = y + (hAE[i, :i] @ Kf[:i]).reshape(y.shape)
            K[i] = f(t + _C[i] * h, yi)
        # _A[6] equals _B5[:6], so the last stage was evaluated at (t+h, y_new).
        y_new = yi
        err = (hAE[7] @ Kf).reshape(y.shape)
        enorm = _error_norm(err, y, y_new, rtol, atol)

        if not enorm <= 1.0:
            stats.rejected += 1
            max_growth = 1.0  # the step after a rejection may shrink but not grow
            shrink = SAFETY * enorm ** -ORDER_EXP  # NaN on a NaN error: shrink the most
            h *= shrink if shrink > MIN_STEP_FACTOR else MIN_STEP_FACTOR
            continue

        stats.accepted += 1
        t_old, y_old = t, y
        t += h
        y, drift = _project(y_new)
        stats.max_norm_drift = max(stats.max_norm_drift, drift)

        if eval_times is None:
            ts.append(t)
            ys.append(y.copy())
        else:
            # The samples in (t_old, t], from the step's continuous extension.
            k = np.searchsorted(eval_times, t + 1e-12 * max(1.0, abs(t)), side="right")
            if k > eval_idx:
                samples = eval_times[eval_idx:k]
                weights = (h * ((samples - t_old) / h)[:, None] ** np.arange(1, 5)) @ _P.T
                dense, _ = _project(y_old + (weights @ Kf).reshape(samples.shape + y.shape))
                dense[samples >= t] = y
                ts.extend(samples)
                ys.extend(dense)
                eval_idx = k

        h *= min(max_growth, max(MIN_STEP_FACTOR, SAFETY * (enorm + 1e-300) ** -ORDER_EXP))
        max_growth = MAX_STEP_FACTOR
        K[0] = K[6]  # FSAL, at y_new: the projection moved it by drift at most

    return record()


@dataclass(frozen=True, eq=False)
class Schedule:
    """H(t) = omega(t) * generator on the catalog coordinates ``support``
    (0-indexed), zero elsewhere, from the switch time ``t_on`` on; H is zero
    before it.  The constant generator is checked once, here:
    len(support) x len(support), finite, Hermitian to 1e-12.  ``omega`` is a
    finite real number or a callable returning a real scalar, and ``t_on``
    is finite and >= 0; a qubit drive is the two-mode case
    (``blochdyn.axis_drive``).  ``solve_in_frame`` writes the drive-off
    stretch [0, t_on] down in closed form, so no step straddles the switch."""

    support: tuple
    generator: np.ndarray
    omega: Union[float, Callable[[float], float]] = 1.0
    t_on: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.t_on < math.inf:
            raise ValueError(f"t_on must be finite and >= 0, got {self.t_on!r}")
        if not (callable(self.omega) or isinstance(self.omega, numbers.Real)
                and math.isfinite(self.omega)):
            raise ValueError(f"omega must be a finite real number or a callable, got {self.omega!r}")
        support = tuple(operator.index(k) for k in self.support)
        if callable(self.generator):
            raise TypeError("generator must be a constant matrix; time goes into omega")
        gen = np.array(self.generator, dtype=complex)
        if gen.shape != (len(support),) * 2:
            raise ValueError(f"generator must be {len(support)}x{len(support)}, got {gen.shape}")
        if not np.all(np.abs(gen - gen.conj().T) <= 1e-12):  # false on nan and inf too
            raise ValueError("generator must be finite and Hermitian to 1e-12")
        gen.flags.writeable = False
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "generator", gen)
        object.__setattr__(self, "t_on", float(self.t_on))

    def rate(self, t: float) -> float:
        if t < self.t_on:
            return 0.0
        return float(self.omega(t)) if callable(self.omega) else float(self.omega)


def as_schedule(H, N: int) -> Optional[Schedule]:
    """None, a ``Schedule`` on [0, N), or an N x N matrix M as ``Schedule(range(N), M)``."""
    if H is None:
        return None
    if not isinstance(H, Schedule):
        H = Schedule(range(N), H)
    if len(set(H.support)) != len(H.support) or not all(0 <= k < N for k in H.support):
        raise ValueError(f"H support must be distinct coordinates in [0, {N}), got {H.support}")
    return H


def _rhs(kappa, diag, H: Optional[Schedule]):
    """f(t, Y) = -i [(kappa(|Y|) + diag) Y + omega(t) Y[..., S] @ G^T], the
    one right-hand side of the flow, on a state vector or a stack of rows,
    where H's generator G acts on the coordinates S = ``H.support``.
    kappa is taken at |Y|.  On the audit's class amplitudes z = sqrt(w) y
    that is right only because every class with w > 1 is outside the
    support: H never couples it, so its |z| is one constant in every row.
    """
    GT = None if H is None else H.generator.T
    k = () if H is None else H.support  # S as a slice when it can be: no fancy indexing
    cols = slice(k[0], k[-1] + 1) if k and k == tuple(range(k[0], k[-1] + 1)) else list(k)

    def f(t, Y):
        rhs = (kappa.kappa(np.abs(Y)) + diag) * Y
        w = 0.0 if GT is None else H.rate(t)
        if w != 0.0:
            rhs[..., cols] += w * (Y[..., cols] @ GT)
        return -1j * rhs

    return f


def solve_in_frame(kappa, diag, H: Optional[Schedule], Y0, duration: float, rtol: float,
                   atol: float, t_eval: Optional[np.ndarray]) -> SimTrace:
    """Solve i Y' = (kappa(|Y|) + diag + H(t)) Y from Y0 on [0, duration] in
    a frame that turns coordinate x of each row at Omega_x = kappa(|Y0_x|) +
    diag_x, as the undriven flow does, and return lab-frame states.  On the
    coordinates H's generator couples (a nonzero off-diagonal entry in their
    row) Omega is their mean in each row, so the frame commutes with H.

    Before H's switch time t_on the flow keeps every |Y_x|, so there the
    state is Y0 e^{-i (kappa(|Y0|) + diag - Omega) t} in the frame: the
    samples up to t_on come from it, and the one ``solve`` call starts
    there, at min(t_on, duration).  H = None never switches on: t_on is
    duration, and the solver takes no step.  Without ``t_eval`` the trace
    records t = 0 and then the solver's steps from t_on.  A rate that is not
    finite gives the solver's failed trace, which keeps only the start.
    """
    rate = kappa.kappa(np.abs(Y0)) + diag
    omega = rate.copy()
    if H is not None:
        off = H.generator - np.diag(np.diag(H.generator))
        coupled = np.array(H.support, dtype=int)[np.any(off != 0, axis=1)]
        if len(coupled):
            omega[..., coupled] = omega[..., coupled].mean(axis=-1, keepdims=True)
    f = _rhs(kappa, diag - omega, H)

    t_on = duration if H is None else min(H.t_on, duration)
    if t_eval is None:
        head, tail = np.zeros(int(t_on > 0.0)), None
    else:  # t_on leads the solver's samples, so it records no time but these
        t_eval = sample_times(t_eval, 0.0, duration)
        head, tail = t_eval[t_eval <= t_on], np.append(t_on, t_eval[t_eval > t_on])
    if not np.isfinite(rate).all():  # before the closed form turns it into NaN samples
        start = np.zeros(1) if t_eval is None else t_eval[t_eval <= 0.0]
        return SimTrace(start, np.repeat(Y0[None], len(start), axis=0), StepStats(),
                        failed=True, failure_reason="right-hand side is not finite at t0=0")

    def off_state(t):  # the drive-off flow in the frame
        return Y0 * np.exp(-1j * np.multiply.outer(t, rate - omega))

    tr = solve(f, t_on, duration, off_state(t_on), rtol=rtol, atol=atol, t_eval=tail)
    skip = 0 if tail is None else 1  # the solver's record of t_on itself
    tr.times = np.concatenate((head, tr.times[skip:]))
    tr.states = np.concatenate((off_state(head), tr.states[skip:]))
    tr.states = tr.states * np.exp(-1j * np.multiply.outer(tr.times, omega))
    return tr
