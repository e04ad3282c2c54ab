"""Adaptive embedded Runge-Kutta integration of norm-preserving flows.

``solve`` implements Dormand and Prince's 8th-order method DOP853 over a
fixed interval [t0, t1], with Hairer's error norm that blends its 5th- and
3rd-order estimates.  The step-size control is Gustafsson's PI control: the
next step is h * 0.8 * err^-(1/8 - 0.2 beta) * err_prev^beta, beta = 0.06,
err_prev the last accepted error (floored at 1e-4), clipped to [0.2 h,
5 h]; a rejected step shrinks by 0.8 * err^-(1/8 - 0.2 beta), and the step
after it may shrink but not grow (Hairer's facmax = 1).  Sample times are
filled from each accepted step by the method's 7th-order continuous
extension, so they never end a step; its three extra stages are computed
only on a step that holds a sample before its end.  The state is a real or
complex array whose rows along the last axis have unit norm: one vector (a
state vector), or a stack of them (qubit spinors, the audit's states).
After every accepted step, and at every sample, each row is divided by its
norm; the largest drift from unit norm before a step end's projection is
recorded.  A step costs twelve calls of ``f``: eleven stages and one at the
unprojected end, which is the next step's first stage (FSAL).  The sixteen
stage slopes of a step live in one preallocated buffer, so each stage, the
error estimates and a step's samples are each one small matrix product over
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

# Dormand-Prince 8(5,3), "DOP853" (Hairer, Norsett & Wanner, Solving ODEs I,
# II.10; the coefficients of Hairer's dop853.f).  Rows 1-11 of _A are the
# stages, row 12 is the 8th-order solution (its stage, at the step end, is the
# next step's first: FSAL), rows 13-15 the continuous extension's extra stages;
# each row lists A[i, :i].
_A_ROWS = (
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0, 0.08876275643042054),
    (0.2413651341592667, 0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0, 0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0, 0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0, 0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
     20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0, 0, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
     15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
     -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0, 0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
     27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
     0.6433927460157636),
    (0.054293734116568765, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
     0.04471061572777259),
    (0.056167502283047954, 0, 0, 0, 0, 0, 0.25350021021662483, -0.2462390374708025,
     -0.12419142326381637, 0.15329179827876568, 0.00820105229563469, 0.007567897660545699,
     -0.008298),
    (0.03183464816350214, 0, 0, 0, 0, 0.028300909672366776, 0.053541988307438566,
     -0.05492374857139099, 0, 0, -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325),
    (-0.42889630158379194, 0, 0, 0, 0, -4.697621415361164, 7.683421196062599, 4.06898981839711,
     0.3567271874552811, 0, 0, 0, -0.0013990241651590145, 2.9475147891527724,
     -9.15095847217987),
)
_A = np.array([list(row) + [0.0] * (16 - len(row)) for row in ((),) + _A_ROWS])
_C = np.array([0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
               0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
               0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
               0.7777777777777778])
_B = _A[12]
# The 5th- and 3rd-order error estimates, on stages 0-11.
_E5 = np.array([0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044, -0.4957589496572502,
                1.6643771824549864, -0.35032884874997366, 0.3341791187130175,
                0.08192320648511571, -0.022355307863886294])
_E3 = np.array([-0.18980075407240762, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003,
                -5.801203960010585, -0.4226823213237919, -0.1521609496625161,
                0.20136540080403034, 0.02265179219836082])
# The 7th-order continuous extension's last four coefficient rows.
_D = np.array([
    [-8.428938276109013, 0, 0, 0, 0, 0.5667149535193777, -3.0689499459498917, 2.38466765651207,
     2.117034582445028, -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356, -4.436036387594894],
    [10.427508642579134, 0, 0, 0, 0, 242.28349177525817, 165.20045171727028, -374.5467547226902,
     -22.113666853125306, 7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448, 35.81684148639408],
    [19.985053242002433, 0, 0, 0, 0, -387.0373087493518, -189.17813819516758, 527.8081592054236,
     -11.57390253995963, 6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716, 11.99229113618279],
    [-25.69393346270375, 0, 0, 0, 0, -154.18974869023643, -231.5293791760455, 357.6391179106141,
     93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544, -149.72683625798564],
])
# y(t + s h) = y(t) + h (_dense_basis(s) @ _DENSE) @ K, Hairer's nested form
# s (F0 + (1-s) (F1 + s (F2 + (1-s) (F3 + ...)))) written out, with
# F0 = dy = y(t + h) - y(t) = h _B K and F3..F6 = h _D K.
_DENSE = np.vstack((_B, -_B, 2 * _B, _D))
_DENSE[1, 0] += 1.0  # F1 = h f(t) - dy
_DENSE[2, [0, 12]] -= 1.0  # F2 = 2 dy - h (f(t) + f(t + h))


def _dense_basis(s):
    """The (len(s), 7) basis s, s(1-s), s^2(1-s), ..., s^4(1-s)^3 of ``_DENSE``'s rows."""
    j = np.arange(7)
    s = np.asarray(s, dtype=float)[:, None]
    return s ** ((j + 2) // 2) * (1.0 - s) ** ((j + 1) // 2)


MIN_STEP_FACTOR = 0.2
MAX_STEP_FACTOR = 5.0
SAFETY = 0.8
ORDER_EXP = 1 / 8  # 1 / (q + 1) for the error estimate's order q = 7
BETA = 0.06  # Gustafsson's PI stabilisation: the weight of the last accepted error


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
    """Hairer's DOP853 error norm from the rows (h e5, h e3) of ``err``:
    |e5|^2 / sqrt((|e5|^2 + 0.01 |e3|^2) n), each |.| the root sum of
    squares scaled elementwise by atol + rtol max(|y0|, |y1|)."""
    scale = (atol + rtol * np.maximum(np.abs(y0), np.abs(y1))).reshape(-1)
    e5, e3 = map(float, np.add.reduce(np.abs(err / scale) ** 2, axis=1))
    return 0.0 if e5 == 0.0 else e5 / math.sqrt((e5 + 0.01 * e3) * scale.size)


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
    starting-step heuristic, twelve times per attempted step, and three more
    times on an accepted step that holds a sample before its end.  ``t_eval``
    holds strictly increasing sample times in [t0, t1], recorded as given.
    They do not end steps: a sample inside a step is interpolated by the
    7th-order continuous extension and projected to unit norm, and one at a
    step end records that step's state.  So the steps and ``stats`` do not
    depend on ``t_eval``, and a sample is as accurate as ``rtol`` asks, no
    more.  Without it, every accepted step is recorded.

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
    K = np.empty((16,) + fk.shape, dtype=np.result_type(fk, y))  # stage slopes
    Kf = K.reshape(16, -1)
    K[0] = fk
    A = _A.astype(K.dtype)  # cast once, not by every product with Kf
    E = np.vstack((_E5, _E3)).astype(K.dtype)

    max_growth = MAX_STEP_FACTOR
    err_prev = 1e-4  # the last accepted error norm, floored as Hairer's facold
    while t < t1:
        h = min(h, t1 - t)
        if h < 1e-14 * max(1.0, abs(t)):
            return record(f"step size underflow at t={t:.6g}")

        hA = h * A
        for i in range(1, 13):
            yi = y + (hA[i, :i] @ Kf[:i]).reshape(y.shape)
            K[i] = f(t + _C[i] * h, yi)
        # Row 12 of _A is _B, so the last stage was evaluated at (t+h, y_new).
        y_new = yi
        # Only stages 0-11: rows 13-15 hold the extension of some earlier step, or nothing.
        enorm = _error_norm((h * E) @ Kf[:12], y, y_new, rtol, atol)
        factor = SAFETY * (enorm + 1e-300) ** -(ORDER_EXP - 0.2 * BETA)

        if not enorm <= 1.0:
            stats.rejected += 1
            max_growth = 1.0  # the step after a rejection may shrink but not grow
            h *= factor if factor > MIN_STEP_FACTOR else MIN_STEP_FACTOR  # NaN error: the most
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
            # The samples in (t_old, t]: inside the step from its continuous
            # extension, whose three extra stages only such a step pays for.
            k = np.searchsorted(eval_times, t + 1e-12 * max(1.0, abs(t)), side="right")
            samples = eval_times[eval_idx:k]
            inner = samples[samples < t]
            if len(inner):
                for i in range(13, 16):
                    K[i] = f(t_old + _C[i] * h, y_old + (hA[i, :i] @ Kf[:i]).reshape(y.shape))
                weights = (h * _dense_basis((inner - t_old) / h)) @ _DENSE
                dense, _ = _project(y_old + (weights @ Kf).reshape(inner.shape + y.shape))
                ys.extend(dense)
            ys.extend([y] * (len(samples) - len(inner)))  # at the step end
            ts.extend(samples)
            eval_idx = k

        h *= min(max_growth, max(MIN_STEP_FACTOR, factor * err_prev ** BETA))
        max_growth = MAX_STEP_FACTOR
        err_prev = max(enorm, 1e-4)
        K[0] = K[12]  # FSAL, at y_new: the projection moved it by drift at most

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
