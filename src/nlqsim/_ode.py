"""Adaptive embedded Runge-Kutta integration core.

Implements the Dormand-Prince 5(4) pair with PI step-size control over a
fixed interval [t0, t1], optional per-step renormalization (for
norm-preserving flows) and forced sample times.  The state may be any real
or complex numpy array; error norms use elementwise magnitudes.  Scalar
autonomous problems (the overlap laws of ``discrimination`` and
``bounds``) are quadratures and do not come here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

# Dormand-Prince 5(4) tableau (FSAL: last stage of an accepted step is
# the first stage of the next).
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_E = _B5 - _B4

MIN_STEP_FACTOR = 0.2
MAX_STEP_FACTOR = 5.0
SAFETY = 0.9
ORDER_EXP = 1 / 5


@dataclass
class StepStats:
    """Bookkeeping for one adaptive integration run."""

    accepted: int = 0
    rejected: int = 0
    max_error_estimate: float = 0.0
    max_norm_drift: float = 0.0


@dataclass
class OdeResult:
    """Recorded trajectory of an adaptive integration.

    ``ts``/``ys`` hold the recorded sample points (forced sample times when
    ``t_eval`` was given, otherwise every accepted step).  ``failed`` is set
    on step-size underflow; the partial trajectory up to the failure is kept.
    """

    ts: np.ndarray
    ys: np.ndarray
    stats: StepStats
    failed: bool = False
    failure_reason: str = ""


def _error_norm(err, y0, y1, rtol, atol):
    scale = atol + rtol * np.maximum(np.abs(y0), np.abs(y1))
    return float(np.sqrt(np.mean(np.abs(err / scale) ** 2)))


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


def solve(
    f: Callable[[float, np.ndarray], np.ndarray],
    t0: float,
    t1: float,
    y0: np.ndarray,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    t_eval: Optional[np.ndarray] = None,
    renorm: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    norm_drift: Optional[Callable[[np.ndarray], float]] = None,
    max_step: float = np.inf,
) -> OdeResult:
    """Integrate ``y' = f(t, y)`` from ``t0`` to ``t1``.

    Parameters
    ----------
    renorm
        Applied to the state after every accepted step (norm projection).
        Drift before renormalization is tracked via ``norm_drift``.
    t_eval
        Strictly increasing sample times in [t0, t1]; steps are clipped so
        each is hit exactly and recorded.  Without it, every accepted step
        is recorded.

    ``rtol`` and ``atol`` must be finite and > 0; anything else raises
    ``ValueError`` before ``f`` is first called.
    """
    for name, tol in (("rtol", rtol), ("atol", atol)):
        if not (np.isfinite(tol) and tol > 0.0):
            raise ValueError(f"{name} must be a finite number > 0, got {tol!r}")
    y = np.array(y0, copy=True)
    t = float(t0)
    stats = StepStats()

    eval_times = None
    eval_idx = 0
    if t_eval is not None:
        eval_times = np.asarray(t_eval, dtype=float)

    ts = [t]
    ys = [y.copy()]
    if eval_times is not None:
        ts, ys = [], []
        while eval_idx < len(eval_times) and eval_times[eval_idx] <= t + 1e-300:
            ts.append(eval_times[eval_idx])
            ys.append(y.copy())
            eval_idx += 1

    if t1 <= t0:
        return OdeResult(np.array(ts if ts else [t]), np.array(ys if ys else [y]), stats)

    fk = f(t, y)
    h = min(_initial_step(f, t, y, fk, t1, rtol, atol), max_step)

    while t < t1:
        h = min(h, t1 - t, max_step)
        if eval_times is not None and eval_idx < len(eval_times):
            h = min(h, eval_times[eval_idx] - t)
        if h < 1e-14 * max(1.0, abs(t)):
            return OdeResult(
                np.array(ts), np.array(ys), stats, failed=True,
                failure_reason=f"step size underflow at t={t:.6g}",
            )

        k = [fk]
        for i in range(1, 7):
            yi = y + h * sum(a * ki for a, ki in zip(_A[i], k))
            k.append(f(t + _C[i] * h, yi))
        # _A[6] equals _B5[:6], so the last stage was evaluated at (t+h, y_new).
        y_new = yi
        err = h * sum(e * ki for e, ki in zip(_E, k))
        enorm = _error_norm(err, y, y_new, rtol, atol)

        if not np.isfinite(enorm):
            stats.rejected += 1
            h *= MIN_STEP_FACTOR
            continue
        if enorm > 1.0:
            stats.rejected += 1
            h *= max(MIN_STEP_FACTOR, SAFETY * enorm ** -ORDER_EXP)
            continue

        stats.accepted += 1
        stats.max_error_estimate = max(stats.max_error_estimate, enorm)
        t_new = t + h
        f_new = k[6]

        if norm_drift is not None:
            stats.max_norm_drift = max(stats.max_norm_drift, norm_drift(y_new))
        if renorm is not None:
            y_new = renorm(y_new)
            f_new = f(t_new, y_new)

        t, y, fk = t_new, y_new, f_new

        if eval_times is not None:
            while eval_idx < len(eval_times) and eval_times[eval_idx] <= t + 1e-12 * max(1.0, abs(t)):
                ts.append(eval_times[eval_idx])
                ys.append(y.copy())
                eval_idx += 1
        else:
            ts.append(t)
            ys.append(y.copy())

        h *= min(MAX_STEP_FACTOR, max(MIN_STEP_FACTOR, SAFETY * (enorm + 1e-300) ** -ORDER_EXP))

    return OdeResult(np.array(ts), np.array(ys), stats)
