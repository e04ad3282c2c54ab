"""Independent references for every benchmark task, and the checks against them.

Nothing here imports nlqsim.  Each reference is a closed form, a quadrature
of a closed-form rate, a brute-force search, or a re-integration with
scipy's own integrator, built on this module's closed forms of kappa and
kbar.  Times are checked to ``TIME_RTOL`` relative.  The tolerances are not
widened to let a known defect pass; workloads.py keeps the inputs out of
the regimes where the program misses instead.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import minimize

from workloads import SQRT2, search_deficit, search_t2

TIME_RTOL = 1e-6
RATE_RTOL = 1e-9
STATE_ATOL = 1e-6
CLOSED_LOOP_ATOL = 1e-7
OVERLAP_ATOL = 1e-12
LOG_POLE_CLAMP = 1e-12
LOG_AMPLITUDE_FLOOR = 1e-12


def kbar(kind, g, z):
    """Closed-form reduction kbar(z) of each catalog nonlinearity."""
    z = np.asarray(z, dtype=float)
    if kind == "gp":
        return g * z
    if kind == "log":
        z = np.clip(z, -1.0 + LOG_POLE_CLAMP, 1.0 - LOG_POLE_CLAMP)
        return 2.0 * g * np.arctanh(z)  # = g ln((1+z)/(1-z)), without cancellation
    if kind == "sqrt":
        return g * np.sign(z) * np.sqrt(np.abs(z))
    if kind == "quartic":
        return np.zeros_like(z)
    if kind == "odd":
        return np.sinh(3.0 * z) / 3.0
    raise ValueError(kind)


def kappa(kind, g, x):
    """Closed-form kappa(x) on [0, 1]; "odd" is the mu = 0 construction."""
    x = np.asarray(x, dtype=float)
    if kind == "gp":
        return g * x * x
    if kind == "log":
        return 2.0 * g * np.log(np.maximum(x, LOG_AMPLITUDE_FLOOR))
    if kind == "sqrt":
        return g * np.sqrt(np.maximum(2.0 * x * x - 1.0, 0.0))
    if kind == "quartic":
        return g * (x * x - x ** 4)
    if kind == "odd":
        return np.where(x <= 1.0 / SQRT2, 0.0, np.sinh(3.0 * (2.0 * x * x - 1.0)) / 3.0)
    raise ValueError(kind)


def _quad_log(fn, a, b):
    """Integral of fn(x) dx over [a, b] (0 < a < b), taken in u = ln x on
    pieces of unit length so every piece is smooth and short."""
    edges = np.append(np.arange(math.log(a), math.log(b), 1.0), math.log(b))
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, _ = quad(lambda u: fn(math.exp(u)) * math.exp(u), lo, hi,
                      epsabs=0.0, epsrel=1e-13, limit=200)
        total += val
    return total


def fixed_time(kind, g, alpha0, target):
    """Time for the fixed optimal-gp orientation to take overlap
    cos(alpha0/2) down to ``target``: (2/g)(ln cot(alpha0/4) - atanh(target))
    for gp, otherwise  t = int da / (sqrt2 kbar(sin(a/2)/sqrt2))."""
    if kind == "gp":
        return (2.0 / g) * (math.log(1.0 / math.tan(alpha0 / 4.0)) - math.atanh(target))
    a_end = 2.0 * math.acos(target)
    return _quad_log(lambda a: 1.0 / (SQRT2 * float(kbar(kind, g, math.sin(a / 2.0) / SQRT2))),
                     alpha0, a_end)


def oriented_rate(kind, g, c, phi, theta):
    """dc/dt at overlap c for the pair oriented at (phi, theta)."""
    s = math.sqrt(max(0.0, 1.0 - c * c))
    sp, cp = np.sin(phi), np.cos(phi)
    st, ct = np.sin(theta), np.cos(theta)
    zp = c * cp - s * sp * ct
    zm = c * cp + s * sp * ct
    return 0.5 * s * sp * st * (kbar(kind, g, zm) - kbar(kind, g, zp))


_PHI, _THETA = np.meshgrid(np.linspace(0.0, math.pi, 129),
                           np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False), indexing="ij")


def best_rate(kind, g, c):
    """Most negative dc/dt over all orientations: a 129 x 256 grid, then
    Nelder-Mead from the best cell."""
    rates = oriented_rate(kind, g, c, _PHI, _THETA)
    i = np.unravel_index(np.argmin(rates), rates.shape)
    res = minimize(lambda x: float(oriented_rate(kind, g, c, x[0], x[1])),
                   np.array([_PHI[i], _THETA[i]]), method="Nelder-Mead",
                   options={"xatol": 1e-9, "fatol": 1e-15, "maxiter": 4000})
    return min(float(res.fun), float(rates[i]))


def reopt_time(kind, g, alpha0, target):
    """Time under the continuously re-optimized orientation:
    t = int dc / |R*(c)| from ``target`` to cos(alpha0/2)."""
    if kind == "gp":
        return fixed_time(kind, g, alpha0, target)
    c0 = math.cos(alpha0 / 2.0)
    val, _ = quad(lambda c: -1.0 / best_rate(kind, g, c), target, c0,
                  epsabs=0.0, epsrel=1e-10, limit=200)
    return val


def certify_growth(kind, g, z0, delta, grid=10_000):
    """Smallest sampled quotient |kbar(z0) - kbar(z0 + d)| / |d| over the
    documented grid of 2 x ``grid`` offsets inside the window."""
    hi = min(delta, 1.0 - z0)
    lo = min(delta, z0 + 1.0)
    d = np.concatenate([-np.linspace(lo / grid, lo, grid, endpoint=False),
                        np.linspace(hi / grid, hi, grid, endpoint=False)])
    step = kbar(kind, g, z0 + d) - kbar(kind, g, z0)
    g_local = float(np.min(np.abs(step) / np.abs(d)))
    if g_local < 1e-9:
        return None
    return g_local, 1 if np.mean(np.sign(step * d)) >= 0 else -1


def lipschitz(kind, g, grid=10_000, refine=4):
    """Sup of difference quotients of kbar on [-1, 1] at ``grid`` x ``refine``
    points, and whether refining by ``refine`` grew it by at most 1.5x."""
    def sup(n):
        z = np.linspace(-1.0, 1.0, n)
        return float(np.max(np.abs(np.diff(kbar(kind, g, z))) / np.diff(z)))
    coarse, fine = sup(grid), sup(grid * refine)
    return fine, bool(fine <= 1.5 * coarse + 1e-12 or fine < 1e-9)


def growth_time(kind, g, z0, alpha0, alpha_stop):
    """Time for the pair held at phi = acos(z0), theta = 3 pi/4 to widen from
    alpha0 to alpha_stop: d alpha/dt = -sin(phi) sin(theta) (kbar(z-) - kbar(z+))."""
    sp, cp = math.sqrt(1.0 - z0 * z0), z0
    st, ct = math.sqrt(0.5), -math.sqrt(0.5)

    def inv_rate(a):
        ca, sa = math.cos(a / 2.0), math.sin(a / 2.0)
        zp, zm = ca * cp - sa * sp * ct, ca * cp + sa * sp * ct
        return 1.0 / (-sp * st * float(kbar(kind, g, zm) - kbar(kind, g, zp)))

    return _quad_log(inv_rate, alpha0, alpha_stop)


def nlse_state(kind, g, psi0, oracle, t):
    """With H = None each amplitude keeps its magnitude and turns at
    kappa(|psi_x|) + [x = oracle]."""
    omega = kappa(kind, g, np.abs(psi0)) + (np.arange(len(psi0)) == oracle - 1)
    return psi0 * np.exp(-1j * omega * t)


def audit_overlap_sum(kind, g, N, t1, duration):
    """S(duration) = sum_m |<psi|psi_m>| re-integrated with scipy's DOP853:
    N + 1 copies of |s> (row m > 0 marked at m) under the search schedule,
    which is off until t1 and then an x rotation at (g/2) c(t - t1) on the
    first two coordinates."""
    c0 = 1.0 - search_deficit(N, t1)
    mask = np.zeros((N + 1, N))
    mask[1:] = np.eye(N)

    def rhs(t, y):
        Y = y.reshape(N + 1, N)
        out = kappa(kind, g, np.abs(Y)) * Y + mask * Y
        if t > t1:
            tau = math.tanh(g * (t - t1) / 2.0)
            half = 0.25 * g * (c0 - tau) / (1.0 - c0 * tau)
            out[:, 0] += half * Y[:, 1]
            out[:, 1] += half * Y[:, 0]
        return (-1j * out).reshape(-1)

    y = np.full((N + 1) * N, 1.0 / math.sqrt(N), dtype=complex)
    for a, b in ((0.0, t1), (t1, duration)):
        y = solve_ivp(rhs, (a, b), y, method="DOP853", rtol=1e-11, atol=1e-13).y[:, -1]
    Y = y.reshape(N + 1, N)
    Y = Y / np.linalg.norm(Y, axis=1, keepdims=True)
    return float(np.sum(np.abs(Y[1:] @ np.conj(Y[0]))))


def pair_rate(kind, g, psi, phi):
    """d|<psi|phi>|/dt induced by the nonlinearity, from the state vectors."""
    inner = np.vdot(psi, phi)
    w = kappa(kind, g, np.abs(psi)) - kappa(kind, g, np.abs(phi))
    t = 1j * np.sum(w * np.conj(psi) * phi)
    return float(np.real(np.conj(inner / abs(inner)) * t))


def qubit_optimum(kind, g, alpha):
    """Best qubit rate: -(g/2) sin^2(alpha/2) for gp, else a brute-force search."""
    if kind == "gp":
        return -(g / 2.0) * math.sin(alpha / 2.0) ** 2
    return best_rate(kind, g, math.cos(alpha / 2.0))


def reference(task):
    """The reference a task's result is checked against (None if the check
    needs only the result itself)."""
    p, cls = task.params, task.cls
    if cls == "fixed":
        return fixed_time(p["kind"], p["g"], p["alpha0"], p["target"])
    if cls == "reopt":
        return reopt_time(p["kind"], p["g"], p["alpha0"], p["target"])
    if cls == "certify":
        return certify_growth(p["kind"], p["g"], p["z0"], p["delta"])
    if cls == "lipschitz":
        return lipschitz(p["kind"], p["g"])
    if cls == "growth":
        return growth_time(p["kind"], p["g"], p["z0"], p["alpha0"], p["alpha_stop"])
    if cls == "sepbound":
        return lipschitz(p["kind"], p["g"])[0]
    if cls in ("closed_loop", "run_search"):
        return None
    if cls == "nlse":
        return nlse_state(p["kind"], p["g"], p["psi0"], p["oracle"], p["duration"])
    if cls == "audit":
        if p["N"] > 32:
            return None
        return audit_overlap_sum(p["kind"], p["g"], p["N"], p["t1"], p["duration"])
    if cls in ("opt2", "chain"):
        if p["dim"] > 2 and p["kind"] != "gp":
            return None
        return qubit_optimum(p["kind"], p["g"], p["alpha"])
    raise ValueError(cls)


def _rel(a, b):
    return abs(a - b) / abs(b) if b != 0 else abs(a - b)


def check(task, result, ref, prev=None):
    """(ok, relative time error or None, reason) for one task.

    ``prev`` is the result of the previous link of the same optimizer
    chain, for the monotone-chain check.
    """
    p, cls = task.params, task.cls
    if result["status"] == "refused" and cls in ("certify", "growth"):
        return (ref is None, None, "" if ref is None else "refused a growing reduction")
    if result["status"] != "reached":
        return False, None, result.get("raised") or result.get("reason") or result["status"]
    if cls in ("fixed", "reopt", "growth"):
        err = _rel(result["t"], ref)
        if cls == "growth" and _rel(result["alpha_end"], p["alpha_stop"]) > TIME_RTOL:
            return False, err, "stopped away from alpha_stop"
        return err <= TIME_RTOL, err, f"t rel err {err:.2e}"
    if cls == "certify":
        if ref is None:
            return False, None, "certified a reduction with no growth"
        ok = _rel(result["g_local"], ref[0]) <= RATE_RTOL and result["direction"] == ref[1]
        return ok, None, f"g_local {result['g_local']!r} vs {ref[0]!r}"
    if cls == "lipschitz":
        ok = (abs(result["g_lip"] - ref[0]) <= RATE_RTOL * max(ref[0], 1.0)
              and result["finite"] == ref[1])
        return ok, None, f"g_lip {result['g_lip']!r} vs {ref[0]!r}"
    if cls == "sepbound":
        ok = result["bound_ok"] and result["max_ratio"] <= 1.0 and _rel(result["g_lip"], ref) <= RATE_RTOL
        return ok, None, f"bound_ok {result['bound_ok']}, max ratio {result['max_ratio']:.6g}"
    if cls == "closed_loop":
        ok = result["yz_max"] <= CLOSED_LOOP_ATOL and _rel(result["t_end"], p["duration"]) <= 1e-12
        return ok, None, f"max |y - z| {result['yz_max']:.2e}"
    if cls == "run_search":
        # t2 is checked at the t1 the pipeline reports, so a change of the
        # oracle-time rule alone does not fail the task.
        t2 = search_t2(p["N"], p["g"], result["t1"])
        err = _rel(result["t2"], t2)
        ok = err <= TIME_RTOL and result["total"] == result["t1"] + result["t2"]
        return ok, err, f"t2 rel err {err:.2e} at t1 {result['t1']:.6g}"
    if cls == "nlse":
        err = float(np.max(np.abs(result["psi_end"] - ref)))
        ok = err <= STATE_ATOL and _rel(result["t_end"], p["duration"]) <= 1e-12
        return ok, None, f"max amplitude error {err:.2e}"
    if cls == "audit":
        N = p["N"]
        ok = result["bound_ok"] and abs(result["S0"] - N) <= 1e-9 * N
        ok = ok and _rel(result["t_end"], p["duration"]) <= 1e-12
        reason = f"bound_ok {result['bound_ok']}, S0 {result['S0']!r}"
        if ref is not None:
            ok = ok and _rel(result["S_end"], ref) <= TIME_RTOL
            reason += f", S_end {result['S_end']!r} vs {ref!r}"
        return ok, None, reason
    if cls in ("opt2", "chain"):
        rate = result["rate"]
        tol = RATE_RTOL * abs(rate) + 1e-12
        c = math.cos(p["alpha"] / 2.0)
        overlap = abs(np.vdot(result["psi"], result["phi"]))
        recomputed = pair_rate(p["kind"], p["g"], result["psi"], result["phi"])
        if abs(overlap - c) > OVERLAP_ATOL:
            return False, None, f"overlap {overlap!r} != cos(alpha/2) {c!r}"
        if abs(recomputed - rate) > tol:
            return False, None, f"reported rate {rate!r} != recomputed {recomputed!r}"
        if prev is not None and rate > prev["rate"] + tol:
            return False, None, f"rate rose along the chain: {prev['rate']!r} -> {rate!r}"
        if ref is not None and abs(rate - ref) > tol:
            return False, None, f"rate {rate!r} vs optimum {ref!r}"
        return True, None, f"rate {rate!r}"
    raise ValueError(cls)


def verify(tasks, results, refs):
    """Check every result of one pass; returns a list of (ok, err, reason)."""
    out, last_link = [], {}
    for task, result, ref in zip(tasks, results, refs):
        prev = None
        if task.cls == "chain":
            prev = last_link.get(task.params["chain"]) if task.params["dim"] > 2 else None
            last_link[task.params["chain"]] = result if result["status"] == "reached" else None
        out.append(check(task, result, ref, prev))
    return out
