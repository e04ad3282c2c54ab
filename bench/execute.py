"""Runs benchmark tasks through nlqsim's public API.

Every entry point is looked up on its module at call time, so the tracer
in ``tracing.py`` sees calls after it patches a module attribute.  Each
runner returns a plain dict of the numbers the oracles check; a raised
exception becomes ``{"raised": "<type>: <message>"}``.
"""

from __future__ import annotations

import math

import numpy as np

import nlqsim.blochdyn
import nlqsim.bounds
import nlqsim.discrimination
import nlqsim.nonlinearity
import nlqsim.optimizer
import nlqsim.search

MAX_SWEEPS = 400


def odd_sinh(z):
    return np.sinh(3.0 * np.asarray(z, dtype=float)) / 3.0


def nonlinearity(kind, g):
    nl = nlqsim.nonlinearity
    if kind == "odd":
        return nl.from_odd_function(odd_sinh, label="sinh3")
    return {"gp": nl.gross_pitaevskii, "log": nl.logarithmic, "sqrt": nl.square_root_sign,
            "quartic": nl.quartic_difference}[kind](g)


def _time_to_overlap(p, policy):
    dc = nlqsim.discrimination
    r = dc.time_to_overlap(nonlinearity(p["kind"], p["g"]), p["alpha0"], p["target"],
                           orientation_policy=policy)
    return {"status": r.status, "t": r.t_perp}


def run_fixed(p, ctx):
    return _time_to_overlap(p, nlqsim.discrimination.OrientationPolicy.FIXED_OPTIMAL_GP)


def run_reopt(p, ctx):
    return _time_to_overlap(p, nlqsim.discrimination.OrientationPolicy.REOPTIMIZED)


def run_certify(p, ctx):
    kbar = nlqsim.nonlinearity.reduce(nonlinearity(p["kind"], p["g"]))
    c = nlqsim.bounds.certify_growth(kbar, p["z0"], p["delta"])
    if isinstance(c, nlqsim.bounds.GrowthRefusal):
        return {"status": "refused"}
    return {"status": "reached", "g_local": c.g_local, "direction": c.direction}


def run_lipschitz(p, ctx):
    kbar = nlqsim.nonlinearity.reduce(nonlinearity(p["kind"], p["g"]))
    e = nlqsim.bounds.estimate_lipschitz(kbar)
    return {"status": "reached", "g_lip": e.g_lip, "finite": e.finite}


def run_growth(p, ctx):
    bounds = nlqsim.bounds
    kbar = nlqsim.nonlinearity.reduce(nonlinearity(p["kind"], p["g"]))
    cert = bounds.certify_growth(kbar, p["z0"], p["delta"])
    if isinstance(cert, bounds.GrowthRefusal):
        return {"status": "refused"}
    ts, alphas = bounds.growth_trace(kbar, cert, p["alpha0"], p["alpha_stop"])
    return {"status": "reached", "t": float(ts[-1]), "alpha_end": float(alphas[-1]),
            "phi": cert.phi, "theta": cert.theta}


def run_sepbound(p, ctx):
    rep = nlqsim.bounds.check_lipschitz_separation_bound(
        nonlinearity(p["kind"], p["g"]), p["alpha0"], p["duration"])
    return {"status": "reached", "bound_ok": rep.bound_ok, "max_ratio": rep.max_ratio,
            "g_lip": rep.g_lip}


def gp_overlap(g, alpha0, t):
    """cos(alpha/2) under the optimal quadratic protocol, in tanh form."""
    c0 = math.cos(alpha0 / 2.0)
    tau = math.tanh(g * t / 2.0)
    return (c0 - tau) / (1.0 - c0 * tau)


def optimal_pair_vectors(alpha0):
    """Bloch vectors of the pair at phi = pi/2, theta = 3 pi/4."""
    ca, h = math.cos(alpha0 / 2.0), math.sin(alpha0 / 2.0) * math.sqrt(0.5)
    return np.array([[ca, h, h], [ca, -h, -h]])


def run_closed_loop(p, ctx):
    bd = nlqsim.blochdyn
    g, a0 = p["g"], p["alpha0"]
    kbar = nlqsim.nonlinearity.reduce(nonlinearity("gp", g))
    drive = bd.x_drive(lambda t: 0.5 * g * gp_overlap(g, a0, t))
    tr = bd.integrate(kbar, drive, optimal_pair_vectors(a0), p["duration"])
    if tr.failed:
        return {"status": "failed", "reason": tr.failure_reason}
    return {"status": "reached",
            "yz_max": float(np.max(np.abs(tr.states[:, :, 1] - tr.states[:, :, 2]))),
            "cos_end": float(tr.overlaps[-1]), "t_end": float(tr.times[-1])}


def run_search(p, ctx):
    se = nlqsim.search
    rep = se.run_search(se.SearchInstance(p["N"], p["marked"]),
                        nonlinearity("gp", p["g"]), seed=p["seed"])
    return {"status": "reached", "t1": rep.t1, "t2": rep.t2, "total": rep.total_time}


def run_nlse(p, ctx):
    tr = nlqsim.search.integrate_nlse(nonlinearity(p["kind"], p["g"]), None, p["oracle"],
                                      p["psi0"], p["duration"])
    if tr.failed:
        return {"status": "failed", "reason": tr.failure_reason}
    return {"status": "reached", "psi_end": tr.states[-1].copy(), "t_end": float(tr.times[-1])}


def run_audit(p, ctx):
    se = nlqsim.search
    H = se.search_schedule(p["N"], p["g"], p["t1"])
    rep = se.lower_bound_audit(nonlinearity(p["kind"], p["g"]), H, p["N"], p["duration"])
    return {"status": "reached", "bound_ok": rep.bound_ok, "S0": float(rep.S[0]),
            "S_end": float(rep.S[-1]), "t_end": float(rep.times[-1]),
            "min_margin": rep.min_margin}


def _optimize(p, warm):
    r = nlqsim.optimizer.optimize_orientation(
        nonlinearity(p["kind"], p["g"]), p["alpha"], p["dim"], restarts=p["restarts"],
        seed=p["seed"], warm_start=warm, max_sweeps=MAX_SWEEPS)
    out = {"status": "reached", "rate": r.best_rate, "sweeps": r.converged_sweeps,
           "psi": np.array(r.argmax.psi), "phi": np.array(r.argmax.phi)}
    return r, out


def run_opt2(p, ctx):
    return _optimize(p, None)[1]


def run_chain(p, ctx):
    """One link of a warm-started chain d = 2 -> 3 -> 4; ``ctx`` carries the
    previous link's result within a pass."""
    warm = ctx.pop(p["chain"], None) if p["dim"] > 2 else None
    r, out = _optimize(p, warm)
    ctx[p["chain"]] = r
    return out


RUNNERS = {
    "fixed": run_fixed, "reopt": run_reopt, "certify": run_certify,
    "lipschitz": run_lipschitz, "growth": run_growth, "sepbound": run_sepbound,
    "closed_loop": run_closed_loop, "run_search": run_search, "nlse": run_nlse,
    "audit": run_audit, "opt2": run_opt2, "chain": run_chain,
}


def run_task(task, ctx):
    try:
        return RUNNERS[task.cls](task.params, ctx)
    except Exception as exc:  # a refused or crashed task is a failed task, not a crashed run
        return {"status": "raised", "raised": f"{type(exc).__name__}: {exc}"}
