"""The one registry of the paper's claims and the module invariants.

``ALL_CHECKS`` is every ``check_*`` function of this module, in definition
order, so a new claim is one ``def``; ``nlqsim validate`` runs it, and the
acceptance suite runs it at full size.  A check is a claim: its name, the
statement it tests, the figure of merit in its detail string and the
tolerance it compares against.  Every check is deterministic given the
seed and honors a ``quick`` flag that shrinks grids and trajectory counts.
Output is stable byte-for-byte across runs with the same configuration.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, List, TextIO

import numpy as np

from . import blochdyn as bd
from . import bounds as bn
from . import discrimination as dc
from . import meanfield as mf
from . import nonlinearity as nl
from . import optimizer as op
from . import search as sr
from ._ode import whole_number


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str


@dataclass
class Context:
    quick: bool = False
    seed: int = 0

    def __post_init__(self):
        self.seed = whole_number("seed", self.seed, 0)

    def n(self, full: int, quick: int) -> int:
        return quick if self.quick else full


def _catalog():
    return [
        ("gp:1", nl.gross_pitaevskii(1.0)),
        ("gp:2.5", nl.gross_pitaevskii(2.5)),
        ("log:1", nl.logarithmic(1.0)),
        ("sqrt:1", nl.square_root_sign(1.0)),
        ("quartic:1", nl.quartic_difference(1.0)),
    ]


def check_kbar_odd(ctx: Context) -> CheckResult:
    rng = np.random.default_rng(ctx.seed)
    zs = rng.uniform(-1.0, 1.0, size=ctx.n(1000, 200))
    worst = 0.0
    for kbar in (nl.reduce(n) for _, n in _catalog()):
        worst = max(worst, float(np.max(np.abs(kbar(zs) + kbar(-zs)))))
        worst = max(worst, abs(float(kbar(0.0))))
    return CheckResult("kbar_odd", worst <= 1e-12,
                       f"max |kbar(z) + kbar(-z)| = {worst:.3e}")


def check_gp_reduce_exact(ctx: Context) -> CheckResult:
    zs = np.linspace(-1.0, 1.0, ctx.n(2001, 201))
    worst = 0.0
    for g in (0.5, 1.0, 3.0):
        kbar = nl.reduce(nl.gross_pitaevskii(g))
        worst = max(worst, float(np.max(np.abs(kbar(zs) - g * zs))))
        worst = max(worst, float(np.max(np.abs(kbar.generic(zs) - g * zs))))
    return CheckResult("gp_reduce_exact", worst <= 1e-12,
                       f"max deviation from g*z = {worst:.3e}")


def check_quartic_kbar_zero(ctx: Context) -> CheckResult:
    zs = np.linspace(-1.0, 1.0, ctx.n(4001, 401))
    kbar = nl.reduce(nl.quartic_difference(1.7))
    worst = float(np.max(np.abs(kbar(zs))))
    return CheckResult("quartic_kbar_zero", worst <= 1e-12,
                       f"max |kbar| = {worst:.3e}")


def check_mu_nu_roundtrip(ctx: Context) -> CheckResult:
    mu = lambda x: np.sin(np.asarray(x, dtype=float))
    nu = lambda x: 2.0 * np.asarray(x, dtype=float) ** 2 + 0.3
    n = nl.build_from_mu_nu(mu, nu)
    kbar = nl.reduce(n)
    zs = np.linspace(1e-6, 1.0, ctx.n(2000, 200))
    closed = nu(np.sqrt((1 - zs) / 2)) - mu(np.sqrt((1 - zs) / 2))
    worst = float(np.max(np.abs(kbar(zs) - closed)))
    return CheckResult("mu_nu_roundtrip", worst <= 1e-12,
                       f"max |kbar - (nu - mu)| = {worst:.3e}")


def check_latitude_conservation(ctx: Context) -> CheckResult:
    rng = np.random.default_rng(ctx.seed + 1)
    kbar = nl.reduce(nl.gross_pitaevskii(1.0))
    worst = 0.0
    for _ in range(ctx.n(10, 3)):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        tr = bd.integrate(kbar, None, v, 10.0)
        worst = max(worst, float(np.max(np.abs(tr.states[:, 0, 2] - v[2]))))
    return CheckResult("latitude_conservation", worst <= 1e-8,
                       f"max |z(t) - z(0)| = {worst:.3e}")


def check_norm_conservation(ctx: Context) -> CheckResult:
    rng = np.random.default_rng(ctx.seed + 2)
    kbar = nl.reduce(nl.logarithmic(0.8))
    drive = bd.x_drive(lambda t: 0.6 * math.cos(t))
    worst = 0.0
    for _ in range(ctx.n(5, 2)):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        tr = bd.integrate(kbar, drive, v, 5.0)
        worst = max(worst, tr.stats.max_norm_drift)
    return CheckResult("norm_conservation", worst <= 1e-8,
                       f"max pre-projection drift = {worst:.3e}")


def check_drive_neutrality(ctx: Context) -> CheckResult:
    rng = np.random.default_rng(ctx.seed + 3)
    kbar = nl.reduce(nl.quartic_difference(1.0))  # kbar == 0
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    drive = bd.axis_drive(axis, lambda t: 1.3 + math.sin(2 * t))
    v = rng.normal(size=(2, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    tr = bd.integrate(kbar, drive, v, 6.0)
    worst = float(np.max(np.abs(tr.overlaps - tr.overlaps[0])))
    return CheckResult("drive_neutrality", worst <= 1e-8,
                       f"max overlap drift under pure drive = {worst:.3e}")


def check_rate_consistency(ctx: Context) -> CheckResult:
    rng = np.random.default_rng(ctx.seed + 4)
    kinds = [nl.gross_pitaevskii, nl.logarithmic]
    worst = 0.0
    dt = 1e-6
    for _ in range(ctx.n(100, 20)):
        n = kinds[rng.integers(len(kinds))](float(rng.uniform(0.2, 2.0)))
        kbar = nl.reduce(n)
        p = bd.PairOrientation(float(rng.uniform(0.1, math.pi - 0.1)),
                               float(rng.uniform(0.05, math.pi - 0.05)),
                               float(rng.uniform(0.0, 2 * math.pi)))
        c0 = math.cos(p.alpha / 2)  # d cos(alpha)/dt is 4 c0 times the overlap rate
        rate = 4.0 * c0 * bd.pair_overlap_rate(kbar, c0, math.sin(p.alpha / 2), p.phi, p.theta)
        v = np.stack(bd.pair_to_bloch(p))
        # Second-order one-sided difference of cos(alpha) over the dt window.
        h = dt / 2
        tr = bd.integrate(kbar, None, v, dt, rtol=1e-12, atol=1e-14,
                          t_eval=np.array([0.0, h, dt]))
        c = tr.overlaps
        fd = (-3.0 * c[0] + 4.0 * c[1] - c[2]) / (2.0 * h)
        scale = max(abs(rate), 1e-9)
        worst = max(worst, abs(fd - rate) / scale)
    return CheckResult("rate_consistency", worst <= 1e-4,
                       f"max relative FD mismatch = {worst:.3e}")


def check_z_rotation_invariance(ctx: Context) -> CheckResult:
    rng = np.random.default_rng(ctx.seed + 5)
    kbar = nl.reduce(nl.logarithmic(1.0))
    worst = 0.0
    for _ in range(ctx.n(200, 50)):
        p = bd.PairOrientation(float(rng.uniform(0.1, math.pi - 0.1)),
                               float(rng.uniform(0.05, math.pi - 0.05)),
                               float(rng.uniform(0.0, 2 * math.pi)))
        v1, v2 = bd.pair_to_bloch(p)
        base = bd.ip_rate_vectors(kbar, v1, v2)
        gamma = float(rng.uniform(0, 2 * math.pi))
        rz = np.array([[math.cos(gamma), -math.sin(gamma), 0.0],
                       [math.sin(gamma), math.cos(gamma), 0.0],
                       [0.0, 0.0, 1.0]])
        worst = max(worst, abs(bd.ip_rate_vectors(kbar, rz @ v1, rz @ v2) - base))
    return CheckResult("z_rotation_invariance", worst <= 1e-12,
                       f"max rate change under z rotation = {worst:.3e}")


def check_closed_form_vs_ode(ctx: Context) -> CheckResult:
    # sampled at g = 1, alpha0 = 0.1 through t_perp, then random runs
    samples = ctx.n(512, 64)
    sampled = dc.separation_trace(nl.gross_pitaevskii(1.0), 0.1, duration=7.5,
                                  t_eval=np.linspace(0.0, 7.5, samples))
    ref = dc.gp_overlap_closed_form(1.0, 0.1, sampled.times)
    worst = float(np.max(np.abs(sampled.overlaps - ref)))
    rng = np.random.default_rng(ctx.seed + 6)
    for _ in range(ctx.n(20, 4)):
        g = float(rng.uniform(0.3, 3.0))
        a0 = float(rng.uniform(0.02, 3.0))
        res = dc.separation_trace(nl.gross_pitaevskii(g), a0,
                                  duration=0.98 * dc.gp_t_perp(g, a0))
        ref = dc.gp_overlap_closed_form(g, a0, res.times)
        worst = max(worst, float(np.max(np.abs(res.overlaps - ref))))
    ok = len(sampled.times) == samples and worst <= 1e-8
    return CheckResult("closed_form_vs_ode", ok,
                       f"max |trace - closed form| = {worst:.3e}")


def check_t_perp_identity(ctx: Context) -> CheckResult:
    worst_id = 0.0
    worst_rel = 0.0
    for a0 in (0.01, 0.1, 1.0, math.pi / 2, 3.0):
        t_log = dc.gp_t_perp(1.0, a0)
        t_atanh = 2.0 * math.atanh(math.cos(a0 / 2))
        worst_id = max(worst_id, abs(t_log - t_atanh))
        res = dc.time_to_overlap(nl.gross_pitaevskii(1.0), a0, 0.0)
        worst_rel = max(worst_rel, abs(res.t_perp - t_log) / t_log)
    ok = worst_id <= 1e-12 and worst_rel <= 1e-5
    return CheckResult("t_perp_identity", ok,
                       f"identity gap = {worst_id:.3e}, quadrature rel err = {worst_rel:.3e}")


def check_control_law(ctx: Context) -> CheckResult:
    rng = np.random.default_rng(ctx.seed + 7)
    g = 1.0
    worst = 0.0
    for _ in range(ctx.n(10, 3)):
        a0 = float(rng.uniform(0.05, 2.9))
        t_perp = dc.gp_t_perp(g, a0)
        omega = lambda t: 0.5 * g * dc.gp_overlap_closed_form(g, a0, t)
        v = np.stack(bd.pair_to_bloch(bd.optimal_pair(a0)))
        tr = bd.integrate(nl.reduce(nl.gross_pitaevskii(g)), bd.x_drive(omega),
                          v, 0.95 * t_perp)
        gap = np.abs(tr.states[:, :, 1] - tr.states[:, :, 2])
        worst = max(worst, float(np.max(gap)))
    return CheckResult("control_law_y_eq_z", worst <= 1e-7,
                       f"max |y - z| along closed loop = {worst:.3e}")


def check_log_dominance(ctx: Context) -> CheckResult:
    cs, rate_log, rate_gp = dc.fig_rate_comparison(ctx.n(1000, 300))
    diff = rate_log - rate_gp  # <= 0, and < 0 except at the last point
    worst = float(np.max(diff))
    strict = float(np.max(diff[:-1]))
    ok = worst <= 0.0 and strict < 0.0
    return CheckResult("log_dominance", ok,
                       f"max(rate_log - rate_gp) = {worst:.3e}")


def check_log_generalip(ctx: Context) -> CheckResult:
    kbar = nl.reduce(nl.logarithmic(1.0))
    alphas = np.linspace(0.05, math.pi - 0.05, ctx.n(400, 100))
    direct = dc.log_overlap_rate(1.0, alphas)
    generic = bd.pair_overlap_rate(kbar, np.cos(alphas / 2), np.sin(alphas / 2),
                                   math.pi / 2, 3 * math.pi / 4)
    worst = float(np.max(np.abs(direct - generic)))
    return CheckResult("log_generalip_crosscheck", worst <= 1e-12,
                       f"max formula mismatch = {worst:.3e}")


def check_gp_lipschitz_bound(ctx: Context) -> CheckResult:
    # re-optimized against the estimated g_lip; fixed policy against the
    # exact g = 1 while alpha <= 0.1
    rep = bn.check_lipschitz_separation_bound(nl.gross_pitaevskii(1.0), 1e-3, 5.0)
    res = dc.separation_trace(nl.gross_pitaevskii(1.0), 1e-3, duration=4.8)
    small = res.alphas <= 0.1
    envelope = np.exp(2.0 * res.times[small]) * 1e-3 * (1.0 + 1e-6)
    fixed = float(np.max(res.alphas[small] / envelope))
    return CheckResult("gp_lipschitz_bound", rep.bound_ok and fixed <= 1.0,
                       f"max alpha / bound ratio = {rep.max_ratio:.6f}, "
                       f"fixed policy {fixed:.6f}")


def check_sqrt_constant_time(ctx: Context) -> CheckResult:
    alphas = (1e-2, 1e-6) if ctx.quick else (1e-2, 1e-4, 1e-6)
    times = [dc.time_to_overlap(nl.square_root_sign(1.0), a, 0.0).t_perp
             for a in alphas]
    spread = (max(times) - min(times)) / min(times)
    return CheckResult("sqrt_constant_time", spread < 0.2,
                       f"time spread over alpha0 range = {spread:.4f}")


def check_growth_certificates(ctx: Context) -> CheckResult:
    kbar = nl.reduce(nl.gross_pitaevskii(1.0))
    grid = ctx.n(10_000, 2_000)
    cert = bn.certify_growth(kbar, 0.5, 0.4, grid=grid)
    if isinstance(cert, bn.GrowthRefusal):
        return CheckResult("growth_certificate", False, cert.reason)
    alpha0, alpha_stop = 1e-3, 0.05
    ts, als = bn.growth_trace(kbar, cert, alpha0, alpha_stop)
    c_cert = bn.certified_exp_rate(cert, alpha_stop)
    lower = np.exp(c_cert * ts) * alpha0 * (1.0 - 1e-6)
    ok = bool(np.all(als >= lower))
    refusal = bn.certify_growth(nl.reduce(nl.quartic_difference(1.0)), 0.2, 0.2,
                                grid=grid)
    ok = ok and isinstance(refusal, bn.GrowthRefusal)
    return CheckResult("growth_certificate", ok,
                       f"certified rate {c_cert:.4f} respected, min ratio = "
                       f"{float(np.min(als / lower)):.6f}")


def check_lipschitz_estimates(ctx: Context) -> CheckResult:
    grid = ctx.n(10_000, 2_000)
    gp = bn.estimate_lipschitz(nl.reduce(nl.gross_pitaevskii(2.0)), grid=grid)
    sqrt = bn.estimate_lipschitz(nl.reduce(nl.square_root_sign(1.0)), grid=grid)
    ok = gp.finite and abs(gp.g_lip - 2.0) <= 1e-9 and not sqrt.finite
    return CheckResult("lipschitz_estimates", ok,
                       f"gp g_lip = {gp.g_lip:.12f}, sqrt finite = {sqrt.finite}")


def check_hadamard_postselection(ctx: Context) -> CheckResult:
    worst = 0.0
    sizes = (2, 8, 64) if ctx.quick else (2, 4, 8, 16, 32, 64)
    for N in sizes:
        for t1 in (0.1, 1.0, math.pi):
            a = sr.hadamard_test(N, t1, True)
            b = sr.hadamard_test_bruteforce(N, t1, True)
            worst = max(worst, abs(a.success_prob - b.success_prob),
                        abs(a.overlap_with_zero - b.overlap_with_zero))
    unmarked = (sr.hadamard_test(16, 1.0, False), sr.hadamard_test(32, 1.7, False))
    exact = all(un.success_prob == 1.0 and un.postselected_qubit[0] == 1.0 + 0j
                and un.postselected_qubit[1] == 0j for un in unmarked)
    return CheckResult("hadamard_postselection", worst <= 1e-10 and exact,
                       f"max closed-form vs circuit gap = {worst:.3e}")


def check_search_budget(ctx: Context) -> CheckResult:
    ks = (6, 10) if ctx.quick else (6, 8, 10, 12, 14, 16)
    gs = (1.0,) if ctx.quick else (0.1, 1.0, 10.0)
    worst = 0.0
    min_prob = 1.0
    for k in ks:
        for g in gs:
            rep = sr.run_search(sr.SearchInstance(2 ** k, marked=1),
                                nl.gross_pitaevskii(g), seed=ctx.seed)
            worst = max(worst, rep.total_time / rep.complexity_budget)
            min_prob = min(min_prob, rep.success_probability)
    ok = worst <= 20.0 and min_prob >= 2 / 3
    return CheckResult("search_budget", ok,
                       f"max total/budget = {worst:.3f}, min success = {min_prob:.4f}")


def check_nlse_norm_phase(ctx: Context) -> CheckResult:
    rng = np.random.default_rng(ctx.seed + 8)
    psi = rng.normal(size=6) + 1j * rng.normal(size=6)
    psi /= np.linalg.norm(psi)
    kappa = nl.gross_pitaevskii(1.0)
    H = np.diag(np.arange(6.0)) + 0.2j * (np.eye(6, k=1) - np.eye(6, k=-1))
    tr = sr.integrate_nlse(kappa, H, 2, psi, 2.0)
    drift = tr.stats.max_norm_drift
    tr2 = sr.integrate_nlse(kappa, H, 2, psi * np.exp(1j * 0.7), 2.0)
    gap = float(np.max(np.abs(np.abs(tr.states[-1]) - np.abs(tr2.states[-1]))))
    ok = drift <= 1e-8 and gap <= 1e-9
    return CheckResult("nlse_norm_phase", ok,
                       f"norm drift = {drift:.3e}, global-phase gap = {gap:.3e}")


def check_audit_margin(ctx: Context) -> CheckResult:
    combos = [(8, 1.0)] if ctx.quick else [
        (N, g) for N in (8, 16, 32) for g in (0.5, 1.0)] + [(2 ** 20, 1.0)]
    min_margin = math.inf
    for N, g in combos:
        t1 = sr.default_t1(N, g)
        H = sr.search_schedule(N, g, t1)
        rep = sr.run_search(sr.SearchInstance(N, marked=1), nl.gross_pitaevskii(g),
                            seed=ctx.seed)
        audit = sr.lower_bound_audit(nl.gross_pitaevskii(g), H, N, rep.total_time,
                                     samples=ctx.n(100, 40))
        if not (audit.bound_ok and np.all(audit.margin >= -1e-9 * N)
                and np.all(audit.margin[1:] > 0)):
            return CheckResult("audit_margin", False,
                               f"N={N} g={g}: min margin {audit.min_margin:.3e}")
        # the margin at t = 0 is 0 by construction; the claim is about t > 0
        min_margin = min(min_margin, float(np.min(audit.margin[1:])))
    # at g = 0 the floor is N - t sqrt(N)
    s = sr.uniform_state(16)
    linear = sr.lower_bound_audit(nl.gross_pitaevskii(0.0), np.outer(s, s.conj()), 16,
                                  2.0, samples=40)
    gap = float(np.max(np.abs(linear.bound - (16 - 4.0 * linear.times))))
    return CheckResult("audit_margin", linear.bound_ok and gap <= 1e-12,
                       f"min margin over t > 0 = {min_margin:.3e}, "
                       f"g = 0 floor gap = {gap:.3e}")


def check_optimizer_recovery(ctx: Context) -> CheckResult:
    g = 1.0
    alpha = math.pi / 4
    gp = nl.gross_pitaevskii(g)
    res = op.optimize_orientation(gp, alpha, 2, restarts=ctx.n(16, 6), seed=ctx.seed)
    want = -(g / 2) * math.sin(alpha / 2) ** 2
    rate_err = abs(res.best_rate - want)
    phi_a, theta_a = res.angles
    theta_err = min(abs(theta_a - 3 * math.pi / 4), abs(theta_a - 7 * math.pi / 4))
    ok = rate_err <= 1e-8 and abs(phi_a - math.pi / 2) <= 1e-3 and theta_err <= 1e-3
    quartic = nl.quartic_difference(1.0)
    q = op.optimize_orientation(quartic, 0.5, 2, restarts=ctx.n(16, 4), seed=ctx.seed)
    ok = ok and abs(q.best_rate) <= 1e-12
    detail = f"rate err = {rate_err:.3e}, theta err = {theta_err:.3e}"
    if not ctx.quick:
        # quartic turns negative at d = 3 and plateaus from d = 4; the
        # quadratic rate never beats its qubit optimum
        chain = op.orientation_chain(quartic, 0.5, 6, restarts=24)
        rates = {r.argmax.dim: r.best_rate for r in chain}
        q_gain = max((rates[4] - rates[d]) / abs(rates[4]) for d in (5, 6))
        gp_gain = max((res.best_rate - r.best_rate) / abs(res.best_rate)
                      for r in op.orientation_chain(gp, alpha, 6, restarts=24)[1:])
        ok = ok and rates[3] < 0.0 and q_gain < 1e-6 and gp_gain < 1e-6
        detail += f", quartic d = 5-6 gain = {q_gain:.1e}, gp d = 3-6 gain = {gp_gain:.1e}"
    return CheckResult("optimizer_gp_recovery", ok, detail)


def check_meanfield(ctx: Context) -> CheckResult:
    rng = np.random.default_rng(ctx.seed + 9)
    worst = 0.0
    for n_atoms in (1, 2, 3, 4):
        for _ in range(5):
            v = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            bf = mf.bosonic_overlap_bruteforce(v[0], v[1], n_atoms)
            cf = mf.meanfield_overlap(np.vdot(v[0], v[1]), n_atoms)
            worst = max(worst, abs(bf - cf))
    p = mf.CondensateParams(1000, U=0.001)
    gap = abs(mf.gp_validity_time(p) - dc.gp_t_perp(p.g, dc.epsilon_to_alpha0(1 / 1000)))
    consts = [mf.validity_scaling_constant(mf.CondensateParams(n, U=0.001))
              for n in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6)]
    spread = (max(consts) - min(consts)) / min(consts)
    ok = worst <= 1e-10 and gap <= 1e-12 and spread < 0.10
    return CheckResult("meanfield_identity", ok,
                       f"bosonic oracle gap = {worst:.3e}, t_star gap = {gap:.3e}, "
                       f"t_star N / ln N spread = {spread:.3f}")


def check_epsilon_scaling(ctx: Context) -> CheckResult:
    g = 1.0
    eps = np.array([1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    times = []
    for e in eps:
        a0 = dc.epsilon_to_alpha0(e)
        times.append(dc.time_to_overlap(nl.gross_pitaevskii(g), a0, 0.0).t_perp)
    slope = float(np.polyfit(np.log(1.0 / eps), times, 1)[0])
    slope_half = float(np.polyfit(np.log(1.0 / np.sqrt(eps)), times, 1)[0])
    ok = abs(slope - 1.0 / g) <= 0.02 / g and abs(slope_half - 2.0 / g) <= 0.04 / g
    return CheckResult("epsilon_scaling", ok,
                       f"slope vs ln(1/eps) = {slope:.5f} (want {1/g:.3f})")


def check_z_gap_geometry(ctx: Context) -> CheckResult:
    rng = np.random.default_rng(ctx.seed + 10)
    worst_id = 0.0
    worst_geo = 0.0
    for _ in range(ctx.n(300, 60)):
        alpha = float(rng.uniform(0.01, math.pi - 0.01))
        z0 = float(rng.uniform(0.0, 0.99))
        theta = (math.pi / 4, 3 * math.pi / 4)[rng.integers(2)]
        p = bd.PairOrientation(alpha, math.acos(z0), theta)
        zp, zm = (v[2] for v in bd.pair_to_bloch(p))
        want = math.sqrt(2 * (1 - z0 ** 2)) * math.sin(alpha / 2)
        worst_id = max(worst_id, abs(abs(zp - zm) - want))
        q = bd.PairOrientation(alpha, float(rng.uniform(0, math.pi)),
                               float(rng.uniform(0, 2 * math.pi)))
        zp, zm = (v[2] for v in bd.pair_to_bloch(q))
        worst_geo = max(worst_geo, abs(zp - zm) - q.alpha)
    ok = worst_id <= 1e-12 and worst_geo <= 1e-12
    return CheckResult("z_gap_geometry", ok,
                       f"identity gap = {worst_id:.3e}, |z+-z-| - alpha max = "
                       f"{worst_geo:.3e}")


def check_general_upper_bound(ctx: Context) -> CheckResult:
    delta, a0 = 0.5, 0.2
    target = math.sqrt(1.0 - 2.0 * delta ** 2)
    gp_time = dc.gp_time_to_overlap(1.0, a0, target)
    fns = [lambda z: np.asarray(z) + 2.0 * np.asarray(z) ** 3,
           lambda z: np.sinh(np.asarray(z, dtype=float))]
    if not ctx.quick:
        fns.append(lambda z: np.asarray(z) / (1.0 - np.asarray(z) ** 2 / 2.0))
    worst = -math.inf
    for fn in fns:
        res = dc.time_to_overlap(nl.from_odd_function(fn), a0, target)
        if not res.reached:
            return CheckResult("general_upper_bound", False, res.status)
        worst = max(worst, res.t_perp - gp_time)
    return CheckResult("general_upper_bound", worst <= 1e-6,
                       f"max excess over quadratic time = {worst:.3e}")


def check_optimizer_invariants(ctx: Context) -> CheckResult:
    rng = np.random.default_rng(ctx.seed + 11)
    alpha = 0.8
    states = op._build_states(rng.normal(size=(ctx.n(64, 16), 4, 4)), op.canonical_pair(alpha))
    overlaps = np.abs(np.sum(np.conj(states[:, :, 0]) * states[:, :, 1], axis=1))
    constraint = float(np.max(np.abs(overlaps - math.cos(alpha / 2))))

    n = nl.quartic_difference(1.0)
    v = rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    e = op.PairEmbedding(5, v[0], v[1])
    perm = rng.permutation(5)
    perm_gap = abs(op.rate_functional(n, op.PairEmbedding(5, v[0][perm], v[1][perm]))
                   - op.rate_functional(n, e))

    h = 1e-6
    gpn = nl.gross_pitaevskii(1.0)
    psi_h = sr.integrate_nlse(gpn, None, None, v[0] / np.linalg.norm(v[0]), h,
                              rtol=1e-12, atol=1e-14).states[-1]
    phi_h = sr.integrate_nlse(gpn, None, None, v[1] / np.linalg.norm(v[1]), h,
                              rtol=1e-12, atol=1e-14).states[-1]
    e5 = op.PairEmbedding(5, v[0], v[1])
    fd_gap = abs((abs(np.vdot(psi_h, phi_h)) - e5.overlap()) / h
                 - op.rate_functional(gpn, e5))

    r2 = op.optimize_orientation(n, 0.5, 2, restarts=ctx.n(8, 4), seed=ctx.seed)
    r3 = op.optimize_orientation(n, 0.5, 3, restarts=ctx.n(8, 4),
                                 seed=ctx.seed + 3, warm_start=r2)
    mono = r3.best_rate <= r2.best_rate + 1e-10
    ok = constraint <= 1e-10 and perm_gap <= 1e-10 and fd_gap <= 1e-4 and mono
    return CheckResult("optimizer_invariants", ok,
                       f"constraint = {constraint:.2e}, permutation gap = "
                       f"{perm_gap:.2e}, FD gap = {fd_gap:.2e}")


def check_search_decision_chain(ctx: Context) -> CheckResult:
    delta = 1.0 - sr.TARGET_OVERLAP
    worst = math.inf
    for N, g in ((64, 0.5), (1024, 1.0)):
        rep = sr.run_search(sr.SearchInstance(N, marked=1),
                            nl.gross_pitaevskii(g), seed=ctx.seed)
        root_n = math.sqrt(N)
        floor = delta * root_n / (1.0 + 2.0 * g * root_n)
        if rep.success_probability < 0.5 + delta / 4.0:
            return CheckResult("search_decision_chain", False,
                               f"success {rep.success_probability:.4f} below "
                               f"1/2 + delta/4")
        worst = min(worst, rep.total_time / floor)
    return CheckResult("search_decision_chain", worst >= 1.0,
                       f"min total_time / decision floor = {worst:.2f}")


ALL_CHECKS: List[Callable[[Context], CheckResult]] = [
    obj for name, obj in list(globals().items())
    if name.startswith("check_") and callable(obj) and obj.__module__ == __name__]


def run_all(ctx: Context, log: TextIO) -> List[CheckResult]:
    """Run every registered check in order, writing each check's wall time
    to ``log``, one line per check."""
    results = []
    for check in ALL_CHECKS:
        start = time.perf_counter()
        results.append(check(ctx))
        log.write(f"{results[-1].name}  {time.perf_counter() - start:.3f} s\n")
    return results
