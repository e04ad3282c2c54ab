"""Named self-checks wiring the module invariants into ``nlqsim validate``.

Every check is deterministic given the seed, returns a pass/fail with a
short numeric detail string, and honors a ``quick`` flag that shrinks grids
and trajectory counts so the whole suite stays under a minute.  Output is
stable byte-for-byte across runs with the same configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from . import blochdyn as bd
from . import bounds as bn
from . import discrimination as dc
from . import meanfield as mf
from . import nonlinearity as nl
from . import optimizer as op
from . import search as sr


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str


@dataclass
class Context:
    quick: bool = False
    seed: int = 0
    inject_bug: Optional[str] = None

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


class _ParityBrokenReduction:
    """Test fixture: a reduction evaluation that drops the sign of z."""

    def __init__(self, inner):
        self._inner = inner

    def __call__(self, z):
        out = np.asarray(self._inner(np.abs(np.asarray(z, dtype=float))))
        return out if out.ndim else float(out)


def check_kbar_odd(ctx: Context) -> CheckResult:
    rng = np.random.default_rng(ctx.seed)
    zs = rng.uniform(-1.0, 1.0, size=ctx.n(1000, 200))
    kbars = [nl.reduce(n) for _, n in _catalog()]
    if ctx.inject_bug == "kbar-parity":
        kbars.append(_ParityBrokenReduction(kbars[0]))
    worst = 0.0
    for kbar in kbars:
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
        worst = max(worst, tr.step_stats.max_norm_drift)
    return CheckResult("norm_conservation", worst <= 1e-8,
                       f"max pre-projection drift = {worst:.3e}")


def check_drive_neutrality(ctx: Context) -> CheckResult:
    rng = np.random.default_rng(ctx.seed + 3)
    kbar = nl.reduce(nl.quartic_difference(1.0))  # kbar == 0
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    drive = bd.DriveSchedule(axis, lambda t: 1.3 + math.sin(2 * t))
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
        rate = bd.ip_rate(kbar, p)
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
    rng = np.random.default_rng(ctx.seed + 6)
    worst = 0.0
    for _ in range(ctx.n(20, 4)):
        g = float(rng.uniform(0.3, 3.0))
        a0 = float(rng.uniform(0.02, 3.0))
        res = dc.separation_trace(nl.gross_pitaevskii(g), a0,
                                  duration=0.98 * dc.gp_t_perp(g, a0))
        ref = dc.gp_overlap_closed_form(g, a0, res.trace.times)
        worst = max(worst, float(np.max(np.abs(res.trace.states - ref))))
    return CheckResult("closed_form_vs_ode", worst <= 1e-8,
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
        a0 = float(rng.uniform(0.05, 2.8))
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
    diff = rate_log - rate_gp  # should be <= 0 away from the endpoints
    worst = float(np.max(diff))
    strict = float(np.max(diff[1:-1]))
    ok = worst <= 0.0 and strict < 0.0
    return CheckResult("log_dominance", ok,
                       f"max(rate_log - rate_gp) = {worst:.3e}")


def check_log_generalip(ctx: Context) -> CheckResult:
    kbar = nl.reduce(nl.logarithmic(1.0))
    alphas = np.linspace(0.05, math.pi - 0.05, ctx.n(400, 100))
    direct = dc.log_overlap_rate(1.0, alphas)
    generic = dc.fixed_orientation_rate(kbar, np.cos(alphas / 2))
    worst = float(np.max(np.abs(direct - generic)))
    return CheckResult("log_generalip_crosscheck", worst <= 1e-12,
                       f"max formula mismatch = {worst:.3e}")


def check_gp_lipschitz_bound(ctx: Context) -> CheckResult:
    rep = bn.check_lipschitz_separation_bound(nl.gross_pitaevskii(1.0), 1e-3, 5.0)
    return CheckResult("gp_lipschitz_bound", rep.bound_ok,
                       f"max alpha / bound ratio = {rep.max_ratio:.6f}")


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
    un = sr.hadamard_test(16, 1.0, False)
    exact = un.success_prob == 1.0 and un.postselected_qubit[0] == 1.0 + 0j
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
    drift = tr.step_stats.max_norm_drift
    tr2 = sr.integrate_nlse(kappa, H, 2, psi * np.exp(1j * 0.7), 2.0)
    gap = float(np.max(np.abs(np.abs(tr.states[-1]) - np.abs(tr2.states[-1]))))
    ok = drift <= 1e-8 and gap <= 1e-9
    return CheckResult("nlse_norm_phase", ok,
                       f"norm drift = {drift:.3e}, global-phase gap = {gap:.3e}")


def check_audit_margin(ctx: Context) -> CheckResult:
    combos = [(8, 1.0)] if ctx.quick else [(8, 0.5), (16, 1.0)]
    min_margin = math.inf
    for N, g in combos:
        t1 = sr.default_t1(N, g)
        H = sr.search_schedule(N, g, t1)
        rep = sr.run_search(sr.SearchInstance(N, marked=1), nl.gross_pitaevskii(g),
                            seed=ctx.seed)
        audit = sr.lower_bound_audit(nl.gross_pitaevskii(g), H, N, rep.total_time,
                                     samples=ctx.n(100, 40))
        if not audit.bound_ok:
            return CheckResult("audit_margin", False,
                               f"N={N} g={g}: min margin {audit.min_margin:.3e}")
        min_margin = min(min_margin, audit.min_margin)
    return CheckResult("audit_margin", True,
                       f"min margin over grid = {min_margin:.3e}")


def check_optimizer_recovery(ctx: Context) -> CheckResult:
    g = 1.0
    alpha = math.pi / 4
    res = op.optimize_orientation(nl.gross_pitaevskii(g), alpha, 2,
                                  restarts=ctx.n(16, 6), seed=ctx.seed)
    want = -(g / 2) * math.sin(alpha / 2) ** 2
    rate_err = abs(res.best_rate - want)
    phi_a, theta_a = res.angles
    theta_err = min(abs(theta_a - 3 * math.pi / 4), abs(theta_a - 7 * math.pi / 4))
    ok = rate_err <= 1e-8 and abs(phi_a - math.pi / 2) <= 1e-3 and theta_err <= 1e-3
    q = op.optimize_orientation(nl.quartic_difference(1.0), 0.5, 2,
                                restarts=ctx.n(8, 4), seed=ctx.seed)
    ok = ok and abs(q.best_rate) <= 1e-12
    return CheckResult("optimizer_gp_recovery", ok,
                       f"rate err = {rate_err:.3e}, theta err = {theta_err:.3e}")


def check_meanfield(ctx: Context) -> CheckResult:
    rng = np.random.default_rng(ctx.seed + 9)
    worst = 0.0
    for n_atoms in (1, 2, 3, 4):
        v = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        bf = mf.bosonic_overlap_bruteforce(v[0], v[1], n_atoms)
        cf = mf.meanfield_overlap(np.vdot(v[0], v[1]), n_atoms)
        worst = max(worst, abs(bf - cf))
    p = mf.CondensateParams(1000, U=0.001)
    a0 = 2 * math.acos(1 - 1 / 1000)
    gap = abs(mf.gp_validity_time(p) - dc.gp_t_perp(p.g, a0))
    ok = worst <= 1e-10 and gap <= 1e-12
    return CheckResult("meanfield_identity", ok,
                       f"bosonic oracle gap = {worst:.3e}, t_star gap = {gap:.3e}")


def check_z_gap_geometry(ctx: Context) -> CheckResult:
    rng = np.random.default_rng(ctx.seed + 10)
    worst_id = 0.0
    worst_geo = 0.0
    for _ in range(ctx.n(300, 60)):
        alpha = float(rng.uniform(0.01, math.pi - 0.01))
        z0 = float(rng.uniform(0.0, 0.99))
        theta = (math.pi / 4, 3 * math.pi / 4)[rng.integers(2)]
        p = bd.PairOrientation(alpha, math.acos(z0), theta)
        zp, zm = p.z_pair()
        want = math.sqrt(2 * (1 - z0 ** 2)) * math.sin(alpha / 2)
        worst_id = max(worst_id, abs(abs(zp - zm) - want))
        q = bd.PairOrientation(alpha, float(rng.uniform(0, math.pi)),
                               float(rng.uniform(0, 2 * math.pi)))
        zp, zm = q.z_pair()
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
    pairs = op._pair_indices(4)
    base = op.canonical_pair(alpha, 4)
    params = rng.uniform(-math.pi, math.pi, size=(ctx.n(64, 16), len(pairs), 2))
    states = op._build_states(params, base, pairs)
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


def check_epsilon_scaling(ctx: Context) -> CheckResult:
    g = 1.0
    eps = np.array([1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    times = []
    for e in eps:
        a0 = dc.epsilon_to_alpha0(e)
        times.append(dc.time_to_overlap(nl.gross_pitaevskii(g), a0, 0.0).t_perp)
    x = np.log(1.0 / eps)
    slope = float(np.polyfit(x, times, 1)[0])
    rel = abs(slope - 1.0 / g) * g
    return CheckResult("epsilon_scaling", rel <= 0.02,
                       f"slope vs ln(1/eps) = {slope:.5f} (want {1/g:.3f})")


ALL_CHECKS: List[Callable[[Context], CheckResult]] = [
    check_kbar_odd,
    check_gp_reduce_exact,
    check_quartic_kbar_zero,
    check_mu_nu_roundtrip,
    check_latitude_conservation,
    check_norm_conservation,
    check_drive_neutrality,
    check_rate_consistency,
    check_z_rotation_invariance,
    check_closed_form_vs_ode,
    check_t_perp_identity,
    check_control_law,
    check_log_dominance,
    check_log_generalip,
    check_gp_lipschitz_bound,
    check_sqrt_constant_time,
    check_growth_certificates,
    check_lipschitz_estimates,
    check_hadamard_postselection,
    check_search_budget,
    check_nlse_norm_phase,
    check_audit_margin,
    check_optimizer_recovery,
    check_meanfield,
    check_epsilon_scaling,
    check_z_gap_geometry,
    check_general_upper_bound,
    check_optimizer_invariants,
    check_search_decision_chain,
]


def run_all(ctx: Context) -> List[CheckResult]:
    return [fn(ctx) for fn in ALL_CHECKS]
