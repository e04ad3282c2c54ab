"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its measured figure of merit."""

import math
import subprocess
import sys
import time

import numpy as np

from nlqsim import blochdyn as bd
from nlqsim import discrimination as dc
from nlqsim import meanfield as mf
from nlqsim import nonlinearity as nl
from nlqsim import optimizer as op
from nlqsim import search as sr


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_closed_form_vs_ode():
    start = time.perf_counter()
    g, a0 = 1.0, 0.1
    samples = np.linspace(0.0, 7.5, 512)
    res = dc.separation_trace(nl.gross_pitaevskii(g), a0, duration=7.5,
                              t_eval=samples)
    err = np.max(np.abs(np.asarray(res.overlaps)
                        - dc.gp_overlap_closed_form(g, a0, res.times)))
    elapsed = time.perf_counter() - start
    ok = len(res.times) == 512 and err <= 1e-8 and elapsed < 1.0
    report(1, ok, f"max |ODE - closed form| = {err:.2e} "
                  f"over 512 samples in {elapsed:.2f} s")


def test_criterion_02_orthogonality_times():
    worst_rel = 0.0
    worst_id = 0.0
    for a0 in (0.01, 0.1, 1.0, math.pi / 2, 3.0):
        res = dc.time_to_overlap(nl.gross_pitaevskii(1.0), a0, 0.0)
        want = dc.gp_t_perp(1.0, a0)
        worst_rel = max(worst_rel, abs(res.t_perp - want) / want)
        worst_id = max(worst_id, abs(want - 2.0 * math.atanh(math.cos(a0 / 2))))
    ok = worst_rel <= 1e-5 and worst_id <= 1e-12
    report(2, ok, f"zero-crossing rel err = {worst_rel:.2e}, "
                  f"atanh/log-cot identity gap = {worst_id:.2e}")


def test_criterion_03_control_law_closed_loop():
    rng = np.random.default_rng(0)
    g = 1.0
    kbar = nl.reduce(nl.gross_pitaevskii(g))
    worst = 0.0
    for _ in range(10):
        a0 = float(rng.uniform(0.05, 2.9))
        omega = lambda t: 0.5 * g * dc.gp_overlap_closed_form(g, a0, t)
        v = np.stack(bd.pair_to_bloch(bd.optimal_pair(a0)))
        tr = bd.integrate(kbar, bd.x_drive(omega), v, 0.95 * dc.gp_t_perp(g, a0))
        worst = max(worst, float(np.max(np.abs(tr.states[:, :, 1]
                                               - tr.states[:, :, 2]))))
    ok = worst <= 1e-7
    report(3, ok, f"max |y - z| over 10 closed-loop runs = {worst:.2e}")


def test_criterion_04_log_rate_dominance():
    cs, rate_log, rate_gp = dc.fig_rate_comparison(1000)
    diff = rate_log - rate_gp
    ok = bool(np.all(diff <= 0.0) and np.all(diff[:-1] < 0.0))
    report(4, ok, f"log(g=1) rate below quadratic(g=2) at 1000 points, "
                  f"max diff = {np.max(diff):.2e}")


def test_criterion_05_logarithmic_time_scaling():
    g = 1.0
    eps = np.array([1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    times = np.array([
        dc.time_to_overlap(nl.gross_pitaevskii(g),
                           dc.epsilon_to_alpha0(e), 0.0).t_perp
        for e in eps
    ])
    slope_ln = float(np.polyfit(np.log(1.0 / eps), times, 1)[0])
    slope_half = float(np.polyfit(np.log(1.0 / np.sqrt(eps)), times, 1)[0])
    ok = abs(slope_ln - 1.0 / g) <= 0.02 / g and abs(slope_half - 2.0 / g) <= 0.04 / g

    # a reduction >= g' z on [0, delta] reaches overlap sqrt(1 - 2 delta^2)
    # no slower than the strength-g' quadratic protocol
    delta, a0 = 0.5, 0.2
    target = math.sqrt(1.0 - 2.0 * delta ** 2)
    synth = nl.from_odd_function(lambda z: np.asarray(z) + 2.0 * np.asarray(z) ** 3)
    t_synth = dc.time_to_overlap(synth, a0, target).t_perp
    t_gp = dc.gp_time_to_overlap(1.0, a0, target)
    ok = ok and t_synth <= t_gp + 1e-6
    report(5, ok, f"t_perp slope vs ln(1/eps) = {slope_ln:.5f} (1/g), "
                  f"vs ln(1/sqrt(eps)) = {slope_half:.5f} (2/g); "
                  f"synthetic {t_synth:.4f} <= quadratic {t_gp:.4f}")


def test_criterion_06_lipschitz_and_sqrt_constant_time():
    g, a0 = 1.0, 1e-3
    res = dc.separation_trace(nl.gross_pitaevskii(g), a0, duration=4.8)
    alphas = 2.0 * np.arccos(np.clip(np.asarray(res.overlaps), -1.0, 1.0))
    mask = alphas <= 0.1
    envelope = np.exp(2.0 * g * res.times[mask]) * a0 * (1.0 + 1e-6)
    lip_ok = bool(np.all(alphas[mask] <= envelope))

    times = [dc.time_to_overlap(nl.square_root_sign(1.0), a, 0.0).t_perp
             for a in (1e-2, 1e-4, 1e-6)]
    spread = (max(times) - min(times)) / min(times)
    ok = lip_ok and spread < 0.2
    report(6, ok, f"exponential envelope holds below alpha=0.1; sqrt "
                  f"orthogonality times spread = {spread:.3f} over 4 decades")


def test_criterion_07_hadamard_test_identities():
    worst = 0.0
    for N in (2, 4, 8, 16, 32, 64):
        for t1 in (0.1, 1.0, math.pi):
            a = sr.hadamard_test(N, t1, True)
            b = sr.hadamard_test_bruteforce(N, t1, True)
            worst = max(worst,
                        abs(a.success_prob - b.success_prob),
                        abs(a.overlap_with_zero - b.overlap_with_zero))
    un = sr.hadamard_test(32, 1.7, False)
    exact = (un.success_prob == 1.0
             and un.postselected_qubit[0] == 1.0 + 0.0j
             and un.postselected_qubit[1] == 0.0 + 0.0j)
    ok = worst <= 1e-10 and exact
    report(7, ok, f"closed form vs 2N-amplitude circuit max gap = {worst:.2e}; "
                  f"unmarked branch exact = {exact}")


def test_criterion_08_search_complexity_grid():
    start = time.perf_counter()
    worst = 0.0
    min_success = 1.0
    for k in (6, 8, 10, 12, 14, 16):
        for g in (0.1, 1.0, 10.0):
            rep = sr.run_search(sr.SearchInstance(2 ** k, marked=1),
                                nl.gross_pitaevskii(g))
            worst = max(worst, rep.total_time / rep.complexity_budget)
            min_success = min(min_success, rep.success_probability)
    elapsed = time.perf_counter() - start
    ok = worst <= 20.0 and min_success >= 2.0 / 3.0 and elapsed < 60.0
    report(8, ok, f"max total_time/budget = {worst:.2f} (<= 20), min success = "
                  f"{min_success:.4f} (>= 2/3), grid in {elapsed:.1f} s")


def test_criterion_09_lower_bound_audit():
    worst_margin = math.inf
    for N in (8, 16, 32):
        for g in (0.5, 1.0):
            t1 = sr.default_t1(N, g)
            H = sr.search_schedule(N, g, t1)
            rep = sr.run_search(sr.SearchInstance(N, marked=1),
                                nl.gross_pitaevskii(g))
            audit = sr.lower_bound_audit(nl.gross_pitaevskii(g), H, N,
                                         rep.total_time, samples=100)
            assert audit.bound_ok
            assert np.all(audit.margin >= -1e-9 * N)
            assert np.all(audit.margin[1:] > 0)
            worst_margin = min(worst_margin, float(np.min(audit.margin)))
    # linear case: the floor reduces to N - t sqrt(N)
    N = 16
    s = sr.uniform_state(N)
    audit0 = sr.lower_bound_audit(nl.gross_pitaevskii(0.0),
                                  np.outer(s, s.conj()), N, 2.0, samples=40)
    linear_ok = (np.max(np.abs(audit0.bound - (N - audit0.times * 4.0))) <= 1e-12
                 and audit0.bound_ok)
    report(9, bool(linear_ok), f"floor respected on all 6 cells, worst margin = "
                               f"{worst_margin:.2e}; linear case reduces to "
                               f"N - t sqrt(N)")


def test_criterion_10_optimizer_recovery():
    g, alpha = 1.0, math.pi / 4
    res = op.optimize_orientation(nl.gross_pitaevskii(g), alpha, 2,
                                  restarts=16, seed=0)
    want = -(g / 2) * math.sin(alpha / 2) ** 2
    rate_err = abs(res.best_rate - want)
    phi_a, theta_a = res.angles
    angle_err = max(abs(phi_a - math.pi / 2),
                    min(abs(theta_a - 3 * math.pi / 4),
                        abs(theta_a - 7 * math.pi / 4)))
    ok = rate_err <= 1e-8 and angle_err <= 1e-3

    quartic = nl.quartic_difference(1.0)
    q2 = op.optimize_orientation(quartic, 0.5, 2, restarts=16, seed=0)
    ok = ok and abs(q2.best_rate) <= 1e-12
    prev, rates = q2, {2: q2.best_rate}
    for d in (3, 4, 5, 6):
        prev = op.optimize_orientation(quartic, 0.5, d, restarts=24,
                                       seed=d, warm_start=prev)
        rates[d] = prev.best_rate
    ok = ok and rates[3] < 0.0
    gain5 = (rates[4] - rates[5]) / abs(rates[4])
    gain6 = (rates[4] - rates[6]) / abs(rates[4])
    ok = ok and gain5 < 1e-6 and gain6 < 1e-6

    gp2 = op.optimize_orientation(nl.gross_pitaevskii(g), alpha, 2,
                                  restarts=16, seed=0)
    prev = gp2
    worst_gp_gain = 0.0
    for d in (3, 4, 5, 6):
        prev = op.optimize_orientation(nl.gross_pitaevskii(g), alpha, d,
                                       restarts=24, seed=d, warm_start=prev)
        worst_gp_gain = max(worst_gp_gain,
                            (gp2.best_rate - prev.best_rate) / abs(gp2.best_rate))
    ok = ok and worst_gp_gain < 1e-6
    report(10, ok, f"qubit optimum recovered (rate err {rate_err:.1e}, angles "
                   f"{angle_err:.1e}); quartic dims 5-6 gain {max(gain5, gain6):.1e}; "
                   f"higher-dim quadratic gain {worst_gp_gain:.1e}")


def test_criterion_11_meanfield():
    rng = np.random.default_rng(1)
    worst = 0.0
    for n_atoms in (1, 2, 3, 4):
        for _ in range(5):
            v = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            brute = mf.bosonic_overlap_bruteforce(v[0], v[1], n_atoms)
            closed = mf.meanfield_overlap(np.vdot(v[0], v[1]), n_atoms)
            worst = max(worst, abs(brute - closed))
    consts = [mf.validity_scaling_constant(mf.CondensateParams(n, U=0.001))
              for n in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6)]
    spread = (max(consts) - min(consts)) / min(consts)
    ok = worst <= 1e-10 and spread < 0.10
    report(11, ok, f"bosonic expansion gap = {worst:.2e}; "
                   f"t_star N / ln N spread = {spread:.3f} (< 0.10)")


def test_criterion_12_validate_quick_deterministic():
    cmd = [sys.executable, "-m", "nlqsim.cli", "validate", "--quick"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    ok = (first.returncode == 0 and second.returncode == 0
          and first.stdout == second.stdout)
    report(12, ok, f"validate --quick green (exit {first.returncode}) and "
                   f"byte-identical across two runs")
