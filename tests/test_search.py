import cmath
import math

import numpy as np
import pytest

from nlqsim import blochdyn as bd
from nlqsim import nonlinearity as nl
from nlqsim import search as sr
from nlqsim.optimizer import qubit_bloch_vector


def test_oracle_overlap_unmarked_is_one():
    for t1 in (0.0, 0.3, 10.0):
        assert sr.oracle_overlap(64, t1, False) == 1.0


def test_oracle_overlap_marked_values():
    assert sr.oracle_overlap(16, 0.0, True) == 1.0
    # N=2, t1=pi: 1 - (1 - e^{-i pi})/2 = 0
    assert abs(sr.oracle_overlap(2, math.pi, True)) <= 1e-15


def test_oracle_overlap_matches_state_vector_simulation():
    # U = exp(-i t |m><m|) applied to |s>, inner product taken explicitly
    for N, t1 in ((2, math.pi), (8, 1.3), (32, 0.4)):
        s = sr.uniform_state(N)
        evolved = s.copy()
        evolved[0] *= cmath.exp(-1j * t1)
        assert abs(np.vdot(s, evolved) - sr.oracle_overlap(N, t1, True)) <= 1e-14


def test_hadamard_test_unmarked_branch_exact():
    out = sr.hadamard_test(16, 2.0, False)
    assert out.success_prob == 1.0
    assert out.postselected_qubit[0] == 1.0 + 0.0j
    assert out.postselected_qubit[1] == 0.0 + 0.0j
    assert out.overlap_with_zero == 1.0


def test_hadamard_test_two_item_pi_pulse():
    out = sr.hadamard_test(2, math.pi, True)
    assert out.success_prob == pytest.approx(0.5, abs=1e-15)
    assert out.overlap_with_zero == pytest.approx(1 / math.sqrt(2), abs=1e-15)


def test_hadamard_test_matches_bruteforce_circuit():
    for N in range(2, 65):
        for t1 in (0.1, 1.0, math.pi):
            a = sr.hadamard_test(N, t1, True)
            b = sr.hadamard_test_bruteforce(N, t1, True)
            assert abs(a.success_prob - b.success_prob) <= 1e-10
            assert abs(a.overlap_with_zero - b.overlap_with_zero) <= 1e-10
            # postselected amplitudes agree elementwise
            assert np.max(np.abs(a.postselected_qubit - b.postselected_qubit)) <= 1e-10


def test_hadamard_bruteforce_marked_position_irrelevant():
    a = sr.hadamard_test_bruteforce(16, 0.7, True, m=1)
    b = sr.hadamard_test_bruteforce(16, 0.7, True, m=11)
    assert abs(a.success_prob - b.success_prob) <= 1e-14
    assert abs(a.overlap_with_zero - b.overlap_with_zero) <= 1e-14


def test_hadamard_small_t1_expansion_richardson():
    # overlap = 1 - t1^2 / (8 N^2) + O(t1^4 / N^2): Richardson-extrapolate
    # q(t1) = (1 - overlap) 8 N^2 / t1^2 toward t1 -> 0
    N = 16

    def q(t1):
        o = sr.hadamard_test(N, t1, True).overlap_with_zero
        return (1.0 - o) * 8.0 * N * N / t1 ** 2

    t = 1e-2
    extrapolated = (4.0 * q(t / 2) - q(t)) / 3.0
    assert extrapolated == pytest.approx(1.0, abs=1e-6)
    # success probability 1 - O(t1^2/N): the deficit scales like t1^2
    deficit = 1.0 - sr.hadamard_test(N, t, True).success_prob
    deficit_half = 1.0 - sr.hadamard_test(N, t / 2, True).success_prob
    assert deficit / deficit_half == pytest.approx(4.0, rel=1e-3)


def test_run_search_unmarked_decision():
    rep = sr.run_search(sr.SearchInstance(256, marked=None),
                        nl.gross_pitaevskii(1.0), seed=0)
    assert rep.decision is sr.Decision.UNMARKED
    assert rep.success_probability == pytest.approx((1 + math.sqrt(0.5)) / 2)
    assert rep.total_time == rep.t1 + rep.t2


def test_run_search_example_budget():
    rep = sr.run_search(sr.SearchInstance(1024, marked=7), nl.gross_pitaevskii(1.0))
    assert rep.total_time <= 10.0 * math.log(1024)
    assert rep.t1 == pytest.approx(math.log(1024), rel=1e-12)


def test_run_search_budget_ratio_over_grid():
    worst = 0.0
    for k in (6, 8, 10, 12, 14, 16):
        for g in (0.1, 1.0, 10.0):
            rep = sr.run_search(sr.SearchInstance(2 ** k, marked=1),
                                nl.gross_pitaevskii(g))
            assert rep.success_probability >= 2.0 / 3.0
            worst = max(worst, rep.total_time / rep.complexity_budget)
    assert worst <= 20.0


def test_run_search_decision_time_consistent_with_overlap_floor():
    # t >= delta sqrt(N) / (1 + 2 g sqrt(N)) for final-overlap advantage
    # delta, and the success probability clears 1/2 + delta/4
    delta = 1.0 - sr.TARGET_OVERLAP
    for N, g in ((64, 0.5), (4096, 1.0)):
        rep = sr.run_search(sr.SearchInstance(N, marked=2), nl.gross_pitaevskii(g))
        root_n = math.sqrt(N)
        assert rep.total_time >= delta * root_n / (1 + 2 * g * root_n) * (1 - 1e-12)
        assert rep.success_probability >= 0.5 + delta / 4.0


def test_run_search_refuses_indistinguishable_epsilon():
    with pytest.raises(ValueError, match="raise t1"):
        sr.run_search(sr.SearchInstance(2 ** 16, marked=1),
                      nl.gross_pitaevskii(1.0), t1=1e-8)


def test_run_search_refuses_non_separating_nonlinearity():
    with pytest.raises(ValueError, match="separate"):
        sr.run_search(sr.SearchInstance(64, marked=1), nl.quartic_difference(1.0))


def test_default_t1_clamping():
    assert sr.default_t1(2 ** 16, 0.1) == pytest.approx(10 * math.log(0.1 * 2 ** 16))
    assert sr.default_t1(64, 0.1) == math.sqrt(64)  # clamped above
    assert sr.default_t1(64, 100.0) == 1.0          # clamped below


def test_complexity_budget_grover_fallback():
    # weak nonlinearity: budget falls back to sqrt(N)
    assert sr.complexity_budget(64, 0.1) == math.sqrt(64)
    assert sr.complexity_budget(2 ** 16, 1.0) == pytest.approx(math.log(2 ** 16))


def test_integrate_nlse_constant_without_dynamics():
    psi0 = sr.uniform_state(4)
    tr = sr.integrate_nlse(nl.gross_pitaevskii(0.0), None, None, psi0, 1.0)
    assert np.max(np.abs(tr.states[-1] - psi0)) == 0.0


def test_integrate_nlse_oracle_phase_matches_closed_form():
    # with the nonlinearity off, |<s|psi(t1)>| equals |oracle_overlap|
    for N, t1 in ((4, 1.3), (16, 2.7)):
        psi0 = sr.uniform_state(N)
        tr = sr.integrate_nlse(nl.gross_pitaevskii(0.0), None, 2, psi0, t1,
                               rtol=1e-12, atol=1e-14)
        u_sim = np.vdot(psi0, tr.states[-1])
        assert abs(u_sim - sr.oracle_overlap(N, t1, True)) <= 1e-9


def test_integrate_nlse_dim2_matches_bloch_dynamics():
    rng = np.random.default_rng(11)
    n = nl.logarithmic(0.7)
    kbar = nl.reduce(n)
    psi0 = rng.normal(size=2) + 1j * rng.normal(size=2)
    psi0 /= np.linalg.norm(psi0)
    v0 = qubit_bloch_vector(psi0)
    duration = 2.0
    tr_amp = sr.integrate_nlse(n, None, None, psi0, duration)
    tr_bloch = bd.integrate(kbar, None, v0, duration)
    v_end = qubit_bloch_vector(tr_amp.states[-1])
    assert np.max(np.abs(v_end - tr_bloch.states[-1, 0])) <= 1e-7


def test_integrate_nlse_closed_loop_reproduces_overlap_decay():
    # amplitude-level run of the full protocol: both optimally-oriented
    # hypothesis states under the orientation-holding x drive plus the
    # quadratic nonlinearity; the overlap must follow the closed form
    from nlqsim.discrimination import gp_overlap_closed_form

    def amplitudes(v):
        a = math.sqrt((1.0 + v[2]) / 2.0)
        return np.array([a, (v[0] + 1j * v[1]) / (2.0 * a)], dtype=complex)

    g, a0 = 1.0, 0.8
    n = nl.gross_pitaevskii(g)
    vp, vm = bd.pair_to_bloch(bd.optimal_pair(a0))
    psi, phi = amplitudes(vp), amplitudes(vm)
    assert np.allclose(qubit_bloch_vector(psi), vp, atol=1e-12)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

    def H(t):
        omega = 0.5 * g * gp_overlap_closed_form(g, a0, t)
        return 0.5 * omega * sx

    duration = 0.9 * 2.0 * math.atanh(math.cos(a0 / 2))
    grid = np.linspace(0.0, duration, 40)
    tr_psi = sr.integrate_nlse(n, H, None, psi, duration, t_eval=grid)
    tr_phi = sr.integrate_nlse(n, H, None, phi, duration, t_eval=grid)
    overlaps = np.abs(np.einsum("ij,ij->i", tr_psi.states.conj(), tr_phi.states))
    want = gp_overlap_closed_form(g, a0, grid)
    assert np.max(np.abs(overlaps - want)) <= 1e-7


def test_integrate_nlse_norm_preserved_and_phase_covariant():
    rng = np.random.default_rng(12)
    psi0 = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi0 /= np.linalg.norm(psi0)
    H = rng.normal(size=(8, 8))
    H = (H + H.T) / 2
    tr = sr.integrate_nlse(nl.gross_pitaevskii(1.0), H, 3, psi0, 2.0)
    assert tr.step_stats.max_norm_drift <= 1e-8
    tr2 = sr.integrate_nlse(nl.gross_pitaevskii(1.0), H, 3,
                            psi0 * cmath.exp(0.9j), 2.0)
    assert np.max(np.abs(np.abs(tr2.states[-1]) - np.abs(tr.states[-1]))) <= 1e-12


def test_integrate_nlse_rejects_non_hermitian():
    psi0 = sr.uniform_state(3)
    H = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="Hermitian"):
        sr.integrate_nlse(nl.gross_pitaevskii(1.0), H, None, psi0, 1.0)


def test_pairwise_overlap_derivative_matches_finite_difference():
    rng = np.random.default_rng(13)
    kappa = nl.gross_pitaevskii(1.0)
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi /= np.linalg.norm(psi)
    psm = rng.normal(size=8) + 1j * rng.normal(size=8)
    psm /= np.linalg.norm(psm)
    m = 3
    h = 1e-6

    def advance(p, oracle):
        return sr.integrate_nlse(kappa, None, oracle, p, h,
                                 rtol=1e-12, atol=1e-14).states[-1]

    fd = (np.vdot(advance(psi, None), advance(psm, m)) - np.vdot(psi, psm)) / h
    analytic = sr.pairwise_overlap_derivative(kappa, psi, psm, m)
    assert abs(fd - analytic) <= 1e-4 * max(abs(analytic), 1e-3)


def test_search_schedule_accepts_overlap_rounded_above_one():
    # At N = 2^20, t1 = 6.28 the Hadamard-test overlap rounds to 1 + 2^-52.
    N, t1 = 2 ** 20, 6.28
    assert 1.0 - sr.hadamard_test(N, t1, True).overlap_with_zero < 0.0
    sr.search_schedule(N, 1.0, t1)


def test_lower_bound_audit_initial_sum_and_margin():
    N, g = 16, 1.0
    t1 = sr.default_t1(N, g)
    H = sr.search_schedule(N, g, t1)
    audit = sr.lower_bound_audit(nl.gross_pitaevskii(g), H, N, 4.0, samples=200)
    assert audit.S[0] == pytest.approx(N, abs=1e-9)
    assert audit.bound_ok
    assert np.all(audit.margin[1:] > 0)
    # per-pair derivative identity holds on the recorded grid (centered FD,
    # second-order in the sample spacing)
    assert audit.derivative_check < 1e-3


def test_lower_bound_audit_linear_case_reduces_to_fg_bound():
    N = 16
    s = sr.uniform_state(N)
    grover = np.outer(s, s.conj())
    audit = sr.lower_bound_audit(nl.gross_pitaevskii(0.0), grover, N, 2.0,
                                 samples=30)
    assert audit.g == 0.0
    want = N - audit.times * math.sqrt(N)
    assert np.max(np.abs(audit.bound - want)) <= 1e-12
    assert audit.bound_ok


def test_lower_bound_audit_refuses_large_n():
    with pytest.raises(ValueError, match="cap"):
        sr.lower_bound_audit(nl.gross_pitaevskii(1.0), None, 512, 1.0)


def test_audit_csv_format():
    N, g = 8, 0.5
    audit = sr.lower_bound_audit(nl.gross_pitaevskii(g), None, N, 1.0, samples=10)
    lines = audit.to_csv().strip().split("\n")
    assert lines[0] == "t,S,bound,margin"
    assert len(lines) == len(audit.times) + 1


def test_search_instance_validation():
    with pytest.raises(ValueError):
        sr.SearchInstance(1)
    with pytest.raises(ValueError):
        sr.SearchInstance(8, marked=9)
    assert sr.SearchInstance(8, marked=8).marked == 8


def test_search_report_csv_row():
    rep = sr.run_search(sr.SearchInstance(64, marked=1), nl.gross_pitaevskii(1.0))
    row = rep.csv_row()
    fields = row.split(",")
    assert fields[0] == "64"
    assert fields[6] in ("marked", "unmarked")
    # 17-significant-digit round trip
    assert float(fields[4]) == rep.total_time


def _stable_deficit(N, t1):
    # 1 - |<0|q>| from d = 1 - <s|U|s>, with no subtraction of nearby numbers
    d = (1.0 - cmath.exp(-1j * t1)) / N
    x = abs(d) ** 2 / (4.0 - 4.0 * d.real + 2.0 * abs(d) ** 2)
    return x / (1.0 + math.sqrt(1.0 - x))


@pytest.mark.parametrize("N", [2 ** k for k in range(4, 23, 2)])
def test_run_search_t2_is_free_of_cancellation(N):
    for g in (0.1, 1.0, 10.0):
        for t1 in (1.0, 2.5):
            rep = sr.run_search(sr.SearchInstance(N, marked=1), nl.gross_pitaevskii(g), t1=t1)
            eps = _stable_deficit(N, t1)
            # atanh(1 - eps) = ln((2 - eps)/eps)/2 without rounding 1 - eps
            want = (2.0 / g) * (0.5 * math.log((2.0 - eps) / eps) - math.atanh(1.0 / math.sqrt(2.0)))
            assert rep.epsilon == pytest.approx(eps, rel=1e-15)
            assert rep.t2 == pytest.approx(want, rel=1e-12)
