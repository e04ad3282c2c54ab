import cmath
import math
import re

import numpy as np
import pytest

from scipy.integrate import solve_ivp

from nlqsim import blochdyn as bd
from nlqsim import nonlinearity as nl
from nlqsim import search as sr
from nlqsim.blochdyn import qubit_bloch_vector


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
    # the overlap deficit, about t1^2 / (8 N^2), underflows to 0
    with pytest.raises(ValueError, match="raise t1"):
        sr.run_search(sr.SearchInstance(2 ** 16, marked=1),
                      nl.gross_pitaevskii(1.0), t1=1e-200)


def test_run_search_tiny_t1_matches_closed_form():
    rep = sr.run_search(sr.SearchInstance(2 ** 16, marked=1), nl.gross_pitaevskii(1.0), t1=1e-8)
    eps = _stable_deficit(2 ** 16, 1e-8)
    assert rep.epsilon == pytest.approx(eps, rel=1e-15, abs=0)
    assert rep.t2 == pytest.approx(_gp_t2(1.0, eps), rel=1e-9, abs=0)


def test_run_search_refuses_non_separating_nonlinearity():
    with pytest.raises(ValueError, match="separate"):
        sr.run_search(sr.SearchInstance(64, marked=1), nl.quartic_difference(1.0))


def test_default_t1_clamping():
    assert sr.default_t1(2 ** 16, 0.1) == pytest.approx(10 * math.log(0.1 * 2 ** 16))
    assert sr.default_t1(64, 0.1) == math.sqrt(64)  # clamped above
    assert sr.default_t1(64, 100.0) == 1.0          # clamped below


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("t1, marked", [(NAN, True), (INF, True), (-1.0, True), (NAN, False)])
def test_oracle_overlap_refuses_a_non_finite_time(t1, marked):
    # nan and inf returned nan
    with pytest.raises(ValueError, match=re.escape(f"t1 must be finite and >= 0, got {t1!r}")):
        sr.oracle_overlap(16, t1, marked)


@pytest.mark.parametrize("g", [NAN, INF, 0.0, -1.0])
def test_default_t1_refuses_a_strength_that_is_not_finite_and_positive(g):
    # nan and inf returned 1.0
    with pytest.raises(ValueError, match=re.escape(
            f"g must be finite and > 0 to pick t1 automatically, got {g!r}")):
        sr.default_t1(64, g)


@pytest.mark.parametrize("g", [NAN, INF, -1.0])
def test_search_schedule_refuses_a_strength_that_is_not_finite_and_nonnegative(g):
    # nan built a zero drive
    with pytest.raises(ValueError, match=re.escape(f"g must be finite and >= 0, got {g!r}")):
        sr.search_schedule(16, g, 2.0)


def test_search_schedule_keeps_the_zero_drive_at_zero_strength():
    H = sr.search_schedule(16, 0.0, 2.0)
    assert H.t_on == 2.0 and H.omega == 0.0


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


@pytest.mark.parametrize("kind", ["gp:1.3", "log:0.7", "sqrt:2"])
def test_undriven_qubit_runs_match_each_amplitude_turning_by_its_own_kappa(kind):
    # closed form: psi_x(t) = psi_x e^{-i kappa(|psi_x|) t}, mapped to
    # (2 Re psi_0* psi_1, 2 Im psi_0* psi_1, |psi_0|^2 - |psi_1|^2)
    rng = np.random.default_rng(11)
    n = nl.parse(kind)
    psi0 = rng.normal(size=2) + 1j * rng.normal(size=2)
    psi0 /= np.linalg.norm(psi0)
    t = np.linspace(0.0, 2.0, 9)
    psi = psi0 * np.exp(-1j * np.outer(t, n.kappa(np.abs(psi0))))
    cross = np.conj(psi[:, 0]) * psi[:, 1]
    want = np.stack([2.0 * cross.real, 2.0 * cross.imag,
                     np.abs(psi[:, 0]) ** 2 - np.abs(psi[:, 1]) ** 2], axis=1)
    tr_amp = sr.integrate_nlse(n, None, None, psi0, 2.0, t_eval=t)
    tr_bloch = bd.integrate(nl.reduce(n), None, want[0], 2.0, t_eval=t)
    assert np.max(np.abs(qubit_bloch_vector(tr_amp.states) - want)) <= 1e-12
    assert np.max(np.abs(tr_bloch.states[:, 0] - want)) <= 1e-12


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
    H = sr.Schedule((0, 1), 0.5 * sx, lambda t: 0.5 * g * gp_overlap_closed_form(g, a0, t))

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
    assert tr.stats.max_norm_drift <= 1e-8
    tr2 = sr.integrate_nlse(nl.gross_pitaevskii(1.0), H, 3,
                            psi0 * cmath.exp(0.9j), 2.0)
    assert np.max(np.abs(np.abs(tr2.states[-1]) - np.abs(tr.states[-1]))) <= 1e-12


def test_integrate_nlse_rejects_non_hermitian():
    psi0 = sr.uniform_state(3)
    H = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="Hermitian"):
        sr.integrate_nlse(nl.gross_pitaevskii(1.0), H, None, psi0, 1.0)


def _run_nlse(H, N):
    return sr.integrate_nlse(nl.gross_pitaevskii(1.0), H, None, sr.uniform_state(N), 1.0)


def _run_audit(H, N):
    return sr.lower_bound_audit(nl.gross_pitaevskii(1.0), H, N, 1.0)


_SX = np.array([[0.0, 1.0], [1.0, 0.0]])


@pytest.mark.parametrize("run", [_run_nlse, _run_audit], ids=["nlse", "audit"])
@pytest.mark.parametrize("make, error, match", [
    (lambda: np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
     ValueError, "Hermitian"),
    (lambda: np.eye(4), ValueError, "3x3"),
    (lambda: np.full((3, 3), np.nan), ValueError, "finite"),
    (lambda: (lambda t: np.zeros((3, 3))), TypeError, "omega"),
    (lambda: sr.Schedule((0, 1), np.eye(3)), ValueError, "2x2"),
    (lambda: sr.Schedule((0, 1), 1j * _SX), ValueError, "Hermitian"),
    (lambda: sr.Schedule((0, 3), _SX), ValueError, "support"),
    (lambda: sr.Schedule((1, 1), _SX), ValueError, "support"),
    (lambda: sr.Schedule((0, 1), _SX, math.inf), ValueError, "omega .* got inf"),
    (lambda: sr.Schedule((0, 1), _SX, math.nan), ValueError, "omega .* got nan"),
], ids=["non-hermitian", "shape", "nan", "callable", "schedule-shape",
        "schedule-non-hermitian", "outside", "repeated", "omega-inf", "omega-nan"])
def test_a_malformed_hamiltonian_is_refused_by_both_entry_points(run, make, error, match):
    # at N = 3; ``make`` builds the H inside the check, since a malformed
    # Schedule is refused as it is built
    with pytest.raises(error, match=match):
        run(make(), 3)


def test_integrate_nlse_two_coordinate_schedule_matches_its_dense_embedding():
    rng = np.random.default_rng(14)
    N = 8
    psi0 = rng.normal(size=N) + 1j * rng.normal(size=N)
    psi0 /= np.linalg.norm(psi0)
    gen = np.array([[0.3, 0.5 - 0.2j], [0.5 + 0.2j, -0.1]])
    schedule = sr.Schedule((5, 2), gen, lambda t: 0.7 + 0.3 * math.sin(2.0 * t))
    grid = np.linspace(0.0, 2.0, 11)
    for kappa in (nl.gross_pitaevskii(1.0), nl.logarithmic(1.0)):
        block = sr.integrate_nlse(kappa, schedule, 3, psi0, 2.0, t_eval=grid)
        dense = sr.integrate_nlse(kappa, _dense_rebuild(schedule, N), 3, psi0, 2.0,
                                  t_eval=grid)
        assert np.max(np.abs(block.states - dense.states)) <= 1e-12


@pytest.mark.parametrize("duration", [float("inf"), float("nan")])
def test_integrate_nlse_refuses_a_horizon_that_is_not_finite(duration):
    class Raising:
        def kappa(self, x):
            raise AssertionError("rhs called")

    with pytest.raises(ValueError, match="t1"):
        sr.integrate_nlse(Raising(), None, 1, sr.uniform_state(4), duration)


def test_integrate_nlse_refuses_a_start_state_holding_nan_naming_it():
    # a NaN norm passes a test written as |nrm - 1| > tol; pytest turns the
    # divide warning it used to raise into an error
    with pytest.raises(ValueError, match="psi0 must be unit norm.*nan"):
        sr.integrate_nlse(nl.gross_pitaevskii(1.0), None, None, [math.nan, 1.0], 1.0)


@pytest.mark.parametrize("oracle", [None, 3], ids=["no-oracle", "oracle"])
@pytest.mark.parametrize("N", [8, 64, 256])
@pytest.mark.parametrize("kind", ["gp", "log", "sqrt", "quartic", "odd"])
def test_integrate_nlse_without_h_is_its_closed_form_in_a_few_steps(kind, N, oracle):
    # Each amplitude turns at kappa(|psi0_x|) + [x = m], and H = None never
    # switches on, so the run is that closed form and takes no step.  In the
    # lab frame these runs took up to about 300 steps, in the co-rotating
    # frame up to 10.
    rng = np.random.default_rng(N)
    psi0 = rng.normal(size=N) + 1j * rng.normal(size=N)
    psi0 /= np.linalg.norm(psi0)
    kappa = _audit_kinds()[kind]
    grid = np.linspace(0.0, 2.0, 5)
    tr = sr.integrate_nlse(kappa, None, oracle, psi0, 2.0, t_eval=grid)
    rate = kappa.kappa(np.abs(psi0)) + (np.arange(N) == (oracle or 0) - 1)
    want = psi0 * np.exp(-1j * np.outer(grid, rate))
    assert np.array_equal(tr.times, grid)
    assert np.max(np.abs(tr.states - want)) <= 1e-15
    free = sr.integrate_nlse(kappa, None, oracle, psi0, 2.0)
    assert free.times.tolist() == [0.0, 2.0]
    assert np.max(np.abs(free.states - want[[0, -1]])) <= 1e-15
    for run in (tr, free):
        assert run.stats.accepted == run.stats.rejected == 0 and not run.failed


@pytest.mark.parametrize("t_eval", [None, np.linspace(0.0, 1.0, 3), np.array([0.5, 1.0])],
                         ids=["no-samples", "samples", "samples-after-0"])
@pytest.mark.parametrize("H", [None, sr.Schedule((0, 1), _SX / 2, 1.0, t_on=2.0),
                               sr.Schedule((0, 1), _SX / 2, 1.0, t_on=1.0)],
                         ids=["none", "switch-past-end", "switch-at-end"])
def test_integrate_nlse_refuses_a_rate_that_is_not_finite_at_the_start(H, t_eval):
    # A switch at or past the end gave NaN states with failed = False; H = None
    # failed, but kept a NaN sample at t = 0.  kappa is NaN above 0.4, so at
    # every |psi_x| = 1/2 of |s> at N = 4.
    bad = nl.Nonlinearity(nl.Kind.PIECEWISE_CUSTOM, 1.0,
                          custom_fn=lambda x: np.where(x > 0.4, np.nan, x))
    tr = sr.integrate_nlse(bad, H, 1, sr.uniform_state(4), 1.0, t_eval=t_eval)
    assert tr.failed and "not finite" in tr.failure_reason
    assert np.isfinite(tr.states).all() and tr.stats.accepted == tr.stats.rejected == 0
    # the solver's refusal keeps the start and nothing after it
    assert np.array_equal(tr.times, [0.0] if t_eval is None or t_eval[0] == 0.0 else [])
    assert np.array_equal(tr.states, np.repeat(sr.uniform_state(4)[None], len(tr.times), 0))
    with pytest.raises(RuntimeError, match="audit integration failed: .*not finite"):
        sr.lower_bound_audit(bad, H, 4, 1.0)


@pytest.mark.parametrize("N", [64, 2 ** 40])
def test_audit_without_h_is_its_closed_form_and_takes_no_step(N):
    audit = sr.lower_bound_audit(nl.gross_pitaevskii(1.0), None, N, 3.0)
    assert audit.step_stats.accepted == audit.step_stats.rejected == 0
    want = N * np.abs(1.0 - (1.0 - np.exp(-1j * audit.times)) / N)
    assert np.max(np.abs(audit.S - want) / want) <= 1e-14


@pytest.mark.parametrize("oracle", [3, 4], ids=["on-support", "off-support"])
@pytest.mark.parametrize("kind", ["gp", "log"])
def test_integrate_nlse_schedule_matches_a_lab_frame_dop853_run(kind, oracle):
    # A driven schedule on (5, 2) at N = 8, with the (1-indexed) oracle on
    # coordinate 2 of the support or on coordinate 3 outside it; the
    # reference steps the lab-frame equation with scipy's DOP853.
    rng = np.random.default_rng(15)
    N = 8
    psi0 = rng.normal(size=N) + 1j * rng.normal(size=N)
    psi0 /= np.linalg.norm(psi0)
    gen = np.array([[0.3, 0.5 - 0.2j], [0.5 + 0.2j, -0.1]])
    schedule = sr.Schedule((5, 2), gen, lambda t: 0.7 + 0.3 * math.sin(2.0 * t))
    dense = np.zeros((N, N), dtype=complex)
    dense[np.ix_([5, 2], [5, 2])] = gen
    marked = np.arange(N) == oracle - 1
    kappa = _audit_kinds()[kind]

    def lab(t, psi):
        return -1j * ((kappa.kappa(np.abs(psi)) + marked) * psi
                      + schedule.omega(t) * (dense @ psi))

    grid = np.linspace(0.0, 2.0, 11)
    ref = solve_ivp(lab, (0.0, 2.0), psi0, method="DOP853", t_eval=grid,
                    rtol=1e-12, atol=1e-14)
    tr = sr.integrate_nlse(kappa, schedule, oracle, psi0, 2.0, t_eval=grid)
    assert np.max(np.abs(tr.states - ref.y.T)) <= 1e-8


@pytest.mark.parametrize("N", [8, 16, 32])
@pytest.mark.parametrize("kind", ["gp", "log", "sqrt"])
def test_integrate_nlse_samples_under_a_smooth_drive_match_dop853(kind, N):
    # The samples are interpolated within steps, not forced step ends, so
    # they are as accurate as rtol asks: at most 0.19 rtol here (log, N = 8).
    rng = np.random.default_rng(N)
    psi0 = rng.normal(size=N) + 1j * rng.normal(size=N)
    psi0 /= np.linalg.norm(psi0)
    sx = np.array([[0.0, 0.5], [0.5, 0.0]])
    schedule = sr.Schedule((0, 1), sx, lambda t: 1.5 * math.cos(t / 2.0))
    dense = np.zeros((N, N))
    dense[:2, :2] = sx
    marked = np.arange(N) == 2
    kappa = _audit_kinds()[kind]

    def lab(t, psi):
        return -1j * ((kappa.kappa(np.abs(psi)) + marked) * psi
                      + schedule.omega(t) * (dense @ psi))

    grid = np.linspace(0.0, 6.0, 301)
    ref = solve_ivp(lab, (0.0, 6.0), psi0, method="DOP853", t_eval=grid,
                    rtol=1e-13, atol=1e-15)
    # sqrt's kappa has an infinite slope at |psi_x| = 1/sqrt(2); this drive
    # keeps every amplitude below it, so the right-hand side stays smooth
    assert np.max(np.abs(ref.y)) < 1.0 / math.sqrt(2.0)
    tr = sr.integrate_nlse(kappa, schedule, 3, psi0, 6.0, t_eval=grid)
    assert np.max(np.abs(tr.states - ref.y.T)) <= 10 * 1e-10


def test_integrate_nlse_that_fails_before_its_first_sample_returns_the_failed_trace():
    # kappa is undefined below |psi_x| = 0.5, which coordinate 1 crosses near
    # t = 0.12, so the step size underflows before the sample at t = 1
    class Partial:
        def kappa(self, x):
            return np.sqrt(np.asarray(x, dtype=float) - 0.5)

    H = sr.Schedule((0, 1), _SX)
    with np.errstate(invalid="ignore"):
        tr = sr.integrate_nlse(Partial(), H, None, np.array([0.8, 0.6j]), 2.0,
                               t_eval=np.array([1.0, 2.0]))
    assert tr.failed and "underflow" in tr.failure_reason
    assert tr.times.shape == (0,) and tr.states.shape == (0, 2)


@pytest.mark.parametrize("duration", [float("inf"), float("nan")])
def test_lower_bound_audit_refuses_a_horizon_that_is_not_finite(duration):
    class Raising:
        def kappa(self, x):
            raise AssertionError("kappa called")

    H = sr.search_schedule(8, 1.0, sr.default_t1(8, 1.0))
    with pytest.raises(ValueError, match="duration"):
        sr.lower_bound_audit(Raising(), H, 8, duration)


@pytest.mark.parametrize("t1", [float("inf"), float("nan")])
def test_an_oracle_time_that_is_not_finite_is_refused(t1):
    # these ended in "epsilon must be in [0, 2]" from the NaN overlap deficit
    with pytest.raises(ValueError, match="t1"):
        sr.run_search(sr.SearchInstance(8, marked=1), nl.gross_pitaevskii(1.0), t1=t1)
    with pytest.raises(ValueError, match="t1"):
        sr.search_schedule(8, 1.0, t1)


def test_search_schedule_refuses_the_oracle_time_run_search_refuses():
    # t1 = 0 built a schedule for a search that run_search refuses
    with pytest.raises(ValueError, match="t1 must be finite and > 0, got 0.0"):
        sr.run_search(sr.SearchInstance(8, marked=1), nl.gross_pitaevskii(1.0), t1=0.0)
    with pytest.raises(ValueError, match="t1 must be finite and > 0, got 0.0"):
        sr.search_schedule(8, 1.0, 0.0)


@pytest.mark.parametrize("N", [1, 0])
def test_search_schedule_refuses_fewer_than_two_items(N):
    # N = 0 ended in a ZeroDivisionError from the overlap deficit
    with pytest.raises(ValueError, match="N must be >= 2"):
        sr.search_schedule(N, 1.0, 1.0)


@pytest.mark.parametrize("samples", [-1, 0, 1])
def test_lower_bound_audit_refuses_fewer_than_two_samples(samples):
    # samples = 0 recorded only t = 0 and skipped the derivative check
    H = sr.search_schedule(8, 1.0, sr.default_t1(8, 1.0))
    with pytest.raises(ValueError, match="samples"):
        sr.lower_bound_audit(nl.gross_pitaevskii(1.0), H, 8, 1.0, samples=samples)


@pytest.mark.parametrize("samples", [2.5, math.inf, math.nan])
def test_lower_bound_audit_refuses_samples_that_are_not_a_whole_number(samples):
    # 2.5 passed the >= 2 check and then failed inside np.linspace with a TypeError
    H = sr.search_schedule(8, 1.0, sr.default_t1(8, 1.0))
    with pytest.raises(ValueError, match=f"samples must be a whole number >= 2, got {samples}"):
        sr.lower_bound_audit(nl.gross_pitaevskii(1.0), H, 8, 1.0, samples=samples)


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


def test_lower_bound_audit_reports_its_integration():
    N, g = 16, 1.0
    H = sr.search_schedule(N, g, sr.default_t1(N, g))
    audit = sr.lower_bound_audit(nl.gross_pitaevskii(g), H, N, 4.0)
    assert audit.step_stats.accepted > 0
    assert audit.step_stats.max_norm_drift <= 1e-10


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
    # The cap is on the coordinates H acts on, dense or a Schedule; None and
    # the search schedule run at any N.
    N = 512
    with pytest.raises(ValueError, match="cap"):
        sr.lower_bound_audit(nl.gross_pitaevskii(1.0), np.zeros((N, N)), N, 1.0)
    block = sr.Schedule(range(N), np.zeros((N, N)))
    with pytest.raises(ValueError, match="cap"):
        sr.lower_bound_audit(nl.gross_pitaevskii(1.0), block, 2 ** 20, 1.0)


@pytest.mark.parametrize("duration", [-1.0, 0.0, float("nan")])
def test_lower_bound_audit_refuses_a_horizon_that_is_not_positive(duration):
    # a negative horizon records times 0 ... duration and reports a false
    # violation of the floor; 0 divides 0 by 0 in the derivative check
    H = sr.search_schedule(8, 1.0, sr.default_t1(8, 1.0))
    with pytest.raises(ValueError, match="duration"):
        sr.lower_bound_audit(nl.gross_pitaevskii(1.0), H, 8, duration)


def _audit_kinds():
    return {"gp": nl.gross_pitaevskii(1.0), "log": nl.logarithmic(1.0),
            "sqrt": nl.square_root_sign(1.0), "quartic": nl.quartic_difference(1.0),
            "odd": nl.from_odd_function(lambda z: np.sinh(3.0 * np.asarray(z)) / 3.0)}


@pytest.mark.parametrize("kind", ["gp", "log", "sqrt", "quartic", "odd"])
@pytest.mark.parametrize("N", [16, 2 ** 20, 2 ** 40])
def test_audit_free_evolution_closed_form(kind, N):
    # With H = None every amplitude keeps its magnitude, so the unmarked and
    # marked states differ only by the oracle phase on the marked coordinate.
    audit = sr.lower_bound_audit(_audit_kinds()[kind], None, N, 3.0, samples=30,
                                 rtol=1e-12, atol=1e-14)
    want = N * np.abs(1.0 - (1.0 - np.exp(-1j * audit.times)) / N)
    assert np.max(np.abs(audit.S - want) / want) <= 1e-9
    assert audit.bound_ok


def _dense_rebuild(schedule, N):
    """The schedule's generator embedded in an N x N one (the dense path)."""
    support = list(schedule.support)
    gen = np.zeros((N, N), dtype=complex)
    gen[np.ix_(support, support)] = schedule.generator
    return sr.Schedule(range(N), gen, schedule.omega, t_on=schedule.t_on)


@pytest.mark.parametrize("kind", ["gp", "log"])
@pytest.mark.parametrize("N", [2, 3, 8, 16, 64])
def test_audit_search_schedule_matches_dense_rebuild(kind, N):
    g = 1.0
    t1 = sr.default_t1(N, g)
    duration = sr.run_search(sr.SearchInstance(N, marked=1),
                             nl.gross_pitaevskii(g), t1=t1).total_time
    schedule = sr.search_schedule(N, g, t1)
    assert schedule.support == (0, 1)
    kappa = _audit_kinds()[kind]
    reduced = sr.lower_bound_audit(kappa, schedule, N, duration, samples=20,
                                   rtol=1e-12, atol=1e-14)
    dense = sr.lower_bound_audit(kappa, _dense_rebuild(schedule, N), N, duration,
                                 samples=20, rtol=1e-12, atol=1e-14)
    assert np.array_equal(reduced.times, dense.times)
    assert np.max(np.abs(reduced.S - dense.S)) <= 1e-10 * N
    assert np.array_equal(reduced.bound, dense.bound)


def test_audit_search_schedule_at_n_2_40():
    N, g = 2 ** 40, 1.0
    t1 = sr.default_t1(N, g)
    rep = sr.run_search(sr.SearchInstance(N, marked=1), nl.gross_pitaevskii(g), t1=t1)
    audit = sr.lower_bound_audit(nl.gross_pitaevskii(g), sr.search_schedule(N, g, t1),
                                 N, rep.total_time)
    assert audit.N == N
    assert audit.S[0] == N
    assert audit.bound_ok
    oracle = audit.times <= t1
    want = N * np.abs(1.0 - (1.0 - np.exp(-1j * audit.times[oracle])) / N)
    assert np.max(np.abs(audit.S[oracle] - want) / want) <= 1e-9


def _search_audit(kind, N, dense=False):
    """``lower_bound_audit`` of g = 1 under the search schedule over the
    search run's duration, at the default tolerances."""
    g = 1.0
    t1 = sr.default_t1(N, g)
    duration = sr.run_search(sr.SearchInstance(N, marked=1),
                             nl.gross_pitaevskii(g), t1=t1).total_time
    schedule = sr.search_schedule(N, g, t1)
    H = _dense_rebuild(schedule, N) if dense else schedule
    return sr.lower_bound_audit(_audit_kinds()[kind], H, N, duration)


@pytest.mark.parametrize("kind", ["gp", "log"])
def test_audit_at_n_2_40_matches_the_rows_marked_outside_the_support(kind):
    # Row j stands for N - 2 rows.  Its overlap stays 1 - (1 - e^{-it})/N,
    # and the two support rows differ from psi by O(1/sqrt(N)) amplitudes,
    # so N - S(t) = (N - 2)(1 - |1 - d|) up to O(1e-12), d = (1 - e^{-it})/N.
    # |z_j| = 1e-6 sits under the default atol = 1e-10, so unless atol is
    # scaled by 1/sqrt(N) row j is solved to a few digits, and its error is
    # multiplied by N - 2.
    N = 2 ** 40
    audit = _search_audit(kind, N)
    d = (1.0 - cmath.exp(-1j * audit.times[-1])) / N
    want = (N - 2) * (2.0 * d.real - abs(d) ** 2) / (1.0 + abs(1.0 - d))
    assert abs((N - audit.S[-1]) - want) <= 1e-3


def test_audit_step_count_does_not_depend_on_its_samples():
    # samples are filled from the steps, so 200 of them cost no steps
    # over 2 (15 + 0 steps measured; one step per sample took 217 + 31 at
    # 5th order)
    g, N = 1.0, 64
    t1 = sr.default_t1(N, g)
    duration = sr.run_search(sr.SearchInstance(N, marked=1), nl.gross_pitaevskii(g),
                             t1=t1).total_time
    stats = [sr.lower_bound_audit(nl.gross_pitaevskii(g), sr.search_schedule(N, g, t1), N,
                                  duration, samples=samples).step_stats
             for samples in (2, 200)]
    assert stats[0] == stats[1]
    assert stats[1].accepted <= 18 and stats[1].rejected == 0


@pytest.mark.parametrize("kind, N, dense, most", [
    ("gp", 128, False, 20), ("log", 32, False, 28), ("gp", 2 ** 40, False, 96),
    ("log", 2 ** 40, False, 231), ("log", 64, True, 28),
], ids=["gp-128", "log-32", "gp-2^40", "log-2^40", "log-64-dense"])
def test_audit_does_not_spend_steps_on_phases_common_to_all_rows(kind, N, dense, most):
    # In a fixed frame the big class turns at g (gp) and the 1/sqrt(N)
    # classes at 2 ln(1/sqrt(N)) (log), a phase common to all rows that
    # costs about twice these steps or more.  Bounds: measured + 20 %.
    assert _search_audit(kind, N, dense).step_stats.accepted <= most


@pytest.mark.parametrize("kind, kappa_frame", [("gp", 863), ("log", 1325)])
def test_audit_at_n_2_40_does_not_spend_steps_on_the_oracle_phase(kind, kappa_frame):
    # Row j's oracle turns its marked class at rate 1 for the whole run, and
    # each row's frame takes that turn out too.  ``kappa_frame`` is the step
    # count in a frame that turns the classes at their initial kappa alone.
    assert _search_audit(kind, 2 ** 40).step_stats.accepted < kappa_frame


@pytest.mark.parametrize("kind, N", [("gp", 16), ("gp", 64), ("gp", 2 ** 40),
                                     ("log", 32), ("log", 2 ** 40)])
def test_search_audit_rejects_no_step_at_the_oracle_switch(kind, N):
    # The drive jumps from 0 to (g/2) tanh(u0) at t1, and a step across the
    # jump fails its error test; the solver starts at t1, so none is taken.
    assert _search_audit(kind, N).step_stats.rejected == 0


@pytest.mark.parametrize("N", [64, 2 ** 40])
@pytest.mark.parametrize("kind", ["gp", "log"])
def test_search_audit_before_the_switch_is_its_closed_form(kind, N):
    # With the drive off every amplitude keeps its magnitude, and each row
    # differs from psi by the oracle phase on its marked class alone.
    audit = _search_audit(kind, N)
    oracle = audit.times <= sr.default_t1(N, 1.0)
    want = N * np.abs(1.0 - (1.0 - np.exp(-1j * audit.times[oracle])) / N)
    assert np.max(np.abs(audit.S[oracle] - want) / want) <= 1e-13


def _lab_rhs(kappa, dense, marked, omega):
    """The lab-frame right-hand side of the rows ``Y`` (flattened), each
    row r marked where ``marked[r]`` is 1, under omega(t) * dense."""
    shape = marked.shape

    def rhs(t, y):
        Y = y.reshape(shape)
        out = (kappa.kappa(np.abs(Y)) + marked) * Y
        w = omega(t)
        if w != 0.0:
            out += w * (Y @ dense.T)
        return (-1j * out).reshape(-1)
    return rhs


def _piecewise_dop853(rhs, y0, t_on, duration, grid):
    """scipy's DOP853 on [0, t_on] with the drive off, then on
    [t_on, duration] with it on, at rtol 1e-13; states at ``grid``."""
    legs = []
    for a, b, pick in ((0.0, t_on, grid <= t_on), (t_on, duration, grid > t_on)):
        sol = solve_ivp(rhs(a < t_on), (a, b), y0, method="DOP853", dense_output=True,
                        rtol=1e-13, atol=1e-15)
        legs.append(sol.sol(grid[pick]).T)
        y0 = sol.y[:, -1]
    return np.concatenate(legs)


@pytest.mark.parametrize("kind", ["gp", "log"])
def test_search_audit_through_the_switch_matches_a_lab_frame_dop853_run(kind):
    # All N + 1 rows of the dense system at N = 16, stepped in the lab frame
    # with the drive off before t1 and on after it.
    N, g = 16, 1.0
    t1 = sr.default_t1(N, g)
    duration = sr.run_search(sr.SearchInstance(N, marked=1), nl.gross_pitaevskii(g),
                             t1=t1).total_time
    schedule = sr.search_schedule(N, g, t1)
    kappa = _audit_kinds()[kind]
    audit = sr.lower_bound_audit(kappa, schedule, N, duration, samples=40,
                                 rtol=1e-12, atol=1e-14)
    dense = np.zeros((N, N))
    dense[:2, :2] = schedule.generator.real
    marked = np.vstack([np.zeros(N), np.eye(N)])

    def rhs(off):
        return _lab_rhs(kappa, dense, marked, (lambda t: 0.0) if off else schedule.omega)

    y0 = np.full((N + 1) * N, 1.0 / math.sqrt(N), dtype=complex)
    ys = _piecewise_dop853(rhs, y0, t1, duration, audit.times).reshape(-1, N + 1, N)
    S = np.sum(np.abs(np.einsum("tc,trc->tr", np.conj(ys[:, 0]), ys[:, 1:])), axis=1)
    assert np.max(np.abs(audit.S - S)) <= 1e-10 * N


@pytest.mark.parametrize("kind", ["gp", "log"])
def test_integrate_nlse_with_a_switch_inside_the_run_matches_a_lab_frame_dop853_run(kind):
    rng = np.random.default_rng(16)
    N, t_on, duration = 8, 0.8, 2.0
    psi0 = rng.normal(size=N) + 1j * rng.normal(size=N)
    psi0 /= np.linalg.norm(psi0)
    gen = np.array([[0.3, 0.5 - 0.2j], [0.5 + 0.2j, -0.1]])
    schedule = sr.Schedule((5, 2), gen, lambda t: 0.7 + 0.3 * math.sin(2.0 * t), t_on=t_on)
    dense = np.zeros((N, N), dtype=complex)
    dense[np.ix_([5, 2], [5, 2])] = gen
    marked = (np.arange(N) == 2) * 1.0
    kappa = _audit_kinds()[kind]

    def rhs(off):
        return _lab_rhs(kappa, dense, marked, (lambda t: 0.0) if off else schedule.omega)

    grid = np.linspace(0.0, duration, 11)
    ref = _piecewise_dop853(rhs, psi0, t_on, duration, grid)
    tr = sr.integrate_nlse(kappa, schedule, 3, psi0, duration, t_eval=grid)
    assert np.array_equal(tr.times, grid)
    assert np.max(np.abs(tr.states - ref)) <= 1e-9
    # without samples the trace records t = 0, the switch and then each step
    free = sr.integrate_nlse(kappa, schedule, 3, psi0, duration)
    assert free.times[0] == 0.0 and free.times[1] == t_on
    assert np.max(np.abs(free.states[-1] - ref[-1])) <= 1e-9


def test_integrate_nlse_that_ends_before_the_switch_takes_no_step():
    rng = np.random.default_rng(17)
    psi0 = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi0 /= np.linalg.norm(psi0)
    kappa = nl.logarithmic(1.0)
    schedule = sr.Schedule((0, 1), _SX, 1.0, t_on=3.0)
    grid = np.linspace(0.0, 2.0, 5)
    tr = sr.integrate_nlse(kappa, schedule, 4, psi0, 2.0, t_eval=grid)
    assert tr.stats.accepted == tr.stats.rejected == 0
    rate = kappa.kappa(np.abs(psi0)) + (np.arange(8) == 3)
    assert np.max(np.abs(tr.states - psi0 * np.exp(-1j * np.outer(grid, rate)))) <= 1e-15


@pytest.mark.parametrize("t_on", [float("nan"), float("inf"), -float("inf"), -1.0])
def test_schedule_refuses_a_switch_time_that_is_not_finite_and_non_negative(t_on):
    with pytest.raises(ValueError, match=f"t_on must be finite and >= 0, got {t_on!r}"):
        sr.Schedule((0, 1), _SX, t_on=t_on)


def test_schedule_rate_is_zero_before_the_switch():
    schedule = sr.Schedule((0, 1), _SX, lambda t: 2.0 + t, t_on=1.0)
    assert [schedule.rate(t) for t in (0.0, 0.999, 1.0, 2.0)] == [0.0, 0.0, 3.0, 4.0]


def test_search_instance_validation():
    with pytest.raises(ValueError):
        sr.SearchInstance(1)
    with pytest.raises(ValueError):
        sr.SearchInstance(8, marked=9)
    assert sr.SearchInstance(8, marked=8).marked == 8


def _gp_t2(g, eps):
    # (2/g)(atanh(1 - eps) - atanh(1/sqrt 2)), with atanh(1 - eps) taken as
    # ln((2 - eps)/eps)/2 so that 1 - eps is never rounded
    return (2.0 / g) * (0.5 * math.log((2.0 - eps) / eps) - math.atanh(1.0 / math.sqrt(2.0)))


def _stable_deficit(N, t1):
    # 1 - |<0|q>| from d = 1 - <s|U|s>, with no subtraction of nearby numbers
    d = (1.0 - cmath.exp(-1j * t1)) / N
    x = abs(d) ** 2 / (4.0 - 4.0 * d.real + 2.0 * abs(d) ** 2)
    return x / (1.0 + math.sqrt(1.0 - x))


def test_search_schedule_drive_follows_the_overlap_at_n_2_40():
    # cos(alpha0/2) rounds to 1 at this N; the drive must still fall as
    # (g/4) tanh(u0 - g dt/2) instead of holding g/4
    N, g = 2 ** 40, 1.0
    t1 = sr.default_t1(N, g)
    eps = _stable_deficit(N, t1)
    u0 = 0.5 * math.log((2.0 - eps) / eps)
    schedule = sr.search_schedule(N, g, t1)
    for dt in (1.0, 20.0, 40.0, 60.0):
        want = (g / 4.0) * math.tanh(u0 - g * dt / 2.0)
        drive = schedule.omega(t1 + dt) * schedule.generator[0, 1]
        assert drive.real == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("N", [2 ** k for k in range(4, 23, 2)])
def test_run_search_t2_is_free_of_cancellation(N):
    for g in (0.1, 1.0, 10.0):
        for t1 in (1.0, 2.5):
            rep = sr.run_search(sr.SearchInstance(N, marked=1), nl.gross_pitaevskii(g), t1=t1)
            eps = _stable_deficit(N, t1)
            assert rep.epsilon == pytest.approx(eps, rel=1e-15)
            assert rep.t2 == pytest.approx(_gp_t2(g, eps), rel=1e-12)


@pytest.mark.parametrize("N", [2 ** k for k in range(24, 41, 2)])
def test_run_search_reaches_n_two_to_the_forty(N):
    # no deficit floor: t2 follows the closed form and the total time stays
    # within a constant of the (1/g) ln(gN) budget out to N = 2^40
    for g in (0.1, 1.0, 10.0):
        for t1 in (1.0, 2.5, "auto"):
            rep = sr.run_search(sr.SearchInstance(N, marked=1), nl.gross_pitaevskii(g), t1=t1)
            eps = _stable_deficit(N, rep.t1)
            assert rep.t2 == pytest.approx(_gp_t2(g, eps), rel=1e-9, abs=0)
            assert rep.total_time / rep.complexity_budget <= 20.0


@pytest.mark.parametrize("duration", [0.5, 0.0])
def test_integrate_nlse_with_empty_t_eval_records_no_sample(duration):
    tr = sr.integrate_nlse(nl.gross_pitaevskii(1.0), None, None, sr.uniform_state(4), duration,
                           t_eval=np.array([]))
    assert tr.times.shape == (0,) and tr.states.shape == (0, 4)
