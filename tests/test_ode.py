import inspect

import numpy as np
import pytest

from nlqsim import _ode


def test_fsal_stage_reused_twelve_rhs_calls_per_attempted_step():
    calls = []

    def f(t, y):
        calls.append(t)
        return 1j * y

    res = _ode.solve(f, 0.0, 10.0, np.array([1.0 + 0j]), rtol=1e-10, atol=1e-12)
    assert abs(res.states[-1, 0] - np.exp(10j)) <= 1e-9
    attempted = res.stats.accepted + res.stats.rejected
    # f(t0, y0) and one probe in the starting-step heuristic, then the twelve
    # new stages of each DOP853 step: an accepted step's last stage is the
    # next step's first (FSAL), with no call at the projected state.
    assert len(calls) == 2 + 12 * attempted


def test_a_step_holding_samples_costs_three_more_calls_and_one_without_none():
    calls = []

    def f(t, y):
        calls.append(t)
        return -1j * np.array([0.5, 2.0 + np.sin(t)]) * y

    y0 = np.array([0.6 + 0j, 0.8j])
    free = _ode.solve(f, 0.0, 3.0, y0)
    free_calls, steps = len(calls), free.times
    assert len(steps) >= 7
    # two samples inside step 2, one inside step 5, and the step ends t0, t3, t1
    t_eval = np.sort(np.concatenate((
        steps[[0, 3, -1]], steps[1] + [0.3, 0.6] * np.diff(steps[1:3]),
        [steps[4] + 0.5 * (steps[5] - steps[4])])))
    calls.clear()
    sampled = _ode.solve(f, 0.0, 3.0, y0, t_eval=t_eval)
    assert sampled.stats == free.stats
    # the continuous extension's three extra stages, on the two steps holding
    # a sample inside them and on no other
    assert len(calls) == free_calls + 3 * 2
    assert np.array_equal(sampled.states[[0, 3, -1]], free.states[[0, 3, -1]])


def test_dop853_tableau_is_consistent():
    # a mistyped literal breaks one of these identities
    for i in range(1, 16):  # each stage at the time its row's weights sum to
        assert abs(_ode._A[i, :i].sum() - _ode._C[i]) <= 1e-15
    assert np.array_equal(_ode._B, _ode._A[12])
    for k in range(8):  # the 8th-order quadrature conditions
        assert abs(_ode._B @ _ode._C ** k - 1.0 / (k + 1)) <= 1e-15
    for e in (_ode._E5, _ode._E3):  # error estimates vanish on constant slopes
        assert abs(e.sum()) <= 1e-15
    # the continuous extension is y_old at s = 0 and y_new = y_old + h B K at s = 1
    weights = _ode._dense_basis([0.0, 1.0]) @ _ode._DENSE
    assert not weights[0].any()
    assert np.array_equal(weights[1], _ode._B)
    # and integrates slopes t^k exactly for k = 0...6 in between: its 7th order,
    # which the endpoints do not see, as _D's basis terms vanish there
    s = np.array([0.1, 0.25, 0.5, 0.75, 0.9])
    weights = _ode._dense_basis(s) @ _ode._DENSE
    for k in range(7):
        assert np.max(np.abs(weights @ _ode._C ** k - s ** (k + 1) / (k + 1))) <= 1e-14


def _two_rates(t, y):
    return -1j * np.array([0.5, 2.0 + np.sin(t)]) * y


def test_unwritten_extension_stages_do_not_reach_the_error_estimate(monkeypatch):
    # The stage buffer's rows 13-15 are written only on a step holding a
    # sample; before that they are whatever the allocation held.  Fill them
    # with NaN: a run without samples must take exactly the steps it takes.
    y0 = np.array([0.6 + 0j, 0.8j])
    free = _ode.solve(_two_rates, 0.0, 3.0, y0)

    class NanEmpty:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def empty(shape, dtype=float):
            return np.full(shape, np.nan, dtype=dtype)

    monkeypatch.setattr(_ode, "np", NanEmpty())
    res = _ode.solve(_two_rates, 0.0, 3.0, y0)
    assert not res.failed
    assert res.stats == free.stats
    assert np.array_equal(res.states, free.states)


def test_a_non_finite_extension_stage_does_not_reach_later_steps():
    # NaN from the continuous extension's extra stages on step 1 stays in
    # the stage buffer; the steps after it, which hold no sample, must not
    # see it in their accept/reject decisions.
    y0 = np.array([0.6 + 0j, 0.8j])
    free = _ode.solve(_two_rates, 0.0, 3.0, y0)
    steps = free.times
    assert len(steps) >= 5
    h = steps[2] - steps[1]
    extension_times = steps[1] + _ode._C[13:] * h

    def f(t, y):
        if np.any(np.abs(t - extension_times) <= 1e-12 * h):
            return np.full(y.shape, np.nan + 0j)
        return _two_rates(t, y)

    t_eval = np.concatenate(([steps[1] + 0.5 * h], steps[2:]))
    with np.errstate(invalid="ignore"):  # the sample inside step 1 is NaN
        res = _ode.solve(f, 0.0, 3.0, y0, t_eval=t_eval)
    assert np.isnan(res.states[0]).all()  # the extension's stages were the NaN ones
    assert not res.failed
    assert res.stats == free.stats
    assert np.array_equal(res.states[1:], free.states[2:])


def test_solve_takes_exactly_the_documented_parameters():
    params = list(inspect.signature(_ode.solve).parameters)
    assert params == ["f", "t0", "t1", "y0", "rtol", "atol", "t_eval"]


def test_rows_are_projected_to_unit_norm_and_drift_is_recorded():
    # two rows rotating at different rates; each keeps unit norm
    rates = np.array([[1.0], [3.0]])
    y0 = np.array([[1.0 + 0j, 0.0], [0.6, 0.8j]])
    res = _ode.solve(lambda t, y: 1j * rates * y, 0.0, 5.0, y0, rtol=1e-8, atol=1e-10)
    assert res.states.shape[1:] == (2, 2)
    assert np.max(np.abs(np.linalg.norm(res.states, axis=-1) - 1.0)) <= 4e-16
    assert 0.0 < res.stats.max_norm_drift <= 1e-8
    assert np.max(np.abs(res.states[-1] - np.exp(5j * rates) * y0)) <= 1e-6


def test_unusable_tolerances_are_refused_before_the_first_rhs_call():
    import pytest

    def f(t, y):
        raise AssertionError("rhs called")

    for rtol, atol in ((float("nan"), 1e-12), (1e-10, float("nan")), (0.0, 1e-12),
                       (1e-10, -1.0), (float("inf"), 1e-12)):
        with pytest.raises(ValueError, match="tol"):
            _ode.solve(f, 0.0, 1.0, np.array([1.0]), rtol=rtol, atol=atol)


@pytest.mark.parametrize("t0, t1", [
    (0.0, float("inf")), (0.0, float("nan")), (float("-inf"), 1.0), (float("nan"), 1.0),
], ids=["t1_inf", "t1_nan", "t0_inf", "t0_nan"])
def test_an_interval_that_is_not_finite_is_refused_before_the_first_rhs_call(t0, t1):
    # t1 = inf never returned; t1 = nan returned one sample, not failed
    def f(t, y):
        raise AssertionError("rhs called")

    with pytest.raises(ValueError, match="t0|t1"):
        _ode.solve(f, t0, t1, np.array([1.0 + 0j]))


@pytest.mark.parametrize("t0, t1", [(1.0, 0.5), (0.0, -1e-300)], ids=["half", "tiny"])
def test_a_backward_interval_is_refused_before_the_first_rhs_call(t0, t1):
    # it returned the start, not failed, as if the interval were empty
    def f(t, y):
        raise AssertionError("rhs called")

    with pytest.raises(ValueError, match=f"t0 <= t1, got t0={t0!r} and t1={t1!r}"):
        _ode.solve(f, t0, t1, np.array([1.0 + 0j]))


def test_a_zero_length_interval_records_the_start_and_takes_no_step():
    def f(t, y):
        raise AssertionError("rhs called")

    res = _ode.solve(f, 0.5, 0.5, np.array([0.6 + 0j, 0.8j]))
    assert res.times.tolist() == [0.5] and res.states.tolist() == [[0.6 + 0j, 0.8j]]
    assert res.stats.accepted == res.stats.rejected == 0 and not res.failed


@pytest.mark.parametrize("t_eval", [
    [0.0, 0.7, 0.3, 1.0], [-0.5, 0.5], [0.0, 0.5, 2.0], [0.2, float("nan"), 1.0],
], ids=["unordered", "before_t0", "beyond_t1", "nan"])
def test_malformed_t_eval_is_refused_before_the_first_rhs_call(t_eval):
    def f(t, y):
        raise AssertionError("rhs called")

    with pytest.raises(ValueError, match="t_eval"):
        _ode.solve(f, 0.0, 1.0, np.array([1.0 + 0j]), t_eval=np.array(t_eval))


@pytest.mark.parametrize("t1", [1.0, 0.0, -1.0], ids=["forward", "zero_length", "backward"])
@pytest.mark.parametrize("y0", [np.array([1.0 + 0j]), np.eye(3)[:2]], ids=["vector", "stack"])
def test_empty_t_eval_records_no_sample_over_any_interval(t1, y0):
    if t1 < 0.0:  # a backward interval is refused, naming both ends
        with pytest.raises(ValueError, match=r"t0 <= t1, got t0=0.0 and t1=-1.0"):
            _ode.solve(lambda t, y: 1j * y, 0.0, t1, y0, t_eval=np.array([]))
        return
    res = _ode.solve(lambda t, y: 1j * y, 0.0, t1, y0, t_eval=np.array([]))
    assert res.times.shape == (0,)
    assert res.states.shape == (0,) + y0.shape
    assert not res.failed


def test_real_states_under_a_real_flow_stay_real():
    # a rotation in the plane: (cos t, sin t)
    gen = np.array([[0.0, -1.0], [1.0, 0.0]])
    res = _ode.solve(lambda t, y: gen @ y, 0.0, 2.0, np.array([1.0, 0.0]),
                     rtol=1e-10, atol=1e-12)
    assert res.states.dtype == np.float64
    assert np.max(np.abs(res.states[-1] - [np.cos(2.0), np.sin(2.0)])) <= 1e-8


@pytest.mark.parametrize("y0, rates", [
    (np.array([0.6 + 0j, 0.8j]), np.array([1.0, 1.0])),
    (np.array([[1.0 + 0j, 0.0], [0.6, 0.8j]]), np.array([[1.0], [3.0]])),
], ids=["vector", "rows"])
def test_an_rhs_that_reuses_its_output_array_is_copied_per_stage(y0, rates):
    out = np.empty_like(y0)

    def f(t, y):
        np.multiply(1j * rates, y, out=out)
        return out

    res = _ode.solve(f, 0.0, 4.0, y0, rtol=1e-10, atol=1e-12)
    assert np.max(np.abs(res.states[-1] - np.exp(4j * rates) * y0)) <= 1e-8


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_an_rhs_that_is_not_finite_at_t0_fails_at_once(bad):
    # a NaN rhs used to give a NaN starting step that no rejection could shrink
    calls = []

    def f(t, y):
        calls.append(t)
        return np.full_like(y, bad)

    res = _ode.solve(f, 0.0, 1.0, np.array([1.0 + 0j]))
    assert res.failed and "not finite at t0=0" in res.failure_reason
    assert calls == [0.0]
    assert res.times.tolist() == [0.0] and res.states.tolist() == [[1.0 + 0j]]


@pytest.mark.parametrize("rtol", [1e-10, 1e-8])
def test_interpolated_samples_of_a_rotation_match_its_closed_form(rtol):
    # samples fall inside steps and come from the step's continuous
    # extension; they are as accurate as rtol asks and projected to unit norm
    w = np.array([0.3, 1.0, 2.7])
    y0 = np.ones(3, dtype=complex) / np.sqrt(3.0)
    t_eval = np.linspace(0.0, 2.0, 101)
    res = _ode.solve(lambda t, y: -1j * w * y, 0.0, 2.0, y0, rtol=rtol, t_eval=t_eval)
    assert np.array_equal(res.times, t_eval)
    assert np.max(np.abs(res.states - np.exp(-1j * np.outer(t_eval, w)) * y0)) <= 2 * rtol
    assert np.max(np.abs(np.linalg.norm(res.states, axis=-1) - 1.0)) <= 1e-14


def test_a_sample_at_t1_is_the_state_a_run_without_samples_ends_on():
    def f(t, y):
        return -1j * np.array([0.5, 2.0 + np.sin(t)]) * y

    y0 = np.array([0.6 + 0j, 0.8j])
    free = _ode.solve(f, 0.0, 3.0, y0)
    sampled = _ode.solve(f, 0.0, 3.0, y0, t_eval=np.array([0.0, 1.234, 3.0]))
    assert np.array_equal(sampled.states[-1], free.states[-1])
    assert sampled.stats == free.stats  # samples do not end steps
