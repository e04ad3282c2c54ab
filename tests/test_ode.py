import numpy as np

from nlqsim import _ode


def test_fsal_stage_reused_six_rhs_calls_per_attempted_step():
    calls = []

    def f(t, y):
        calls.append(t)
        return -y

    res = _ode.solve(f, 0.0, 10.0, np.array([1.0]), rtol=1e-10, atol=1e-12)
    assert abs(res.ys[-1, 0] - np.exp(-10.0)) <= 1e-9
    attempted = res.stats.accepted + res.stats.rejected
    # f(t0, y0) and one probe in the starting-step heuristic, then the six
    # new stages of each Dormand-Prince step.
    assert len(calls) == 2 + 6 * attempted
