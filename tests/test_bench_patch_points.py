"""The benchmark's tracer wraps nlqsim entry points by name; a rename in
``src/`` must fail here rather than only in the slower benchmark suite."""

import dataclasses
import importlib.util
import inspect
from pathlib import Path

import numpy as np

import nlqsim
import nlqsim._ode
import nlqsim.blochdyn
import nlqsim.bounds
import nlqsim.discrimination
import nlqsim.nonlinearity
import nlqsim.optimizer
import nlqsim.search

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
OWNERS = (nlqsim._ode, nlqsim.blochdyn, nlqsim.bounds, nlqsim.discrimination,
          nlqsim.optimizer, nlqsim.search, nlqsim.nonlinearity.Nonlinearity,
          nlqsim.nonlinearity.ReducedNonlinearity)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_and_uninstall_restore_every_patch_point():
    tracing = _load_tracing()
    before = {owner: dict(vars(owner)) for owner in OWNERS}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = [(owner, attr) for owner, attr, _ in tracer._undo]
        assert patched
        for owner, attr in patched:
            assert vars(owner)[attr] is not before[owner][attr]
    finally:
        tracer.uninstall()
    for owner in OWNERS:
        after = vars(owner)
        for attr, value in before[owner].items():
            assert after[attr] is value, f"{owner.__name__}.{attr} not restored"
    # argument names the tracer's counters bind by name
    assert "y0" in inspect.signature(nlqsim._ode.solve).parameters
    assert "N" in inspect.signature(nlqsim.search.lower_bound_audit).parameters
    assert "max_sweeps" in inspect.signature(
        nlqsim.optimizer.optimize_orientation).parameters
    # result fields the optimizer counters read
    fields = {f.name for f in dataclasses.fields(nlqsim.optimizer.OptimizationResult)}
    assert "converged_sweeps" in fields


def test_optimizer_calls_its_patch_points_through_the_module(monkeypatch):
    # the orient workload counts rows through these two names; an optimizer
    # that bound them early, or stopped calling them, would read 0
    op = nlqsim.optimizer
    rows = {"_build_states": 0, "_batch_rates": 0}

    def counting(name):
        inner = getattr(op, name)

        def wrapper(*args, **kwargs):
            out = inner(*args, **kwargs)
            rows[name] += len(out)
            return out
        return wrapper

    for name in rows:
        monkeypatch.setattr(op, name, counting(name))
    res = op.optimize_orientation(nlqsim.nonlinearity.logarithmic(1.0), 0.6, 3,
                                  restarts=3, seed=1)
    assert res.converged_sweeps > 0
    assert rows["_build_states"] >= res.converged_sweeps + 3
    assert rows["_batch_rates"] >= 3


def test_a_qubit_optimization_calls_the_grid_search_through_the_module_once(monkeypatch):
    # the orient workload's discrimination.reopt_calls and reopt_s count the
    # d = 2 runs through this name; an optimizer that bound it early, or
    # searched twice, would miscount them
    dc, calls = nlqsim.discrimination, []
    inner = dc.reoptimize_orientation
    monkeypatch.setattr(dc, "reoptimize_orientation",
                        lambda *args: calls.append(args) or inner(*args))
    res = nlqsim.optimizer.optimize_orientation(nlqsim.nonlinearity.logarithmic(1.0), 0.6, 2)
    assert len(calls) == 1
    assert res.angles == inner(*calls[0])[:2]


def test_trace_fields_the_benchmark_reads():
    # bench/execute.py reads times, states, overlaps, failed and
    # failure_reason from integrate and integrate_nlse; the tracer reads
    # stats.accepted and stats.rejected from solve
    SimTrace = nlqsim._ode.SimTrace
    assert nlqsim.SimTrace is SimTrace
    assert tuple(f.name for f in dataclasses.fields(SimTrace)) == (
        "times", "states", "stats", "overlaps", "failed", "failure_reason")
    gp = nlqsim.nonlinearity.gross_pitaevskii(1.0)
    pair = np.stack(nlqsim.blochdyn.pair_to_bloch(nlqsim.blochdyn.optimal_pair(0.5)))
    psi0 = nlqsim.search.uniform_state(3)
    driven = nlqsim.search.Schedule((0, 1), np.array([[0.0, 0.5], [0.5, 0.0]]), 1.0)
    kbar = nlqsim.nonlinearity.reduce(gp)
    traces = [
        nlqsim._ode.solve(lambda t, y: 1j * y, 0.0, 1.0, np.array([1.0 + 0j])),
        nlqsim.blochdyn.integrate(kbar, nlqsim.blochdyn.x_drive(0.5), pair, 0.5),
        nlqsim.search.integrate_nlse(gp, driven, 1, psi0, 0.5),
    ]
    for tr in traces:
        assert type(tr) is SimTrace
        assert tr.stats.accepted > 0 and tr.stats.rejected >= 0
        assert len(tr.times) == len(tr.states) and not tr.failed
    assert traces[1].overlaps.shape == traces[1].times.shape
    # the benchmark's nlse tasks run without H, and an undriven Bloch run is
    # its closed form too: the same record, taking no step
    for free in (nlqsim.search.integrate_nlse(gp, None, 1, psi0, 0.5),
                 nlqsim.blochdyn.integrate(kbar, None, pair, 0.5)):
        assert type(free) is SimTrace and not free.failed
        assert free.stats.accepted == free.stats.rejected == 0
        assert len(free.times) == len(free.states) == 2 and free.times[-1] == 0.5
    # the quadrature's results are not ODE traces, and carry no drive
    assert not hasattr(nlqsim.discrimination, "_ode")
    fields = {f.name for f in dataclasses.fields(nlqsim.discrimination.DiscriminationResult)}
    assert "control" not in fields


def test_growth_trace_calls_the_quadrature_through_the_bounds_module(monkeypatch):
    # the tracer counts growth runs by patching bounds.separation_trace; a
    # growth_trace that bound it early, or integrated on its own, would read 0
    bn = nlqsim.bounds
    inner, calls = bn.separation_trace, []

    def counting(*args, **kwargs):
        calls.append(kwargs["policy"])
        return inner(*args, **kwargs)

    monkeypatch.setattr(bn, "separation_trace", counting)
    kbar = nlqsim.nonlinearity.reduce(nlqsim.nonlinearity.logarithmic(1.0))
    cert = bn.certify_growth(kbar, 0.3, 0.2)
    ts, alphas = bn.growth_trace(kbar, cert, 1e-2, 0.255)
    assert calls == [(cert.phi, cert.theta)]
    assert alphas[-1] == 0.255 and ts[-1] > 0.0


def test_schedule_fields_and_the_audit_call_the_benchmark_makes():
    # bench/execute.py hands search_schedule(...) straight to lower_bound_audit
    se = nlqsim.search
    assert tuple(f.name for f in dataclasses.fields(se.Schedule)) == (
        "support", "generator", "omega", "t_on")
    N, g = 16, 1.0
    t1 = se.default_t1(N, g)
    H = se.search_schedule(N, g, t1)
    assert H.support == (0, 1) and H.generator.shape == (2, 2)
    audit = se.lower_bound_audit(nlqsim.nonlinearity.gross_pitaevskii(g), H, N, t1 + 2.0)
    assert audit.N == N and audit.bound_ok and audit.step_stats.accepted > 0


def test_both_nlse_entry_points_reach_the_solver_through_the_ode_module(monkeypatch):
    # the tracer's ode.* counters patch nlqsim._ode.solve; an entry point that
    # bound it early, or stepped on its own, would drop out of those counts
    inner, shapes = nlqsim._ode.solve, []
    signature = inspect.signature(inner)

    def recording(*args, **kwargs):
        shapes.append(np.shape(signature.bind(*args, **kwargs).arguments["y0"]))
        return inner(*args, **kwargs)

    monkeypatch.setattr(nlqsim._ode, "solve", recording)
    se, gp = nlqsim.search, nlqsim.nonlinearity.gross_pitaevskii(1.0)
    N = 16
    t1 = se.default_t1(N, 1.0)
    H = se.search_schedule(N, 1.0, t1)
    # past the switch at t1, since a run that ends before it takes no step
    tr = se.integrate_nlse(gp, H, 3, se.uniform_state(N), t1 + 1.0)
    assert shapes == [(N,)] and tr.states.shape[1:] == (N,)
    audit = se.lower_bound_audit(gp, H, N, t1 + 1.0)
    # |s> unmarked plus three marked rows, each on four amplitude classes:
    # the two support coordinates, one marked coordinate j and the rest
    assert shapes == [(N,), (4, 4)] and audit.step_stats.accepted > 0
