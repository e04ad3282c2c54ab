"""The overlap-law quadrature: the vectorized G10/K21 rule behind
``separation_trace`` and the batched re-optimized orientation grid."""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import minimize
from scipy.special import roots_legendre

from nlqsim import discrimination as dc
from nlqsim import nonlinearity as nl


def _one_rule(f, a, b):
    res, err = dc._gk21(f, np.array([a]), np.array([b]))[:2]
    return float(res[0]), float(err[0])


@pytest.mark.parametrize("k", range(32))
def test_kronrod_rule_integrates_polynomials_to_degree_31_exactly(k):
    a, b = 0.3, 1.7
    got, _ = _one_rule(lambda x: x ** k, a, b)
    assert got == pytest.approx((b ** (k + 1) - a ** (k + 1)) / (k + 1), rel=1e-14)


def test_gauss_nodes_are_the_legendre_roots_and_both_rules_sum_to_two():
    nodes = np.sort(dc.GK21_NODES[1::2])
    roots, weights = roots_legendre(10)
    assert np.max(np.abs(nodes - roots)) <= 1e-15
    assert np.max(np.abs(dc.G10_WEIGHTS[np.argsort(dc.GK21_NODES[1::2])] - weights)) <= 1e-15
    assert dc.GK21_WEIGHTS.sum() == pytest.approx(2.0, abs=1e-15)
    assert dc.G10_WEIGHTS.sum() == pytest.approx(2.0, abs=1e-15)


def test_the_node_polynomial_passes_through_its_values_and_integrates_to_the_k21_sum():
    # dense samples rest on both: a piece's polynomial is its node values,
    # and its integral from x = -1 to 1 is the piece's K21 sum
    fx = np.random.default_rng(3).uniform(0.5, 2.0, (5, 21))
    coef = fx @ dc._TO_LEGENDRE.T
    np.testing.assert_allclose(coef @ dc._legendre(dc.GK21_NODES, 20).T, fx, rtol=1e-13)
    tail = fx @ dc._TO_TAIL.T
    np.testing.assert_allclose(tail @ dc._legendre(np.array([-1.0, 1.0]), 21).T,
                               np.stack([fx @ dc.GK21_WEIGHTS, np.zeros(5)], axis=1),
                               rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("f, a, b", [
    (np.exp, 0.0, 1.0),  # estimate at the 50 eps rounding floor
    (lambda x: 1.0 / (1.0 + x * x), -5.0, 5.0),  # capped by the resasc term
    (np.sqrt, 0.0, 1.0),
], ids=["exp", "lorentzian", "sqrt"])
def test_one_rule_and_its_error_estimate_are_quadpacks_qk21(f, a, b):
    # limit=1 stops QUADPACK after its first 21-point rule
    want, want_err, info = quad(f, a, b, epsabs=0.0, epsrel=0.5, limit=1, full_output=1)[:3]
    assert info["neval"] == 21
    got, err = _one_rule(f, a, b)
    assert got == pytest.approx(want, rel=1e-15)
    assert err == pytest.approx(want_err, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("f, a, b", [
    (np.exp, -3.0, 2.0),
    (lambda x: 1.0 / (1.0 + x * x), -50.0, 50.0),
    (lambda x: np.sqrt(x), 0.0, 1.0),
], ids=["exp", "lorentzian", "sqrt-endpoint"])
def test_adaptive_rule_agrees_with_quadpack(f, a, b):
    want = quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
    assert dc.quad_panels(f, (a, b), 1e-12)[0] == pytest.approx(want, rel=1e-12)


def test_each_level_is_one_call_on_every_open_piece():
    sizes = []

    def f(x):
        sizes.append(x.size)
        return np.sqrt(x)

    dc.quad_panels(f, (0.0, 1.0), 1e-10)
    assert sizes[0] == 21 and len(sizes) > 1
    assert all(n % 21 == 0 and n // 21 <= dc.QUAD_LIMIT for n in sizes)


def test_noisy_integrand_warns_at_the_piece_cap_and_returns_the_estimate():
    pieces = []

    def noisy(x):
        pieces.append(x.size // 21)
        return 1.0 + 1e-9 * np.sin(1e6 * x)

    with pytest.warns(IntegrationWarning) as record:
        got = dc.quad_panels(noisy, (0.0, 1.0), 1e-12)[0]
    assert [w.category for w in record] == [IntegrationWarning]
    assert max(pieces) <= dc.QUAD_LIMIT
    assert got == pytest.approx(1.0, rel=1e-8)


@pytest.mark.parametrize("g", [0.5, 1.0, 3.0])
def test_a_gp_target_run_is_one_integrand_call_that_starts_with_its_start(g, monkeypatch):
    # the gp integrand is constant, so every panel closes on its first rule,
    # and the start check rides that call as its first point
    calls = []
    rate = dc.pair_overlap_rate

    def counting(kbar, c, s, phi, theta):
        calls.append(np.array(c))
        return rate(kbar, c, s, phi, theta)

    monkeypatch.setattr(dc, "pair_overlap_rate", counting)
    alpha0, target = 1e-6, 0.2
    res = dc.time_to_overlap(nl.gross_pitaevskii(g), alpha0, target)
    u0 = math.log(1.0 / math.tan(alpha0 / 4.0))
    assert res.panels == math.ceil(u0 - math.atanh(target))
    assert [c.size for c in calls] == [1 + 21 * res.panels]
    assert calls[0][0] == math.tanh(u0)
    assert res.t_perp == pytest.approx(dc.gp_time_to_overlap(g, alpha0, target), rel=1e-14)


def test_a_gp_duration_run_evaluates_its_start_once_and_no_panel_edge(monkeypatch):
    # one rule a panel, each of one level; only the first carries the start
    sizes = []
    rate = dc.pair_overlap_rate

    def counting(kbar, c, s, phi, theta):
        sizes.append(np.size(c))
        return rate(kbar, c, s, phi, theta)

    monkeypatch.setattr(dc, "pair_overlap_rate", counting)
    res = dc.separation_trace(nl.gross_pitaevskii(1.0), 0.1, duration=7.5)
    assert res.panels == 4
    assert sizes == [1 + 21, 21, 21, 21]


@pytest.mark.parametrize("alpha0, target", [(1e-6, 0.2), (0.5, 0.0), (0.9, 0.5)])
def test_a_reoptimized_gp_target_run_searches_orientations_once_per_level(alpha0, target,
                                                                          monkeypatch):
    # no orientation search on the start alone: the start rides the first level
    shapes = []
    reoptimize = dc.reoptimize_orientation

    def counting(kbar, c, s):
        shapes.append(np.shape(c))
        return reoptimize(kbar, c, s)

    monkeypatch.setattr(dc, "reoptimize_orientation", counting)
    res = dc.time_to_overlap(nl.gross_pitaevskii(1.0), alpha0, target,
                             dc.OrientationPolicy.REOPTIMIZED)
    assert res.reached
    assert shapes == [(1 + 21 * res.panels,)]
    assert res.t_perp == pytest.approx(dc.gp_time_to_overlap(1.0, alpha0, target), rel=1e-12)


@pytest.mark.parametrize("policy", [dc.OrientationPolicy.FIXED_OPTIMAL_GP, (math.pi / 2, 2.0)],
                         ids=["fixed", "held"])
@pytest.mark.parametrize("kind", ["gp", "log", "sqrt", "odd"])
def test_each_panel_of_a_batch_is_the_panel_integrated_alone(kind, policy, monkeypatch):
    batches = []
    quad_panels = dc.quad_panels

    def recording(f, edges, rtol, nodes=False):
        batches.append((f, np.array(edges), rtol, quad_panels(f, edges, rtol, nodes)))
        return batches[-1][-1]

    monkeypatch.setattr(dc, "quad_panels", recording)
    n = nl.gross_pitaevskii(1.3) if kind == "gp" else REDUCTIONS[kind]
    res = dc.time_to_overlap(n, 1e-6, 0.0, orientation_policy=policy)
    assert res.reached and len(batches) == 1
    f, edges, rtol, got = batches[0]
    assert len(got) == res.panels
    for i in range(res.panels):
        alone = dc.quad_panels(f, edges[i:i + 2], rtol)
        assert alone.shape == (1,)
        assert got[i] == pytest.approx(alone[0], rel=1e-14, abs=0.0)


@pytest.mark.parametrize("noisy", [(1,), (0, 2)], ids=["one", "two"])
def test_each_panel_that_reaches_the_cap_warns_once_and_the_others_keep_their_values(noisy):
    edges = np.array([0.0, 1.0, 2.0, 3.0])

    def f(x):
        hit = np.isin(np.floor(x), noisy)
        return np.where(hit, 1.0 + 1e-9 * np.sin(1e6 * x), 1.0 + x * x)

    with pytest.warns(IntegrationWarning) as record:
        got = dc.quad_panels(f, edges, 1e-12)
    assert [str(w.message).split(" did")[0] for w in record] == [
        f"quadrature on [{edges[i]:g}, {edges[i + 1]:g}]" for i in noisy]
    assert all(w.filename == __file__ for w in record)
    for i in range(3):
        if i in noisy:
            assert got[i] == pytest.approx(1.0, rel=1e-8)
        else:
            assert got[i] == dc.quad_panels(f, edges[i:i + 2], 1e-12)[0]
            assert got[i] == pytest.approx((edges[i + 1] ** 3 - edges[i] ** 3) / 3.0 + 1.0,
                                           rel=1e-14)


def test_a_call_takes_at_most_quad_limit_pieces_and_each_panel_keeps_its_value():
    # 450 panels of one piece each: the first level is three calls, not one
    sizes = []

    def f(x):
        sizes.append(x.size)
        return np.exp(np.sin(x))

    edges = np.linspace(0.0, 45.0, 451)
    got = dc.quad_panels(f, edges, 1e-10)
    assert sizes[:3] == [21 * dc.QUAD_LIMIT, 21 * dc.QUAD_LIMIT, 21 * 50]
    assert max(sizes) <= 21 * dc.QUAD_LIMIT
    for i in (0, 199, 200, 449):
        assert got[i] == dc.quad_panels(f, edges[i:i + 2], 1e-10)[0]


def test_an_exception_from_the_integrand_leaves_no_warning_for_a_capped_panel():
    # panel [0, 1] reaches the cap after 8 levels; panel [1, 2] (sqrt at its
    # left end) is still open then, and the next call on it raises
    class Stop(Exception):
        pass

    def f(x):
        if np.all(x > 1.0):
            raise Stop
        return np.where(x < 1.0, 1.0 + 1e-9 * np.sin(1e6 * x), np.sqrt(np.abs(x - 1.0)))

    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        with pytest.raises(Stop):
            dc.quad_panels(f, (0.0, 1.0, 2.0), 1e-12)
        assert record == []
        dc.quad_panels(f, (0.0, 1.0), 1e-12)
    assert [w.category for w in record] == [IntegrationWarning]


# (kind, duration, t_eval, panels, times, overlaps), alpha0 = 0.1, from the
# loop that integrated one panel per rule
DURATION_RUNS = {
    "gp-panel-ends": ("gp:1", 7.5, None, 4, [0.0, 2.0, 4.0, 6.0, 7.5],
                      [0.9987502603949662, 0.9908023240904681, 0.9339777382477625,
                       0.5971276072230584, -0.061252134295698805]),
    "gp-t_eval": ("gp:1", 7.5, np.linspace(0.0, 8.0, 9), 4,
                  [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0],
                  [0.9987502603949662, 0.9966064991514276, 0.9908023240904681,
                   0.975194143065449, 0.9339777382477625, 0.830166267011444,
                   0.5971276072230584, 0.18646381931737907]),
    # dt/du grows along the run, so the unit panels differ in duration
    "sqrt-panel-ends": ("sqrt:1", 5.0, None, 5,
                        [0.0, 0.4874426305333522, 1.2856540615877012, 2.541756687242332,
                         4.177037380768705, 5.0],
                        [0.9987502603949662, 0.9908023240904681, 0.9339777382477625,
                         0.5971276072230584, -0.3016455729184155, -0.687260040291152]),
}


@pytest.mark.parametrize("run", sorted(DURATION_RUNS))
def test_a_duration_run_keeps_the_panels_of_the_panel_by_panel_loop(run):
    kind, duration, t_eval, panels, times, overlaps = DURATION_RUNS[run]
    res = dc.separation_trace(nl.parse(kind), 0.1, duration=duration, t_eval=t_eval)
    assert res.reached and res.t_perp == duration and res.panels == panels
    assert len(res.times) == len(times)
    np.testing.assert_allclose(res.times, times, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(res.overlaps, overlaps, rtol=1e-14, atol=0.0)


def _odd(fn):
    return nl.from_odd_function(lambda z: np.sign(z) * fn(np.abs(np.asarray(z, dtype=float))))


def test_a_duration_run_is_not_stalled_by_a_panel_past_its_end():
    # kbar = 0 below z = 0.1, so the run stalls near c = -0.99, after t = 12,
    # in the panel after the one that holds t = 12
    n = _odd(lambda a: np.maximum(a - 0.1, 0.0))
    alpha0 = 4.0 * math.atan(math.exp(-1.5))
    res = dc.separation_trace(n, alpha0, duration=12.0)
    assert res.reached and res.t_perp == 12.0 and res.panels == 4
    assert res.overlaps[-1] == pytest.approx(-0.9846307331642606, rel=1e-14)
    assert dc.separation_trace(n, alpha0, duration=30.0).status == "no_progress"


def test_a_stalled_run_names_the_first_stall_on_its_way():
    # kbar = 0 for 0.3 < |z| < 0.4: stalls near c = 0.905 and again near c = -0.839
    n = _odd(lambda a: np.where((a > 0.3) & (a < 0.4), 0.0, a))
    res = dc.separation_trace(n, 4.0 * math.atan(math.exp(-3.0)), duration=9.5)
    assert res.status == "no_progress" and res.t_perp == math.inf
    assert "at overlap 0.90514825364486651 " in res.diagnostic


def _dead_zone(alpha0):
    """kbar = 0 up to z* = sin(alpha0/2)/sqrt(2), the pair's start, and
    z - z* past it: the rate vanishes at the start and grows from 0 after."""
    z_star = math.sin(alpha0 / 2.0) / math.sqrt(2.0)
    return nl.from_odd_function(lambda z: np.sign(z) * np.maximum(np.abs(z) - z_star, 0.0))


@pytest.mark.parametrize("run", [{"target_overlap": 0.1}, {"duration": 1.0}],
                         ids=["target", "duration"])
def test_a_run_that_stalls_at_its_start_ends_there(run):
    # t(u) diverges like -ln(u0 - u) at the start: a rule that did not check
    # the start would bisect its first panel to the piece cap and warn
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        res = dc.separation_trace(_dead_zone(1.0), 1.0, **run)
    assert res.status == "no_progress" and res.t_perp == math.inf
    assert "at overlap 0.87758256189037276 " in res.diagnostic
    assert np.array_equal(res.overlaps, [math.cos(0.5)])


def test_a_run_of_duration_zero_takes_no_integrand_call(monkeypatch):
    def refuse(*args):
        raise AssertionError("integrand called")

    monkeypatch.setattr(dc, "pair_overlap_rate", refuse)
    res = dc.separation_trace(_dead_zone(1.0), 1.0, duration=0.0)
    assert res.reached and res.t_perp == 0.0 and res.panels == 0
    assert np.array_equal(res.times, [0.0]) and np.array_equal(res.overlaps, [math.cos(0.5)])


def test_a_rate_of_negative_zero_is_printed_as_zero():
    res = dc.time_to_overlap(nl.gross_pitaevskii(0.0), 0.5, 0.0)
    assert res.status == "no_progress"
    assert res.diagnostic.startswith("separation rate 0.000e+00 at overlap ")


POLICIES = {"fixed": dc.OrientationPolicy.FIXED_OPTIMAL_GP, "held": (math.pi / 2, 2.0),
            "reopt": dc.OrientationPolicy.REOPTIMIZED}


def _kind(kind):
    return nl.gross_pitaevskii(1.3) if kind == "gp" else REDUCTIONS[kind]


def _past_orthogonality(n, alpha0, policy):
    """A duration 1.3 times the time to orthogonality: several panels, some
    of them past c = 0."""
    return 1.3 * dc.time_to_overlap(n, alpha0, 0.0, policy).t_perp


@pytest.mark.parametrize("samples", [31, 301])
@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("kind", ["gp", "log", "sqrt", "odd"])
def test_duration_run_samples_cost_no_integrand_call(kind, policy, samples, monkeypatch):
    n, policy = _kind(kind), POLICIES[policy]
    duration = _past_orthogonality(n, 0.1, policy)
    calls = []
    rate, reoptimize = dc.pair_overlap_rate, dc.reoptimize_orientation

    def counting_rate(kbar, c, s, phi, theta):
        calls.append(("rate", np.size(c)))
        return rate(kbar, c, s, phi, theta)

    def counting_reoptimize(kbar, c, s):
        calls.append(("reopt", np.size(c)))
        return reoptimize(kbar, c, s)

    monkeypatch.setattr(dc, "pair_overlap_rate", counting_rate)
    monkeypatch.setattr(dc, "reoptimize_orientation", counting_reoptimize)
    bare = dc.separation_trace(n, 0.1, policy, duration=duration)
    without, calls[:] = list(calls), []
    res = dc.separation_trace(n, 0.1, policy, duration=duration,
                              t_eval=np.linspace(0.0, duration, samples))
    assert res.reached and bare.reached and res.panels == bare.panels >= 2
    assert len(res.times) == samples
    assert calls == without


def _frozen_quad_panels(f, edges, rtol, nodes=False):
    """The rule before the start check rode its first level, kept as the
    reference: the start check as a call of its own (``separation_trace``'s
    integrand, called on no nodes, evaluates the start alone), then every
    level's full per-panel bookkeeping, also on a level where every piece
    closes."""
    f(np.empty(0))
    edges = np.asarray(edges, dtype=float)
    n = len(edges) - 1
    lo, hi, owner = edges[:-1], edges[1:], np.arange(n)
    out = np.zeros(n)
    closed_err = np.zeros(n)
    closed = np.zeros(n, dtype=np.intp)
    missed = np.zeros(n, dtype=bool)
    pieces = []
    while len(lo):
        if len(lo) <= dc.QUAD_LIMIT:
            res, err, resabs, fx = dc._gk21(f, lo, hi)
        else:
            calls = [dc._gk21(f, lo[i:i + dc.QUAD_LIMIT], hi[i:i + dc.QUAD_LIMIT])
                     for i in range(0, len(lo), dc.QUAD_LIMIT)]
            res, err, resabs, fx = (np.concatenate(parts) for parts in zip(*calls))
        done = err <= rtol * resabs
        total = out + np.bincount(owner, res, n)
        met = closed_err + np.bincount(owner, err, n) <= rtol * np.abs(total)
        pending = np.bincount(owner[~done], minlength=n)
        closed += np.bincount(owner[done], minlength=n)
        capped = ~met & (pending > 0) & (closed + 2 * pending > dc.QUAD_LIMIT)
        stop = met | (pending == 0) | capped
        out = np.where(stop, total, out + np.bincount(owner[done], res[done], n))
        closed_err += np.bincount(owner[done], err[done], n)
        missed |= capped
        keep = ~done & ~stop[owner]
        if nodes:
            pieces.append((lo[~keep], hi[~keep], fx[~keep]))
        if not keep.any():
            break
        lo, hi, owner = lo[keep], hi[keep], owner[keep]
        mid = 0.5 * (lo + hi)
        lo, hi, owner = np.concatenate([lo, mid]), np.concatenate([mid, hi]), np.tile(owner, 2)
    assert not missed.any()
    if nodes:
        return out, tuple(np.concatenate(parts) for parts in zip(*pieces))
    return out


@pytest.mark.parametrize("f, edges", [
    # its last level closes every piece of a panel that closed pieces before
    (lambda x: 1.0 / (1.0 + x * x), (-50.0, 50.0)),
    (lambda x: np.exp(np.sin(5.0 * x)), (0.0, 1.0, 2.0, 3.0)),
    (np.sqrt, (0.0, 1.0)),
    (lambda x: np.abs(x - 1.3) ** 0.3, (0.0, 1.0, 2.0)),
], ids=["lorentzian", "exp-sin", "sqrt", "cusp"])
@pytest.mark.parametrize("rtol", [1e-6, 1e-10])
def test_the_rule_is_the_frozen_rule_bit_for_bit(f, edges, rtol):
    got, got_pieces = dc.quad_panels(f, edges, rtol, nodes=True)
    want, want_pieces = _frozen_quad_panels(f, edges, rtol, nodes=True)
    assert np.array_equal(got, want)
    assert all(np.array_equal(a, b) for a, b in zip(got_pieces, want_pieces))


@pytest.mark.parametrize("run", ["target", "duration", "t_eval"])
@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("kind", ["gp", "log", "sqrt", "odd"])
def test_a_run_is_that_of_the_frozen_rule_bit_for_bit(kind, policy, run, monkeypatch):
    n, policy = _kind(kind), POLICIES[policy]
    if run == "target":
        args = dict(target_overlap=0.2)
    else:
        duration = _past_orthogonality(n, 0.1, policy)
        args = dict(duration=duration)
        if run == "t_eval":
            args["t_eval"] = np.linspace(0.0, duration, 31)
    alpha0 = 1e-3 if run == "target" else 0.1
    got = dc.separation_trace(n, alpha0, policy, **args)
    monkeypatch.setattr(dc, "quad_panels", _frozen_quad_panels)
    want = dc.separation_trace(n, alpha0, policy, **args)
    assert got.reached and want.reached and got.panels == want.panels >= 2
    for name in ("times", "overlaps", "alphas"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.t_perp == want.t_perp


# Closed forms of the reductions of ``_kind``, for references that do not
# call nlqsim's kbar.
CLOSED_KBAR = {
    "gp": lambda z: 1.3 * z,
    "log": lambda z: 1.4 * np.arctanh(z),
    "sqrt": lambda z: 2.0 * np.sign(z) * np.sqrt(np.abs(z)),
    "odd": lambda z: np.sinh(3.0 * z) / 3.0,
}


def _gauss_legendre():
    """Nodes and weights of mpmath's 48-point Gauss-Legendre rule on [-1, 1]."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        rule = mpmath.calculus.quadrature.GaussLegendre(mpmath.mp)
        return np.array(rule.calc_nodes(5, mpmath.mp.prec), dtype=float).T


def _reference_times(kind, policy, alpha0, alphas):
    """Time at which the pair first reaches each of the increasing ``alphas``
    from alpha0: the u-integrand sech^2 / -R with the closed-form kbar,
    integrated by a 48-point Gauss-Legendre rule between consecutive angles."""
    x, w = _gauss_legendre()
    kbar = CLOSED_KBAR[kind]
    u = -np.log(np.tan(np.concatenate(([alpha0], alphas)) / 4.0))
    mid, half = 0.5 * (u[:-1] + u[1:]), 0.5 * (u[:-1] - u[1:])
    v = mid[:, None] + half[:, None] * x
    c, s = np.tanh(v), 1.0 / np.cosh(v)
    if policy is dc.OrientationPolicy.REOPTIMIZED:
        rate = dc.reoptimize_orientation(kbar, c, s)[2]
    else:
        rate = _rate(kbar, c, s, *(dc._held_orientation(policy)))
    return np.cumsum(((s * s / -rate) @ w) * half)


# The re-optimized odd reduction is left out: its optimal orientation leaves
# phi = pi/2 at |u| = 0.669, where the grid's rate is not smooth to rtol and
# no reference quadrature of it converges (see CHANGES.md).
@pytest.mark.parametrize("alpha0", [0.5, 0.1, 1e-3])
@pytest.mark.parametrize("kind, policy", [
    (k, p) for k in ("gp", "log", "sqrt", "odd") for p in sorted(POLICIES)
    if (k, p) != ("odd", "reopt")])
def test_duration_run_samples_are_within_rtol_of_an_independent_quadrature(kind, policy,
                                                                           alpha0):
    n, policy = _kind(kind), POLICIES[policy]
    rtol = 1e-10
    duration = _past_orthogonality(n, alpha0, policy)
    res = dc.separation_trace(n, alpha0, policy, duration=duration, rtol=rtol,
                              t_eval=np.linspace(0.0, duration, 31))
    assert res.reached and len(res.times) == 31
    # the time at which the pair reaches each sampled angle is the sample's time
    want = _reference_times(kind, policy, alpha0, res.alphas[1:])
    np.testing.assert_allclose(want, res.times[1:], rtol=rtol, atol=0.0)
    if kind == "gp" and policy is not POLICIES["held"]:
        np.testing.assert_allclose(res.overlaps, dc.gp_overlap_closed_form(1.3, alpha0, res.times),
                                   rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("kind", ["gp", "log", "sqrt", "odd"])
def test_a_target_run_samples_its_panel_ends_exactly(kind, policy):
    alpha0, target = 1e-3, 0.2
    res = dc.time_to_overlap(_kind(kind), alpha0, target, POLICIES[policy])
    ends = [-math.log(math.tan(alpha0 / 4.0))]
    while ends[-1] > math.atanh(target):
        ends.append(max(ends[-1] - 1.0, math.atanh(target)))
    ends = np.array(ends)
    assert res.reached and res.panels == len(ends) - 1 == len(res.times) - 1
    assert np.array_equal(res.overlaps, np.tanh(ends))
    assert np.array_equal(res.alphas, 4.0 * np.arctan(np.exp(-ends)))


@pytest.mark.parametrize("kind", ["gp:1.3", "log:0.7", "sqrt:2"])
def test_batched_reoptimized_grid_rows_equal_scalar_calls_bit_for_bit(kind):
    kbar = nl.reduce(nl.parse(kind))
    u = np.random.default_rng(5).uniform(-18.0, 18.0, 40)
    c, s = dc._tanh_sech(u)
    phi, theta, rate = dc.reoptimize_orientation(kbar, c, s)
    assert phi.shape == theta.shape == rate.shape == (40,)
    for i in range(40):
        one = dc.reoptimize_orientation(kbar, float(c[i]), float(s[i]))
        assert all(type(x) is float for x in one)
        assert one == (phi[i], theta[i], rate[i])


@dataclass(frozen=True, eq=False)
class _CountingKbar(nl.ReducedNonlinearity):
    """A reduction that records the shape of every evaluation."""

    calls: list = field(default_factory=list)

    def __call__(self, z):
        self.calls.append(np.shape(z))
        return super().__call__(z)


@pytest.mark.parametrize("points, sizes", [
    (1, [1] * 9),
    # 24 of the 40 points are polished after 9 calls; the other 16 have rates
    # that are rounding noise (|u| >~ 10) and narrow to the floor, where one
    # stops a round early on a window of 81 equal rates
    (40, [40] * 9 + [16] * 4 + [15]),
], ids=["1", "40"])
def test_orientation_search_calls_kbar_once_a_round_for_the_points_still_searching(points,
                                                                                  sizes):
    kbar = _CountingKbar(nl.logarithmic(0.7))
    c, s = dc._tanh_sech(np.random.default_rng(2).uniform(-18.0, 18.0, points))
    if points == 1:
        c, s = float(c[0]), float(s[0])
    dc.reoptimize_orientation(kbar, c, s)
    assert kbar.calls == [(2, m, 9, 9) for m in sizes]


@pytest.mark.parametrize("alpha", [0.3, 1.0, 2.8])
@pytest.mark.parametrize("kind", ["gp", "log", "odd"])
def test_a_smooth_rate_is_polished_within_ten_kbar_calls(kind, alpha):
    # 8 narrowing rounds, then one on the window centred on the fitted vertex
    kbar = _CountingKbar(_kind(kind))
    dc.reoptimize_orientation(kbar, math.cos(alpha / 2), math.sin(alpha / 2))
    assert len(kbar.calls) <= 10


def _frozen_search(kbar, c, s):
    """The narrowing grid without the quadratic polish, kept as the
    reference: 14 rounds of the 9 x 9 grid, each window a quarter as wide
    as the last and centred on its best point.  Returns the rates."""
    c, s = np.asarray(c, dtype=float), np.asarray(s, dtype=float)
    shape = c.shape
    c, s = c.reshape(-1, 1, 1), s.reshape(-1, 1, 1)
    rows = np.arange(len(c))
    phi, theta = np.full(len(c), math.pi / 2.0), np.full(len(c), math.pi)
    half_phi, half_theta = math.pi / 2.0, math.pi
    grid = np.linspace(-1.0, 1.0, 9)
    while half_theta > math.sqrt(np.finfo(float).eps):
        phis = np.minimum(np.maximum(phi[:, None] + half_phi * grid, 0.0), math.pi)
        thetas = theta[:, None] + half_theta * grid
        rates = _rate(kbar, c, s, phis[:, :, None], thetas[:, None, :]).reshape(len(c), -1)
        k = np.argmin(rates, axis=1)
        phi, theta, best = phis[rows, k // 9], thetas[rows, k % 9], rates[rows, k]
        half_phi, half_theta = half_phi / 4.0, half_theta / 4.0
    return best.reshape(shape)


_X = np.linspace(0.0, 1.0, 41)
TABLE = nl.piecewise_from_table(_X, 0.8 * _X * _X + 0.3 * np.sin(3.0 * _X))


# Inputs at the edges of the polish, with their kbar calls: quartic's first
# window is flat and ends the search; at u = +-18 log's rates are rounding
# noise, and at alpha = 1e-4 sqrt's kink z+ = 0 lies 0.58 s / c, about 3e-5
# in phi, from the optimum, inside the half-width 1e-4 of the first fitted
# window, so neither fit is trusted and the grid narrows to its floor; the
# PCHIP table, whose curvature jumps at its knots, is polished.
EDGES = {
    "quartic": (nl.quartic_difference(1.0), 0.6, 1),
    "log-u-18": (nl.logarithmic(0.7), -18.0, 14),
    "log-u+18": (nl.logarithmic(0.7), 18.0, 14),
    "sqrt-kink": (nl.square_root_sign(2.0), 1e-4, 14),
    "table": (TABLE, 1.0, 9),
}


@pytest.mark.parametrize("case", sorted(EDGES))
def test_no_orientation_search_takes_more_than_fourteen_kbar_calls(case):
    n, x, calls = EDGES[case]
    c, s = dc._tanh_sech(x) if case.startswith("log") else (math.cos(x / 2), math.sin(x / 2))
    kbar = _CountingKbar(n)
    rate = dc.reoptimize_orientation(kbar, float(c), float(s))[2]
    assert len(kbar.calls) == calls <= 14
    want = float(_frozen_search(nl.reduce(n), c, s))
    assert rate <= want + 1e-13 * abs(want)


@pytest.mark.parametrize("kind", ["gp", "log", "sqrt", "odd", "quartic", "table"])
def test_orientation_search_is_never_worse_than_the_fourteen_round_grid(kind):
    n = {"quartic": nl.quartic_difference(1.0), "table": TABLE}.get(kind) or _kind(kind)
    kbar = nl.reduce(n)
    alphas = np.linspace(1e-3, math.pi, 300, endpoint=False)
    c, s = dc._tanh_sech(np.array([-14.0, -8.0, -2.0, 2.0, 8.0, 14.0]))
    c, s = np.concatenate([np.cos(alphas / 2), c]), np.concatenate([np.sin(alphas / 2), s])
    want = _frozen_search(kbar, c, s)
    got = dc.reoptimize_orientation(kbar, c, s)[2]
    assert np.all(got <= want + 1e-13 * np.abs(want))
    for i in range(len(c)):
        assert dc.reoptimize_orientation(kbar, float(c[i]), float(s[i]))[2] == got[i]


REDUCTIONS = {
    "log": nl.logarithmic(0.7),
    "sqrt": nl.square_root_sign(2.0),
    "odd": nl.from_odd_function(lambda z: np.sinh(3.0 * np.asarray(z, dtype=float)) / 3.0),
}
# Overlaps as (c, s): three angles alpha, then u = atanh(c) on both sides of 0.
OVERLAPS = ([(math.cos(a / 2), math.sin(a / 2)) for a in (0.3, 1.0, 2.8)]
            + [tuple(float(x) for x in dc._tanh_sech(u)) for u in (-8.0, -2.0, 2.0, 8.0)])
OVERLAP_IDS = ["a0.3", "a1.0", "a2.8", "u-8", "u-2", "u2", "u8"]
_PHI, _THETA = np.meshgrid(np.linspace(0.0, math.pi, 129),
                           np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False),
                           indexing="ij")


def _rate(kbar, c, s, phi, theta):
    sp, cp = np.sin(phi), np.cos(phi)
    st, ct = np.sin(theta), np.cos(theta)
    return 0.5 * s * sp * st * (kbar(c * cp + s * sp * ct) - kbar(c * cp - s * sp * ct))


def _polished_best_rate(kbar, c, s):
    """Best cell of a 129 x 256 grid, polished by Nelder-Mead."""
    rates = _rate(kbar, c, s, _PHI, _THETA)
    i = np.unravel_index(np.argmin(rates), rates.shape)
    res = minimize(lambda x: float(_rate(kbar, c, s, x[0], x[1])),
                   np.array([_PHI[i], _THETA[i]]), method="Nelder-Mead",
                   options={"xatol": 1e-9, "fatol": 1e-15, "maxiter": 4000})
    return min(float(res.fun), float(rates[i]))


@pytest.mark.parametrize("c,s", OVERLAPS, ids=OVERLAP_IDS)
def test_orientation_search_reaches_the_quadratic_optimum(c, s):
    g = 1.3
    rate = dc.reoptimize_orientation(nl.reduce(nl.gross_pitaevskii(g)), c, s)[2]
    assert rate == pytest.approx(-(g / 2) * s * s, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("c,s", OVERLAPS, ids=OVERLAP_IDS)
@pytest.mark.parametrize("kind", sorted(REDUCTIONS))
def test_orientation_search_matches_a_polished_dense_grid(kind, c, s):
    kbar = nl.reduce(REDUCTIONS[kind])
    rate = dc.reoptimize_orientation(kbar, c, s)[2]
    assert rate == pytest.approx(_polished_best_rate(kbar, c, s), rel=1e-13, abs=0.0)
