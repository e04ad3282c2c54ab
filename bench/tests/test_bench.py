"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q bench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import execute  # noqa: E402
import nlqsim.discrimination  # noqa: E402
import nlqsim.search  # noqa: E402
import oracles  # noqa: E402
import run as bench_run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_metric_with_its_unit(workload, trace):
    out = run_bench(workload, trace)
    assert out.returncode == 0, out.stderr
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert last["attempted"] >= 1 and 0 <= last["failed"] <= last["attempted"]
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in last["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(math.isfinite(v["value"]) for v in last["metrics"].values())


def test_declared_workloads_match_the_generator():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_without_the_program_the_run_fails_without_a_result():
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        out = run_bench("qubit", 0, cwd=bare, script=bare / "bench" / "run.py")
    finally:
        shutil.rmtree(bare)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_planted_wrong_answer_is_counted(monkeypatch):
    tasks = workloads.build("qubit", 3, smoke=True)
    refs = [oracles.reference(t) for t in tasks]
    honest = oracles.verify(tasks, bench_run.run_pass(tasks)[0], refs)
    assert all(ok for ok, _, _ in honest)
    original = nlqsim.discrimination.time_to_overlap

    def off_by_1e4(*args, **kwargs):
        res = original(*args, **kwargs)
        res.t_perp *= 1.0 + 1e-4
        return res

    monkeypatch.setattr(nlqsim.discrimination, "time_to_overlap", off_by_1e4)
    planted = oracles.verify(tasks, bench_run.run_pass(tasks)[0], refs)
    assert [ok for ok, _, _ in planted] == [t.cls not in ("fixed", "reopt") for t in tasks]


def test_planted_wrong_search_time_is_counted(monkeypatch):
    tasks = [t for t in workloads.build("search", 3, smoke=True) if t.cls == "run_search"]
    original = nlqsim.search.time_to_overlap

    def off_by_1e4(*args, **kwargs):
        res = original(*args, **kwargs)
        res.t_perp *= 1.0 + 1e-4
        return res

    monkeypatch.setattr(nlqsim.search, "time_to_overlap", off_by_1e4)
    checks = oracles.verify(tasks, bench_run.run_pass(tasks)[0], [None] * len(tasks))
    assert tasks and not any(ok for ok, _, _ in checks)


def test_inputs_stay_out_of_the_known_miss_regimes():
    qubit = workloads.build("qubit", 4)
    assert all(t.params["alpha0"] >= workloads.PRECISION_ALPHA0
               for t in qubit if t.cls == "fixed")
    assert all(t.params["kind"] == "gp" for t in qubit if t.cls == "reopt")
    for t in workloads.build("search", 4):
        if t.cls == "run_search":
            N, g = t.params["N"], t.params["g"]
            assert workloads.search_alpha0(N, workloads.default_t1(N, g)) >= workloads.PRECISION_ALPHA0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_new_seed_changes_inputs_but_not_task_counts(workload):
    a, b = workloads.build(workload, 1), workloads.build(workload, 2)
    assert Counter(t.cls for t in a) == Counter(t.cls for t in b)
    assert [t.cls for t in a] == [t.cls for t in b]
    assert any(not bench_run.same(x.params, y.params) for x, y in zip(a, b))
    again = workloads.build(workload, 1)
    assert all(bench_run.same(x.params, y.params) for x, y in zip(a, again))
    assert len(a) >= 100


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_passes_agree_and_counts_repeat(workload):
    tasks = workloads.build(workload, 3, smoke=True)
    plain = bench_run.run_pass(tasks)[0]
    tracer = tracing.Tracer()
    counts = []
    for _ in range(2):
        tracer.reset()
        tracer.install()
        try:
            traced, _, scale = bench_run.run_pass(tasks, tracer)
        finally:
            tracer.uninstall()
        assert all(bench_run.same(x, y) for x, y in zip(plain, traced))
        counts.append((tracer.counts.copy(),
                       {k: v["calls"] for k, v in tracer.summary(scale).items()}))
    assert counts[0] == counts[1]
    assert not hasattr(execute.nlqsim.optimizer._build_states, "__wrapped__")
    assert not hasattr(nlqsim.discrimination.time_to_overlap, "__wrapped__")


def test_generator_and_oracles_do_not_import_nlqsim():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import workloads, oracles; "
            "[workloads.build(w, 5) for w in workloads.WORKLOADS]; "
            "assert not any(m.startswith('nlqsim') for m in sys.modules), 'nlqsim imported'")
    out = subprocess.run([sys.executable, "-c", code, str(BENCH)], capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr


def test_quadrature_oracle_matches_the_gp_closed_form():
    g, a0 = 1.3, 2e-5
    quad_t = oracles._quad_log(
        lambda a: 1.0 / (oracles.SQRT2 * float(oracles.kbar("gp", g, math.sin(a / 2) / oracles.SQRT2))),
        a0, math.pi / 2)
    assert quad_t == pytest.approx(oracles.fixed_time("gp", g, a0, 1 / oracles.SQRT2), rel=1e-11)


@pytest.mark.parametrize("c", [0.05, 0.5, 0.95])
def test_brute_force_orientation_finds_the_gp_optimum(c):
    g = 0.8
    assert oracles.best_rate("gp", g, c) == pytest.approx(-(g / 2) * (1 - c * c), rel=1e-12)


def test_kappa_and_kbar_oracles_agree():
    z = np.linspace(-0.99, 0.99, 41)
    for kind in ("gp", "log", "sqrt", "quartic", "odd"):
        via_kappa = (oracles.kappa(kind, 1.7, np.sqrt((1 + z) / 2))
                     - oracles.kappa(kind, 1.7, np.sqrt((1 - z) / 2)))
        np.testing.assert_allclose(via_kappa, oracles.kbar(kind, 1.7, z), rtol=1e-9, atol=1e-12)
