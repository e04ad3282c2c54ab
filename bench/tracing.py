"""Outside-in tracing of nlqsim's layers.

``Tracer.install`` replaces each layer entry point with a wrapper at the
place the name is looked up (a module attribute or a class attribute), so
``src/`` is not edited.  A wrapper records one span (name, start, end,
parent, task id) and the counts of work at that boundary.  Spans live in
flat arrays in memory; self times come from the span tree once a pass ends,
and ``save`` writes the spans out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

import nlqsim._ode
import nlqsim.blochdyn
import nlqsim.bounds
import nlqsim.discrimination
import nlqsim.nonlinearity
import nlqsim.optimizer
import nlqsim.search

# Span name -> layer.  Each layer's self time is the sum over its spans.
LAYER_OF = {
    "nonlinearity.kappa": "nonlinearity", "nonlinearity.kbar": "nonlinearity",
    "ode.solve": "ode", "ode.rhs": "ode.rhs",
    "blochdyn.integrate": "blochdyn",
    "discrimination.time_to_overlap": "discrimination",
    "discrimination.separation_trace": "discrimination",
    "discrimination.reoptimize_orientation": "discrimination",
    "bounds.certify_growth": "bounds", "bounds.estimate_lipschitz": "bounds",
    "bounds.growth_trace": "bounds", "bounds.check_lipschitz_separation_bound": "bounds",
    "search.run_search": "search", "search.integrate_nlse": "search",
    "search.lower_bound_audit": "search", "search.search_schedule": "search",
    "optimizer.optimize_orientation": "optimizer", "optimizer._build_states": "optimizer",
    "optimizer._batch_rates": "optimizer",
}

_SOLVE_SIG = inspect.signature(nlqsim._ode.solve)
_AUDIT_SIG = inspect.signature(nlqsim.search.lower_bound_audit)
_OPT_SIG = inspect.signature(nlqsim.optimizer.optimize_orientation)


class Tracer:
    """Span recorder for one traced pass (call ``reset`` between passes)."""

    def __init__(self):
        self.names = ["task"]
        self._ids = {"task": 0}
        self._undo = []
        self.reset()

    def reset(self):
        self.name, self.parent, self.task = array("i"), array("i"), array("i")
        self.start, self.end = array("d"), array("d")
        self.stack = [-1]
        self.task_id = -1
        self.counts = Counter()

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, count=None):
        """``fn`` recording a span called ``name``; ``count(counts, args,
        kwargs, result)`` adds the work done by the call."""
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(self.stack[-1])
            self.task.append(self.task_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self.stack.append(i)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self.stack.pop()
                self.start[i], self.end[i] = t0, t1
            if count is not None:
                count(self.counts, args, kwargs, out)
            return out

        return traced

    def span(self, task_id, fn, *args):
        """Run ``fn(*args)`` as the root span of task ``task_id``."""
        self.task_id = task_id
        try:
            return self.wrap("task", fn)(*args)
        finally:
            self.task_id = -1

    def _patch(self, owner, attr, name, count=None, wrapper=None):
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, orig))
        setattr(owner, attr, self.wrap(name, wrapper(orig) if wrapper else orig, count))

    def install(self):
        """Wrap every layer entry point where its callers look it up."""
        nl, dc, bd = nlqsim.nonlinearity, nlqsim.discrimination, nlqsim.bounds
        se, op = nlqsim.search, nlqsim.optimizer
        self._patch(nl.Nonlinearity, "kappa", "nonlinearity.kappa", _count_elems("kappa_elems"))
        self._patch(nl.ReducedNonlinearity, "__call__", "nonlinearity.kbar",
                    _count_elems("kbar_elems"))
        self._patch(nlqsim._ode, "solve", "ode.solve", _count_solve, self._solve_wrapper)
        self._patch(nlqsim.blochdyn, "integrate", "blochdyn.integrate")
        self._patch(dc, "time_to_overlap", "discrimination.time_to_overlap")
        self._patch(dc, "reoptimize_orientation", "discrimination.reoptimize_orientation")
        self._patch(se, "time_to_overlap", "discrimination.time_to_overlap")
        self._patch(bd, "separation_trace", "discrimination.separation_trace")
        for attr in ("certify_growth", "estimate_lipschitz", "growth_trace",
                     "check_lipschitz_separation_bound"):
            self._patch(bd, attr, f"bounds.{attr}")
        for attr in ("run_search", "integrate_nlse", "search_schedule"):
            self._patch(se, attr, f"search.{attr}")
        self._patch(se, "lower_bound_audit", "search.lower_bound_audit", _count_audit)
        self._patch(op, "optimize_orientation", "optimizer.optimize_orientation",
                    _count_optimize)
        self._patch(op, "_build_states", "optimizer._build_states", _count_rows("trial_states"))
        self._patch(op, "_batch_rates", "optimizer._batch_rates", _count_rows("rate_evals", 1))

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def _solve_wrapper(self, solve):
        rhs_name = "ode.rhs"

        @functools.wraps(solve)
        def solve_with_traced_rhs(f, *args, **kwargs):
            return solve(self.wrap(rhs_name, f), *args, **kwargs)

        return solve_with_traced_rhs

    def spans(self):
        """The recorded spans as numpy arrays (start/end in perf_counter s)."""
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "task": np.frombuffer(self.task, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def summary(self, task_scale):
        """Per span name: calls, inclusive seconds and self seconds, where a
        span's self time is its duration minus that of its direct children.
        Each span's seconds are multiplied by ``task_scale[task id]`` (the
        reference-second factors of ``speed.factors``)."""
        s = self.spans()
        dur = (s["end"] - s["start"]) * np.asarray(task_scale)[s["task"]]
        has_parent = s["parent"] >= 0
        child = np.bincount(s["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_t = dur - child
        k = len(self.names)
        return {name: {"calls": int(c), "incl_s": float(i), "self_s": float(x)}
                for name, c, i, x in zip(
                    self.names,
                    np.bincount(s["name"], minlength=k),
                    np.bincount(s["name"], weights=dur, minlength=k),
                    np.bincount(s["name"], weights=self_t, minlength=k))}

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.spans())


def _count_elems(key):
    def count(counts, args, kwargs, out):
        counts[key] += int(np.size(args[1]))
    return count


def _count_rows(key, pos=0):
    def count(counts, args, kwargs, out):
        counts[key] += int(np.shape(args[pos])[0])
    return count


def _count_solve(counts, args, kwargs, out):
    y0 = np.asarray(_SOLVE_SIG.bind(*args, **kwargs).arguments["y0"])
    counts["state_bytes_max"] = max(counts["state_bytes_max"], y0.nbytes)
    counts["steps_accepted"] += out.stats.accepted
    counts["steps_rejected"] += out.stats.rejected


def _count_audit(counts, args, kwargs, out):
    N = _AUDIT_SIG.bind(*args, **kwargs).arguments["N"]
    counts["audit_state_elems"] += (N + 1) * N


def _count_optimize(counts, args, kwargs, out):
    bound = _OPT_SIG.bind(*args, **kwargs)
    bound.apply_defaults()
    counts["sweeps"] += out.converged_sweeps
    counts["capped"] += int(out.converged_sweeps >= bound.arguments["max_sweeps"])


def layer_metrics(c, sm, tasks, results, checks):
    """Per-layer metrics of one traced pass from its boundary counts ``c``,
    its span summary ``sm`` (``Tracer.summary``) and the oracle checks."""

    def calls(name):
        return sm.get(name, {}).get("calls", 0)

    def incl(name):
        return sm.get(name, {}).get("incl_s", 0.0)

    def self_s(layer):
        return sum(v["self_s"] for n, v in sm.items() if LAYER_OF.get(n) == layer)

    steps = c["steps_accepted"] + c["steps_rejected"]
    solves = calls("ode.solve")
    opt_calls = calls("optimizer.optimize_orientation")

    def err_max(classes):
        errs = [err for t, (_, err, _) in zip(tasks, checks)
                if t.cls in classes and err is not None]
        return max(errs, default=0.0)

    search_raised = sum(1 for t, r in zip(tasks, results)
                        if t.cls in ("run_search", "nlse", "audit") and r["status"] == "raised")
    return {
        "nonlinearity.kappa_calls": calls("nonlinearity.kappa"),
        "nonlinearity.kappa_elems": c["kappa_elems"],
        "nonlinearity.kappa_self_s": sm.get("nonlinearity.kappa", {}).get("self_s", 0.0),
        "nonlinearity.kbar_calls": calls("nonlinearity.kbar"),
        "nonlinearity.kbar_elems": c["kbar_elems"],
        "nonlinearity.kbar_self_s": sm.get("nonlinearity.kbar", {}).get("self_s", 0.0),
        "ode.solves": solves,
        "ode.rhs_evals": calls("ode.rhs"),
        "ode.steps_accepted": c["steps_accepted"],
        "ode.steps_rejected": c["steps_rejected"],
        "ode.rhs_per_step": calls("ode.rhs") / steps if steps else 0.0,
        "ode.accept_ratio": c["steps_accepted"] / steps if steps else 0.0,
        "ode.rhs_self_s": self_s("ode.rhs"),
        "ode.self_s": self_s("ode"),
        "ode.state_bytes_max": c["state_bytes_max"],
        "blochdyn.calls": calls("blochdyn.integrate"),
        "blochdyn.self_s": self_s("blochdyn"),
        "discrimination.calls": (calls("discrimination.time_to_overlap")
                                 + calls("discrimination.separation_trace")),
        "discrimination.self_s": self_s("discrimination"),
        "discrimination.reopt_calls": calls("discrimination.reoptimize_orientation"),
        "discrimination.reopt_s": incl("discrimination.reoptimize_orientation"),
        "discrimination.t_rel_err_max": err_max(("fixed", "reopt")),
        "bounds.calls": sum(calls(n) for n in sm if LAYER_OF.get(n) == "bounds"),
        "bounds.self_s": self_s("bounds"),
        "search.run_search_calls": calls("search.run_search"),
        "search.run_search_s": incl("search.run_search"),
        "search.nlse_calls": calls("search.integrate_nlse"),
        "search.nlse_s": incl("search.integrate_nlse"),
        "search.audit_calls": calls("search.lower_bound_audit"),
        "search.audit_s": incl("search.lower_bound_audit"),
        "search.audit_self_s": sm.get("search.lower_bound_audit", {}).get("self_s", 0.0),
        "search.audit_state_elems": c["audit_state_elems"],
        "search.t2_rel_err_max": err_max(("run_search",)),
        "search.raised": search_raised,
        "optimizer.calls": opt_calls,
        "optimizer.sweeps": c["sweeps"],
        "optimizer.capped_frac": c["capped"] / opt_calls if opt_calls else 0.0,
        "optimizer.rate_evals": c["rate_evals"],
        "optimizer.trial_states": c["trial_states"],
        "optimizer.build_states_s": incl("optimizer._build_states"),
        "optimizer.batch_rates_s": incl("optimizer._batch_rates"),
        "optimizer.self_s": self_s("optimizer"),
    }
