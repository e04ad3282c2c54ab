"""Command-line entry point wiring all modules.

Each subcommand accepts only the flags its handler reads:

    discriminate  --nonlinearity (--alpha0 | --epsilon) --target-overlap
                  --policy --tol --out
    bounds        --nonlinearity --z0 --delta --grid --alpha0 --duration
                  --g-lip --out
    search        --nonlinearity --n --marked --t1 --seed --tol --out
    audit         --nonlinearity --n --t1 --duration --samples --seed --out
    optimize      --nonlinearity --alpha --dim --restarts --seed --out
    gp-validity   --atoms --interaction --target-overlap --out
    figures       --which --out
    validate      --quick --seed --out

All numeric output is CSV with 17 significant digits so regeneration diffs
are lossless.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import bounds as bn
from . import discrimination as dc
from . import meanfield as mf
from . import nonlinearity as nl
from . import optimizer as op
from . import search as sr
from . import validation


def fmt(x: float) -> str:
    return f"{x:.17g}"


def write_text(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise SystemExit(f"cannot write output file {path!r}: {exc}")


def tolerance(text: str) -> float:
    """argparse type for a relative tolerance the quadrature can meet."""
    try:
        return dc.check_rtol(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def cmd_discriminate(args) -> int:
    n = nl.parse(args.nonlinearity)
    alpha0 = (args.alpha0 if args.alpha0 is not None
              else dc.epsilon_to_alpha0(args.epsilon))
    policy = (dc.OrientationPolicy.REOPTIMIZED if args.policy == "reopt"
              else dc.OrientationPolicy.FIXED_OPTIMAL_GP)
    res = dc.time_to_overlap(n, alpha0, args.target_overlap, orientation_policy=policy,
                             rtol=args.tol)
    print(f"nonlinearity = {n.spec_string()}")
    print(f"alpha0 = {fmt(alpha0)}")
    print(f"status = {res.status}")
    print(f"t_to_target = {fmt(res.t_perp)}")
    if res.status == "no_progress":
        print(f"diagnostic = {res.diagnostic}")
    if args.out:
        lines = ["t,gt,overlap"]
        for t, c in zip(res.trace.times, np.atleast_1d(res.trace.states)):
            lines.append(f"{fmt(t)},{fmt(n.g * t)},{fmt(float(c))}")
        write_text(args.out, "\n".join(lines) + "\n")
        print(f"trace written to {args.out}")
    return 0


def cmd_bounds(args) -> int:
    n = nl.parse(args.nonlinearity)
    kbar = nl.reduce(n)
    cert = bn.certify_growth(kbar, args.z0, args.delta, grid=args.grid)
    if isinstance(cert, bn.GrowthRefusal):
        g_local, c_rate = 0.0, 0.0
        print(f"growth certificate refused: {cert.reason}")
    else:
        g_local, c_rate = cert.g_local, bn.exp_growth_rate(cert)
        print(f"g_local = {fmt(g_local)}, nominal exponent = {fmt(c_rate)}, "
              f"certified exponent = {fmt(bn.certified_exp_rate(cert))}")

    est = bn.estimate_lipschitz(kbar, grid=args.grid)
    g_lip = args.g_lip if args.g_lip is not None else (est.g_lip if est.finite else None)
    if g_lip is None:
        print("no finite Lipschitz constant detected; pass --g-lip for the "
              "separation bound check")
        bound_ok, max_ratio = False, math.nan
    else:
        rep = bn.check_lipschitz_separation_bound(
            n, args.alpha0, args.duration, g_lip=g_lip)
        bound_ok, max_ratio = rep.bound_ok, rep.max_ratio
        print(f"g_lip = {fmt(g_lip)}, bound_ok = {bound_ok}, "
              f"max ratio = {fmt(max_ratio)}")
    if args.out:
        row = {"nonlinearity": n.spec_string(), "z0": args.z0,
               "g_local": g_local, "c": c_rate,
               "bound_ok": bound_ok, "max_ratio": max_ratio}
        write_text(args.out, bn.bound_report_csv([row]))
        print(f"report written to {args.out}")
    return 0


def cmd_search(args) -> int:
    n = nl.parse(args.nonlinearity)
    instance = sr.SearchInstance(args.n, marked=args.marked)
    report = sr.run_search(instance, n, t1=args.t1, seed=args.seed, rtol=args.tol)
    print(sr.SearchReport.csv_header())
    print(report.csv_row())
    if args.out:
        write_text(args.out, sr.SearchReport.csv_header() + "\n" + report.csv_row() + "\n")
        print(f"report written to {args.out}")
    return 0


def cmd_audit(args) -> int:
    n = nl.parse(args.nonlinearity)
    g = n.g if n.g > 0 else 1.0
    t1 = sr.default_t1(args.n, g) if args.t1 == "auto" else float(args.t1)
    H = sr.search_schedule(args.n, n.g, t1)
    duration = args.duration
    if duration is None:
        rep = sr.run_search(sr.SearchInstance(args.n, marked=1),
                            nl.gross_pitaevskii(g), t1=t1, seed=args.seed)
        duration = rep.total_time
    audit = sr.lower_bound_audit(n, H, args.n, duration, samples=args.samples)
    print(f"N = {audit.N}, |kappa| bound g = {fmt(audit.g)}")
    print(f"bound_ok = {audit.bound_ok}, min margin = {fmt(audit.min_margin)}")
    if args.out:
        write_text(args.out, audit.to_csv())
        print(f"audit written to {args.out}")
    return 0


def cmd_optimize(args) -> int:
    n = nl.parse(args.nonlinearity)
    alpha, dim, restarts = args.alpha, args.dim, args.restarts
    base = op.optimize_orientation(n, alpha, 2, restarts=restarts, seed=args.seed)
    if dim == 2:
        result = base
    else:
        prev = base
        for d in range(3, dim + 1):
            prev = op.optimize_orientation(n, alpha, d, restarts=restarts,
                                           seed=args.seed + d, warm_start=prev)
        result = prev
    gap = result.best_rate - base.best_rate
    print(f"alpha = {fmt(alpha)}, dim = {dim}")
    print(f"best_rate = {fmt(result.best_rate)}")
    print(f"gap_vs_dim2 = {fmt(gap)}")
    print(f"sweeps = {result.converged_sweeps}, capped = {result.capped}")
    if result.angles is not None:
        print(f"orientation (phi, theta) = ({fmt(result.angles[0])}, {fmt(result.angles[1])})")
    if args.out:
        text = "alpha,dim,best_rate,gap_vs_dim2\n" + \
            f"{fmt(alpha)},{dim},{fmt(result.best_rate)},{fmt(gap)}\n"
        write_text(args.out, text)
        print(f"result written to {args.out}")
    return 0


def cmd_gp_validity(args) -> int:
    rows = []
    for atoms in args.atoms:
        p = mf.CondensateParams(int(atoms), U=args.interaction)
        rows.append({
            "n_atoms": p.n_atoms, "g": p.g,
            "t_star": mf.gp_validity_time(p, args.target_overlap),
            "scaling": mf.validity_scaling_constant(p, args.target_overlap),
        })
    print("N_atoms,g,t_star,t_star_times_N_over_logN")
    for r in rows:
        print(f"{r['n_atoms']},{fmt(r['g'])},{fmt(r['t_star'])},{fmt(r['scaling'])}")
    if args.out:
        write_text(args.out, mf.validity_csv(rows))
        print(f"table written to {args.out}")
    return 0


def _figure_text(which: str) -> str:
    if which == "fig3a":
        gts, overlap = dc.fig_overlap_vs_gt()
        lines = ["gt,overlap"]
        lines += [f"{fmt(t)},{fmt(c)}" for t, c in zip(gts, overlap)]
    elif which == "fig3b":
        alphas, gtp = dc.fig_tperp_vs_alpha0()
        lines = ["alpha0,gt_perp"]
        lines += [f"{fmt(a)},{fmt(t)}" for a, t in zip(alphas, gtp)]
    elif which == "fig4":
        cs, rl, rg = dc.fig_rate_comparison()
        lines = ["overlap,rate_log_g1,rate_gp_g2"]
        lines += [f"{fmt(c)},{fmt(a)},{fmt(b)}" for c, a, b in zip(cs, rl, rg)]
    else:
        raise SystemExit(f"unknown figure {which!r}")
    return "\n".join(lines) + "\n"


def cmd_figures(args) -> int:
    which = ["fig3a", "fig3b", "fig4"] if args.which == "all" else [args.which]
    if not os.path.isdir(args.out):
        raise SystemExit(f"output directory {args.out!r} does not exist")
    for w in which:
        path = os.path.join(args.out, f"{w}.csv")
        write_text(path, _figure_text(w))
        print(f"wrote {path}")
    return 0


def cmd_validate(args) -> int:
    ctx = validation.Context(quick=args.quick, seed=args.seed,
                             inject_bug=args.inject_bug)
    results = validation.run_all(ctx)
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        lines.append(f"{r.name:<{width}}  {status}  {r.detail}")
    n_fail = sum(not r.ok for r in results)
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out:
        csv_lines = ["check,ok,detail"]
        csv_lines += [f"{r.name},{r.ok},\"{r.detail}\"" for r in results]
        write_text(args.out, "\n".join(csv_lines) + "\n")
    if n_fail:
        failing = ", ".join(r.name for r in results if not r.ok)
        sys.stdout.write(f"failing: {failing}\n")
        return 1
    return 0


# Flags shared by several subcommands; each subcommand picks its own below.
_SHARED = {
    "nonlinearity": dict(default="gp:1",
                         help="kind:g spec (gp:1.0, log:0.5, sqrt, quartic, custom:file.csv)"),
    "n": dict(type=int, required=True, help="catalog size N"),
    "t1": dict(default="auto", help="oracle time (auto or a float)"),
    "seed": dict(type=int, default=0, help="rng seed (default 0)"),
    "tol": dict(type=tolerance, default=1e-10,
                help="relative tolerance of the time quadrature (default 1e-10)"),
    "target-overlap": dict(type=float, default=0.0),
    "out": dict(default=None, help="output CSV path"),
}


def _shared(p, *names):
    for name in names:
        p.add_argument(f"--{name}", **_SHARED[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlqsim",
        description="State discrimination and unstructured search under "
                    "amplitude nonlinearities of the Gross-Pitaevskii family",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("discriminate", help="drive a qubit pair to a target overlap")
    _shared(p, "nonlinearity")
    start = p.add_mutually_exclusive_group(required=True)
    start.add_argument("--alpha0", type=float, help="initial separation angle")
    start.add_argument("--epsilon", type=float,
                       help="initial overlap deficit (overlap = 1 - epsilon)")
    _shared(p, "target-overlap")
    p.add_argument("--policy", choices=["fixed", "reopt"], default="fixed")
    _shared(p, "tol", "out")

    p = sub.add_parser("bounds", help="growth certificates and separation bounds")
    _shared(p, "nonlinearity")
    p.add_argument("--z0", type=float, default=0.0)
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--grid", type=int, default=bn.DEFAULT_GRID)
    p.add_argument("--alpha0", type=float, default=1e-3,
                   help="initial separation angle of the bound check (default 1e-3)")
    p.add_argument("--duration", type=float, default=5.0)
    p.add_argument("--g-lip", type=float, default=None,
                   help="Lipschitz proxy when no finite constant exists")
    _shared(p, "out")

    p = sub.add_parser("search", help="run the search pipeline on one instance")
    _shared(p, "nonlinearity", "n")
    p.add_argument("--marked", type=int, default=None, help="marked item (1-indexed)")
    _shared(p, "t1", "seed", "tol", "out")

    p = sub.add_parser("audit", help="co-integrate marked/unmarked trajectories "
                                     "against the overlap-sum floor")
    _shared(p, "nonlinearity", "n", "t1")
    p.add_argument("--duration", type=float, default=None,
                   help="audit horizon (default: total time of the search run)")
    p.add_argument("--samples", type=int, default=200)
    _shared(p, "seed", "out")

    p = sub.add_parser("optimize", help="orientation search over embeddings")
    _shared(p, "nonlinearity")
    p.add_argument("--alpha", type=float, default=0.5, help="pair separation angle")
    p.add_argument("--dim", type=int, default=2, help="embedding dimension")
    p.add_argument("--restarts", type=int, default=64,
                   help="optimizer restart count (used by the d >= 3 links)")
    _shared(p, "seed", "out")

    p = sub.add_parser("gp-validity", help="mean-field validity horizon table")
    p.add_argument("--atoms", type=float, nargs="+", required=True,
                   help="condensate atom counts")
    p.add_argument("--interaction", type=float, default=1e-3,
                   help="interaction strength U (g = U * atoms)")
    _shared(p, "target-overlap", "out")

    p = sub.add_parser("figures", help="regenerate figure data CSVs")
    p.add_argument("--which", choices=["fig3a", "fig3b", "fig4", "all"], default="all")
    p.add_argument("--out", default=".", help="output directory (default .)")

    p = sub.add_parser("validate", help="run the named invariant checks")
    p.add_argument("--quick", action="store_true", help="reduced grids")
    _shared(p, "seed", "out")
    p.add_argument("--inject-bug", default=None, help=argparse.SUPPRESS)

    return parser


COMMANDS = {
    "discriminate": cmd_discriminate,
    "bounds": cmd_bounds,
    "search": cmd_search,
    "audit": cmd_audit,
    "optimize": cmd_optimize,
    "gp-validity": cmd_gp_validity,
    "figures": cmd_figures,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
