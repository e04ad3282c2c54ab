"""Command-line entry point wiring all modules.

Each subcommand accepts only the flags its handler reads:

    discriminate  --nonlinearity (--alpha0 | --epsilon) --target-overlap
                  --policy --tol --out
    bounds        --nonlinearity --z0 --delta --grid --alpha0 --duration
                  --g-lip --out
    search        --nonlinearity --n --marked --t1 --seed --tol --out
    audit         --nonlinearity --n --t1 --duration --samples --out
    optimize      --nonlinearity --alpha --dim --restarts --seed --out
    gp-validity   --atoms --interaction --target-overlap --out
    figures       --which --out
    validate      --quick --seed --out

Flags parse to plain numbers and the library states each input's range.
A value it refuses (``ValueError``) ends, before any output, in ``nlqsim
<cmd>: error: <message>`` on stderr and exit 2; a file that cannot be read
or written (``OSError``) exits 2 the same way, since each ``--out`` file is
written before anything is printed.  ``bounds`` reports one
growth exponent, the certified one (``c_certified``).

Every CSV, on stdout or in an ``--out`` file, comes from one writer,
``csv_text``: float cells at 17 significant digits, so regeneration diffs are
lossless, and every other cell as text.  The library returns numbers; only
this module formats them.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from typing import Optional

from . import bounds as bn
from . import discrimination as dc
from . import meanfield as mf
from . import nonlinearity as nl
from . import optimizer as op
from . import search as sr
from . import validation


def fmt(x: float) -> str:
    return f"{x:.17g}"


def csv_text(header: str, rows) -> str:
    """Every CSV nlqsim writes: ``header``, then one line per row, with each
    float cell at 17 significant digits and any other cell as ``str``."""
    lines = [header]
    lines += [",".join(fmt(v) if isinstance(v, float) else str(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def write_text(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def report(lines, out, csv: str, what: Optional[str]) -> None:
    """Write ``csv`` to the ``--out`` path ``out``, if one is given, before
    anything is printed, so a path that cannot be written exits 2 with
    stdout empty; then print ``lines`` and, after a write with ``what`` set,
    "<what> written to <out>"."""
    if out:
        write_text(out, csv)
    sys.stdout.write("".join(line + "\n" for line in lines))
    if out and what:
        print(f"{what} written to {out}")


def atom_count(text: str):
    """argparse type for ``--atoms``: 1000 or 1e3 as the int 1000; a count
    that is not a whole number stays a float, for the library to refuse.
    So does one above 2^53, where floats no longer hold every integer, and
    the table prints it at 17 significant digits: 1e300 as
    1.0000000000000001e+300, not as its 301-digit integer."""
    value = float(text)
    return int(value) if value.is_integer() and abs(value) <= 2.0 ** 53 else value


def cmd_discriminate(args) -> int:
    n = nl.parse(args.nonlinearity)
    alpha0 = (args.alpha0 if args.alpha0 is not None
              else dc.epsilon_to_alpha0(args.epsilon))
    policy = (dc.OrientationPolicy.REOPTIMIZED if args.policy == "reopt"
              else dc.OrientationPolicy.FIXED_OPTIMAL_GP)
    res = dc.time_to_overlap(n, alpha0, args.target_overlap, orientation_policy=policy,
                             rtol=args.tol)
    lines = [f"nonlinearity = {n.spec_string()}", f"alpha0 = {fmt(alpha0)}",
             f"status = {res.status}", f"t_to_target = {fmt(res.t_perp)}"]
    if res.status == "no_progress":
        lines.append(f"diagnostic = {res.diagnostic}")
    rows = ((t, n.g * t, c) for t, c in zip(res.times, res.overlaps))
    report(lines, args.out, csv_text("t,gt,overlap", rows), "trace")
    return 0


def cmd_bounds(args) -> int:
    n = nl.parse(args.nonlinearity)
    dc.check_start(args.alpha0, args.duration)  # refused also when no bound check runs
    kbar = nl.reduce(n)
    cert = bn.certify_growth(kbar, args.z0, args.delta, grid=args.grid)
    est = bn.estimate_lipschitz(kbar, grid=args.grid)
    g_lip = args.g_lip if args.g_lip is not None else (est.g_lip if est.finite else None)
    rep = None if g_lip is None else bn.check_lipschitz_separation_bound(
        n, args.alpha0, args.duration, g_lip=g_lip)

    if isinstance(cert, bn.GrowthRefusal):
        g_local, c_certified = 0.0, 0.0
        lines = [f"growth certificate refused: {cert.reason}"]
    else:
        g_local, c_certified = cert.g_local, bn.certified_exp_rate(cert)
        lines = [f"g_local = {fmt(g_local)}, certified exponent = {fmt(c_certified)}"]
    if rep is None:
        lines.append("no finite Lipschitz constant detected; pass --g-lip for the "
                     "separation bound check")
        bound_ok, max_ratio = False, math.nan
    else:
        bound_ok, max_ratio = rep.bound_ok, rep.max_ratio
        lines.append(f"g_lip = {fmt(g_lip)}, bound_ok = {bound_ok}, "
                     f"max ratio = {fmt(max_ratio)}")
    row = (n.spec_string(), args.z0, g_local, c_certified, bound_ok, max_ratio)
    report(lines, args.out,
           csv_text("nonlinearity,z0,g_local,c_certified,bound_ok,max_ratio", [row]), "report")
    return 0


def cmd_search(args) -> int:
    n = nl.parse(args.nonlinearity)
    instance = sr.SearchInstance(args.n, marked=args.marked)
    r = sr.run_search(instance, n, t1=args.t1, seed=args.seed, rtol=args.tol)
    text = csv_text("N,g,t1,t2,total,budget,decision,success_prob",
                    [(r.N, r.g, r.t1, r.t2, r.total_time, r.complexity_budget,
                      r.decision.value, r.success_probability)])
    report(text.splitlines(), args.out, text, "report")
    return 0


def cmd_audit(args) -> int:
    n = nl.parse(args.nonlinearity)
    g = n.g if n.g > 0 else 1.0
    t1 = sr.default_t1(args.n, g) if args.t1 == "auto" else float(args.t1)
    H = sr.search_schedule(args.n, n.g, t1)
    duration = args.duration
    if duration is None:
        rep = sr.run_search(sr.SearchInstance(args.n, marked=1), nl.gross_pitaevskii(g), t1=t1)
        duration = rep.total_time
    audit = sr.lower_bound_audit(n, H, args.n, duration, samples=args.samples)
    report([f"N = {audit.N}, |kappa| bound g = {fmt(audit.g)}",
            f"bound_ok = {audit.bound_ok}, min margin = {fmt(audit.min_margin)}"], args.out,
           csv_text("t,S,bound,margin", zip(audit.times, audit.S, audit.bound, audit.margin)),
           "audit")
    return 0


def cmd_optimize(args) -> int:
    chain = op.orientation_chain(nl.parse(args.nonlinearity), args.alpha, args.dim,
                                 restarts=args.restarts, seed=args.seed)
    result, gap = chain[-1], chain[-1].best_rate - chain[0].best_rate
    lines = [f"alpha = {fmt(args.alpha)}, dim = {args.dim}",
             f"best_rate = {fmt(result.best_rate)}",
             f"gap_vs_dim2 = {fmt(gap)}",
             f"sweeps = {result.converged_sweeps}, capped = {result.capped}",
             f"grad_norm = {result.grad_norm:.3e}"]
    if result.angles is not None:
        lines.append(f"orientation (phi, theta) = ({fmt(result.angles[0])}, "
                     f"{fmt(result.angles[1])})")
    report(lines, args.out, csv_text("alpha,dim,best_rate,gap_vs_dim2",
                                     [(args.alpha, args.dim, result.best_rate, gap)]),
           "result")
    return 0


def cmd_gp_validity(args) -> int:
    rows = []
    for atoms in args.atoms:
        p = mf.CondensateParams(atoms, U=args.interaction)
        rows.append((atoms, p.g, mf.gp_validity_time(p, args.target_overlap),
                     mf.validity_scaling_constant(p, args.target_overlap)))
    text = csv_text("N_atoms,g,t_star,t_star_times_N_over_logN", rows)
    report(text.splitlines(), args.out, text, "table")
    return 0


# Each figure's CSV header and the function that returns its columns.
FIGURES = {
    "fig3a": ("gt,overlap", dc.fig_overlap_vs_gt),
    "fig3b": ("alpha0,gt_perp", dc.fig_tperp_vs_alpha0),
    "fig4": ("overlap,rate_log_g1,rate_gp_g2", dc.fig_rate_comparison),
}


def cmd_figures(args) -> int:
    which = list(FIGURES) if args.which == "all" else [args.which]
    for w in which:
        path = os.path.join(args.out, f"{w}.csv")
        header, columns = FIGURES[w]
        write_text(path, csv_text(header, zip(*columns())))
        print(f"wrote {path}")
    return 0


def cmd_validate(args) -> int:
    ctx = validation.Context(quick=args.quick, seed=args.seed)
    results = validation.run_all(ctx, log=sys.stderr)
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        lines.append(f"{r.name:<{width}}  {status}  {r.detail}")
    n_fail = sum(not r.ok for r in results)
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
    if n_fail:
        lines.append(f"failing: {', '.join(r.name for r in results if not r.ok)}")
    report(lines, args.out,
           csv_text("check,ok,detail", ((r.name, r.ok, f'"{r.detail}"') for r in results)),
           None)
    return 1 if n_fail else 0


# Flags shared by several subcommands; each subcommand picks its own below.
_SHARED = {
    "nonlinearity": dict(default="gp:1",
                         help="kind:g spec (gp:1.0, log:0.5, sqrt, quartic, custom:file.csv)"),
    "n": dict(type=int, required=True, help="catalog size N"),
    "t1": dict(default="auto", help="oracle time: auto or a number (default auto)"),
    "seed": dict(type=int, default=0, help="rng seed (default 0)"),
    "tol": dict(type=float, default=1e-10,
                help="relative tolerance of the time quadrature (default 1e-10)"),
    "target-overlap": dict(type=float, default=0.0),
    "out": dict(default=None, help="output CSV path"),
}


def _shared(p, *names):
    for name in names:
        p.add_argument(f"--{name}", **_SHARED[name])


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` that reads -1e-8, like -0.5, as a number, so a
    negative value in exponent form reaches the library's refusal instead of
    being taken for a flag.  ``add_subparsers`` builds each subcommand's
    parser with this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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

    p = sub.add_parser("audit", help="co-integrate marked/unmarked trajectories of "
                                     "the search schedule against the overlap-sum "
                                     "floor (any N; the N <= 256 cap is for dense H)")
    _shared(p, "nonlinearity", "n", "t1")
    p.add_argument("--duration", type=float, default=None,
                   help="audit horizon (default: total time of the search run)")
    p.add_argument("--samples", type=int, default=200)
    _shared(p, "out")

    p = sub.add_parser("optimize", help="orientation search over embeddings")
    _shared(p, "nonlinearity")
    p.add_argument("--alpha", type=float, default=0.5, help="pair separation angle")
    p.add_argument("--dim", type=int, default=2, help="embedding dimension")
    p.add_argument("--restarts", type=int, default=64,
                   help="L-BFGS restarts of each d >= 3 link")
    _shared(p, "seed", "out")

    p = sub.add_parser("gp-validity", help="mean-field validity horizon table")
    p.add_argument("--atoms", type=atom_count, nargs="+",
                   required=True, help="condensate atom counts")
    p.add_argument("--interaction", type=float, default=1e-3,
                   help="interaction strength U (g = U * atoms)")
    _shared(p, "target-overlap", "out")

    p = sub.add_parser("figures", help="regenerate figure data CSVs")
    p.add_argument("--which", choices=[*FIGURES, "all"], default="all")
    p.add_argument("--out", default=".", help="output directory (default .)")

    p = sub.add_parser("validate", help="run the named invariant checks")
    p.add_argument("--quick", action="store_true", help="reduced grids")
    _shared(p, "seed", "out")

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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        parser.exit(2, f"nlqsim {args.command}: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
