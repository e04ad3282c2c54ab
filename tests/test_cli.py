import argparse
import io
import math
import pathlib
import re

import numpy as np
import pytest

from nlqsim import bounds as bn
from nlqsim import cli
from nlqsim import discrimination as dc
from nlqsim import meanfield as mf
from nlqsim import nonlinearity as nl
from nlqsim import optimizer as op
from nlqsim import search as sr
from nlqsim import validation
from nlqsim.discrimination import gp_overlap_closed_form, gp_t_perp


def run_cli(argv):
    return cli.main(argv)


def refused(argv, capsys):
    """stderr of a run that must exit 2, with nothing on stdout and no traceback."""
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    return err


RTOL_FLOOR = "rtol must be a finite number >= 1.11e-14 (the floor of the quadrature)"


# The flags each subcommand's handler reads, and no others.
SUBCOMMAND_FLAGS = {
    "discriminate": {"nonlinearity", "alpha0", "epsilon", "target-overlap", "policy",
                     "tol", "out"},
    "bounds": {"nonlinearity", "z0", "delta", "grid", "alpha0", "duration", "g-lip",
               "out"},
    "search": {"nonlinearity", "n", "marked", "t1", "seed", "tol", "out"},
    "audit": {"nonlinearity", "n", "t1", "duration", "samples", "out"},
    "optimize": {"nonlinearity", "alpha", "dim", "restarts", "seed", "out"},
    "gp-validity": {"atoms", "interaction", "target-overlap", "out"},
    "figures": {"which", "out"},
    "validate": {"quick", "seed", "out"},
}


def test_parser_flags_are_exactly_those_read():
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    seen = {}
    for name, sub in subparsers.choices.items():
        seen[name] = {opt[2:] for action in sub._actions for opt in action.option_strings
                      if opt.startswith("--") and opt != "--help"}
    assert seen == SUBCOMMAND_FLAGS
    assert sum(len(f) for f in seen.values()) == 43


def _documented_flags(text):
    """{subcommand: flags} from lines that name a subcommand, then its flags."""
    return {name: set(re.findall(r"--([a-z0-9-]+)", flags)) for name, flags in text}


def test_cli_docs_list_exactly_the_parser_flags():
    docstring = re.sub(r"\n {18}", " ", cli.__doc__)  # join continuation lines
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("## Command line")[1].split("\n## ")[0]
    assert _documented_flags(re.findall(r"^    ([a-z-]+) +(--.*)$", docstring, re.M)) \
        == SUBCOMMAND_FLAGS
    assert _documented_flags(re.findall(r"^\| `([a-z-]+)` \| (.*) \|$", table, re.M)) \
        == SUBCOMMAND_FLAGS


def _discriminate_csv():
    n = nl.parse("gp:1.0")
    res = dc.time_to_overlap(n, 0.1, 0.0)
    return "t,gt,overlap", [(t, n.g * t, c) for t, c in zip(res.times, res.overlaps)]


def _bounds_csv():
    n = nl.parse("gp:1.0")
    kbar = nl.reduce(n)
    cert = bn.certify_growth(kbar, 0.0, 0.5, grid=2000)
    assert cert.g_local == 1.0  # so the cell below is "1", not "1.0"
    rep = bn.check_lipschitz_separation_bound(
        n, 1e-3, 3.0, g_lip=bn.estimate_lipschitz(kbar, grid=2000).g_lip)
    return ("nonlinearity,z0,g_local,c_certified,bound_ok,max_ratio",
            [("gp:1", "0", "1", bn.certified_exp_rate(cert), "True", rep.max_ratio)])


def _search_csv():
    r = sr.run_search(sr.SearchInstance(1024, marked=7), nl.parse("gp:1.0"))
    return ("N,g,t1,t2,total,budget,decision,success_prob",
            [("1024", r.g, r.t1, r.t2, r.total_time, r.complexity_budget, "marked",
              r.success_probability)])


def _audit_csv():
    n = nl.parse("gp:0.5")
    H = sr.search_schedule(8, n.g, sr.default_t1(8, n.g))
    audit = sr.lower_bound_audit(n, H, 8, 2.0, samples=10)
    return "t,S,bound,margin", list(zip(audit.times, audit.S, audit.bound, audit.margin))


def _optimize_csv():
    chain = op.orientation_chain(nl.parse("quartic"), 0.5, 3, restarts=8, seed=42)
    gap = chain[-1].best_rate - chain[0].best_rate
    return "alpha,dim,best_rate,gap_vs_dim2", [(0.5, "3", chain[-1].best_rate, gap)]


def _gp_validity_csv():
    rows = []
    for n_atoms in (1000, 10000):
        p = mf.CondensateParams(n_atoms, U=0.001)
        rows.append((str(n_atoms), p.g, mf.gp_validity_time(p),
                     mf.validity_scaling_constant(p)))
    return "N_atoms,g,t_star,t_star_times_N_over_logN", rows


def _fig3a_csv():
    return "gt,overlap", list(zip(*dc.fig_overlap_vs_gt()))


def _validate_csv():
    results = validation.run_all(validation.Context(quick=True, seed=0), log=io.StringIO())
    return "check,ok,detail", [(r.name, "True", f'"{r.detail}"') for r in results]


# argv with {tmp} for the test's directory, the file --out writes, and the
# header and rows that file should hold: a str cell is compared as text, and
# any other cell must be the float that the file's cell reads back as.
CSV_CASES = {
    "discriminate": (["discriminate", "--nonlinearity", "gp:1.0", "--alpha0", "0.1",
                      "--out", "{tmp}/out.csv"], "out.csv", _discriminate_csv),
    "bounds": (["bounds", "--nonlinearity", "gp:1.0", "--z0", "0", "--grid", "2000",
                "--duration", "3.0", "--out", "{tmp}/out.csv"], "out.csv", _bounds_csv),
    "search": (["search", "--n", "1024", "--nonlinearity", "gp:1.0", "--marked", "7",
                "--out", "{tmp}/out.csv"], "out.csv", _search_csv),
    "audit": (["audit", "--n", "8", "--nonlinearity", "gp:0.5", "--duration", "2.0",
               "--samples", "10", "--out", "{tmp}/out.csv"], "out.csv", _audit_csv),
    "optimize": (["optimize", "--nonlinearity", "quartic", "--alpha", "0.5", "--dim", "3",
                  "--restarts", "8", "--seed", "42", "--out", "{tmp}/out.csv"],
                 "out.csv", _optimize_csv),
    "gp-validity": (["gp-validity", "--atoms", "1e3", "1e4", "--interaction", "0.001",
                     "--out", "{tmp}/out.csv"], "out.csv", _gp_validity_csv),
    "figures": (["figures", "--which", "fig3a", "--out", "{tmp}"], "fig3a.csv", _fig3a_csv),
    "validate": (["validate", "--quick", "--out", "{tmp}/out.csv"], "out.csv", _validate_csv),
}


@pytest.mark.parametrize("command", list(CSV_CASES))
def test_csv_out_reads_back_the_library_numbers(command, tmp_path, capsys):
    argv, file, expected = CSV_CASES[command]
    assert run_cli([a.format(tmp=tmp_path) for a in argv]) == 0
    capsys.readouterr()
    lines = (tmp_path / file).read_text().split("\n")
    assert lines.pop() == ""
    header, rows = expected()
    assert lines[0] == header
    assert len(lines) == len(rows) + 1
    for line, row in zip(lines[1:], rows):
        cells = line.split(",", len(row) - 1)  # validate's quoted detail may hold commas
        assert len(cells) == len(row)
        for cell, want in zip(cells, row):
            if isinstance(want, str):
                assert cell == want
            else:
                assert float(cell) == want


@pytest.mark.parametrize("argv", [
    ["search", "--n", "64", "--dim", "4"],
    ["figures", "--nonlinearity", "gp:1"],
    ["validate", "--n", "8"],
    ["gp-validity", "--atoms", "1e3", "--seed", "1"],
])
def test_flag_not_read_by_subcommand_is_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("tol, message", [
    ("0", f"{RTOL_FLOOR}, got 0.0"),
    ("-1e-8", f"{RTOL_FLOOR}, got -1e-08"),
    ("nan", f"{RTOL_FLOOR}, got nan"),
    ("inf", f"{RTOL_FLOOR}, got inf"),
    ("x", "argument --tol: invalid float value: 'x'"),
], ids=["0", "-1e-8", "nan", "inf", "x"])
def test_tol_must_be_finite_positive(tol, message, capsys):
    assert message in refused(["discriminate", "--alpha0", "0.5", "--tol", tol], capsys)


@pytest.mark.parametrize("argv", [
    ["search", "--n", "16"],
    ["optimize", "--alpha", "0.5", "--dim", "3"],
    ["validate", "--quick"],
], ids=["search", "optimize", "validate"])
def test_a_negative_seed_is_refused_by_name(argv, capsys):
    assert ("error: seed must be a whole number >= 0, got -3"
            in refused(argv + ["--seed", "-3"], capsys))


def test_figures_content(tmp_path, capsys):
    assert run_cli(["figures", "--out", str(tmp_path)]) == 0
    capsys.readouterr()

    fig3a = (tmp_path / "fig3a.csv").read_text().strip().split("\n")
    assert fig3a[0] == "gt,overlap"
    assert len(fig3a) == 513
    # values round-trip at 17 significant digits
    gt, overlap = map(float, fig3a[1].split(","))
    assert overlap == gp_overlap_closed_form(1.0, 0.1, gt)
    # the trace crosses zero at g t_perp = 2 atanh(cos 0.05)
    overlaps = np.array([float(r.split(",")[1]) for r in fig3a[1:]])
    gts = np.array([float(r.split(",")[0]) for r in fig3a[1:]])
    sign_change = np.where(np.diff(np.sign(overlaps)) < 0)[0]
    assert len(sign_change) == 1
    t_perp = gp_t_perp(1.0, 0.1)
    assert gts[sign_change[0]] <= t_perp <= gts[sign_change[0] + 1]

    fig3b = (tmp_path / "fig3b.csv").read_text().strip().split("\n")
    assert fig3b[0] == "alpha0,gt_perp"
    last_alpha, last_gtp = map(float, fig3b[-1].split(","))
    assert last_alpha == pytest.approx(math.pi, abs=1e-15)
    assert last_gtp == pytest.approx(0.0, abs=1e-12)

    fig4 = (tmp_path / "fig4.csv").read_text().strip().split("\n")
    assert fig4[0] == "overlap,rate_log_g1,rate_gp_g2"
    rows = np.array([[float(x) for x in r.split(",")] for r in fig4[1:]])
    assert np.all(rows[:, 1] <= rows[:, 2])


def test_an_unwritable_out_file_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["search", "--n", "8", "--out", "/nonexistent/report.csv"])
    assert exc.value.code == 2
    assert "No such file or directory: '/nonexistent/report.csv'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["discriminate", "--alpha0", "0.5"],
    ["bounds", "--duration", "1.0"],
    ["search", "--n", "8"],
    ["audit", "--n", "8", "--duration", "1.0", "--samples", "4"],
    ["optimize", "--alpha", "0.5"],
    ["gp-validity", "--atoms", "1e3"],
    ["validate", "--quick"],
], ids=lambda argv: argv[0])
def test_an_unwritable_out_file_is_refused_before_anything_is_printed(argv, capsys):
    # the file is written before any output, so its refusal leaves stdout empty
    err = refused(argv + ["--out", "/nonexistent/report.csv"], capsys)
    assert f"nlqsim {argv[0]}: error:" in err and "/nonexistent/report.csv" in err


def test_figures_unwritable_path_errors(tmp_path, capsys):
    err = refused(["figures", "--out", "/nonexistent/dir"], capsys)
    assert "nlqsim figures: error:" in err and "/nonexistent/dir" in err
    # an existing file is not a directory; it is not reported as missing
    existing = tmp_path / "file"
    existing.write_text("")
    err = refused(["figures", "--which", "fig3a", "--out", str(existing)], capsys)
    assert "nlqsim figures: error:" in err and str(existing) in err
    assert "does not exist" not in err


def test_search_cli_report(tmp_path, capsys):
    out = tmp_path / "report.csv"
    assert run_cli(["search", "--n", "1024", "--nonlinearity", "gp:1.0",
                    "--marked", "7", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "N,g,t1,t2,total,budget,decision,success_prob"
    fields = lines[1].split(",")
    assert fields[0] == "1024"
    assert float(fields[4]) == float(fields[2]) + float(fields[3])


def test_discriminate_cli_trace(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    assert run_cli(["discriminate", "--nonlinearity", "gp:1.0",
                    "--epsilon", "0.01", "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "status = reached" in captured
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,gt,overlap"
    first = [float(x) for x in lines[1].split(",")]
    assert first[2] == pytest.approx(0.99, abs=1e-12)


def test_gp_validity_cli(tmp_path, capsys):
    out = tmp_path / "validity.csv"
    assert run_cli(["gp-validity", "--atoms", "1e3", "1e4",
                    "--interaction", "0.001", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "N_atoms,g,t_star,t_star_times_N_over_logN"
    assert len(lines) == 3
    assert lines[1].startswith("1000,1,")


@pytest.mark.parametrize("atoms, cell", [
    ("9007199254740992", "9007199254740992"),  # 2^53: still an integer
    ("1e17", "1e+17"),
    # printed as its 301-digit integer before
    ("1e300", "1.0000000000000001e+300"),
])
def test_gp_validity_cli_at_large_atom_counts(atoms, cell, capsys):
    assert run_cli(["gp-validity", "--atoms", atoms]) == 0
    row = capsys.readouterr().out.strip().split("\n")[1].split(",")
    assert row[0] == cell
    assert 0.0 < float(row[2]) < math.inf


def test_gp_validity_refuses_an_atom_count_that_is_not_whole(capsys):
    # 2.5 atoms used to be truncated to 2 and computed
    err = refused(["gp-validity", "--atoms", "1e3", "2.5"], capsys)
    assert "nlqsim gp-validity: error: n_atoms must be a whole number >= 2, got 2.5" in err


def test_gp_validity_reads_an_atom_count_in_float_notation_as_that_integer(capsys):
    assert run_cli(["gp-validity", "--atoms", "1e3"]) == 0
    as_float = capsys.readouterr().out
    assert run_cli(["gp-validity", "--atoms", "1000"]) == 0
    assert as_float == capsys.readouterr().out
    assert as_float.split("\n")[1].startswith("1000,1,")


def test_audit_refuses_a_horizon_that_is_not_positive(capsys):
    err = refused(["audit", "--n", "8", "--duration", "-1"], capsys)
    assert "nlqsim audit: error: duration must be finite and > 0, got -1.0" in err


@pytest.mark.parametrize("argv, message", [
    (["audit", "--n", "8", "--duration", "inf"], "duration must be finite and > 0, got inf"),
    (["audit", "--n", "8", "--duration", "nan"], "duration must be finite and > 0, got nan"),
    (["search", "--n", "8", "--t1", "inf"], "t1 must be finite and > 0, got inf"),
    (["audit", "--n", "8", "--t1", "nan"], "t1 must be finite and > 0, got nan"),
    (["search", "--n", "8", "--t1", "abc"], "could not convert string to float: 'abc'"),
    (["audit", "--n", "8", "--t1", "0"], "t1 must be finite and > 0, got 0.0"),
    (["discriminate", "--alpha0", "nan"], "alpha0 must be in (0, pi], got nan"),
    (["bounds", "--alpha0", "inf"], "alpha0 must be in (0, pi], got inf"),
    (["discriminate", "--epsilon", "inf"], "epsilon must be in [0, 1], got inf"),
    (["discriminate", "--alpha0", "0.5", "--target-overlap", "nan"],
     f"target overlap must be in [0, cos(alpha0/2)) = [0, {math.cos(0.25)!r}), got nan"),
    (["bounds", "--z0", "inf"], "z0 must be in [0, 1), got inf"),
    (["bounds", "--delta", "nan"], "Delta must be > 0, got nan"),
    (["bounds", "--g-lip", "inf"], "g_lip must be finite and >= 0, got inf"),
    (["bounds", "--duration", "inf"], "duration must be finite and >= 0, got inf"),
    (["gp-validity", "--atoms", "inf"], "n_atoms must be a whole number >= 2, got inf"),
    (["gp-validity", "--atoms", "1e3", "--interaction", "nan"],
     "U must be finite and > 0, got nan"),
    (["discriminate", "--alpha0", "0"], "alpha0 must be in (0, pi], got 0.0"),
    (["discriminate", "--alpha0", "4"], "alpha0 must be in (0, pi], got 4.0"),
    # epsilon = 0 is the angle 0
    (["discriminate", "--epsilon", "0"], "alpha0 must be in (0, pi], got 0.0"),
    (["discriminate", "--epsilon", "1.5"], "epsilon must be in [0, 1], got 1.5"),
    (["bounds", "--alpha0", "0"], "alpha0 must be in (0, pi], got 0.0"),
    (["bounds", "--duration", "-1"], "duration must be finite and >= 0, got -1.0"),
    (["gp-validity", "--atoms", "1"], "n_atoms must be a whole number >= 2, got 1"),
    (["gp-validity", "--atoms", "1e3", "--interaction", "0"], "U must be finite and > 0, got 0.0"),
], ids=["duration-inf", "duration-nan", "t1-inf", "t1-nan", "t1-abc", "t1-zero",
        "alpha0-nan", "bounds-alpha0-inf", "epsilon-inf", "target-overlap-nan", "z0-inf",
        "delta-nan", "g-lip-inf", "bounds-duration-inf", "atoms-inf", "interaction-nan",
        "alpha0-zero", "alpha0-above-pi", "epsilon-zero", "epsilon-above-one",
        "bounds-alpha0-zero",
        "bounds-duration-negative", "atoms-one", "interaction-zero"])
def test_a_horizon_or_oracle_time_that_is_not_finite_and_positive_exits_2(argv, message,
                                                                           capsys):
    assert f"nlqsim {argv[0]}: error: {message}" in refused(argv, capsys)


@pytest.mark.parametrize("argv, bound", [
    (["discriminate", "--alpha0", "0.5", "--target-overlap", "0.99"], repr(math.cos(0.25))),
    # the smaller count starts at the lower overlap, 1 - 1/100, but the
    # rows go in the order given and 1e3 is refused first
    (["gp-validity", "--atoms", "1e3", "100", "--target-overlap", "1.5"], "0.999"),
], ids=["discriminate", "gp-validity"])
def test_a_target_overlap_past_the_starting_overlap_exits_2(argv, bound, capsys):
    assert (f"target overlap must be in [0, cos(alpha0/2)) = [0, {bound}), got {argv[-1]}"
            in refused(argv, capsys))


@pytest.mark.parametrize("argv, message", [
    (["search", "--n", "1"], "N must be a whole number >= 2, got 1"),
    (["audit", "--n", "1"], "N must be a whole number >= 2, got 1"),
    (["audit", "--n", "0"], "N must be a whole number >= 2, got 0"),
    # -3 ended in sqrt's "math domain error"
    (["audit", "--n", "-3"], "N must be a whole number >= 2, got -3"),
    (["search", "--n", "16", "--marked", "0"], "marked must be a whole number in [1, 16], got 0"),
    (["search", "--n", "16", "--marked", "17"],
     "marked must be a whole number in [1, 16], got 17"),
    (["bounds", "--z0", "1.5"], "z0 must be in [0, 1), got 1.5"),
    (["bounds", "--z0", "-0.5"], "z0 must be in [0, 1), got -0.5"),
    (["bounds", "--delta", "-1"], "Delta must be > 0, got -1.0"),
    (["bounds", "--grid", "1"], "grid must be a whole number >= 2, got 1"),
], ids=["search-n-1", "audit-n-1", "audit-n-0", "audit-n-negative", "marked-0",
        "marked-above-n", "z0-above-1", "z0-negative", "delta-negative", "grid-1"])
def test_a_count_or_latitude_out_of_range_exits_2(argv, message, capsys):
    assert f"nlqsim {argv[0]}: error: {message}" in refused(argv, capsys)


def test_discriminate_cli_starts_an_orthogonal_pair_at_epsilon_one(capsys):
    assert run_cli(["discriminate", "--epsilon", "1"]) == 0
    out = capsys.readouterr().out
    assert f"alpha0 = {cli.fmt(math.pi)}" in out and "status = reached" in out


@pytest.mark.parametrize("samples", ["-1", "0", "1"])
def test_audit_refuses_fewer_than_two_samples(samples, capsys):
    err = refused(["audit", "--n", "8", "--samples", samples], capsys)
    assert f"nlqsim audit: error: samples must be a whole number >= 2, got {samples}" in err


def test_audit_cli(tmp_path, capsys):
    out = tmp_path / "audit.csv"
    assert run_cli(["audit", "--n", "8", "--nonlinearity", "gp:0.5",
                    "--duration", "2.0", "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "bound_ok = True" in captured
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,S,bound,margin"


def test_audit_cli_runs_search_schedule_above_dense_cap(capsys):
    # The N = 256 cap applies to a dense H; the search schedule runs at any N.
    assert run_cli(["audit", "--n", "1048576", "--nonlinearity", "gp:1"]) == 0
    captured = capsys.readouterr().out
    assert "N = 1048576" in captured
    assert "bound_ok = True" in captured


def test_bounds_cli(tmp_path, capsys):
    out = tmp_path / "bounds.csv"
    assert run_cli(["bounds", "--nonlinearity", "gp:1.0", "--z0", "0.5",
                    "--delta", "0.3", "--grid", "2000",
                    "--duration", "3.0", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "nonlinearity,z0,g_local,c_certified,bound_ok,max_ratio"
    fields = lines[1].split(",")
    assert fields[0] == "gp:1"
    assert float(fields[2]) == pytest.approx(1.0, abs=1e-9)
    assert fields[4] == "True"


@pytest.mark.parametrize("argv, message", [
    (["--duration", "-1", "--alpha0", "0"], "alpha0 must be in (0, pi], got 0.0"),
    (["--alpha0", "4"], "alpha0 must be in (0, pi], got 4.0"),
    (["--duration", "-1"], "duration must be finite and >= 0, got -1.0"),
    (["--duration", "nan"], "duration must be finite and >= 0, got nan"),
], ids=["both", "alpha0-above-pi", "duration-negative", "duration-nan"])
def test_bounds_without_a_lipschitz_constant_still_refuses_its_run_inputs(argv, message,
                                                                          capsys):
    # sqrt has no finite Lipschitz constant, so without --g-lip no bound check
    # runs; --alpha0 and --duration are refused all the same
    err = refused(["bounds", "--nonlinearity", "sqrt:1", "--grid", "200", *argv], capsys)
    assert f"nlqsim bounds: error: {message}" in err


def test_bounds_without_a_lipschitz_constant_notes_it_and_exits_0(capsys):
    assert run_cli(["bounds", "--nonlinearity", "sqrt:1", "--grid", "200"]) == 0
    out = capsys.readouterr().out
    assert "no finite Lipschitz constant detected; pass --g-lip" in out


def test_optimize_cli(capsys):
    assert run_cli(["optimize", "--nonlinearity", "gp:1.0", "--alpha", "0.5",
                    "--dim", "2", "--restarts", "8", "--seed", "42"]) == 0
    captured = capsys.readouterr().out
    rate = float(captured.split("best_rate = ")[1].split("\n")[0])
    assert rate == pytest.approx(-0.5 * math.sin(0.25) ** 2, abs=1e-8)


def test_optimize_cli_reports_the_signed_rate_just_short_of_orthogonal(capsys):
    # the rate searched is signed at every alpha < pi; this line printed
    # best_rate = 1.3254868386858132, the magnitude
    assert run_cli(["optimize", "--nonlinearity", "log:1", "--alpha", "3.1415926535897",
                    "--dim", "3", "--restarts", "4"]) == 0
    out = capsys.readouterr().out
    assert float(out.split("best_rate = ")[1].split("\n")[0]) < 0.0


def test_optimize_cli_reports_sweep_cap(capsys):
    assert run_cli(["optimize", "--nonlinearity", "log:1.0", "--alpha", "0.5",
                    "--dim", "2"]) == 0
    assert "sweeps = 0, capped = False" in capsys.readouterr().out
    assert run_cli(["optimize", "--nonlinearity", "quartic", "--alpha", "0.5",
                    "--dim", "3", "--restarts", "2"]) == 0
    out = capsys.readouterr().out
    rate = float(out.split("best_rate = ")[1].split("\n")[0])
    assert rate == pytest.approx(-7.532162954001e-3, rel=1e-9, abs=0.0)
    assert "capped = False" in out
    assert float(out.split("grad_norm = ")[1].split("\n")[0]) <= 1e-8


@pytest.mark.parametrize("flag,value,message", [
    ("--dim", "1", "dim must be a whole number in [2, 8], got 1"),
    ("--restarts", "0", "restarts must be a whole number >= 1, got 0"),
    ("--alpha", "0", "alpha must be in (0, pi) for orientation search, got 0.0"),
    ("--dim", "9", "dim must be a whole number in [2, 8], got 9"),
], ids=[  # the first three: the names they had when the CLI held its own range checks
    "--dim-1-argument --dim: must be in 2..8, got 1",
    "--restarts-0-argument --restarts: must be >= 1, got 0",
    "--alpha-0-argument --alpha: must be in (0, pi), got 0",
    "--dim-9",
])
def test_optimize_refuses_out_of_range_input(flag, value, message, capsys):
    assert f"nlqsim optimize: error: {message}" in refused(["optimize", flag, value], capsys)


def test_validate_reports_injected_parity_bug(monkeypatch, capsys):
    from nlqsim.nonlinearity import ReducedNonlinearity

    def parity_broken(check):
        # every reduction drops the sign of z, inside this one check only
        def run(ctx):
            call = ReducedNonlinearity.__call__
            with monkeypatch.context() as m:
                m.setattr(ReducedNonlinearity, "__call__",
                          lambda self, z: call(self, np.abs(np.asarray(z, dtype=float))))
                return check(ctx)
        return run

    monkeypatch.setattr(validation, "ALL_CHECKS", [
        parity_broken(c) if c is validation.check_kbar_odd else c
        for c in validation.ALL_CHECKS])
    code = run_cli(["validate", "--quick"])
    captured = capsys.readouterr().out
    assert code == 1
    assert "kbar_odd" in captured
    lines = [l for l in captured.split("\n") if l.startswith("kbar_odd")]
    assert lines and "FAIL" in lines[0]
    assert "failing: kbar_odd" in captured


def test_validate_csv_output(tmp_path, capsys):
    out = tmp_path / "checks.csv"
    assert run_cli(["validate", "--quick", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "check,ok,detail"
    assert all(",True," in l for l in lines[1:])
    names = [l.split(",")[0] for l in lines[1:]]
    assert len(set(names)) == len(names) == len(validation.ALL_CHECKS)
    # each check's wall time goes to stderr, one line per check in order
    timings = captured.err.strip().split("\n")
    assert [t.split()[0] for t in timings] == names
    assert all(t.endswith(" s") and float(t.split()[1]) >= 0.0 for t in timings)


def test_discriminate_cli_reoptimized_policy(capsys):
    assert run_cli(["discriminate", "--nonlinearity", "log:1.0",
                    "--alpha0", "0.5", "--target-overlap", "0.7071",
                    "--policy", "reopt"]) == 0
    captured = capsys.readouterr().out
    assert "status = reached" in captured


def test_discriminate_cli_no_progress(capsys):
    assert run_cli(["discriminate", "--nonlinearity", "quartic",
                    "--alpha0", "0.5"]) == 0
    captured = capsys.readouterr().out
    assert "status = no_progress" in captured
    assert "diagnostic" in captured


def test_discriminate_cli_prints_a_zero_rate_without_its_sign(capsys):
    assert run_cli(["discriminate", "--nonlinearity", "gp:0", "--alpha0", "0.5",
                    "--target-overlap", "0"]) == 0
    captured = capsys.readouterr().out
    assert "diagnostic = separation rate 0.000e+00 at overlap " in captured


def test_custom_nonlinearity_csv_through_cli(tmp_path, capsys):
    # a quadratic table: behaves like gp:1 up to interpolation error
    table = tmp_path / "kappa.csv"
    xs = np.linspace(0.0, 1.0, 200)
    table.write_text("\n".join(f"{x},{x * x}" for x in xs))
    out = tmp_path / "trace.csv"
    assert run_cli(["discriminate", "--nonlinearity", f"custom:{table}",
                    "--alpha0", "0.5", "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    t_custom = float(captured.split("t_to_target = ")[1].split("\n")[0])
    assert t_custom == pytest.approx(gp_t_perp(1.0, 0.5), rel=1e-3)


def test_optimize_cli_dimension_chain(tmp_path, capsys):
    out = tmp_path / "opt.csv"
    assert run_cli(["optimize", "--nonlinearity", "quartic", "--alpha", "0.5",
                    "--dim", "3", "--restarts", "8", "--seed", "42",
                    "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "alpha,dim,best_rate,gap_vs_dim2"
    alpha, dim, rate, gap = lines[1].split(",")
    assert dim == "3"
    assert float(rate) < -1e-4
    assert float(gap) == pytest.approx(float(rate), abs=1e-10)  # dim-2 rate is 0


def test_console_entry_point():
    import subprocess
    import sys
    proc = subprocess.run([sys.executable, "-m", "nlqsim.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for name in ("discriminate", "bounds", "search", "audit", "optimize",
                 "gp-validity", "figures", "validate"):
        assert name in proc.stdout


def test_import_loads_neither_scipy_interpolate_nor_integrate():
    # scipy.interpolate was most of the import time; only PCHIP tables use it
    import subprocess
    import sys
    code = "import sys, nlqsim; print(sorted(m for m in sys.modules if m.startswith('scipy.')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.strip()
    assert "scipy.interpolate" not in loaded and "scipy.integrate" not in loaded


@pytest.mark.parametrize("cmd", [["discriminate", "--alpha0", "0.5"], ["search", "--n", "16"]])
def test_tol_below_the_quadrature_floor_exits_2(cmd, capsys):
    assert f"{RTOL_FLOOR}, got 1e-15" in refused(cmd + ["--tol", "1e-15"], capsys)


@pytest.mark.parametrize("spec, message", [
    ("weinberg:1", "unknown nonlinearity kind in 'weinberg:1'"),
    ("custom:/nonexistent.csv", "[Errno 2] No such file or directory: '/nonexistent.csv'"),
    ("custom:{tmp}/kappa.csv", "custom table {tmp}/kappa.csv, line 3: expected two finite "
                               "numbers x,kappa(x), got '0.5'"),
    ("gp:-1", "nonlinearity strength must be finite and >= 0, got -1.0"),
    # these two ran as gp:2 and ended in "could not convert string to float: ''"
    ("gp:2:oops", "nonlinearity spec must be kind[:g] or custom:<path>[:g], got 'gp:2:oops'"),
    ("sqrt:", "nonlinearity strength in 'sqrt:' must be a number, got ''"),
], ids=["unknown-kind", "missing-table", "malformed-table", "negative-strength", "extra-field",
        "empty-strength"])
def test_a_nonlinearity_the_library_refuses_exits_2(spec, message, tmp_path, capsys):
    # these ended in a traceback and exit 1
    (tmp_path / "kappa.csv").write_text("x,kappa\n0,0\n0.5\n1,1\n")
    argv = ["discriminate", "--nonlinearity", spec.format(tmp=tmp_path), "--alpha0", "0.5"]
    err = refused(argv, capsys)
    assert err == f"nlqsim discriminate: error: {message.format(tmp=tmp_path)}\n"
