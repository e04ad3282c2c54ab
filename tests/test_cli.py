import argparse
import math

import numpy as np
import pytest

from nlqsim import cli
from nlqsim.discrimination import gp_overlap_closed_form, gp_t_perp


def run_cli(argv):
    return cli.main(argv)


# The flags each subcommand's handler reads, and no others.
SUBCOMMAND_FLAGS = {
    "discriminate": {"nonlinearity", "alpha0", "epsilon", "target-overlap", "policy",
                     "tol", "out"},
    "bounds": {"nonlinearity", "z0", "delta", "grid", "alpha0", "duration", "g-lip",
               "out"},
    "search": {"nonlinearity", "n", "marked", "t1", "seed", "tol", "out"},
    "audit": {"nonlinearity", "n", "t1", "duration", "samples", "seed", "out"},
    "optimize": {"nonlinearity", "alpha", "dim", "restarts", "seed", "out"},
    "gp-validity": {"atoms", "interaction", "target-overlap", "out"},
    "figures": {"which", "out"},
    "validate": {"quick", "seed", "out", "inject-bug"},
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
    assert sum(len(f) for f in seen.values()) == 45


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


@pytest.mark.parametrize("tol", ["0", "-1e-8", "nan", "inf", "x"])
def test_tol_must_be_finite_positive(tol, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["discriminate", "--alpha0", "0.5", "--tol", tol])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


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


def test_figures_unwritable_path_errors():
    with pytest.raises(SystemExit, match="/nonexistent"):
        run_cli(["figures", "--out", "/nonexistent/dir"])


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


def test_audit_cli(tmp_path, capsys):
    out = tmp_path / "audit.csv"
    assert run_cli(["audit", "--n", "8", "--nonlinearity", "gp:0.5",
                    "--duration", "2.0", "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "bound_ok = True" in captured
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,S,bound,margin"


def test_bounds_cli(tmp_path, capsys):
    out = tmp_path / "bounds.csv"
    assert run_cli(["bounds", "--nonlinearity", "gp:1.0", "--z0", "0.5",
                    "--delta", "0.3", "--grid", "2000",
                    "--duration", "3.0", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "nonlinearity,z0,g_local,c,bound_ok,max_ratio"
    fields = lines[1].split(",")
    assert fields[0] == "gp:1"
    assert float(fields[2]) == pytest.approx(1.0, abs=1e-9)
    assert fields[4] == "True"


def test_optimize_cli(capsys):
    assert run_cli(["optimize", "--nonlinearity", "gp:1.0", "--alpha", "0.5",
                    "--dim", "2", "--restarts", "8", "--seed", "42"]) == 0
    captured = capsys.readouterr().out
    rate = float(captured.split("best_rate = ")[1].split("\n")[0])
    assert rate == pytest.approx(-0.5 * math.sin(0.25) ** 2, abs=1e-8)


def test_optimize_cli_reports_sweep_cap(capsys):
    assert run_cli(["optimize", "--nonlinearity", "log:1.0", "--alpha", "0.5",
                    "--dim", "2"]) == 0
    assert "sweeps = 0, capped = False" in capsys.readouterr().out
    assert run_cli(["optimize", "--nonlinearity", "quartic", "--alpha", "0.5",
                    "--dim", "3", "--restarts", "2"]) == 0
    assert "sweeps = 210, capped = False" in capsys.readouterr().out


def test_validate_quick_passes_and_is_deterministic(capsys):
    assert run_cli(["validate", "--quick"]) == 0
    first = capsys.readouterr().out
    assert run_cli(["validate", "--quick"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "checks passed" in first


def test_validate_reports_injected_parity_bug(capsys):
    code = run_cli(["validate", "--quick", "--inject-bug", "kbar-parity"])
    captured = capsys.readouterr().out
    assert code == 1
    assert "kbar_odd" in captured
    lines = [l for l in captured.split("\n") if l.startswith("kbar_odd")]
    assert lines and "FAIL" in lines[0]
    assert "failing: kbar_odd" in captured


def test_validate_csv_output(tmp_path, capsys):
    out = tmp_path / "checks.csv"
    assert run_cli(["validate", "--quick", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "check,ok,detail"
    assert all(",True," in l for l in lines[1:])


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


@pytest.mark.parametrize("cmd", [["discriminate", "--alpha0", "0.5"], ["search", "--n", "16"]])
def test_tol_below_the_quadrature_floor_exits_2(cmd, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(cmd + ["--tol", "1e-15"])
    assert exc.value.code == 2
    assert "1.11e-14" in capsys.readouterr().err
