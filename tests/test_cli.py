import ast
import csv
import hashlib
import importlib
import math
import os
import pathlib
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from ellstat import cli, curves, densities
from ellstat.cli import main

ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "ellstat.cli", *args],
        capture_output=True,
        text=True,
        env=ENV,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_brute_one():
    code, out, _ = run_cli("brute", "--p", "5", "--stats", "one")
    assert code == 0
    assert "one,1" in out


def test_brute_stats_values():
    code, out, _ = run_cli("brute", "--p", "5", "--stats", "s,c,tau")
    assert code == 0
    rows = dict(line.split(",") for line in out.strip().splitlines()[1:])
    assert float(rows["s"]) == pytest.approx(3.35)
    assert float(rows["c"]) == pytest.approx(3.2)
    assert float(rows["tau"]) == pytest.approx(3.05)


def test_brute_tally_mass():
    code, out, _ = run_cli("brute", "--p", "101", "--stats", "one", "--tally")
    assert code == 0
    lines = out.strip().splitlines()
    start = lines.index("d1,d2,count") + 1
    total = sum(int(line.split(",")[2]) for line in lines[start:])
    assert total == 101 * 100


def test_brute_domain_error_exit_2():
    for p in ("4", "9"):  # not prime
        code, _, err = run_cli("brute", "--p", p)
        assert code == 2, (p, err)
    # prime and within the brute-force limit: not an error case
    code, out, err = run_cli("brute", "--p", "4001", "--stats", "s,c,tau,one")
    assert code == 0, err
    assert out.splitlines() == [
        "stat,value",
        "s,17.6369657586",
        "c,15.4928767808",
        "tau,13.1692076981",
        "one,1",
    ]


def test_brute_prime_bound(capsys):
    # 999983 is the largest prime <= 10^6, 1000003 the smallest above
    assert cli._BRUTE_MAX == 10**6
    assert main(["brute", "--p", "999983", "--stats", "one"]) == 0
    assert capsys.readouterr().out == "stat,value\none,1\n"
    assert main(["brute", "--p", "1000003"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: p must be a prime with 5 <= p <= 1000000"), err


def test_empty_lists_exit_2(capsys):
    # a list of only separators is an error, not a header with no rows
    for argv in (["brute", "--p", "5", "--stats", ","], ["compare", "--p", ","]):
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: "), argv


def test_compare_bad_prime_prints_nothing(capsys):
    # every prime is checked before the header, so no row precedes the error
    for plist in ("719,4", "11,1000003"):
        assert main(["compare", "--p", plist]) == 2, plist
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: p must be a prime"), plist


def test_usage_error_exit_1():
    code, _, _ = run_cli("brute", "--nonsense")
    assert code == 1
    code, _, _ = run_cli("frobnicate")
    assert code == 1


def test_leftover_arguments_show_the_command_usage(capsys):
    cases = (
        (["brute", "--p", "5", "extra"], "usage: ellstat brute "),
        (["density", "f-ell", "--ell", "3", "--p", "7", "--d1", "1", "--d2", "8", "extra"],
         "usage: ellstat density f-ell "),
        (["--bogus", "brute", "--p", "5"], "usage: ellstat [-h]"),  # the root's own leftover
    )
    for argv, usage in cases:
        assert main(argv) == 1, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(usage), (argv, err)
        assert "error: unrecognized arguments: " in err, (argv, err)


_PROB = ["prob", "--p", "101", "--d1", "1", "--d2", "106", "--lmax", "50"]


@pytest.mark.parametrize(
    "argv, code",
    [
        ([], 1),
        (["--help"], 0),
        (["brute", "--help"], 0),
        (["density", "--help"], 0),
        (["divap", "delta", "--help"], 0),
        (["brute"], 1),  # --p is required
        (["brute", "--p", "x"], 1),
        (["brute", "--p", "5", "--st", "one"], 1),  # no prefix matching
        (["brute", "--p", "5", "extra"], 1),
        (["brute", "--p", "5", "--formula", "exact"], 1),
        (["brute", "--p=5", "--stats=one"], 0),
        (["brute", "--p", "-7"], 2),
        ([*_PROB, "--norm", "bad"], 1),
        ([*_PROB, "--norm", "paper"], 0),
        (["compare", "--p", "101", "--stat", "tau"], 1),
        (["sweep", "--xmax", "20", "--threads", "0", "--out", "unused.csv"], 1),
        (["sweep", "--xmax", "20", "--threads", "x", "--out", "unused.csv"], 1),
        (["sweep", "--xmax", "20"], 1),  # --out is required
        (["sweep", "--xmax", "20", "--out", "."], 1),  # a directory
        (["divap", "grid", "--out", "."], 1),
        (["fit", "--in", "/nonexistent", "--column", "y"], 1),
        (["fit", "--in", ".", "--column", "y"], 1),  # a directory
        (["density"], 1),
        (["divap"], 1),
        (["density", "f-ell", "--ell", "3", "--p", "7", "--d1", "1"], 1),
        (["divap", "delta", "--X", "-1e5"], 0),
        (["divap", "delta", "--X", "-inf", "--q", "3"], 2),
        (["divap", "mean-square", "--A", "-1e3", "--B", "10", "--q", "1"], 2),
    ],
)
def test_usage_contract(argv, code, capsys):
    # exit codes and streams only: the wording is the parser's own
    assert main(argv) == code, capsys.readouterr()
    out, err = capsys.readouterr()
    if code == 1:
        assert out == "" and err, (out, err)
    if argv[-1:] == ["--help"]:
        assert "usage" in out.lower() and err == "", (out, err)


@pytest.mark.parametrize("command", ["brute", "compare"])
def test_help_shows_no_default_for_required_p(command, capsys):
    assert main([command, "--help"]) == 0
    out = capsys.readouterr().out
    assert "(default: None)" not in out, out
    assert "a prime from 5 to 10^6" in out or "comma list of primes" in out
    assert "(default: s)" in out  # optional options keep their defaults


def test_import_cli_loads_no_click():
    code = "import sys, ellstat.cli; print('click' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": "src"},
        cwd=os.path.join(os.path.dirname(__file__), os.pardir),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_sweep_and_fit(tmp_path):
    out = tmp_path / "sweep.csv"
    code, stdout, _ = run_cli("sweep", "--xmax", "50", "--out", str(out))
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    # primes 5..47
    assert [int(r["p"]) for r in rows] == [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    header = open(out).readline().strip()
    assert header == "x,p,avg_s_corrected,avg_s_printed,avg_c_corrected,avg_tauN,running_mean_s"
    # running mean recomputed
    run = 0.0
    for i, r in enumerate(rows, 1):
        run += float(r["avg_s_corrected"])
        assert float(r["running_mean_s"]) == pytest.approx(run / i, rel=1e-10)


def test_sweep_gnuplot_unwritable_exit_2(tmp_path, capsys):
    out = tmp_path / "x.csv"
    (tmp_path / "x.csv.gp").mkdir()
    assert main(["sweep", "--xmax", "20", "--out", str(out), "--gnuplot"]) == 2
    stdout, err = capsys.readouterr()
    assert err.startswith(f"error: cannot write {out}.gp: "), err
    assert stdout == f"wrote {out} (6 rows)\n"  # the CSV is complete
    assert len(out.read_text().splitlines()) == 7


def test_sweep_gnuplot_script_plots_half_mass_averages(tmp_path, capsys):
    """1.053 is the through-origin slope of the corrected s averages at half
    mass against log p, so the script plots column 3 halved against it."""
    out = tmp_path / "x.csv"
    assert main(["sweep", "--xmax", "20", "--out", str(out), "--gnuplot"]) == 0
    assert capsys.readouterr().out == f"wrote {out}.gp\nwrote {out} (6 rows)\n"
    assert (tmp_path / "x.csv.gp").read_text() == (
        'set datafile separator ","\n'
        f'plot "{out}" using (log($1)):($3/2) with points title "avg s corrected, half mass", '
        '1.053*x title "1.053 log x"\n'
    )
    assert out.read_text().splitlines()[0].split(",")[2] == "avg_s_corrected"


def test_sweep_unwritable_out_exits_before_the_averages(tmp_path, capsys, monkeypatch):
    def refuse(xmax):
        raise AssertionError("averages computed")

    monkeypatch.setattr(curves, "sweep_averages", refuse)
    out = tmp_path / "missing" / "x.csv"
    assert main(["sweep", "--xmax", "20000", "--out", str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.startswith(f"error: cannot write {out}: "), err


def test_sweep_thread_determinism(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli("sweep", "--xmax", "60", "--threads", "1", "--out", str(out1))[0] == 0
    assert run_cli("sweep", "--xmax", "60", "--threads", "4", "--out", str(out2))[0] == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_threads_must_be_positive(tmp_path):
    code, _, err = run_cli("sweep", "--xmax", "20", "--threads", "0", "--out", str(tmp_path / "a.csv"))
    assert code == 1, err
    assert not (tmp_path / "a.csv").exists()


def test_sweep_xmax_bound_exit_2(tmp_path, capsys, monkeypatch):
    # checked before the 4 xmax + 1 entry class-number table is allocated
    assert cli._SWEEP_MAX == 10**6
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--xmax", "1000000000000", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: sweep needs xmax <= 1000000")
    assert not out.exists()
    # both sides of the bound, at a bound small enough to run
    monkeypatch.setattr(cli, "_SWEEP_MAX", 50)
    assert main(["sweep", "--xmax", "50", "--out", str(out)]) == 0
    assert main(["sweep", "--xmax", "51", "--out", str(tmp_path / "b.csv")]) == 2
    assert not (tmp_path / "b.csv").exists()


def test_sweep_has_no_budget_gate(tmp_path):
    out = tmp_path / "sweep.csv"
    code, _, err = run_cli("sweep", "--xmax", "600", "--out", str(out))
    assert code == 0, err
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 107  # the primes 5 <= p <= 600


def test_fit_synthetic(tmp_path):
    path = tmp_path / "fit.csv"
    with open(path, "w") as fh:
        fh.write("x,y\n")
        for x in range(5, 200, 7):
            fh.write(f"{x},{2 * math.log(x)}\n")
    code, out, _ = run_cli("fit", "--in", str(path), "--column", "y")
    assert code == 0
    rows = dict(line.split(",") for line in out.strip().splitlines())
    assert float(rows["slope"]) == pytest.approx(2.0, rel=1e-9)
    assert float(rows["residual_rms"]) == pytest.approx(0.0, abs=1e-9)


def test_fit_constant_column(tmp_path):
    path = tmp_path / "fit.csv"
    xs = list(range(5, 100, 3))
    with open(path, "w") as fh:
        fh.write("x,y\n")
        for x in xs:
            fh.write(f"{x},3.0\n")
    code, out, _ = run_cli("fit", "--in", str(path), "--column", "y")
    assert code == 0
    rows = dict(line.split(",") for line in out.strip().splitlines())
    want = 3.0 * sum(math.log(x) for x in xs) / sum(math.log(x) ** 2 for x in xs)
    assert float(rows["slope"]) == pytest.approx(want, rel=1e-9)
    assert float(rows["residual_rms"]) > 0.01


def test_fit_missing_column(tmp_path):
    path = tmp_path / "fit.csv"
    path.write_text("x,y\n5,1\n")
    code, _, _ = run_cli("fit", "--in", str(path), "--column", "zzz")
    assert code == 2


@pytest.mark.parametrize(
    "body, bad",
    [
        ("x,y\nabc,1\n", "x='abc'"),  # non-numeric cell
        ("x,y\n5,1\n0,2\n", "got '0'"),  # log x undefined
        ("x,y\n1,1\n1,2\n", "is 1"),  # every log x is 0: no slope
        ("x,y\n5,1\n7,nan\n", "y must be finite, got 'nan'"),  # slope,nan
        ("x,y\n5,inf\n7,1\n", "y must be finite, got 'inf'"),  # slope,inf
        ("x,y\n5,1\n7,-INF\n", "y must be finite, got '-INF'"),
    ],
)
def test_fit_bad_input_exit_2(tmp_path, body, bad):
    path = tmp_path / "fit.csv"
    path.write_text(body)
    code, _, err = run_cli("fit", "--in", str(path), "--column", "y")
    assert code == 2, err
    assert err.startswith("error:")
    assert str(path) in err and bad in err


def test_density_f_ell():
    code, out, _ = run_cli("density", "f-ell", "--ell", "3", "--p", "7", "--d1", "1", "--d2", "5")
    assert code == 0
    rows = dict(line.split(",") for line in out.strip().splitlines())
    assert rows["value"] == "3/4"
    assert rows["stabilized_R"] == "1"


def test_density_g_sum():
    code, out, _ = run_cli("density", "g-sum", "--ell", "5", "--p", "11", "--R", "3")
    assert code == 0
    assert out == "value,-101/15000\nfloat,-0.00673333333333\n"
    # the Frobenius law behind g is for ell != p
    code, _, _ = run_cli("density", "g-sum", "--ell", "11", "--p", "11", "--R", "3")
    assert code == 2


def test_density_g_sum_budget_exit_2(capsys):
    # the exact sum grows about R^2 log l; R = 10^5 is refused before the loop
    t0 = time.perf_counter()
    assert main(["density", "g-sum", "--ell", "5", "--p", "11", "--R", "100000"]) == 2
    assert time.perf_counter() - t0 < 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: g-sum budget"), err
    # R = 10^4 used to sum for 2 s and then fail to print a 7000-digit value
    assert main(["density", "g-sum", "--ell", "5", "--p", "7", "--R", "10000"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: g-sum budget"), err
    assert _stdout(capsys, "density", "g-sum", "--ell", "5", "--p", "11", "--R", "3") == (
        "value,-101/15000\nfloat,-0.00673333333333\n"
    )


@pytest.mark.parametrize("ell, p", [(2, 7), (3, 7), (5, 11), (7, 29)])
def test_density_g_sum_largest_admitted_R_prints(capsys, ell, p):
    # every value the budget admits prints under Python's 4300-digit limit
    # on int-to-str; the next R exits 2 before summing
    R = densities._G_SUM_BUDGET // ell.bit_length() - 4
    out = _stdout(capsys, "density", "g-sum", "--ell", str(ell), "--p", str(p), "--R", str(R))
    rows = dict(line.split(",") for line in out.splitlines())
    # v = 0 telescopes to 1/ell^(R+1), less 1/(ell (ell^2 - 1)) when ell | p - 1
    delta = Fraction(1 if (p - 1) % ell == 0 else 0, ell * (ell * ell - 1))
    assert Fraction(rows["value"]) == Fraction(1, ell ** (R + 1)) - delta
    assert main(["density", "g-sum", "--ell", str(ell), "--p", str(p), "--R", str(R + 1)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: g-sum budget"), err


def test_prob_command():
    code, out, _ = run_cli("prob", "--p", "101", "--d1", "1", "--d2", "106", "--lmax", "300")
    assert code == 0
    rows = dict(line.split(",") for line in out.strip().splitlines())
    assert 0.01 < float(rows["value"]) < 0.03


def test_prob_high_valuation_shape():
    # D = 13^2 - 4*103 = -243 = -3^5, so the density at 3 needs R = 6
    code, out, _ = run_cli("prob", "--p", "103", "--d1", "1", "--d2", "91", "--lmax", "300")
    assert code == 0
    rows = dict(line.split(",") for line in out.strip().splitlines())
    assert 0 < float(rows["value"]) < 1


def test_prob_lmax_without_primes_exit_2():
    for lmax in ("1", "-5"):
        code, out, err = run_cli("prob", "--p", "101", "--d1", "1", "--d2", "106", "--lmax", lmax)
        assert code == 2, (lmax, out, err)
        assert "ell_max" in err


def test_prob_lmax_above_budget_exit_2(capsys):
    # refused before the sieve: primes up to 10^12 would take terabytes
    for lmax in (10**7 + 1, 10**12):
        assert main(["prob", "--p", "101", "--d1", "1", "--d2", "106", "--lmax", str(lmax)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ell_max budget is 10000000"), (lmax, err)


def test_compare_row_finite():
    # 4079 = 2*2039 + 1: the Euler factor at l = 2039 must come out finite
    code, out, _ = run_cli("compare", "--p", "101,4079", "--stat", "s")
    assert code == 0
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "p"
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert [r["p"] for r in rows] == ["101", "4079"]
    for r in rows:
        vals = [float(v) for k, v in r.items() if k != "p"]
        assert all(math.isfinite(v) for v in vals)
    row = rows[0]
    # half-normalized models sit near the brute value, paper models near 2x
    assert abs(float(row["mt_A_half"]) - float(row["brute_corrected"])) < 1.0
    assert float(row["mt_A_paper"]) > 1.5 * float(row["brute_corrected"])


def test_divap_delta():
    code, out, _ = run_cli("divap", "delta", "--X", "10", "--q", "1", "--a", "0")
    assert code == 0
    assert float(out.strip().split(",")[1]) == pytest.approx(2.4298, abs=1e-4)
    # a is a residue modulo q: -7 and 5 are the same class modulo 12
    want = run_cli("divap", "delta", "--X", "1000", "--q", "12", "--a", "5")
    assert want[0] == 0
    assert run_cli("divap", "delta", "--X", "1000", "--q", "12", "--a", "-7") == want


def test_divap_mean_square():
    code, out, _ = run_cli(
        "divap", "mean-square", "--A", "1000000", "--B", "1000500", "--q", "16"
    )
    assert code == 0
    rows = dict(line.split(",") for line in out.strip().splitlines())
    assert set(rows) == {"lhs", "envelope", "ratio"}
    assert all(math.isfinite(float(v)) for v in rows.values())


def test_divap_grid_unwritable_out_exit_2(tmp_path):
    out = tmp_path / "missing" / "g.csv"
    code, _, err = run_cli("divap", "grid", "--out", str(out))
    assert code == 2, err
    assert err.startswith("error:")
    assert not out.exists()


def test_import_starts_no_process_machinery():
    # rows are computed in one process; importing the CLI must not pull in a pool
    code = (
        "import sys, ellstat.cli; "
        "print([m for m in sys.modules if m.startswith(('multiprocessing', 'concurrent'))])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": "src"},
        cwd=os.path.join(os.path.dirname(__file__), os.pardir),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_divap_invalid_q_exit_2():
    code, _, _ = run_cli("divap", "mean-square", "--A", "100", "--B", "140", "--q", "11")
    assert code == 2


@pytest.mark.parametrize(
    "args",
    [
        ("delta", "--X", "nan"),
        ("delta", "--X", "inf"),
        ("delta", "--X", "-inf", "--q", "3"),
        ("mean-square", "--A", "nan", "--B", "140", "--q", "1"),
        ("mean-square", "--A", "100", "--B", "inf", "--q", "1"),
    ],
)
def test_divap_non_finite_exit_2(args, capsys):
    assert main(["divap", *args]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_divap_delta_beyond_budget_exit_2(capsys):
    # the hyperbola sum would take isqrt(X) ~ 10^150 steps
    assert main(["divap", "delta", "--X", "1e300"]) == 2
    assert capsys.readouterr().err.startswith("error: hyperbola budget")


def test_divap_mean_square_window_budget_exit_2(capsys):
    # a window of 6.18e8 passes every hypothesis check; the sieve would hold
    # a list of that length, so the budget stops it first
    assert main(["divap", "mean-square", "--A", "382000000", "--B", "1000000000", "--q", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: window budget")


def test_divap_delta_modulus_budget(capsys):
    # two 16-digit primes: factoring q for the main term would not finish
    assert main(["divap", "delta", "--X", "1000", "--q", "1000000000000128000000000003367"]) == 2
    assert capsys.readouterr().err.startswith("error: modulus budget")
    assert main(["divap", "delta", "--X", "1000", "--q", "100000000000000"]) == 0
    assert capsys.readouterr().out.startswith("delta,")


def _stdout(capsys, *args):
    assert main(list(args)) == 0
    return capsys.readouterr().out


def test_divap_golden_outputs(capsys):
    # recorded with the numpy sieve that arith.tau_window replaced
    grid = _stdout(capsys, "divap", "grid")
    assert hashlib.sha256(grid.encode()).hexdigest() == (
        "90cf359c662da49a70cf50960e3cb40080cdfefe845ae35b768855c9b2ea9b35"
    )
    assert _stdout(capsys, "divap", "mean-square", "--A", "1000000", "--B", "1000500", "--q", "16") == (
        "lhs,529.39745324\nenvelope,1398.06653162\nratio,0.378663991496\n"
    )
    assert _stdout(capsys, "divap", "mean-square", "--A", "10000000", "--B", "10100000", "--q", "25") == (
        "lhs,5742.8130179\nenvelope,63706.9939343\nratio,0.0901441531493\n"
    )


def test_normalization_golden_outputs(capsys):
    # recorded while the library still took a normalization argument
    prob = ["prob", "--p", "101", "--lmax", "1000"]
    # t = -4 and D = 16 - 404 = -2^2 * 97: l = 2 and l = 97 divide D, so f_ell enters
    assert _stdout(capsys, *prob, "--d1", "1", "--d2", "106", "--norm", "paper") == (
        "value,0.0395427607259\ntail_log_increment,0.0385158965779\nell_max,1000\n"
    )
    assert _stdout(capsys, *prob, "--d1", "1", "--d2", "106", "--norm", "half") == (
        "value,0.019771380363\ntail_log_increment,0.0385158965779\nell_max,1000\n"
    )
    # N = 100, t = 2 and D = -2^4 * 5^2: level v = 1 at l = 2
    assert _stdout(capsys, *prob, "--d1", "2", "--d2", "25", "--norm", "paper") == (
        "value,0.0198360895784\ntail_log_increment,-0.0138375862018\nell_max,1000\n"
    )
    assert _stdout(capsys, "compare", "--p", "211,1009", "--stat", "c") == (
        "p,brute_corrected,brute_printed,mt_A_paper,mt_A_half,mt_B_paper,mt_B_half,"
        "rel_A_paper_corr,rel_A_paper_printed,rel_A_half_corr,rel_A_half_printed,"
        "rel_B_paper_corr,rel_B_paper_printed,rel_B_half_corr,rel_B_half_printed\n"
        "211,9.68167456556,11.4802527646,19.296865154,9.64843257702,20.3861476562,10.1930738281,"
        "0.993133008487,0.680874589585,0.00343349575658,0.159562705208,"
        "1.10564272927,0.775757735842,0.0528213646374,0.112121132079\n"
        "1009,12.7033366369,15.6818632309,25.3604564555,12.6802282278,30.7376032649,15.3688016324,"
        "0.99636183629,0.61718388192,0.00181908185504,0.19140805904,"
        "1.41964801401,0.960073418078,0.209824007005,0.0199632909612\n"
    )


def test_schoof_count_golden_outputs(tmp_path, capsys):
    # recorded while the rows of Schoof's count were still indexed by trace
    digests = {
        ("brute", "--p", "999983", "--stats", "s,c,tau,one", "--tally"): (
            "dbc2a7ae2f3df9bfcd4d985ee2f68ba383c88cf396134c44bd12554c1122ecf5"
        ),
        ("brute", "--p", "720007", "--stats", "s,c,tau,one", "--tally", "--formula", "printed"): (
            "8eafd476d843e6b29611defce600f663de16964cb1f869b8528e62f335fe25a5"
        ),
        ("compare", "--p", "982801,720007"): "c00912e56c5f0323ffd2c84b3f75ae2401e43a5704631363147830fd97712b5c",
    }
    for args, digest in digests.items():
        assert hashlib.sha256(_stdout(capsys, *args).encode()).hexdigest() == digest, args
    out = tmp_path / "sweep.csv"
    _stdout(capsys, "sweep", "--xmax", "10000", "--out", str(out))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "b6bef6b272ffe5ecfdad04b22afe1e8fdebad47d2835438162821f159a9951f1"
    )


def test_main_callable_directly(tmp_path, capsys):
    assert main(["brute", "--p", "4"]) == 2
    assert main(["definitely-not-a-command"]) == 1
    assert main(["brute", "--p", "5", "--stats", "one"]) == 0


def test_seed_determinism():
    a = run_cli("brute", "--p", "67", "--stats", "s", "--seed", "5")
    b = run_cli("brute", "--p", "67", "--stats", "s", "--seed", "5")
    c = run_cli("brute", "--p", "67", "--stats", "s", "--seed", "6")
    assert a[1] == b[1] == c[1]  # values identical (and seed-independent here)


def test_only_brute_tally_builds_a_tally(tmp_path, capsys, monkeypatch):
    """sweep, compare and brute without --tally read the averages from the
    sixfolds; StructureTally is made to raise to show that none is built."""

    def refuse(*args, **kwargs):
        raise AssertionError("StructureTally built")

    monkeypatch.setattr(curves, "StructureTally", refuse)
    assert main(["sweep", "--xmax", "503", "--out", str(tmp_path / "sweep.csv")]) == 0
    assert main(["compare", "--p", "719,1019"]) == 0
    assert main(["brute", "--p", "2003", "--stats", "s,c,tau,one"]) == 0
    with pytest.raises(AssertionError, match="StructureTally built"):
        main(["brute", "--p", "2003", "--tally"])


def test_brute_tally_makes_one_class_number_pass(capsys, monkeypatch):
    calls = []

    def counted(discriminants):
        calls.append(1)
        return hurwitz_sixfolds(discriminants)

    hurwitz_sixfolds = curves.hurwitz_sixfolds
    monkeypatch.setattr(curves, "hurwitz_sixfolds", counted)
    assert main(["brute", "--p", "2003", "--stats", "s,c,tau,one", "--tally"]) == 0
    assert len(calls) == 1


def test_perfbench_span_targets_resolve():
    """Every module.fn that the benchmark's trace wraps is a function of the
    package: a missing one makes ``perfbench/run.py --trace 1`` fail."""
    spans = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    (targets,) = [
        ast.literal_eval(node.value)
        for node in ast.parse(spans.read_text()).body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]
    ]
    assert targets
    for target in targets:
        module, fn = target.rsplit(".", 1)
        assert callable(getattr(importlib.import_module(f"ellstat.{module}"), fn, None)), target
