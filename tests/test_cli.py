import csv
import math
import os
import subprocess
import sys

import pytest

from ellstat import cli
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


def test_empty_lists_exit_2(capsys):
    # a list of only separators is an error, not a header with no rows
    for argv in (["brute", "--p", "5", "--stats", ","], ["compare", "--p", ","]):
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: "), argv


def test_compare_bad_prime_prints_nothing(capsys):
    # every prime is checked before the header, so no row precedes the error
    for plist in ("719,4", "11,5003"):
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
    rows = dict(line.split(",") for line in out.strip().splitlines())
    assert rows["value"] == rows["predicted"]
    # the Frobenius law behind g is for ell != p
    code, _, _ = run_cli("density", "g-sum", "--ell", "11", "--p", "11", "--R", "3")
    assert code == 2


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
    # a window of 6.18e8 passes every hypothesis check; the sieve would need
    # several int64 arrays of that length, so the budget stops it first
    assert main(["divap", "mean-square", "--A", "382000000", "--B", "1000000000", "--q", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: window budget")


def test_main_callable_directly(tmp_path, capsys):
    assert main(["brute", "--p", "4"]) == 2
    assert main(["definitely-not-a-command"]) == 1
    assert main(["brute", "--p", "5", "--stats", "one"]) == 0


def test_seed_determinism():
    a = run_cli("brute", "--p", "67", "--stats", "s", "--seed", "5")
    b = run_cli("brute", "--p", "67", "--stats", "s", "--seed", "5")
    c = run_cli("brute", "--p", "67", "--stats", "s", "--seed", "6")
    assert a[1] == b[1] == c[1]  # values identical (and seed-independent here)
