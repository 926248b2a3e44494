"""Tests of the benchmark itself: inputs, output checks, self-time arithmetic.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import contextlib
import io
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from ellstat import analytic, cli, densities  # noqa: E402


def _run(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    for seed in (0, 1, 7, 12345):
        assert workloads.generate(workload, seed) == workloads.generate(workload, seed)


def test_default_seed_gives_the_named_inputs():
    assert [op["p"] for op in workloads.generate("brute-large", 0)] == [1009, 1601, 2003]
    assert [op["p"] for op in workloads.generate("compare-safe", 0)] == [719, 1019]
    assert [op["xmax"] for op in workloads.generate("sweep-small", 0)] == [503]
    prob = workloads.generate("prob-shapes", 0)
    assert len(prob) == 55 and {op["p"] for op in prob} == {101}
    assert [op["p"] for op in workloads.generate("brute-large", 1)] == [1051, 1601, 2003]
    assert workloads.generate("brute-large", 7)[0]["argv"][-2:] == ["--seed", "7"]


def test_pools_hold_their_strata():
    for a, b, c in workloads.BRUTE_BUNDLES:
        assert all(workloads.is_prime(p) and 1000 <= p <= 2100 for p in (a, b, c))
        assert workloads.is_smooth_stratum(a) and workloads.is_smooth_stratum(b)
        assert workloads.is_squarefree_stratum(c)
    for bundle in workloads.COMPARE_BUNDLES:
        assert all(workloads.is_safe_prime(p) and 700 <= p <= 1100 for p in bundle)


def test_every_generated_operation_has_a_recorded_digest():
    expected = checks.load_expected()
    for workload in workloads.WORKLOADS:
        for seed in range(4):
            assert {op["key"] for op in workloads.generate(workload, seed)} <= set(expected)


def test_check_trips_on_one_corrupted_byte():
    op = next(o for o in workloads.generate("prob-shapes", 0) if o["key"].endswith("--d2 106 --lmax 1000"))
    stdout = _run(op["argv"])
    expected = checks.load_expected()
    assert checks.check(op, stdout, None, expected) == []
    for i in (0, len(stdout) // 2, len(stdout) - 2):
        bad = stdout[:i] + chr(ord(stdout[i]) ^ 1) + stdout[i + 1 :]
        assert checks.check(op, bad, None, expected)


def test_check_trips_on_one_corrupted_csv_byte(tmp_path):
    out = tmp_path / "sweep.csv"
    op = {"kind": "sweep", "key": "sweep --xmax 13", "xmax": 13}
    stdout = _run(["sweep", "--xmax", "13", "--out", str(out)]).replace(str(out), checks.OUT_PLACEHOLDER)
    data = out.read_bytes()
    expected = {op["key"]: {"stdout": checks.digest(stdout.encode()), "csv": checks.digest(data)}}
    assert checks.check(op, stdout, data, expected) == []
    bad = bytearray(data)
    bad[len(bad) // 2] ^= 1
    assert checks.check(op, stdout, bytes(bad), expected)


def test_tally_invariants_trip():
    op = {"kind": "brute", "key": "brute --p 13", "p": 13}
    stdout = _run(["brute", "--p", "13", "--stats", "s,c,tau,one", "--tally"])
    assert checks.check(op, stdout, None, None) == []
    head, rows = stdout.split("d1,d2,count\n")
    first, rest = rows.split("\n", 1)
    d1, d2, count = first.split(",")
    wrong_mass = f"{head}d1,d2,count\n{d1},{d2},{int(count) + 1}\n{rest}"
    assert any("mass" in p for p in checks.check(op, wrong_mass, None, None))
    wrong_d1 = f"{head}d1,d2,count\n5,1,{count}\n{rest}"
    assert any("d1 does not divide" in p for p in checks.check(op, wrong_d1, None, None))


def test_self_time_on_a_synthetic_nested_call():
    now = [0.0]
    tracer = spans.Tracer(clock=lambda: now[0])

    def work(dt):
        now[0] += dt

    def inner(dt):
        work(dt)

    def outer():
        work(1.0)
        traced_inner(2.0)
        traced_inner(3.0)
        work(4.0)

    traced_inner = tracer.wrap("m.inner", inner)
    traced_outer = tracer.wrap("m.outer", outer)
    with tracer.operation(0):
        work(0.5)
        traced_outer()
    summary = spans.summarize(tracer.spans)
    assert summary["m.inner"] == {"calls": 2, "self_s": 5.0, "total_s": 5.0}
    assert summary["m.outer"] == {"calls": 1, "self_s": 5.0, "total_s": 10.0}
    assert summary[spans.OP_SPAN] == {"calls": 1, "self_s": 0.5, "total_s": 10.5}
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 1]
    assert {s[4] for s in tracer.spans} == {0}


def test_installed_rebinds_every_name_and_restores():
    original = densities.level_congruence_count
    assert analytic.level_congruence_count is original
    tracer = spans.Tracer()
    with spans.installed(tracer, "ellstat", targets=("densities.level_congruence_count",)):
        assert densities.level_congruence_count is not original
        assert analytic.level_congruence_count is densities.level_congruence_count
        densities.level_congruence_count(5, 0, 3, 1)
    assert densities.level_congruence_count is original
    assert analytic.level_congruence_count is original
    assert [s[0] for s in tracer.spans] == ["densities.level_congruence_count"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compare-safe",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
