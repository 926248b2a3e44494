"""Registered mutants of ellstat, and the runner that checks that each is killed.

Each entry is one mutation of the package that the suite must catch: the
file it edits, the text it replaces, which must occur exactly once there,
the text it puts in its place, the test ids that should fail on it, and the
change that first ran it (most were first run by hand on a scratch copy).  An entry whose text has moved goes stale
loudly (``tests/test_mutants.py`` checks the registry's shape in tier-1).

Run every mutant, or the named ones, from the repository root::

    python tests/mutants.py [NAME ...]

For each mutant the runner copies ``src/`` and ``tests/`` into a temporary
directory, applies the mutant there, runs its test ids with pytest in a
subprocess and prints ``killed`` (a test failed), ``survived`` (all passed),
``timeout`` or ``error`` (pytest could not run the ids).  It exits 1 unless
every mutant is killed.  A change that adds an invariant or an oracle adds
the mutant that it kills.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parents[1]
_TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest ids, relative to the repository root
    origin: str  # the change that first ran it


_ANALYTIC = "src/ellstat/analytic.py"
_ARITH = "src/ellstat/arith.py"
_CURVES = "src/ellstat/curves.py"
_TEST_CURVES = "tests/test_curves.py"

MUTANTS = (
    Mutant(
        "inversion-stride",
        _CURVES,
        "(ms[j] // m) ** 2",
        "ms[j] // m",
        (f"{_TEST_CURVES}::test_tally_matches_per_trace_reference",),
        "767838c Averages and tallies from inverted class-number rows",
    ),
    Mutant(
        "inversion-offset",
        _CURVES,
        "(starts[j] - starts[i]) // (m * m)",
        "(starts[j] - starts[i]) // (m * m) + 1",
        (f"{_TEST_CURVES}::test_tally_matches_per_trace_reference",),
        "767838c Averages and tallies from inverted class-number rows",
    ),
    Mutant(
        "printed-step",
        _CURVES,
        "m * m // k",
        "m // k",
        (f"{_TEST_CURVES}::test_weighted_averages_match_averages_from_counts",),
        "767838c Averages and tallies from inverted class-number rows",
    ),
    Mutant(
        "moebius-by-2m-only",
        _CURVES,
        "if ms[j] % m == 0:",
        "if ms[j] == 2 * m:",
        (f"{_TEST_CURVES}::test_tally_matches_per_trace_reference",),
        "22e8d57 Tally group shapes by Schoof's theorem",
    ),
    Mutant(
        "row-1-rotated",
        _CURVES,
        "rows = [half[:0:-1] + half]",
        "rows = [half[-2:0:-1] + half[-1:] + half]",
        (f"{_TEST_CURVES}::test_tally_matches_per_trace_reference",),
        "cb024ef A tally is its counts again",
    ),
    Mutant(
        "g-sum-exponent",
        "src/ellstat/densities.py",
        "Fraction(1, ell ** (R + 1))",
        "Fraction(1, ell ** R)",
        ("tests/test_densities.py::test_g_sum_closed_form_matches_bucket_sum",),
        "767838c Averages and tallies from inverted class-number rows",
    ),
    Mutant(
        "sweep-table-short",
        _CURVES,
        "hurwitz_table(4 * top)",
        "hurwitz_table(4 * top - 1)",
        (f"{_TEST_CURVES}::test_sweep_averages_match_single_prime_averages",),
        "95371d3 Schoof's count takes a prime",
    ),
    Mutant(
        "row-progression-mod-m",
        _CURVES,
        "for t in range(top - n0, -tmax - 1, -m * m)]",
        "for t in range(top - n0, -tmax - 1, -m)]",
        (f"{_TEST_CURVES}::test_trace_sixfolds_match_per_trace_scan",),
        "Schoof's count indexed by the group order",
    ),
    Mutant(
        "tally-order-off-by-one",
        _CURVES,
        "GroupShape(m, n0 // (m * m) + j)",
        "GroupShape(m, n0 // (m * m) + j + 1)",
        (f"{_TEST_CURVES}::test_tally_matches_per_trace_reference",),
        "Schoof's count indexed by the group order",
    ),
    Mutant(
        "row-starts-round-down",
        _CURVES,
        "-(-lo // (m * m)) * m * m",
        "lo // (m * m) * m * m",
        (f"{_TEST_CURVES}::test_row_starts_are_the_least_multiples_in_the_window",),
        "Schoof's count indexed by the group order",
    ),
    Mutant(
        "sixfolds-interior-weight-6",
        _ARITH,
        "six[D] += 6 if b == 0 or b == a else 12",
        "six[D] += 6 if b == 0 or b == a else 6",
        (f"{_TEST_CURVES}::test_trace_sixfolds_match_per_trace_scan",),
        "472e2b6 One sparse class-number kernel for single tallies",
    ),
    Mutant(
        "sixfolds-no-c-equals-a-term",
        _ARITH,
        "six[D] += 3 if b == 0 else 2 if b == a else 6",
        "six[D] += 0",
        (f"{_TEST_CURVES}::test_trace_sixfolds_match_per_trace_scan",),
        "472e2b6 One sparse class-number kernel for single tallies",
    ),
    Mutant(
        "table-interior-weight-6",
        _ARITH,
        "weight = 6 if b == 0 or b == a else 12",
        "weight = 6 if b == 0 or b == a else 6",
        ("tests/test_arith.py::test_hurwitz_table_matches_per_value",),
        "dd32b2f Sweep from one Hurwitz class-number table",
    ),
    Mutant(
        "negativity-bound-minus-1",
        _CURVES,
        "if e and min(e) < 0:",
        "if e and min(e) < -1:",
        (f"{_TEST_CURVES}::test_negative_inverted_row_raises",),
        "767838c Averages and tallies from inverted class-number rows",
    ),
    Mutant(
        "sweep-tau-table-short",
        _CURVES,
        "tau_window(1, top + 1 + math.isqrt(4 * top))",
        "tau_window(1, top + math.isqrt(4 * top))",
        (f"{_TEST_CURVES}::test_sweep_averages_match_single_prime_averages",),
        "95371d3 Schoof's count takes a prime",
    ),
    Mutant(
        "integrality-mod-6",
        _CURVES,
        "math.gcd(*chain.from_iterable(rows)) % 12",
        "math.gcd(*chain.from_iterable(rows)) % 6",
        (f"{_TEST_CURVES}::test_non_integral_row_raises",),
        "767838c Averages and tallies from inverted class-number rows",
    ),
    Mutant(
        "factorize-cofactor-bound-2-21",
        _ARITH,
        "if m < 1 << 20:",
        "if m < 1 << 21:",
        ("tests/test_arith.py::test_factorize_at_the_table_edge",),
        "factorize keeps no cache",
    ),
    Mutant(
        "slope-factor-plus-ell",
        _ANALYTIC,
        "(ell * ell - 1) ** 2 * (ell * ell - ell + 1)",
        "(ell * ell - 1) ** 2 * (ell * ell + ell + 1)",
        ("tests/test_analytic.py::test_slope_factor_matches_truncated_oracle",),
        "The prime-averaged slope in closed form",
    ),
    Mutant(
        "slope-factor-s-for-c",
        _ANALYTIC,
        'if stat == "c":',
        "if False:",
        (
            "tests/test_analytic.py::test_slope_factor_matches_truncated_oracle",
            "tests/test_analytic.py::test_average_slope_values",
        ),
        "The prime-averaged slope in closed form",
    ),
)


def run(mutant: Mutant) -> str:
    """Apply ``mutant`` to a copy of ``src/`` and ``tests/`` and run its tests."""
    with tempfile.TemporaryDirectory(prefix="ellstat-mutant-") as tmp:
        work = pathlib.Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part, ignore=shutil.ignore_patterns("__pycache__"))
        target = work / mutant.file
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return "error (stale: the old text does not occur exactly once)"
        target.write_text(text.replace(mutant.old, mutant.new))
        env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--rootdir", tmp]
        try:
            proc = subprocess.run(
                [*argv, *mutant.tests], cwd=work, env=env, capture_output=True, timeout=_TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            return "timeout"
    return {0: "survived", 1: "killed"}.get(proc.returncode, f"error (pytest exit {proc.returncode})")


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    statuses = []
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        start = time.perf_counter()
        status = run(mutant)
        statuses.append(status)
        print(f"{mutant.name}: {status} ({time.perf_counter() - start:.1f} s)", flush=True)
    return 0 if all(s == "killed" for s in statuses) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
