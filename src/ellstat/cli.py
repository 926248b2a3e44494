"""Command-line front end.

Subcommands::

    ellstat brute     per-prime exhaustive averages (optionally the tally)
    ellstat sweep     per-prime averages for all 5 <= p <= xmax, CSV
    ellstat fit       through-origin least squares of a CSV column vs log x
    ellstat compare   brute force vs the printed-form main terms (A_unit, B_inverse)
    ellstat density   local matrix densities (f-ell, g-sum)
    ellstat prob      truncated local-density product for one shape
    ellstat divap     divisor sums in progressions (delta, mean-square, grid)

Exit codes: 0 success, 1 usage error, 2 domain or budget error.

The parser is one stdlib ``argparse`` tree, built once at import.  A usage
error prints the command's usage line and ``error: ...`` to stderr; ``--help``
or ``-h`` at any level prints to stdout and exits 0.  Options are matched whole, never
by prefix, and a negative number (``-7``, ``-1e5``, ``-inf``) after an option
is that option's value.

All CSV output is plain ASCII with 12 significant digits; rows are computed
in one process and emitted in ascending order of the primary key, so outputs
are bit-identical across runs.  Tallies are exact and deterministic; the
--seed option that brute, sweep and compare accept is ignored, and so is
sweep's --threads.

The library evaluates every density product and main term at archimedean
mass 1, as criterion 6 adjudicated.  The paper's printed semicircle factor
has mass 2, and this module alone prints that form, as twice the mass-1
value: ``prob --norm paper`` and compare's ``*_paper`` columns.  Doubling
is exact in floating point.

Averages are read from class numbers with no tally; only ``brute --tally``
builds one, from the same inverted rows as its averages.  This module sizes
no table: sweep takes every prime's averages from ``curves.sweep_averages``,
and brute and compare from ``curves.weighted_averages`` at one prime.  sweep
exits 2 on an xmax above 10^6, and on an --out it cannot open before it
computes any average.  brute and compare take primes from 5 to 10^6, where
one prime takes about 1 s; a prime outside exits 2.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import re
import sys

from . import analytic, curves, densities, divisor_ap
from .arith import is_prime
from .errors import BudgetError, DomainError
from .groups import GroupShape

_BRUTE_MIN, _BRUTE_MAX = 5, 10**6  # a tally at 10^6 takes about 1 s and 30 MB
_SWEEP_MAX = 10**6  # curves.sweep_averages' class-number table holds 4 xmax + 1 ints

SWEEP_HEADER = [
    "x",
    "p",
    "avg_s_corrected",
    "avg_s_printed",
    "avg_c_corrected",
    "avg_tauN",
    "running_mean_s",
]

COMPARE_HEADER = (
    ["p", "brute_corrected", "brute_printed"]
    + [f"mt_{k}_{n}" for k in "AB" for n in ("paper", "half")]
    + [
        f"rel_{k}_{n}_{f}"
        for k in "AB"
        for n in ("paper", "half")
        for f in ("corr", "printed")
    ]
)


def _fmt(v) -> str:
    return f"{float(v):.12g}"


def _check_brute_p(p: int) -> None:
    if not (_BRUTE_MIN <= p <= _BRUTE_MAX) or not is_prime(p):
        raise DomainError(
            f"p must be a prime with {_BRUTE_MIN} <= p <= {_BRUTE_MAX}, got {p}"
        )


# ----------------------------------------------------------------------
# brute
# ----------------------------------------------------------------------

_STAT_NAMES = {"s": "s", "c": "c", "tau": "tau_N", "one": "one"}


def cmd_brute(args: argparse.Namespace) -> None:
    """Exhaustive weighted averages over all nonsingular models of one prime."""
    p, stats, formula = args.p, args.stats, args.formula
    _check_brute_p(p)
    names = [s.strip() for s in stats.split(",") if s.strip()]
    if not names:
        raise DomainError(f"no stats in {stats!r}")
    bad = [s for s in names if s not in _STAT_NAMES]
    if bad:
        raise DomainError(f"unknown stats: {', '.join(bad)}")
    if args.show_tally:
        averages, tally = curves._averages_and_tally(p)
    else:
        averages = curves.weighted_averages(p)
    lines = ["stat,value"]
    lines += [f"{name},{_fmt(averages.select(_STAT_NAMES[name], formula))}" for name in names]
    if args.show_tally:
        lines.append("d1,d2,count")
        lines += [f"{d1},{d2},{count}" for (d1, d2), count in tally.counts.items()]
    print("\n".join(lines))


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------

def cmd_sweep(args: argparse.Namespace) -> None:
    """Per-prime averages for all primes 5 <= p <= xmax, one CSV row each."""
    xmax, out = args.xmax, args.out
    if xmax > _SWEEP_MAX:
        raise DomainError(f"sweep needs xmax <= {_SWEEP_MAX}, got {xmax}")
    running = 0.0
    try:
        with open(out, "w", newline="") as fh:  # opened first: an unwritable --out costs no averages
            averages = curves.sweep_averages(xmax)
            w = csv.writer(fh)
            w.writerow(SWEEP_HEADER)
            for i, (p, avg) in enumerate(averages.items(), 1):
                running += float(avg.s_corrected)
                values = (avg.s_corrected, avg.s_printed, avg.c_corrected, avg.tau_N, running / i)
                w.writerow([p, p, *map(_fmt, values)])
    except OSError as exc:
        raise DomainError(f"cannot write {out}: {exc}") from exc
    wrote_csv = f"wrote {out} ({len(averages)} rows)"
    if args.gnuplot:
        script = out + ".gp"
        try:
            with open(script, "w") as fh:
                fh.write(
                    'set datafile separator ","\n'
                    f'plot "{out}" using (log($1)):($3/2) with points title "avg s corrected, half mass", '
                    "1.053*x title \"1.053 log x\"\n"
                )
        except OSError as exc:
            print(wrote_csv)  # the CSV is complete on disk
            raise DomainError(f"cannot write {script}: {exc}") from exc
        print(f"wrote {script}")
    print(wrote_csv)


# ----------------------------------------------------------------------
# fit
# ----------------------------------------------------------------------

def cmd_fit(args: argparse.Namespace) -> None:
    """Least-squares slope C of column = C * log(x), through the origin."""
    infile, column = args.infile, args.column
    with open(infile, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or column not in reader.fieldnames:
            raise DomainError(f"column {column!r} not in {infile}")
        if "x" not in reader.fieldnames:
            raise DomainError(f"column 'x' not in {infile}")
        xs, ys = [], []
        for row in reader:
            try:
                x, y = float(row["x"]), float(row[column])
            except (TypeError, ValueError) as exc:
                raise DomainError(
                    f"non-numeric value in line {reader.line_num} of {infile}: "
                    f"x={row['x']!r}, {column}={row[column]!r}"
                ) from exc
            if not 0 < x < math.inf:
                raise DomainError(f"x must be positive and finite, got {row['x']!r} in {infile}")
            if not math.isfinite(y):
                raise DomainError(f"{column} must be finite, got {row[column]!r} in {infile}")
            xs.append(x)
            ys.append(y)
    if not xs:
        raise DomainError("no data rows")
    den = sum(math.log(x) ** 2 for x in xs)
    if den == 0:
        raise DomainError(f"every x in {infile} is 1, so log x is 0 and the slope is undefined")
    num = sum(y * math.log(x) for x, y in zip(xs, ys))
    slope = num / den
    rms = math.sqrt(
        sum((y - slope * math.log(x)) ** 2 for x, y in zip(xs, ys)) / len(xs)
    )
    print(f"slope,{_fmt(slope)}")
    print(f"residual_rms,{_fmt(rms)}")


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------

def cmd_compare(args: argparse.Namespace) -> None:
    """Brute force vs the printed-form main terms (A_unit, B_inverse)."""
    plist, stat = args.plist, args.stat
    try:
        ps = [int(v) for v in plist.split(",") if v.strip()]
    except ValueError as exc:
        raise DomainError(f"bad prime list {plist!r}") from exc
    if not ps:
        raise DomainError(f"no primes in {plist!r}")
    for p in ps:
        _check_brute_p(p)
    print(",".join(COMPARE_HEADER))
    for p in ps:
        averages = curves.weighted_averages(p)
        brute = [float(averages.select(stat, f)) for f in ("corrected", "printed")]
        mts = []
        for k in ("A_unit", "B_inverse"):
            half = analytic.main_term(p, stat, k_factor=k)
            # the printed archimedean factor has mass 2; doubling is exact in floating point
            mts += [2 * half, half]
        rel = [abs(m - b) / b for m in mts for b in brute]
        print(",".join([str(p)] + [_fmt(v) for v in brute + mts + rel]))


# ----------------------------------------------------------------------
# density
# ----------------------------------------------------------------------

def cmd_f_ell(args: argparse.Namespace) -> None:
    """Exact matrix density for one shape at one prime, from root counts."""
    res = densities.f_ell(args.ell, args.d1, args.d2, args.p)
    print(f"value,{res.value}")
    print(f"float,{_fmt(res.value)}")
    print(f"stabilized_R,{res.stabilized_at_R}")


def cmd_g_sum(args: argparse.Namespace) -> None:
    """Sum of the trace-valuation densities g(w, v) for w = 0..R (ell != p)."""
    val = densities.g_sum(args.p, args.v, args.ell, args.R)
    print(f"value,{val}")
    print(f"float,{_fmt(val)}")


# ----------------------------------------------------------------------
# prob
# ----------------------------------------------------------------------

def cmd_prob(args: argparse.Namespace) -> None:
    """Truncated local-density product for P(E(F_p) iso Z/d1 x Z/d1*d2)."""
    est = densities.probability_product(args.p, GroupShape(args.d1, args.d2), args.lmax)
    value = 2 * est.value if args.norm == "paper" else est.value
    print(f"value,{_fmt(value)}")
    print(f"tail_log_increment,{_fmt(est.tail_log_increment)}")
    print(f"ell_max,{est.ell_max}")


# ----------------------------------------------------------------------
# divap
# ----------------------------------------------------------------------

def cmd_delta(args: argparse.Namespace) -> None:
    """Delta(X, a, q): exact divisor sum minus the smooth main term."""
    print(f"delta,{_fmt(divisor_ap.delta_at(args.X, args.a, args.q))}")


def cmd_mean_square(args: argparse.Namespace) -> None:
    """Residue-averaged |Delta|^2 over (A, B] against its envelope."""
    res = divisor_ap.mean_square_experiment(args.A, args.B, args.q)
    print(f"lhs,{_fmt(res.lhs)}")
    print(f"envelope,{_fmt(res.envelope)}")
    print(f"ratio,{_fmt(res.ratio)}")


def cmd_grid(args: argparse.Namespace) -> None:
    """Run the mean-square experiment over the standard (A, B, q) grid."""
    out = args.out
    rows = []
    for A, B, q in divisor_ap.default_grid():
        res = divisor_ap.mean_square_experiment(A, B, q)
        rows.append([A, B, q, _fmt(res.lhs), _fmt(res.envelope), _fmt(res.ratio)])
    header = "A,B,q,lhs,envelope,ratio"
    if out:
        try:
            with open(out, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(header.split(","))
                w.writerows(rows)
        except OSError as exc:
            raise DomainError(f"cannot write {out}: {exc}") from exc
        print(f"wrote {out} ({len(rows)} rows)")
    else:
        print(header)
        for row in rows:
            print(",".join(str(v) for v in row))


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

class _UsageError(Exception):
    """A command line the parser rejects; ``usage`` is that parser's usage line."""

    def __init__(self, usage: str, message: str):
        super().__init__(message)
        self.usage = usage


class _DefaultsFormatter(argparse.ArgumentDefaultsHelpFormatter):
    """Appends each option's default to its help, except a required one's."""

    def _get_help_string(self, action):
        return action.help if action.required else super()._get_help_string(action)


class _Parser(argparse.ArgumentParser):
    """Raises ``_UsageError`` instead of exiting, matches options only whole,
    reads any negative number after an option as its value, and reports a
    command's unrecognized arguments with that command's usage line."""

    _NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.I)

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("allow_abbrev", False)
        kwargs.setdefault("formatter_class", _DefaultsFormatter)
        super().__init__(*args, **kwargs)
        # argparse reads only -7 and -.5 as numbers; -1e5 or -inf would be an option
        self._negative_number_matcher = self._NEGATIVE_NUMBER

    def error(self, message: str):
        raise _UsageError(self.format_usage(), message)

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        # a command rejects its own leftovers; argparse would pass them up to the root
        if extras and self.get_default("run"):
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return n


def _output_file(text: str) -> str:
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"{text!r} is a directory")
    return text


def _existing_file(text: str) -> str:
    if not os.path.exists(text):
        raise argparse.ArgumentTypeError(f"{text!r} does not exist")
    return _output_file(text)


def _command(group, name: str, run) -> argparse.ArgumentParser:
    parser = group.add_parser(name, help=run.__doc__, description=run.__doc__)
    parser.set_defaults(run=run)
    return parser


def _subcommands(parser: argparse.ArgumentParser):
    return parser.add_subparsers(dest="command", metavar="COMMAND", required=True)


def _group(commands, name: str, doc: str):
    """A subcommand that only holds subcommands of its own."""
    return _subcommands(commands.add_parser(name, help=doc, description=doc))


def _add_seed(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="ignored: the tally is deterministic")


def _build_parser() -> _Parser:
    root = _Parser(prog="ellstat", description="Statistics of elliptic-curve groups over prime fields.")
    commands = _subcommands(root)

    brute = _command(commands, "brute", cmd_brute)
    brute.add_argument("--p", type=int, required=True, help="a prime from 5 to 10^6")
    brute.add_argument("--stats", default="s", help="comma list of s,c,tau,one")
    brute.add_argument(
        "--formula", choices=["corrected", "printed"], default="corrected", help="which formula of the stats"
    )
    brute.add_argument("--tally", dest="show_tally", action="store_true", help="also print the tally CSV")
    _add_seed(brute)

    sweep = _command(commands, "sweep", cmd_sweep)
    sweep.add_argument("--xmax", type=int, required=True)
    sweep.add_argument(
        "--threads", type=_positive_int, default=1, help="ignored: rows are computed in one process"
    )
    sweep.add_argument("--out", type=_output_file, required=True)
    _add_seed(sweep)
    sweep.add_argument("--gnuplot", action="store_true", help="also write a gnuplot script next to the CSV")

    fit = _command(commands, "fit", cmd_fit)
    fit.add_argument("--in", dest="infile", type=_existing_file, required=True)
    fit.add_argument("--column", required=True)

    compare = _command(commands, "compare", cmd_compare)
    compare.add_argument("--p", dest="plist", required=True, help="comma list of primes from 5 to 10^6")
    compare.add_argument("--stat", choices=["s", "c"], default="s", help="the statistic to compare")
    _add_seed(compare)

    density_commands = _group(commands, "density", "Exact local matrix densities.")
    f_ell = _command(density_commands, "f-ell", cmd_f_ell)
    for name in ("--ell", "--p", "--d1", "--d2"):
        f_ell.add_argument(name, type=int, required=True)
    g_sum = _command(density_commands, "g-sum", cmd_g_sum)
    for name in ("--ell", "--p", "--R"):
        g_sum.add_argument(name, type=int, required=True)
    g_sum.add_argument("--v", type=int, default=0)

    prob = _command(commands, "prob", cmd_prob)
    for name in ("--p", "--d1", "--d2"):
        prob.add_argument(name, type=int, required=True)
    prob.add_argument("--lmax", type=int, default=1000, help="truncation: primes l <= lmax, from 2 to 10^7")
    prob.add_argument(
        "--norm", choices=["paper", "half"], default="half",
        help="archimedean factor: paper (total mass 2) or half (total mass 1)",
    )

    divap_commands = _group(commands, "divap", "Divisor sums in arithmetic progressions and short intervals.")
    delta = _command(divap_commands, "delta", cmd_delta)
    delta.add_argument("--X", type=float, required=True)
    delta.add_argument("--q", type=int, default=1)
    delta.add_argument("--a", type=int, default=0)
    mean_square = _command(divap_commands, "mean-square", cmd_mean_square)
    for name in ("--A", "--B"):
        mean_square.add_argument(name, type=float, required=True)
    mean_square.add_argument("--q", type=int, required=True)
    grid = _command(divap_commands, "grid", cmd_grid)
    grid.add_argument("--out", type=_output_file, default=None)
    return root


#: Built once at import: a pass of many short commands pays for it once.
PARSER = _build_parser()


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    """Console entry point with the documented exit-code contract."""
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as exc:  # --help has printed its text
        return exc.code
    except _UsageError as exc:
        print(f"{exc.usage}error: {exc}", file=sys.stderr)
        return 1
    try:
        args.run(args)
    except (DomainError, BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
