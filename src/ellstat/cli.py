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

All CSV output is plain ASCII with 12 significant digits; rows are computed
in one process and emitted in ascending order of the primary key, so outputs
are bit-identical across runs.  Tallies are exact and deterministic; the
--seed option that brute, sweep and compare accept is ignored, and so is
sweep's --threads.

sweep builds one Hurwitz class-number table up to 4 xmax
(``arith.hurwitz_table``) and every tally of the sweep reads 6H from it;
xmax above 10^6 exits 2.  brute and compare tally one prime at a time
without a table, by one O(p) pass over reduced forms per prime.
"""

from __future__ import annotations

import csv
import math
import sys

import click

from . import analytic, curves, densities, divisor_ap
from .arith import hurwitz_table, is_prime, primes_up_to
from .errors import BudgetError, DomainError
from .groups import GroupShape

_BRUTE_MIN, _BRUTE_MAX = 5, 5000
_SWEEP_MAX = 10**6  # the class-number table holds 4 xmax + 1 ints

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


@click.group()
def cli() -> None:
    """Statistics of elliptic-curve groups over prime fields."""


# ----------------------------------------------------------------------
# brute
# ----------------------------------------------------------------------

_STAT_NAMES = {"s": "s", "c": "c", "tau": "tau_N", "one": "one"}

_seed_option = click.option(
    "--seed", type=int, default=0, show_default=True, expose_value=False,
    help="ignored: the tally is deterministic",
)


@cli.command("brute")
@click.option("--p", "p", type=int, required=True)
@click.option("--stats", default="s", show_default=True, help="comma list of s,c,tau,one")
@click.option(
    "--formula",
    type=click.Choice(["corrected", "printed"]),
    default="corrected",
    show_default=True,
)
@click.option("--tally", "show_tally", is_flag=True, help="also print the tally CSV")
@_seed_option
def cmd_brute(p, stats, formula, show_tally) -> None:
    """Exhaustive weighted averages over all nonsingular models of one prime."""
    _check_brute_p(p)
    names = [s.strip() for s in stats.split(",") if s.strip()]
    if not names:
        raise DomainError(f"no stats in {stats!r}")
    bad = [s for s in names if s not in _STAT_NAMES]
    if bad:
        raise DomainError(f"unknown stats: {', '.join(bad)}")
    tally = curves.tally_structures(p)
    averages = curves.weighted_averages(tally)
    lines = ["stat,value"]
    lines += [f"{name},{_fmt(averages.select(_STAT_NAMES[name], formula))}" for name in names]
    if show_tally:
        lines.append("d1,d2,count")
        lines += [f"{shape.d1},{shape.d2},{tally.counts[shape]}" for shape in sorted(tally.counts)]
    click.echo("\n".join(lines))


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------

def _sweep_row(p: int, table: list[int]) -> list:
    avg = curves.weighted_averages(curves.tally_structures(p, table))
    return [p, avg.s_corrected, avg.s_printed, avg.c_corrected, avg.tau_N]


@cli.command("sweep")
@click.option("--xmax", type=int, required=True)
@click.option(
    "--threads", type=click.IntRange(min=1), default=1, show_default=True,
    expose_value=False, help="ignored: rows are computed in one process",
)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@_seed_option
@click.option("--gnuplot", is_flag=True, help="also write a gnuplot script next to the CSV")
def cmd_sweep(xmax, out, gnuplot) -> None:
    """Per-prime averages for all primes 5 <= p <= xmax, one CSV row each."""
    if xmax > _SWEEP_MAX:
        raise DomainError(f"sweep needs xmax <= {_SWEEP_MAX}, got {xmax}")
    table = hurwitz_table(4 * max(xmax, 0))
    rows = [_sweep_row(p, table) for p in primes_up_to(xmax) if p >= 5]
    running = 0.0
    try:
        with open(out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(SWEEP_HEADER)
            for i, (p, s_corr, s_print, c_corr, tau_avg) in enumerate(rows, 1):
                running += float(s_corr)
                w.writerow(
                    [p, p, _fmt(s_corr), _fmt(s_print), _fmt(c_corr), _fmt(tau_avg), _fmt(running / i)]
                )
    except OSError as exc:
        raise DomainError(f"cannot write {out}: {exc}") from exc
    if gnuplot:
        script = out + ".gp"
        with open(script, "w") as fh:
            fh.write(
                'set datafile separator ","\n'
                f'plot "{out}" using (log($1)):7 with points title "running mean", '
                "1.053*x title \"1.053 log x\"\n"
            )
        click.echo(f"wrote {script}")
    click.echo(f"wrote {out} ({len(rows)} rows)")


# ----------------------------------------------------------------------
# fit
# ----------------------------------------------------------------------

@cli.command("fit")
@click.option("--in", "infile", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--column", required=True)
def cmd_fit(infile, column) -> None:
    """Least-squares slope C of column = C * log(x), through the origin."""
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
    click.echo(f"slope,{_fmt(slope)}")
    click.echo(f"residual_rms,{_fmt(rms)}")


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------

@cli.command("compare")
@click.option("--p", "plist", required=True, help="comma list of primes")
@click.option("--stat", type=click.Choice(["s", "c"]), default="s", show_default=True)
@_seed_option
def cmd_compare(plist, stat) -> None:
    """Brute force vs the printed-form main terms (A_unit, B_inverse)."""
    try:
        ps = [int(v) for v in plist.split(",") if v.strip()]
    except ValueError as exc:
        raise DomainError(f"bad prime list {plist!r}") from exc
    if not ps:
        raise DomainError(f"no primes in {plist!r}")
    for p in ps:
        _check_brute_p(p)
    click.echo(",".join(COMPARE_HEADER))
    for p in ps:
        averages = curves.weighted_averages(curves.tally_structures(p))
        brute = {
            "corr": float(averages.select(stat, "corrected")),
            "printed": float(averages.select(stat, "printed")),
        }
        mts = {}
        for k in ("A_unit", "B_inverse"):
            # "half" halves every component, exactly in floating point
            mts[(k, "paper")] = analytic.main_term(p, stat, k_factor=k, normalization="paper")
            mts[(k, "half")] = mts[(k, "paper")] / 2
        row = [str(p), _fmt(brute["corr"]), _fmt(brute["printed"])]
        row += [_fmt(mts[(k, n)]) for k in ("A_unit", "B_inverse") for n in ("paper", "half")]
        for k in ("A_unit", "B_inverse"):
            for n in ("paper", "half"):
                for f in ("corr", "printed"):
                    row.append(_fmt(abs(mts[(k, n)] - brute[f]) / brute[f]))
        click.echo(",".join(row))


# ----------------------------------------------------------------------
# density
# ----------------------------------------------------------------------

@cli.group("density")
def cmd_density() -> None:
    """Exact local matrix densities."""


@cmd_density.command("f-ell")
@click.option("--ell", type=int, required=True)
@click.option("--p", "p", type=int, required=True)
@click.option("--d1", type=int, required=True)
@click.option("--d2", type=int, required=True)
def cmd_f_ell(ell, p, d1, d2) -> None:
    """Exact matrix density for one shape at one prime, from root counts."""
    res = densities.f_ell(ell, d1, d2, p)
    click.echo(f"value,{res.value}")
    click.echo(f"float,{_fmt(res.value)}")
    click.echo(f"stabilized_R,{res.stabilized_at_R}")


@cmd_density.command("g-sum")
@click.option("--ell", type=int, required=True)
@click.option("--p", "p", type=int, required=True)
@click.option("--R", "R", type=int, required=True)
@click.option("--v", type=int, default=0, show_default=True)
def cmd_g_sum(ell, p, R, v) -> None:
    """Sum of the trace-valuation densities g(w, v) for w = 0..R (ell != p)."""
    val = densities.g_sum(p, v, ell, R)
    click.echo(f"value,{val}")
    click.echo(f"float,{_fmt(val)}")
    if v == 0:
        from fractions import Fraction

        delta = 1 if (p - 1) % ell == 0 else 0
        pred = -Fraction(delta, ell * (ell * ell - 1)) + Fraction(1, ell ** (R + 1))
        click.echo(f"predicted,{pred}")


# ----------------------------------------------------------------------
# prob
# ----------------------------------------------------------------------

@cli.command("prob")
@click.option("--p", "p", type=int, required=True)
@click.option("--d1", type=int, required=True)
@click.option("--d2", type=int, required=True)
@click.option(
    "--lmax", type=int, default=1000, show_default=True,
    help="truncation: primes l <= lmax, at least 2",
)
@click.option(
    "--norm",
    type=click.Choice(["paper", "half"]),
    default=densities.DEFAULT_NORMALIZATION,
    show_default=True,
)
def cmd_prob(p, d1, d2, lmax, norm) -> None:
    """Truncated local-density product for P(E(F_p) iso Z/d1 x Z/d1*d2)."""
    est = densities.probability_product(p, GroupShape(d1, d2), lmax, norm)
    click.echo(f"value,{_fmt(est.value)}")
    click.echo(f"tail_log_increment,{_fmt(est.tail_log_increment)}")
    click.echo(f"ell_max,{est.ell_max}")


# ----------------------------------------------------------------------
# divap
# ----------------------------------------------------------------------

@cli.group("divap")
def cmd_divap() -> None:
    """Divisor sums in arithmetic progressions and short intervals."""


@cmd_divap.command("delta")
@click.option("--X", "X", type=float, required=True)
@click.option("--q", type=int, default=1, show_default=True)
@click.option("--a", type=int, default=0, show_default=True)
def cmd_delta(X, q, a) -> None:
    """Delta(X, a, q): exact divisor sum minus the smooth main term."""
    click.echo(f"delta,{_fmt(divisor_ap.delta_at(X, a, q))}")


@cmd_divap.command("mean-square")
@click.option("--A", "A", type=float, required=True)
@click.option("--B", "B", type=float, required=True)
@click.option("--q", type=int, required=True)
def cmd_mean_square(A, B, q) -> None:
    """Residue-averaged |Delta|^2 over (A, B] against its envelope."""
    res = divisor_ap.mean_square_experiment(A, B, q)
    click.echo(f"lhs,{_fmt(res.lhs)}")
    click.echo(f"envelope,{_fmt(res.envelope)}")
    click.echo(f"ratio,{_fmt(res.ratio)}")


def default_grid() -> list[tuple[int, int, int]]:
    """The (A, B, q) grid of the mean-square experiment."""
    out = []
    for A in (10**4, 10**5, 10**6, 10**7):
        windows = [
            math.ceil(A**0.3),
            math.ceil(A**0.4),
            math.isqrt(A) + 1,
        ]
        qs = [1, 2, 8, 25, math.floor(A**0.25)]
        for w in windows:
            for q in qs:
                if q * q <= A:
                    out.append((A, A + w, q))
    return out


@cmd_divap.command("grid")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def cmd_grid(out) -> None:
    """Run the mean-square experiment over the standard (A, B, q) grid."""
    rows = []
    for A, B, q in default_grid():
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
        click.echo(f"wrote {out} ({len(rows)} rows)")
    else:
        click.echo(header)
        for row in rows:
            click.echo(",".join(str(v) for v in row))


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    """Console entry point with the documented exit-code contract."""
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.UsageError as exc:
        exc.show(file=sys.stderr)
        return 1
    except (DomainError, BudgetError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 2


if __name__ == "__main__":
    sys.exit(main())
