import math

import numpy as np
import pytest

from ellstat import divisor_ap
from ellstat.arith import divisors, ramanujan_sum
from ellstat.cli import main
from ellstat.divisor_ap import (
    delta_at,
    delta_window,
    dirichlet_main,
    mean_square_experiment,
    tau_sum_upto,
    tau_sum_window,
)
from ellstat.errors import BudgetError, DomainError


def _tau_naive(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def test_tau_sum_examples():
    assert tau_sum_upto(10) == 27
    assert tau_sum_upto(10, 0, 2) == 17
    assert tau_sum_window(0, 10) == 27
    assert tau_sum_window(0, 10, 0, 2) == 17
    assert tau_sum_window(7, 7) == 0
    assert tau_sum_window(10, 3) == 0
    # n <= 0 adds nothing, as in the cumulative sum
    assert tau_sum_window(-5, 10) == 27
    assert tau_sum_window(-5, 10, 1, 3) == 10 == tau_sum_upto(10, 1, 3)
    assert tau_sum_window(-7, 20, 2, 4) == 20 == tau_sum_upto(20, 2, 4)
    assert tau_sum_window(-5.5, 3.2) == 5
    assert tau_sum_window(-9, -2, 1, 2) == 0


def test_sieve_matches_naive():
    for n in range(1, 2001):
        assert tau_sum_window(n - 1, n) == _tau_naive(n), n


def test_sieve_matches_hyperbola_on_windows():
    rng = np.random.default_rng(3)
    for _ in range(20):
        A = int(rng.integers(1, 10**5))
        B = A + int(rng.integers(1, 5000))
        q = int(rng.integers(1, 30))
        a = int(rng.integers(q))
        assert tau_sum_window(A, B, a, q) == tau_sum_upto(B, a, q) - tau_sum_upto(A, a, q)


def test_tau_sum_fractional_endpoints():
    assert tau_sum_upto(10.7) == tau_sum_upto(10)
    assert tau_sum_window(0.5, 10.2) == 27


def test_dirichlet_main_examples():
    X = 10
    want = X * (math.log(X) + 2 * 0.5772156649015329 - 1)
    assert dirichlet_main(X) == pytest.approx(want, abs=1e-9)
    assert dirichlet_main(X) == pytest.approx(24.5702, abs=1e-4)


def test_dirichlet_main_refuses_non_finite_x():
    for X in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="X must be finite"):
            dirichlet_main(X)


def test_dirichlet_main_residue_sum():
    X, q = 10**5, 12
    total = sum(dirichlet_main(X, a, q) for a in range(q))
    assert total == pytest.approx(dirichlet_main(X), rel=1e-12)


def test_delta_examples():
    assert delta_at(10) == pytest.approx(2.4298, abs=1e-4)
    assert delta_window(7, 7) == 0.0
    with pytest.raises(DomainError):
        delta_window(10, 5)


def test_delta_telescoping():
    X = 10**6
    base = delta_at(X)
    for q in (2, 3, 12, 32):
        total = sum(delta_at(X, a, q) for a in range(q))
        assert abs(total - base) <= 1e-6 * abs(base)


def test_mean_square_branches():
    r = mean_square_experiment(10**6, 10**6 + 500, 16)
    assert r.branch == "short"
    d = 500
    assert r.envelope == pytest.approx(
        math.sqrt(d) / 16 * ((10**6 + 500) ** 3 / 10**6) ** 0.25, rel=1e-12
    )
    assert r.ratio == pytest.approx(r.lhs / r.envelope, rel=1e-12)

    r2 = mean_square_experiment(10**6, 10**6 + 5000, 7)
    assert r2.branch == "long"
    assert r2.envelope == pytest.approx(
        5000 ** (4 / 3) / 7 ** (4 / 3) * ((10**6 + 5000) / 10**6) ** (1 / 3), rel=1e-12
    )


def test_mean_square_boundary_takes_max():
    # pick A, B with B - A = sqrt(B) exactly: B = k^2, window k
    k = 1000
    B = k * k
    A = B - k
    r = mean_square_experiment(A, B, 5)
    assert r.branch == "boundary"
    short = math.sqrt(k) / 5 * (B**3 / A) ** 0.25
    long_ = k ** (4 / 3) / 5 ** (4 / 3) * (B / A) ** (1 / 3)
    assert r.envelope == max(short, long_)


def test_window_deltas_read_the_main_term_by_gcd(monkeypatch, capsys):
    """One row of Ramanujan sums per divisor g = gcd(a, q), tau(q)^2 calls in
    all, and the same output as one row per residue gave."""
    calls = []

    def counted(k, a):
        calls.append((k, a))
        return ramanujan_sum(k, a)

    monkeypatch.setattr(divisor_ap, "ramanujan_sum", counted)
    argv = ["divap", "mean-square", "--A", "10000000", "--B", "10003163", "--q", "2520"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "lhs,289.806748029\nenvelope,1.35407893947\nratio,214.025002222\n"
    assert len(calls) == len(divisors(2520)) ** 2 == 48**2
    A, B, q = 10000, 10200, 12
    deltas = divisor_ap._window_deltas(A, B, q)
    assert deltas == pytest.approx([delta_window(A, B, a, q) for a in range(q)], abs=1e-9)


def test_mean_square_domain_errors():
    with pytest.raises(DomainError):
        mean_square_experiment(100, 200, 11)  # q > sqrt(A)
    with pytest.raises(DomainError):
        mean_square_experiment(10**4, 10**6, 2)  # window too long
    with pytest.raises(DomainError):
        mean_square_experiment(10, 5, 1)


def test_sieve_budget():
    assert divisor_ap._SIEVE_BUDGET == 10**9
    with pytest.raises(BudgetError, match="sieve budget"):
        tau_sum_window(2 * 10**9, 2 * 10**9 + 10)
    with pytest.raises(BudgetError, match="sieve budget"):
        mean_square_experiment(2 * 10**9, 2 * 10**9 + 10, 1)


def test_window_budget(monkeypatch):
    assert divisor_ap._WINDOW_BUDGET == 10**7
    with pytest.raises(BudgetError, match="window budget"):
        tau_sum_window(10**8, 10**8 + 10**7 + 1)
    with pytest.raises(BudgetError, match="window budget"):
        mean_square_experiment(10**8, 10**8 + 10**7 + 1, 1)
    # both sides of the bound, at a budget small enough to evaluate
    monkeypatch.setattr(divisor_ap, "_WINDOW_BUDGET", 100)
    assert tau_sum_window(1000, 1100) == tau_sum_upto(1100) - tau_sum_upto(1000)
    assert mean_square_experiment(1000, 1100, 1).branch == "long"
    # the window counts from A, not from the clamp at 0
    assert tau_sum_window(-1, 99) == tau_sum_upto(99)
    with pytest.raises(BudgetError):
        tau_sum_window(-1, 100)
    for A, B, q in ((1000, 1101, 1), (10**4, 10**4 + 101, 2)):
        with pytest.raises(BudgetError):
            tau_sum_window(A, B, 0, q)
        with pytest.raises(BudgetError):
            mean_square_experiment(A, B, q)


def test_modulus_budget():
    assert divisor_ap._MODULUS_BUDGET == 10**14
    for f in (tau_sum_upto, tau_sum_window, dirichlet_main):
        args = (0, 10) if f is tau_sum_window else (10,)
        with pytest.raises(DomainError, match="modulus must be"):
            f(*args, 0, 0)
        with pytest.raises(BudgetError, match="modulus budget"):
            f(*args, 1, 10**14 + 1)
    # at the bound: 10^14 = 2^14 5^14, and only n == 0 (mod q) can carry mass
    assert tau_sum_upto(10, 0, 10**14) == 0
    assert tau_sum_window(0, 10, 3, 10**14) == 2
    assert dirichlet_main(10, 1, 10**14) > 0


def test_no_numpy_computation_in_src():
    # divisor_ap keeps a bare ``import numpy`` (see its comment); no module
    # under src/ellstat reads any numpy attribute
    import ast
    import pathlib

    for path in pathlib.Path(divisor_ap.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        names = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
            if (getattr(node, "module", None) or alias.name).split(".")[0] == "numpy"
        }
        used = [
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id in names | {"numpy", "np"}
        ]
        assert used == [], path.name


def test_no_unused_imports_in_src():
    # every imported name is read in its module; the two exceptions are bound
    # only for perfbench (analytic's span self-test and worker's numpy stamp)
    import ast
    import pathlib

    pinned = {("analytic", "level_congruence_count"), ("divisor_ap", "numpy")}
    unused = set()
    for path in pathlib.Path(divisor_ap.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused |= {(path.stem, name) for name in imported - read}
    assert unused == pinned

def test_hyperbola_budget(monkeypatch):
    assert divisor_ap._HYPERBOLA_BUDGET == 10**14
    for X in (10**14 + 1, 1e14 + 0.5, 1e300):
        with pytest.raises(BudgetError):
            tau_sum_upto(X)
        with pytest.raises(BudgetError):
            delta_at(X, 1, 3)
    # both sides of the bound, at a budget small enough to evaluate
    monkeypatch.setattr(divisor_ap, "_HYPERBOLA_BUDGET", 10**4)
    assert tau_sum_upto(10**4) == tau_sum_upto(10**4 - 0.5) + 25 == 93668
    for X in (10**4 + 1, 10**4 + 0.5):
        with pytest.raises(BudgetError):
            tau_sum_upto(X)
