"""Benchmark of the ellstat CLI: four workloads, end-to-end and per-layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload brute-large --seed 0 --seconds 25 --trace 0

One client runs the workload's operations as a closed loop, each operation
one ``ellstat`` CLI invocation made in-process through ``ellstat.cli.main``.
A pass over the operations runs in a fresh interpreter (``worker.py``), so
the program's caches start empty each time; passes repeat while another one
fits in ``--seconds``.  Every output is checked (``checks.py``).

``--trace 0`` prints the end-to-end metrics: wall_s (median pass), op_p50_s
(median operation), cpu_s, peak_rss_mb, setup_s (median time for a fresh
interpreter to import ``ellstat.cli``) and ok_frac (operations that passed
their checks over operations attempted).  ``--trace 1`` runs one untraced and
one traced pass and prints the per-layer metrics: calls and self time of each
wrapped function (``spans.py``), the time outside them, the tracing overhead
and exact work counts.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; the lines before it say the same
for a reader, and stamp the run with the code's version and the machine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"
SETUP_REPEATS = 7
#: A run stops its pass workers once this much time has gone: it must end
#: within 180 s.
RUN_BUDGET_S = 170


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # one client, no threads: keep numeric libraries from starting a pool
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def stamp() -> dict:
    """Which code ran, and where: git sha (when the checkout is a repository),
    a digest of the source tree, core count and interpreter version."""
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or sha
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }


def time_setup() -> float:
    """Wall time for a fresh interpreter to import ellstat.cli.

    No timeout: with one, ``wait`` polls in steps of up to 50 ms, which
    would quantize the measurement.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import ellstat.cli"], cwd=ROOT, env=_env(), check=True)
    return time.perf_counter() - t0


def run_pass(
    ops: list[dict], expected: dict | None, info: dict,
    trace_file: Path | None = None, timeout: float = RUN_BUDGET_S,
) -> dict:
    """One pass of ``ops`` in a fresh interpreter; returns the worker's report."""
    job = {"ops": ops, "expected": expected, "stamp": info,
           "trace_file": None if trace_file is None else str(trace_file)}
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(job), capture_output=True, text=True,
        cwd=ROOT, env=_env(), timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _wall(report: dict) -> float:
    """Wall time of a pass: its operations, without start-up or checks."""
    return sum(op["wall_s"] for op in report["ops"])


def end_to_end(passes: list[dict], setup: list[float]) -> dict:
    ops = [op for p in passes for op in p["ops"]]
    return {
        "wall_s": (statistics.median(_wall(p) for p in passes), "s"),
        "op_p50_s": (statistics.median(op["wall_s"] for op in ops), "s"),
        "cpu_s": (statistics.median(sum(op["cpu_s"] for op in p["ops"]) for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "setup_s": (statistics.median(setup), "s"),
        "ok_frac": (sum(not op["problems"] for op in ops) / len(ops), "frac"),
    }


def per_layer(untraced: dict, traced: dict, ops: list[dict]) -> dict:
    layers, counts = traced["layers"], traced["counts"]
    out = {}
    for name in spans.TARGETS:
        row = layers.get(name, {"calls": 0, "self_s": 0.0})
        out[f"{name}.calls"] = (row["calls"], "count")
        out[f"{name}.self_s"] = (row["self_s"], "s")
    out["cli.self_s"] = (layers[spans.OP_SPAN]["self_s"], "s")
    out["trace_overhead_s"] = (_wall(traced) - _wall(untraced), "s")
    models = counts.get("curves.models", 0)
    tally_s = layers.get("curves.tally_structures", {}).get("total_s", 0.0)
    out["curves.models"] = (models, "count")
    out["curves.n_buckets"] = (counts.get("curves.n_buckets", 0), "count")
    out["curves.d1_models"] = (counts.get("curves.d1_models", 0), "count")
    out["curves.models_per_s"] = (models / tally_s if tally_s else 0.0, "1/s")
    compare_ps = [op["p"] for op in ops if op["kind"] == "compare"]
    out["analytic.max_ell"] = (max((workloads.largest_prime_factor(p - 1) for p in compare_ps), default=0), "1")
    out["densities.f_ell.level_sum"] = (counts.get("densities.f_ell.level_sum", 0), "count")
    return out


def _layer_shares(traced: dict) -> str:
    wall = _wall(traced)
    rows = sorted(traced["layers"].items(), key=lambda kv: -kv[1]["self_s"])
    return ", ".join(f"{name} {row['self_s'] / wall:.1%}" for name, row in rows if row["self_s"] > 0.001 * wall)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "ellstat" / "cli.py").is_file() or not checks.EXPECTED_FILE.is_file():
        print(f"error: run from a full checkout; {SRC / 'ellstat'} or "
              f"{checks.EXPECTED_FILE.name} is missing", file=sys.stderr)
        return 2
    ops = workloads.generate(args.workload, args.seed)
    expected = checks.load_expected()
    info = stamp()

    deadline = time.perf_counter() + RUN_BUDGET_S
    setup = [] if args.trace else [time_setup() for _ in range(SETUP_REPEATS)]
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(ops, expected, info, timeout=deadline - t0))
        last = time.perf_counter() - t0
        if args.trace or time.perf_counter() - start + last > args.seconds:
            break
    traced = None
    if args.trace:
        trace_file = TMP / f"trace-{args.workload}-seed{args.seed}.json"
        traced = run_pass(ops, expected, info, trace_file, timeout=deadline - time.perf_counter())
        passes.append(traced)

    info["numpy"] = passes[0]["numpy"]
    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(bool(op["problems"]) for p in passes for op in p["ops"])
    for p in passes:
        for op in p["ops"]:
            if op["problems"]:
                print(f"FAILED {op['key']}: {'; '.join(op['problems'])}", file=sys.stderr)

    if args.trace:
        metrics = per_layer(passes[0], traced, ops)
    else:
        metrics = end_to_end(passes, setup)
    print(f"# {args.workload} seed={args.seed} passes={len(passes)} "
          f"operations={attempted} (per pass {len(ops)}) failed_frac={failed / attempted:g}")
    print("# stamp " + json.dumps(info, sort_keys=True))
    if traced is not None:
        print("# self time share of traced wall: " + _layer_shares(traced))
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
