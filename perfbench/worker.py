"""One pass of a workload, in a fresh interpreter.

Reads a JSON job on stdin::

    {"ops": [...], "expected": {...} | null, "trace_file": path | null,
     "stamp": {...}}

runs every operation in order, in-process, through ``ellstat.cli.main(argv)``
with stdout captured, checks each output, and prints one JSON line with the
per-operation times, the pass's CPU seconds and peak RSS, and, when
``trace_file`` is set, the per-layer figures of the trace (whose spans it
writes to ``trace_file``).  The package is imported from ``src`` of the
checkout that holds this file, never from an installed copy.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

import checks
import spans
import workloads
from run import SRC, TMP

sys.path.insert(0, str(SRC))


def _import_cli():
    import ellstat.cli

    if not Path(ellstat.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"ellstat was imported from {ellstat.cli.__file__}, not {SRC}")
    return ellstat.cli


def _observers() -> dict:
    """Exact work counts taken from the results the program returns."""

    def tally(tracer, args, result):
        p = result.p
        qs = [q for q, _ in workloads.factor(p - 1)]
        tracer.counts["curves.models"] += sum(result.counts.values())
        tracer.counts["curves.n_buckets"] += len({s.order for s in result.counts})
        tracer.counts["curves.d1_models"] += sum(
            c for s, c in result.counts.items()
            if any(s.order % (q * q) == 0 for q in qs)
        )

    def f_ell(tracer, args, result):
        tracer.counts["densities.f_ell.level_sum"] += args[0] ** result.stabilized_at_R

    return {"curves.tally_structures": tally, "densities.f_ell": f_ell}


def run_op(cli, op: dict) -> dict:
    """Run one operation; time it and return its output for checking."""
    argv = list(op["argv"])
    out_path = None
    if op["kind"] == "sweep":
        out_path = str(TMP / f"sweep-{os.getpid()}.csv")
        argv += ["--out", out_path]
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    cpu0, t0 = time.process_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    except Exception as exc:  # an operation that raises is counted as failed
        code, error = None, repr(exc)
    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    csv_bytes = None
    if out_path is not None and os.path.exists(out_path):
        csv_bytes = Path(out_path).read_bytes()
        os.unlink(out_path)
    text = stdout.getvalue()
    if out_path is not None:
        text = text.replace(out_path, checks.OUT_PLACEHOLDER)
    return {"wall_s": wall, "cpu_s": cpu, "code": code, "error": error,
            "stderr": stderr.getvalue(), "stdout": text, "csv": csv_bytes}


def run_pass(job: dict) -> dict:
    cli = _import_cli()
    TMP.mkdir(exist_ok=True)
    tracer = None
    if job.get("trace_file"):
        tracer = spans.Tracer()
        hooks = spans.installed(tracer, "ellstat", observers=_observers())
    else:
        hooks = contextlib.nullcontext()
    results = []
    with hooks:
        for i, op in enumerate(job["ops"]):
            scope = tracer.operation(i) if tracer else contextlib.nullcontext()
            with scope:
                res = run_op(cli, op)
            results.append((op, res))
    ops_out = []
    for op, res in results:
        if res["error"] is not None:
            problems = [f"raised {res['error']}"]
        elif res["code"] != 0:
            problems = [f"exit code {res['code']}: {res['stderr'].strip()}"]
        else:
            problems = checks.check(op, res["stdout"], res["csv"], job["expected"])
        ops_out.append({
            "key": op["key"],
            "wall_s": res["wall_s"],
            "cpu_s": res["cpu_s"],
            "problems": problems,
            "stdout_sha256": checks.digest(res["stdout"].encode()),
            "csv_sha256": None if res["csv"] is None else checks.digest(res["csv"]),
        })
    numpy_version = sys.modules["numpy"].__version__
    out = {
        "ops": ops_out,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": numpy_version,
    }
    if tracer is not None:
        out["layers"] = spans.summarize(tracer.spans)
        out["counts"] = dict(tracer.counts)
        Path(job["trace_file"]).write_text(json.dumps({
            "stamp": {**job["stamp"], "numpy": numpy_version},
            "ops": [op["key"] for op in job["ops"]],
            "fields": ["name", "start", "end", "parent", "op"],
            "spans": tracer.spans,
        }))
    return out


if __name__ == "__main__":
    print(json.dumps(run_pass(json.load(sys.stdin))))
