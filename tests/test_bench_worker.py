"""The benchmark's worker, run once on one traced job.

``perfbench/worker.py`` runs each pass of the benchmark in a fresh
interpreter: it stamps the run with numpy's version, wraps the package's
layer functions (``perfbench/spans.py``) and reads fields of the results it
observes.  A change in ``src`` that breaks any of that would otherwise show
only when the benchmark runs.  This test pipes the first operation of each
workload to the worker, traced, and checks its report.  The benchmark's files
are only read; a sweep writes its CSV under ``.bench_tmp`` and removes it.
"""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_worker_runs_one_traced_job(tmp_path):
    workloads = _load_workloads()
    ops = [workloads.generate(name, 0)[0] for name in workloads.WORKLOADS]
    trace = tmp_path / "trace.json"
    job = {
        "ops": ops,
        "expected": json.loads((BENCH / "expected.json").read_text())["operations"],
        "trace_file": str(trace),
        "stamp": {},
    }
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py")],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert [op["key"] for op in report["ops"]] == [op["key"] for op in ops]
    assert [op["problems"] for op in report["ops"]] == [[]] * len(ops), report["ops"]
    assert json.loads(trace.read_text())["spans"]
