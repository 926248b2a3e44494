"""Output checks for every benchmark operation.

Two layers of checks:

* digests: the SHA-256 of each operation's stdout, and for ``sweep`` of the
  CSV it writes, recorded in ``expected.json`` for every operation any seed
  can produce (``record.py`` rewrites the file).  Stdout does not depend on
  the CLI ``--seed``, so one digest covers every seed;
* invariants that hold for any input: a ``brute --tally`` sums to p^2 - p,
  every d1 divides p - 1 and every shape is Hasse-admissible; the other
  commands print the lines and columns they document.

``check`` returns the problems found; an empty list means the output is
correct.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import workloads

EXPECTED_FILE = Path(__file__).with_name("expected.json")
OUT_PLACEHOLDER = "<out>"


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_expected() -> dict:
    return json.loads(EXPECTED_FILE.read_text())["operations"]


def _brute(op: dict, stdout: str, csv_bytes: bytes | None) -> list[str]:
    p = op["p"]
    lines = stdout.splitlines()
    if not lines or lines[0] != "stat,value" or "d1,d2,count" not in lines:
        return ["brute output lacks the stat or tally header"]
    split = lines.index("d1,d2,count")
    stats = dict(line.split(",", 1) for line in lines[1:split])
    problems = []
    if float(stats.get("one", "nan")) != 1.0:
        problems.append(f"mass 'one' is {stats.get('one')}, not 1")
    total = 0
    for row in lines[split + 1 :]:
        d1, d2, count = (int(v) for v in row.split(","))
        total += count
        t = p + 1 - d1 * d1 * d2
        if d1 < 1 or d2 < 1 or count < 1 or (p - 1) % d1:
            problems.append(f"shape ({d1},{d2}) count {count}: d1 does not divide p-1")
        if t * t >= 4 * p:
            problems.append(f"shape ({d1},{d2}) is outside the Hasse interval")
    if total != p * p - p:
        problems.append(f"tally mass {total} != p^2 - p = {p * p - p}")
    return problems


def _sweep(op: dict, stdout: str, csv_bytes: bytes | None) -> list[str]:
    if csv_bytes is None:
        return ["sweep wrote no CSV"]
    rows = csv_bytes.decode().splitlines()
    primes = [q for q in range(5, op["xmax"] + 1) if workloads.is_prime(q)]
    ps = [int(r.split(",", 2)[1]) for r in rows[1:]]
    problems = []
    if ps != primes:
        problems.append("sweep rows are not the primes 5 <= p <= xmax in order")
    if stdout.splitlines()[-1:] != [f"wrote {OUT_PLACEHOLDER} ({len(primes)} rows)"]:
        problems.append("sweep did not report its row count")
    return problems


def _compare(op: dict, stdout: str, csv_bytes: bytes | None) -> list[str]:
    lines = stdout.splitlines()
    if len(lines) != 2:
        return [f"compare printed {len(lines)} lines, not 2"]
    header, row = (line.split(",") for line in lines)
    if len(row) != len(header) or row[0] != str(op["p"]):
        return ["compare row does not match its header or prime"]
    if not all(math.isfinite(float(v)) and float(v) >= 0 for v in row[1:]):
        return ["compare row has a negative or non-finite value"]
    return []


def _prob(op: dict, stdout: str, csv_bytes: bytes | None) -> list[str]:
    fields = dict(line.split(",", 1) for line in stdout.splitlines())
    if sorted(fields) != ["ell_max", "tail_log_increment", "value"]:
        return ["prob output lacks value, tail_log_increment or ell_max"]
    value = float(fields["value"])
    if not (math.isfinite(value) and value > 0):
        return [f"prob value {value} is not a positive number"]
    if fields["ell_max"] != op["argv"][op["argv"].index("--lmax") + 1]:
        return ["prob ell_max does not echo --lmax"]
    return []


INVARIANTS = {"brute": _brute, "sweep": _sweep, "compare": _compare, "prob": _prob}


def check(op: dict, stdout: str, csv_bytes: bytes | None, expected: dict | None) -> list[str]:
    """Problems with one operation's output; stdout has its --out path replaced.

    With ``expected`` None only the invariants are checked (used when the
    digests are being recorded).
    """
    problems = []
    if expected is not None:
        record = expected.get(op["key"])
        if record is None:
            problems.append("no recorded digest for this operation")
        else:
            if digest(stdout.encode()) != record["stdout"]:
                problems.append("stdout differs from the recorded digest")
            if "csv" in record and (csv_bytes is None or digest(csv_bytes) != record["csv"]):
                problems.append("CSV differs from the recorded digest")
    try:
        problems += INVARIANTS[op["kind"]](op, stdout, csv_bytes)
    except (ValueError, KeyError, IndexError, UnicodeDecodeError) as exc:
        problems.append(f"unparseable output: {exc!r}")
    return problems
