"""Every operation recorded in ``perfbench/expected.json``, replayed in-process.

The benchmark checks the SHA-256 of each operation's stdout (and of a sweep's
CSV) against that file; this test checks the same digests in the test suite,
so that a byte change in any recorded output fails here too.  The file is
only read.  ``--seed`` does not change any output and is not part of a key;
a sweep writes its CSV under ``tmp_path`` and its stdout names that file as
``<out>``, as the benchmark records it.
"""

import hashlib
import json
import pathlib

from ellstat.cli import main

EXPECTED = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"
OUT_PLACEHOLDER = "<out>"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_recorded_digests(tmp_path, capsys):
    operations = json.loads(EXPECTED.read_text())["operations"]
    assert operations
    mismatches = []
    for key, record in operations.items():
        argv = key.split()
        out = tmp_path / "sweep.csv"
        if argv[0] == "sweep":
            argv += ["--out", str(out)]
        assert main(argv) == 0, key
        stdout = capsys.readouterr().out.replace(str(out), OUT_PLACEHOLDER)
        if _sha256(stdout.encode()) != record["stdout"]:
            mismatches.append(f"{key}: stdout")
        if "csv" in record and _sha256(out.read_bytes()) != record["csv"]:
            mismatches.append(f"{key}: csv")
    assert not mismatches, mismatches
