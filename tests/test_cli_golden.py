"""Byte-for-byte CLI output against a recorded golden file.

Each entry of ``cli_golden.json`` holds one command line, its exit code and
its stdout, with the ``millis`` field taken out of every JSON line (timings
vary; everything else, key order included, must not).  Regenerate with
``PYTHONPATH=src python tests/test_cli_golden.py`` only when an output change
is intended.
"""

import contextlib
import hashlib
import io
import json
import re
from pathlib import Path

import pytest

from tableaux.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")

COMMANDS = [
    "verify sweep",
    "verify controls",
    "verify pfaffian --k 5",
    "count --graph young --k 3 --to-partition 3,2,1 --method all",
    "count --graph strict --k 3 --from-partition 1 --to-partition 3,2,1"
    " --method all --format json",
    "count --graph pascal --k 3 --from 0,0,0 --to 1,2,1 --method all"
    " --format csv",
    "hooks --partition 4,2,1",
    "hooks --partition 4,2,1 --format json",
    "hooks --partition 3,3,1 --format csv",
    "phi --graph strict --k 2 --deg 2",
    "phi --graph young --k 3 --deg 3 --format json",
    "phi --graph custom --vertices 0,0;1,0;1,1;2,1 --deg 2 --format csv",
    "table --graph young --k 2 --deg 3",
    "table --graph strict --k 3 --deg 4 --format json",
    "table --graph pascal --k 2 --deg 2 --format csv",
]

_MILLIS = re.compile(r', "millis": \d+')


def capture(command: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(command.split())
    return {"command": command, "exit": rc,
            "stdout": _MILLIS.sub("", out.getvalue())}


@pytest.fixture(scope="module")
def golden():
    return {entry["command"]: entry
            for entry in json.loads(GOLDEN.read_text())}


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_output_matches_golden(golden, command):
    assert capture(command) == golden[command]


def test_golden_replays_in_reverse_in_one_process(golden):
    # one process, one parser, every request in the opposite order to the
    # recording: nothing may carry over from one request to the next
    for command in reversed(list(golden)):
        assert capture(command) == golden[command]


# sha256 of the stdout of three large ``phi --format json`` requests, too
# long to keep in the golden file; recorded before the weight-series solve
# skipped the constraints no term reaches
LARGE_PHI = {
    "phi --graph pascal --k 6 --deg 16 --format json":
        "cc194fe1082c04eb746333b5dc180cfd6bb03df444321b777561a1fdce533919",
    "phi --graph young --k 6 --deg 16 --format json":
        "e6790ccbd8d63c4d27deb694a4529dae9f5bae1e81933e9081b997b6e72f9e09",
    "phi --graph strict --k 5 --deg 12 --format json":
        "79e2b14151098836b7f63207737d14dc26ed3b92aa42d1667b66aa7cc79545f5",
}


@pytest.mark.parametrize("command", LARGE_PHI)
def test_large_phi_output_matches_its_digest(command):
    result = capture(command)
    assert result["exit"] == 0
    digest = hashlib.sha256(result["stdout"].encode()).hexdigest()
    assert digest == LARGE_PHI[command]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([capture(c) for c in COMMANDS], indent=1)
                      + "\n")
