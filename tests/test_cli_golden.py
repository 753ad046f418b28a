"""Byte-for-byte CLI output against a recorded golden file.

Each entry of ``cli_golden.json`` holds one command line, its exit code and
its stdout, with the ``millis`` field taken out of every JSON line (timings
vary; everything else, key order included, must not).  Regenerate with
``PYTHONPATH=src python tests/test_cli_golden.py`` only when an output change
is intended.
"""

import contextlib
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


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([capture(c) for c in COMMANDS], indent=1)
                      + "\n")
