"""README's examples run as written.

Each ``$ tableaux ...`` request under ``## CLI`` prints what README shows:
plain lines byte for byte, and each JSON line, which README wraps onto
indented lines, as the same document once its ``millis`` is dropped.  Each
``# value`` comment of the ``## Library`` block is what its line returns.
"""

import ast
import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from tableaux.cli import BUDGET_ENV, main

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(title, lang):
    text = README.read_text()
    start = text.index(f"\n## {title}\n")
    section = text[start:text.find("\n## ", start + 1)]
    return re.findall(rf"^```{lang}\n(.*?)^```", section, re.M | re.S)


def _requests():
    """(command, lines shown) for each request, its backslash-continued
    lines joined."""
    for block in _blocks("CLI", "text"):
        for request in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, shown = re.sub(r"\\\n\s*", "", request).partition("\n")
            yield command, shown


def _read(output):
    """The lines of an output, each JSON one joined and parsed."""
    lines = []
    for line in re.sub(r"\n ", " ", output).splitlines():
        if line.startswith("{"):
            line = json.loads(line)
            line.pop("millis", None)
        lines.append(line)
    return lines


@pytest.mark.parametrize("command, shown", [
    pytest.param(command, shown, id=command) for command, shown in _requests()])
def test_each_cli_example_prints_what_readme_shows(command, shown,
                                                   monkeypatch):
    monkeypatch.delenv(BUDGET_ENV, raising=False)
    argv = shlex.split(command)
    assert argv[0] == "tableaux"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv[1:]) == 0
    assert _read(out.getvalue()) == _read(shown)


def test_every_cli_example_is_read():
    requests = sum(block.count("$ tableaux ")
                   for block in _blocks("CLI", "text"))
    assert len(list(_requests())) == requests > 0


def test_the_library_example_returns_its_commented_values():
    (block,) = _blocks("Library", "python")
    lines = block.splitlines()
    namespace, checked = {}, 0
    for statement in ast.parse(block).body:
        if isinstance(statement, ast.Expr):
            value = eval(compile(ast.Expression(statement.value), "README",
                                 "eval"), namespace)
        else:
            exec(compile(ast.Module([statement], []), "README", "exec"),
                 namespace)
            value = (namespace[statement.targets[0].id]
                     if isinstance(statement, ast.Assign) else None)
        _, hash_, comment = lines[statement.end_lineno - 1].partition("#")
        if hash_:
            comment = comment.strip()
            assert comment == repr(value) \
                or comment.startswith(repr(value) + ","), (statement, value)
            checked += 1
    assert checked == sum("#" in line for line in lines) > 0
