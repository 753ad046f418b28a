"""Line counts of the package source, split into docstrings and the rest.

For each module of ``src/tableaux`` and in total, prints all lines, the
lines spanned by module, class and function docstrings (found with
``ast``), and the rest: code, comments and blank lines.

    python3 tools/src_lines.py [package_dir]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tableaux"
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> int:
    """The number of lines spanned by the docstrings of the module and of
    every class and function in it."""
    total = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                total += first.end_lineno - first.lineno + 1
    return total


def counts(package: Path) -> list[tuple[str, int, int]]:
    """(module, lines, docstring lines) for each module, by name."""
    rows = []
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        rows.append((path.name, len(source.splitlines()),
                     docstring_lines(source)))
    return rows


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    rows = counts(Path(argv[0]) if argv else PACKAGE)
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'module':<20}{'lines':>7}{'docstrings':>12}{'rest':>7}")
    for name, lines, docs in rows:
        print(f"{name:<20}{lines:>7}{docs:>12}{lines - docs:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
