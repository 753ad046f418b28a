"""Line counts of the package source, split into docstrings and the rest.

For each module of ``src/tableaux`` and in total, prints all lines, the
lines spanned by module, class and function docstrings (found with
``ast``), and the rest: code, comments and blank lines.  With ``--against
REV`` it prints those counts at the git revision REV (read with ``git
show``), in the working tree, and the difference; a module that exists on
one side only counts 0 on the other.

    python3 tools/src_lines.py [package_dir]
    python3 tools/src_lines.py --against REV [package_dir]
"""

from __future__ import annotations

import argparse
import ast
import operator
import subprocess
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


def _counted(sources: dict[str, str]) -> dict[str, tuple[int, int, int]]:
    """(lines, docstring lines, rest) of each source, by module name."""
    rows = {}
    for name, source in sorted(sources.items()):
        lines, docs = len(source.splitlines()), docstring_lines(source)
        rows[name] = (lines, docs, lines - docs)
    return rows


def counts(package: Path) -> dict[str, tuple[int, int, int]]:
    """``_counted`` for each module of the package directory."""
    return _counted({path.name: path.read_text()
                     for path in package.glob("*.py")})


def counts_at(rev: str, package: Path) -> dict[str, tuple[int, int, int]]:
    """``_counted`` for each module of the package directory as it was at
    the git revision rev."""
    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(package), *args], check=True,
                              capture_output=True, text=True).stdout
    names = git("ls-tree", "--name-only", rev, "--", "./").split()
    return _counted({name: git("show", f"{rev}:./{name}")
                     for name in names if name.endswith(".py")})


def _with_total(rows: dict[str, tuple[int, ...]]) -> dict[str, tuple[int, ...]]:
    return {**rows, "total": tuple(map(sum, zip(*rows.values())))}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("package", nargs="?", type=Path, default=PACKAGE)
    parser.add_argument("--against", metavar="REV",
                        help="also count at this git revision, and diff")
    args = parser.parse_args(argv)
    now = counts(args.package)
    if args.against is None:
        print(f"{'module':<20}{'lines':>7}{'docstrings':>12}{'rest':>7}")
        for name, (lines, docs, rest) in _with_total(now).items():
            print(f"{name:<20}{lines:>7}{docs:>12}{rest:>7}")
        return 0
    then = counts_at(args.against, args.package)
    zero = (0, 0, 0)
    table = _with_total({
        name: (*then.get(name, zero), *now.get(name, zero),
               *map(operator.sub, now.get(name, zero), then.get(name, zero)))
        for name in sorted(then.keys() | now.keys())})
    print(f"{'':<20}{'at ' + args.against:>21}{'working tree':>21}"
          f"{'difference':>21}")
    print(f"{'module':<20}" + f"{'lines':>7}{'docs':>7}{'rest':>7}" * 3)
    for name, row in table.items():
        print(f"{name:<20}" + "".join(f"{n:>7}" for n in row[:6])
              + "".join(f"{n:>+7}" for n in row[6:]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
