"""The source line counter in tools/: its totals add up."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load():
    spec = importlib.util.spec_from_file_location(
        "src_lines", ROOT / "tools" / "src_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_src_lines_totals_equal_the_files_line_counts(capsys):
    src_lines = _load()
    package = ROOT / "src" / "tableaux"
    assert src_lines.main([str(package)]) == 0
    table = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert table[0] == ["module", "lines", "docstrings", "rest"]
    files = sorted(package.glob("*.py"))
    assert [row[0] for row in table[1:-1]] == [f.name for f in files]
    for name, lines, docs, rest in table[1:]:
        assert int(docs) + int(rest) == int(lines)
    total = table[-1]
    assert total[0] == "total"
    assert int(total[1]) == sum(len(f.read_text().splitlines())
                                for f in files)
    assert int(total[2]) == sum(int(row[2]) for row in table[1:-1])


def test_docstring_lines_count_every_scope():
    source = '"""one\ntwo"""\n\nclass A:\n    """a"""\n\n    def f(self):\n' \
             '        """f\n        f"""\n        return "not a docstring"\n'
    assert _load().docstring_lines(source) == 2 + 1 + 2
