"""The source line counter in tools/: its totals add up, and it diffs
against a git revision."""

import importlib.util
import subprocess
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


def _commit(repo, files, message):
    for name, text in files.items():
        path = repo / "pkg" / name
        if text is None:
            path.unlink()
        else:
            path.write_text(text)
    git = ["git", "-C", str(repo), "-c", "user.name=t",
           "-c", "user.email=t@example.invalid"]
    subprocess.run([*git, "add", "-A"], check=True, capture_output=True)
    subprocess.run([*git, "commit", "-q", "-m", message], check=True,
                   capture_output=True)


def test_against_a_revision_prints_both_counts_and_their_difference(
        tmp_path, capsys):
    repo = tmp_path / "repo"
    (repo / "pkg").mkdir(parents=True)
    subprocess.run(["git", "init", "-q", str(repo)], check=True)
    _commit(repo, {"a.py": '"""doc\nstring"""\nx = 1\n',
                   "gone.py": "y = 2\nz = 3\n",
                   "notes.txt": "not a module\n"}, "first")
    _commit(repo, {"a.py": '"""doc"""\nx = 1\n\n\ndef f():\n    """f"""\n',
                   "gone.py": None, "new.py": "w = 4\n"}, "second")
    # an edit left in the working tree counts too
    (repo / "pkg" / "new.py").write_text("w = 4\nv = 5\n")
    assert _load().main(["--against", "HEAD~1", str(repo / "pkg")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "at HEAD~1" in lines[0] and "difference" in lines[0]
    assert lines[1].split() == ["module"] + ["lines", "docs", "rest"] * 3
    table = {row[0]: [int(n) for n in row[1:]]
             for row in map(str.split, lines[2:])}
    # then, now and now - then, each as lines, docstrings, rest
    assert table == {
        "a.py": [3, 2, 1, 6, 2, 4, 3, 0, 3],
        "gone.py": [2, 0, 2, 0, 0, 0, -2, 0, -2],
        "new.py": [0, 0, 0, 2, 0, 2, 2, 0, 2],
        "total": [5, 2, 3, 8, 2, 6, 3, 0, 3],
    }
