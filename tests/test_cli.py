"""CLI behavior: output formats, exit codes, budgets."""

import argparse
import csv
import io
import json

import pytest

from tableaux import cli
from tableaux.cli import BUDGET_ENV, main


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_count_plain(capsys):
    rc, out, _ = run(capsys, "count", "--graph", "young", "--k", "2",
                     "--to-partition", "2,1", "--method", "all")
    assert rc == 0
    assert out.strip() == "2"


def test_count_single_method(capsys):
    rc, out, _ = run(capsys, "count", "--graph", "pascal", "--k", "3",
                     "--from", "0,0,0", "--to", "1,2,1", "--method", "formula")
    assert rc == 0
    assert out.strip() == "12"


def test_count_json(capsys):
    rc, out, _ = run(capsys, "count", "--graph", "strict", "--k", "2",
                     "--to-partition", "3,1", "--method", "all",
                     "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["graph"] == "strict"
    assert payload["from"] == "0,0"
    assert payload["to"] == "1,3"
    assert set(payload["counts"]) == {"formula", "oracle", "phi"}
    assert set(payload["counts"].values()) == {"2"}


def test_count_csv(capsys):
    rc, out, _ = run(capsys, "count", "--graph", "young", "--k", "2",
                     "--from", "0,2", "--to", "1,3", "--method", "all",
                     "--format", "csv")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["method", "count"]
    assert [r[1] for r in rows[1:]] == ["2", "2", "2"]


def test_count_custom_graph(capsys):
    rc, out, _ = run(capsys, "count", "--graph", "custom",
                     "--vertices", "0,0;1,0;0,1;1,1;2,1",
                     "--from", "0,0", "--to", "2,1", "--method", "all")
    assert rc == 0
    # the two routes go through (1,0) and (0,1); (2,0) is outside the box
    assert out.strip() == "2"


def test_count_rejects_vertex_outside_graph(capsys):
    rc, _, err = run(capsys, "count", "--graph", "young", "--k", "2",
                     "--from", "3,1", "--to", "4,2")
    assert rc == 2
    assert "not a vertex" in err


def test_count_rejects_partition_for_pascal(capsys):
    rc, _, err = run(capsys, "count", "--graph", "pascal", "--k", "2",
                     "--to-partition", "2,1")
    assert rc == 2
    assert "partition input" in err


def test_verify_emits_json_lines(capsys):
    rc, out, _ = run(capsys, "verify", "vandermonde", "--k", "2", "--n", "3")
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1
    rep = json.loads(lines[0])
    assert rep["identity"] == "vandermonde_convolution"
    assert rep["status"] == "pass"
    assert "params" in rep


def test_verify_controls(capsys):
    rc, out, _ = run(capsys, "verify", "controls")
    assert rc == 0
    for line in out.strip().splitlines():
        assert json.loads(line)["status"] == "pass"


def test_verify_pairs_seeded(capsys):
    rc, out, _ = run(capsys, "verify", "pairs", "--graph", "young", "--k", "2",
                     "--deg", "6", "--pairs", "5", "--seed", "11")
    assert rc == 0
    rep = json.loads(out)
    assert rep["seed"] == "11"


def test_budget_rejects_oversized_request(capsys):
    rc, _, err = run(capsys, "verify", "hook", "--k", "9", "--n", "99")
    assert rc == 2
    assert "budget" in err


def test_budget_env_override(capsys, monkeypatch):
    partition = "9,8,7,6,5,4,3,2,1"
    rc, _, err = run(capsys, "hooks", "--partition", partition)
    assert rc == 2 and "budget" in err
    monkeypatch.setenv(BUDGET_ENV, "max_k=12, max_degree=60")
    rc, out, _ = run(capsys, "hooks", "--partition", partition)
    assert rc == 0
    assert out.splitlines()[0].startswith("17 ")


def test_verify_pfaffian_rejects_k_beyond_range_at_once(capsys, monkeypatch):
    monkeypatch.setenv(BUDGET_ENV, "max_k=8")
    rc, out, err = run(capsys, "verify", "pfaffian", "--k", "7")
    assert rc == 2
    assert out == ""
    assert "2 <= k <= 6" in err


def test_verify_hook_beyond_composition_budget_exits_at_once(capsys):
    # C(28, 5) = 98280 compositions of 8 + 15 into 6 parts
    for check in ("hook", "skew"):
        rc, out, err = run(capsys, "verify", check, "--k", "6", "--n", "8")
        assert rc == 2
        assert out == ""
        assert "max_compositions" in err and "98280" in err


def test_composition_budget_counts_the_anchored_sum(capsys, monkeypatch):
    # hook --k 2 --n 3 sums over the C(5, 1) = 5 compositions of 3 + 1;
    # skew at anchor (1, 3) over the C(8, 1) = 8 compositions of 3 + 4
    monkeypatch.setenv(BUDGET_ENV, "max_compositions=5")
    assert run(capsys, "verify", "hook", "--k", "2", "--n", "3")[0] == 0
    rc, _, err = run(capsys, "verify", "skew", "--k", "2", "--anchor", "1,3",
                     "--n", "3")
    assert rc == 2 and "needs 8" in err
    monkeypatch.setenv(BUDGET_ENV, "max_compositions=4")
    rc, _, err = run(capsys, "verify", "hook", "--k", "2", "--n", "3")
    assert rc == 2 and "needs 5" in err


def test_verify_skew_bounds_the_anchor_by_max_degree(capsys, monkeypatch):
    # 1009 compositions, far below max_compositions, but alternants of
    # degree 1000: the anchor's largest entry plus n must fit max_degree
    rc, out, err = run(capsys, "verify", "skew", "--k", "2", "--anchor",
                       "0,1000", "--n", "8")
    assert rc == 2
    assert out == ""
    assert "max_degree" in err and "1008" in err
    monkeypatch.setenv(BUDGET_ENV, "max_degree=6")
    assert run(capsys, "verify", "skew", "--k", "2", "--anchor", "1,3",
               "--n", "3")[0] == 0
    rc, _, err = run(capsys, "verify", "skew", "--k", "2", "--anchor", "1,3",
                     "--n", "4")
    assert rc == 2 and "max_degree" in err and "needs 7" in err


def test_budget_env_rejects_unknown_key(capsys, monkeypatch):
    monkeypatch.setenv(BUDGET_ENV, "max_q=3")
    rc, _, err = run(capsys, "count", "--graph", "pascal", "--k", "2",
                     "--to", "1,1")
    assert rc == 2
    assert "known keys" in err


def test_hooks_plain(capsys):
    rc, out, _ = run(capsys, "hooks", "--partition", "3,2,1")
    assert rc == 0
    assert out == "5 3 1\n3 1\n1\nproduct 45\ncount 16\n"


def test_hooks_json(capsys):
    rc, out, _ = run(capsys, "hooks", "--partition", "2,1", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["hooks"] == [[3, 1], [1]]
    assert payload["product"] == "3"
    assert payload["count"] == "2"


def test_hooks_csv(capsys):
    rc, out, _ = run(capsys, "hooks", "--partition", "2,1", "--format", "csv")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows == [["row", "col", "hook"],
                    ["0", "0", "3"], ["0", "1", "1"], ["1", "0", "1"]]


def test_phi_lattice_base(capsys):
    rc, out, _ = run(capsys, "phi", "--graph", "young", "--k", "2", "--deg", "3")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "0,1 1"
    assert lines[-1] == "conditions pass"


def test_phi_custom_box_passes(capsys):
    rc, out, _ = run(capsys, "phi", "--graph", "custom",
                     "--vertices", "0,0;1,0;1,1;2,1", "--deg", "2")
    assert rc == 0
    assert out.strip().splitlines()[-1] == "conditions pass"


def test_phi_custom_box_without_minimum_fails(capsys):
    rc, _, err = run(capsys, "phi", "--graph", "custom",
                     "--vertices", "1,0;0,1;1,1", "--deg", "2")
    assert rc == 1
    assert "construction failed" in err


def test_count_phi_rejects_custom_graph_not_minimum_closed(capsys):
    # min((-1,1), (1,-1)) = (-1,-1) is missing; the scan must cover the
    # negative coordinates, or the series count prints -8 for a pair with
    # no path between them
    rc, out, err = run(capsys, "count", "--graph", "custom",
                       "--vertices=-1,-2;-1,1;-1,2;0,0;0,1;1,-1;1,0;1,1",
                       "--from=-1,-2", "--to=-1,1", "--method", "phi")
    assert rc == 1
    assert out == ""
    assert "minimum_closed" in err


def test_count_phi_checks_weight_conditions(capsys, monkeypatch):
    def tampered(graph, v, bound):
        phi = construct(graph, v, bound)
        phi.coeffs[(1, 0)] = 5
        return phi

    construct = cli.construct_weight_series
    monkeypatch.setattr(cli, "construct_weight_series", tampered)
    rc, out, err = run(capsys, "count", "--graph", "young", "--k", "2",
                       "--from", "0,1", "--to", "1,3", "--method", "phi")
    assert rc == 1
    assert out == ""
    assert "failed at (1, 1)" in err
    assert "boundary vanishing" in err


def test_count_strict_formula_at_k6(capsys):
    rc, out, _ = run(capsys, "count", "--graph", "strict", "--k", "6",
                     "--from-partition", "3,2,1", "--to-partition", "6,4,2,1",
                     "--method", "formula")
    assert rc == 0
    assert out.strip() == "35"


def test_count_strict_series_at_k5_staircase(capsys):
    # the hypothesis checks scan the neighbour relation in [0, 16]^2, not
    # vertex pairs of [0, 16]^5, so this count takes well under a second
    target = ("--to-partition", "5,4,3,2,1")
    rc, out, _ = run(capsys, "count", "--graph", "strict", "--k", "5", *target,
                     "--method", "phi")
    assert rc == 0
    assert out.strip() == "286"
    rc, out, _ = run(capsys, "count", "--graph", "strict", "--k", "5", *target,
                     "--method", "all", "--format", "json")
    assert rc == 0
    assert json.loads(out)["counts"] == {"formula": "286", "oracle": "286",
                                         "phi": "286"}


def test_table_csv_quotes_vertices(capsys):
    rc, out, _ = run(capsys, "table", "--graph", "pascal", "--k", "2",
                     "--deg", "2", "--format", "csv")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["vertex", "count"]
    assert ["1,1", "2"] in rows
    assert all(len(r) == 2 for r in rows)


def test_table_json(capsys):
    rc, out, _ = run(capsys, "table", "--graph", "young", "--k", "2",
                     "--deg", "3", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["from"] == "0,1"
    assert payload["counts"]["1,3"] == "2"


def test_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["count", "--graph", "nonsense"])


def test_count_requires_k_for_lattice(capsys):
    rc, _, err = run(capsys, "count", "--graph", "young", "--to", "1,3")
    assert rc == 2
    assert "--k is required" in err


# -- one process, many requests ---------------------------------------------------

def test_same_request_twice_gives_the_same_reply(capsys):
    argv = ("count", "--graph", "strict", "--k", "5", "--to-partition",
            "5,4,3,2,1", "--method", "formula", "--format", "json")
    first = run(capsys, *argv)
    assert first[0] == 0 and json.loads(first[1])["counts"] == {"formula": "286"}
    assert run(capsys, *argv) == first


def test_usage_error_twice_exits_2_with_the_same_usage(capsys):
    errors = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--graph", "nonsense"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("usage: tableaux count")
    assert "invalid choice: 'nonsense'" in errors[0]


def test_budgets_are_read_on_every_call(capsys, monkeypatch):
    # hook --k 2 --n 3 sums over 5 compositions
    argv = ("verify", "hook", "--k", "2", "--n", "3")
    monkeypatch.delenv(BUDGET_ENV, raising=False)
    assert run(capsys, *argv)[0] == 0
    monkeypatch.setenv(BUDGET_ENV, "max_compositions=4")
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == "" and "needs 5" in err
    monkeypatch.delenv(BUDGET_ENV)
    assert run(capsys, *argv)[0] == 0


def test_parser_is_built_once_across_calls(capsys, monkeypatch):
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    # one build makes the top-level parser and one parser per subcommand
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    try:
        for _ in range(5):
            rc, out, _ = run(capsys, "hooks", "--partition", "3,2,1")
            assert (rc, out) == (0, "5 3 1\n3 1\n1\nproduct 45\ncount 16\n")
        assert built.count("tableaux") == 1
        assert len(built) == 6
    finally:
        cli._build_parser.cache_clear()
