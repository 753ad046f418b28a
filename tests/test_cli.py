"""CLI behavior: output formats, exit codes, budgets."""

import argparse
import ast
import contextlib
import csv
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from tableaux import cli, formulas
from tableaux.cli import BUDGET_ENV, main
from tableaux.graded_graphs import make_graph


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


def test_strict_formula_count_has_no_symmetrization_cap(capsys, monkeypatch):
    # k = 8 is past the cap of the paper's symmetrized sum; the Pfaffian
    # route that the CLI takes has none
    monkeypatch.setenv(BUDGET_ENV, "max_k=8,max_degree=40")
    rc, out, err = run(capsys, "count", "--graph", "strict", "--k", "8",
                       "--from-partition", "4,2,1", "--to-partition",
                       "10,8,6,5,4,3,2,1", "--method", "formula")
    assert (rc, out, err) == (0, "6999781501680\n", "")


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


def test_verify_skew_ties_the_anchor_to_k(capsys):
    # the anchor fixes the number of variables; a check in three variables
    # must not pass under max_k and report k=2
    for k, anchor in (("2", "0,1,3"), ("3", "0,1"), ("1", ",".join("0" * 20))):
        rc, out, err = run(capsys, "verify", "skew", "--k", k, "--anchor",
                           anchor, "--n", "1")
        assert rc == 2
        assert out == ""
        assert f"--k {k} disagrees with --anchor" in err
    assert run(capsys, "verify", "skew", "--k", "3", "--anchor", "0,1,3",
               "--n", "1")[0] == 0


def test_verify_rejects_requests_that_check_nothing(capsys):
    # a repeated anchor entry makes both alternants 0, and a negative or
    # zero --pairs samples no pair: none may print pass
    for argv in (("skew", "--k", "2", "--anchor", "1,1", "--n", "2"),
                 ("pairs", "--graph", "young", "--k", "2", "--deg", "4",
                  "--pairs", "-4"),
                 ("pairs", "--graph", "young", "--k", "3", "--deg", "0",
                  "--pairs", "0")):
        rc, out, err = run(capsys, "verify", *argv)
        assert rc == 2
        assert out == ""
        assert err.startswith("error:")


def test_verify_skew_names_a_negative_anchor(capsys):
    assert run(capsys, "verify", "skew", "--k", "2", "--anchor=-1,2",
               "--n", "2") == (
        2, "", "error: anchor (-1, 2) has a negative entry\n")


@pytest.mark.parametrize("k", ["0", "-1"])
@pytest.mark.parametrize("check", [c for c in cli.VERIFY_CHECKS
                                   if c not in ("controls", "sweep")])
def test_verify_rejects_k_below_one_in_one_wording(capsys, check, k):
    # every check that reads --k rejects it alike, before any internal
    # message (an empty matrix, no variables) can surface
    assert run(capsys, "verify", check, "--k", k) == (
        2, "", "error: need k >= 1\n")


@pytest.mark.parametrize("argv, flag", [
    (("verify", "counts", "--deg", "-1"), "--deg"),
    (("verify", "pairs", "--deg", "-1"), "--deg"),
    (("verify", "construction", "--deg", "-2"), "--deg"),
    (("table", "--k", "2", "--deg", "-1"), "--deg"),
    (("phi", "--k", "2", "--deg", "-1"), "--deg"),
    (("verify", "hook", "--n", "-1"), "--n"),
    (("verify", "skew", "--n", "-1"), "--n"),
    (("verify", "multinomial", "--n", "-1"), "--n"),
])
def test_negative_size_flags_exit_2_naming_the_flag(capsys, monkeypatch,
                                                    argv, flag):
    # rejected before any work: no budget is even read
    monkeypatch.setattr(cli, "_load_budgets", None)
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and flag in err.splitlines()[0]


def test_verify_pairs_is_bounded_by_max_pairs(capsys, monkeypatch):
    monkeypatch.delenv(BUDGET_ENV, raising=False)
    pairs = str(cli.DEFAULT_BUDGETS["max_pairs"] + 1)
    rc, out, err = run(capsys, "verify", "pairs", "--graph", "young", "--k",
                       "2", "--deg", "4", "--pairs", pairs)
    assert rc == 2
    assert out == ""
    assert err.startswith("budget:") and "max_pairs" in err
    monkeypatch.setenv(BUDGET_ENV, "max_pairs=5")
    argv = ("verify", "pairs", "--graph", "young", "--k", "2", "--deg", "4")
    assert run(capsys, *argv, "--pairs", "5")[0] == 0
    rc, _, err = run(capsys, *argv, "--pairs", "6")
    assert rc == 2 and "max_pairs=5" in err and "needs 6" in err


# Each verify check's size rules, as (request, budget key, the request's
# need): max_k on every check that reads --k, max_n on the six that read
# --n, max_degree (deg, or max(anchor) + n) and max_compositions (the terms
# of the anchored composition sum, C(n + |a| + k - 1, k - 1)) where they
# bound the work, and max_pairs on pairs.
SIZE_RULES = [
    *[(f"{check} --k 2 --n 3", key, need)
      for check in ("vandermonde", "multinomial", "polycomponent")
      for key, need in (("max_k", 2), ("max_n", 3))],
    ("skew-polycomponent --sigma 1 --k 2 --n 3", "max_k", 2),
    ("skew-polycomponent --sigma 1 --k 2 --n 3", "max_n", 3),
    ("hook --k 2 --n 3", "max_k", 2),
    ("hook --k 2 --n 3", "max_n", 3),
    ("hook --k 2 --n 3", "max_compositions", 5),
    ("skew --k 2 --anchor 0,2 --n 2", "max_k", 2),
    ("skew --k 2 --anchor 0,2 --n 2", "max_n", 2),
    ("skew --k 2 --anchor 0,2 --n 2", "max_degree", 4),
    ("skew --k 2 --anchor 0,2 --n 2", "max_compositions", 5),
    ("pfaffian --k 2", "max_k", 2),
    *[(f"{check} --graph young --k 2 --deg 3", key, need)
      for check in ("counts", "construction")
      for key, need in (("max_k", 2), ("max_degree", 3))],
    ("pairs --graph young --k 2 --deg 3 --pairs 5", "max_k", 2),
    ("pairs --graph young --k 2 --deg 3 --pairs 5", "max_degree", 3),
    ("pairs --graph young --k 2 --deg 3 --pairs 5", "max_pairs", 5),
]


@pytest.mark.parametrize("request_text, key, need", SIZE_RULES)
def test_each_verify_size_rule_admits_its_need_and_refuses_one_less(
        capsys, monkeypatch, request_text, key, need):
    argv = ("verify", *request_text.split())
    monkeypatch.setenv(BUDGET_ENV, f"{key}={need - 1}")
    assert run(capsys, *argv) == (
        2, "", f"budget: {key}={need - 1} but the request needs {need} "
               f"(raise it via {BUDGET_ENV})\n")
    monkeypatch.setenv(BUDGET_ENV, f"{key}={need}")
    rc, out, err = run(capsys, *argv)
    assert (rc, err) == (0, "")
    assert json.loads(out)["status"] == "pass"


def test_the_readme_lists_every_verify_check_in_order():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    listed = readme.split("\nChecks: `", 1)[1].split("`", 1)[0]
    assert tuple(listed.split()) == cli.VERIFY_CHECKS


def test_custom_vertex_list_is_bounded_by_max_vertices(capsys, monkeypatch):
    monkeypatch.delenv(BUDGET_ENV, raising=False)
    size = cli.DEFAULT_BUDGETS["max_vertices"] + 1
    listed = ";".join(f"{i},0" for i in range(size))
    for command in ("count", "phi", "table"):
        rc, out, err = run(capsys, command, "--graph", "custom",
                           "--vertices", listed, "--from", "0,0")
        assert rc == 2
        assert out == ""
        assert err.startswith("budget:") and "max_vertices" in err
    monkeypatch.setenv(BUDGET_ENV, "max_vertices=3")
    argv = ("phi", "--graph", "custom", "--deg", "1", "--vertices")
    assert run(capsys, *argv, "0,0;1,0;0,1")[0] == 0
    rc, _, err = run(capsys, *argv, "0,0;1,0;0,1;1,1")
    assert rc == 2 and "max_vertices=3" in err and "needs 4" in err


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


def test_phi_far_source_scans_in_bounded_time(capsys):
    # the enclosing box grows to 302, where a pair scan of the relation
    # would meet about 10^9 pairs; young's relation is order-invariant, so
    # the scans cover [0, 4]^2 only
    rc, out, _ = run(capsys, "phi", "--graph", "young", "--k", "2",
                     "--from", "0,300", "--deg", "1")
    assert rc == 0
    assert out.strip().splitlines()[-1] == "conditions pass"


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

    # plain requests build no parser; the first request the option table
    # declines builds the top-level parser and one parser per subcommand,
    # and later ones reuse it
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    try:
        for _ in range(5):
            rc, out, _ = run(capsys, "hooks", "--partition", "3,2,1")
            assert (rc, out) == (0, "5 3 1\n3 1\n1\nproduct 45\ncount 16\n")
        assert built == []
        for _ in range(5):
            rc, out, _ = run(capsys, "hooks", "--partition=3,2,1")
            assert (rc, out) == (0, "5 3 1\n3 1\n1\nproduct 45\ncount 16\n")
        assert built.count("tableaux") == 1
        assert len(built) == 6
    finally:
        cli._build_parser.cache_clear()


# -- parsing: each request once, from the option table or the top-level parser ------

USAGE = json.loads((Path(__file__).with_name("cli_usage.json")).read_text())


@pytest.mark.parametrize("case", USAGE, ids=[" ".join(case["argv"]) or "(none)"
                                             for case in USAGE])
def test_usage_replies_are_worded_as_the_top_level_parser_words_them(
        capsys, monkeypatch, case):
    # exit code, stdout and stderr as the top-level parser words them
    # (recorded with Python 3.11 argparse at 80 columns):
    # usage errors, help, abbreviated and --opt=value options, and the input
    # errors that the count and hooks handlers raise themselves
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(case["argv"])
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == \
        (case["exit"], case["stdout"], case["stderr"])


ACCEPTED = [
    "count --graph strict --k 5 --from-partition 3,1 --to-partition 5,3,2,1"
    " --method formula",
    "count --graph young --k 3 --to 1,2,4 --meth formula --format=json",
    "verify vandermonde --k 2 --n 2",
    "hooks --partition 3,2,1",
    "phi --graph young --k 2 --deg 2",
    "table --graph pascal --k 2 --deg 2",
]


def _spy_on_parsing(monkeypatch):
    """The prog of each parser that parse_args or parse_known_args is called
    on from outside argparse; the calls argparse makes inside a parse (the
    subcommand's parser, parse_args's own parse_known_args) are not
    recorded."""
    calls, depth = [], [0]
    for name in ("parse_known_args", "parse_args"):
        real = getattr(argparse.ArgumentParser, name)

        def spy(self, *args, _real=real, **kwargs):
            if not depth[0]:
                calls.append(self.prog)
            depth[0] += 1
            try:
                return _real(self, *args, **kwargs)
            finally:
                depth[0] -= 1
        monkeypatch.setattr(argparse.ArgumentParser, name, spy)
    return calls


def test_each_accepted_request_is_parsed_once(capsys, monkeypatch):
    calls = _spy_on_parsing(monkeypatch)
    for command in ACCEPTED:
        calls.clear()
        assert run(capsys, *command.split())[0] == 0, command
        # plain requests are read from the option table; the abbreviated
        # --meth and the --format=json form go to the top-level parser, once
        expected = ["tableaux"] if "--meth " in command else []
        assert calls == expected, command


def test_main_reads_sys_argv_when_given_none(capsys, monkeypatch):
    calls = _spy_on_parsing(monkeypatch)
    monkeypatch.setattr(sys, "argv", ["tableaux", "hooks", "--partition",
                                      "3,2,1", "--format", "json"])
    assert main() == 0
    assert json.loads(capsys.readouterr().out)["count"] == "16"
    assert calls == []


@pytest.mark.parametrize("kind", ["young", "strict"])
def test_a_partition_is_checked_once_and_its_vertex_is_in_the_graph(
        monkeypatch, capsys, kind):
    # the codec takes every checked partition that fits to a vertex, so a
    # partition request makes no second membership check
    shapes = [(), (1,), (2,), (2, 1), (3, 1), (3, 2), (3, 2, 1), (4, 2),
              (5, 3, 1), (4, 3, 2, 1)]
    if kind == "young":
        shapes += [(1, 1), (2, 2, 1), (3, 3, 3), (2, 1, 1, 1)]
    for k in range(1, 6):
        graph = make_graph(kind, k)
        for rows in shapes:
            if len(rows) <= k:
                assert graph.contains(
                    formulas._partition_vertex(kind, rows, k)), (rows, k)
    calls = []
    real = cli.GradedGraph.contains
    monkeypatch.setattr(cli.GradedGraph, "contains",
                        lambda self, v: calls.append(v) or real(self, v))
    rc, out, _ = run(capsys, "count", "--graph", kind, "--k", "3",
                     "--from-partition", "1", "--to-partition", "3,2",
                     "--method", "formula")
    assert (rc, calls) == (0, [])
    assert out.strip() == ("5" if kind == "young" else "2")


def test_a_fresh_interpreter_counts_a_strict_partition():
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "tableaux.cli", "count", "--graph", "strict",
         "--k", "3", "--to-partition", "3,1", "--method", "formula"],
        env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "2\n", "")


# A one-shot run as the benchmark's cold start makes it (a fresh interpreter
# importing ``tableaux``, then ``cli.main``), reporting on its last stderr
# line the modules it imported, how often ``_build_parser`` ran, and the
# exit code.
ONE_SHOT = """
import sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import tableaux
from tableaux import cli
built, real = [], cli._build_parser
cli._build_parser = lambda: built.append(1) or real()
code = cli.main(sys.argv[2:])
print(repr((sorted(set(sys.modules) - before), len(built), code)),
      file=sys.stderr)
"""
NOT_RUN_BY_A_COUNT = {"tableaux.identity_suite", "dataclasses", "json", "csv",
                      "argparse"}
ONE_SHOT_REPLIES = {
    "count --graph pascal --k 2 --to 1,1 --method formula": "2\n",
    "count --graph strict --k 3 --to-partition 3,1": "2\n",
    "phi --graph young --k 2 --deg 1": "0,1 1\n1,0 -1\nconditions pass\n",
    "table --graph pascal --k 2 --deg 1": "0,0 1\n0,1 1\n1,0 1\n",
    "hooks --partition 2,1": "3 1\n1\nproduct 3\ncount 2\n",
    "verify pfaffian --k 4": None,
}


@pytest.mark.parametrize("request_text", ONE_SHOT_REPLIES)
def test_a_one_shot_request_imports_only_what_it_runs(request_text):
    output = ONE_SHOT_REPLIES[request_text]
    done = subprocess.run(
        [sys.executable, "-c", ONE_SHOT, str(Path(__file__).parents[1] / "src"),
         *request_text.split()],
        capture_output=True, text=True, timeout=60)
    imported, built, code = ast.literal_eval(done.stderr.splitlines()[-1])
    assert (code, built) == (0, 0)
    if output is None:
        # the identity suite is imported by the request that runs it
        assert "tableaux.identity_suite" in imported
        assert json.loads(done.stdout)["status"] == "pass"
    else:
        assert done.stdout == output
        assert NOT_RUN_BY_A_COUNT.isdisjoint(imported)


# -- the option-table reader against argparse ---------------------------------------

FLAG_VALUES = {
    "--graph": ("pascal", "young", "strict", "custom"),
    "--k": ("2", "3", "5", "0", " 4"),
    "--vertices": ("0,0;1,0;0,1",),
    "--from": ("0,1", "0,1,3"),
    "--from-partition": ("3,1", "2"),
    "--to": ("1,2,4", "x"),
    "--to-partition": ("5,3,2,1", "3,1"),
    "--method": ("formula", "oracle", "phi", "all"),
    "--format": ("plain", "json", "csv"),
    "--n": ("0", "3"),
    "--anchor": ("0,1",),
    "--sigma": ("2,1", "3"),
    "--deg": ("2", "6"),
    "--pairs": ("10", "200"),
    "--seed": ("7", "1"),
    "--partition": ("3,2,1", "4,2"),
}
BAD_VALUES = ("x", "2.5", "nonsense", "")
_GRAPH_FLAGS = ("--graph", "--k", "--vertices", "--from", "--from-partition")
COMMAND_FLAGS = {
    "count": _GRAPH_FLAGS + ("--to", "--to-partition", "--method", "--format"),
    "verify": ("--k", "--n", "--anchor", "--sigma", "--graph", "--deg",
               "--pairs", "--seed"),
    "hooks": ("--partition", "--format"),
    "phi": _GRAPH_FLAGS + ("--deg", "--format"),
    "table": _GRAPH_FLAGS + ("--deg", "--format"),
}
DASH_VALUES = ("-", "-1,2", "--", "-1")


def _generated_request(rng):
    """A seeded argv, and whether it is plain: only --flag value pairs whose
    values do not start with '-', and verify's check."""
    command = rng.choice(sorted(COMMAND_FLAGS))
    flags = COMMAND_FLAGS[command]
    tokens = []
    for flag in rng.sample(flags, rng.randint(0, len(flags))):
        for _ in range(rng.choice((1, 1, 1, 2))):
            values = BAD_VALUES if rng.random() < 0.1 else FLAG_VALUES[flag]
            tokens.append([flag, rng.choice(values)])
    rng.shuffle(tokens)
    if command == "verify" and rng.random() < 0.9:
        tokens.insert(rng.randint(0, len(tokens)),
                      [rng.choice(cli.VERIFY_CHECKS + ("nonsense",))])
    odd = "plain" if rng.random() < 0.5 else rng.choice((
        "abbreviated", "equals", "dash", "unknown", "stray", "help",
        "dangling"))
    pairs = [pair for pair in tokens if len(pair) == 2]
    if odd in ("abbreviated", "equals", "dash") and not pairs:
        odd = "stray"
    if odd == "abbreviated":
        pair = rng.choice(pairs)
        pair[0] = pair[0][:rng.randint(3, max(3, len(pair[0]) - 1))]
    elif odd == "equals":
        pair = rng.choice(pairs)
        pair[:] = [f"{pair[0]}={pair[1]}"]
    elif odd == "dash":
        rng.choice(pairs)[1] = rng.choice(DASH_VALUES)
    elif odd != "plain":
        where = rng.randint(0, len(tokens))
        tokens.insert(where, {"unknown": ["--bogus", "1"], "stray": ["extra"],
                              "help": [rng.choice(("-h", "--help"))],
                              "dangling": [rng.choice(flags)]}[odd])
    argv = [command] + [token for pair in tokens for token in pair]
    return argv, odd in ("plain", "stray")


def _argparse_reads(argv):
    """The Namespace of the top-level parser without its ``command`` entry,
    or None when argparse rejects argv or prints help."""
    parser = cli._build_parser()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            return None
    del args.command
    return args


def _workload_requests():
    """Plain requests of the shapes the benchmark sends."""
    count = ["count", "--graph", "strict", "--k", "5", "--from-partition",
             "3,2", "--to-partition", "5,3,2,1", "--method", "formula"]
    series = [["count", "--graph", graph, "--k", "3", "--from", "0,1,2",
               "--to", "1,3,4", "--method", "phi"] for graph in
              ("pascal", "young", "strict")]
    phi = [["phi", "--graph", graph, "--k", "4", "--from", "0,1,2,3",
            "--deg", "5"] for graph in ("pascal", "young", "strict")]
    verify = [["verify", "polycomponent", "--k", "3", "--n", "5"],
              ["verify", "skew-polycomponent", "--sigma", "2,1", "--k", "3",
               "--n", "6"],
              ["verify", "pfaffian", "--k", "6"],
              ["verify", "pairs", "--graph", "young", "--k", "4", "--deg",
               "9", "--pairs", "500", "--seed", "123456"],
              ["verify", "counts", "--graph", "strict", "--k", "3", "--deg",
               "11"],
              ["verify", "construction", "--graph", "pascal", "--k", "3",
               "--deg", "5"],
              ["verify", "controls"]]
    return [count, *series, *phi, *verify]


def test_the_option_table_reader_agrees_with_argparse():
    golden = json.loads(Path(__file__).with_name("cli_golden.json")
                        .read_text())
    recorded = ([(case["command"].split(), False) for case in golden]
                + [(case["argv"], False) for case in USAGE]
                + [(command.split(), False) for command in ACCEPTED])
    rng = random.Random(2015)
    generated = [_generated_request(rng) for _ in range(1000)]
    workload = [(argv, True) for argv in _workload_requests()]
    read = 0
    for argv, plain in recorded + generated + workload:
        ours, theirs = cli._read_plain(argv), _argparse_reads(argv)
        if ours is not None:
            read += 1
            assert vars(ours) == vars(theirs), argv
        else:
            assert not (plain and theirs is not None), argv
    # a third of the generated requests are read
    assert read > 300
    fault = ["count", "--graph", "custom", "--vertices=-1,-2;-1,1;0,0",
             "--from=-1,-2", "--to=-1,1", "--method", "phi"]
    assert cli._read_plain(fault) is None
    assert _argparse_reads(fault) is not None


def test_a_hooks_request_checks_builds_and_multiplies_once(capsys,
                                                           monkeypatch):
    calls = {"_checked_partition": 0, "_hook_lengths": 0, "_hook_product": 0}

    def counted(name):
        real = getattr(formulas, name)

        def spy(*args):
            calls[name] += 1
            return real(*args)
        return spy

    for name in calls:
        spy = counted(name)
        monkeypatch.setattr(formulas, name, spy)
        monkeypatch.setattr(cli, name, spy, raising=False)
    rc, out, _ = run(capsys, "hooks", "--partition", "4,2,1")
    assert (rc, out) == (0, "6 4 2 1\n3 1\n1\nproduct 144\ncount 35\n")
    assert calls == {"_checked_partition": 1, "_hook_lengths": 1,
                     "_hook_product": 1}
