import gc
import json
import re
import time

import pytest

from thuelex import (
    COMPLETE,
    build_rooted_tree,
    find_repetitive_path,
    gen_nonrepetitive,
    lex_product,
)
from thuelex import cli, sequences, solver
from thuelex.cli import build_parser, main
from thuelex.errors import ResourceLimitError


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse refusals and -h
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGen:
    def test_path(self, capsys):
        code, out, _ = run(capsys, "gen", "path", "--n", "28")
        assert code == 0
        d = json.loads(out)
        assert d["n"] == 28 and len(d["edges"]) == 27

    def test_invalid_exit_2(self, capsys):
        code, _, err = run(capsys, "gen", "path", "--n", "0")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "argv",
        [("gen", "path"), ("gen", "cycle"), ("gen", "product"), ("color", "path-empty")],
    )
    def test_missing_required_flag_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == "" and "error" in err

    def test_product(self, capsys, tmp_path):
        out_file = tmp_path / "p.json"
        code, _, _ = run(
            capsys,
            "gen", "product", "--base", "path:24", "--inner", "empty", "--k", "2",
            "--output", str(out_file),
        )
        assert code == 0
        d = json.loads(out_file.read_text())
        assert d["k"] == 2 and d["inner"] == "empty" and d["base"]["n"] == 24

    def test_g0(self, capsys):
        code, out, err = run(capsys, "gen", "g0")
        assert code == 0
        assert json.loads(out)["n"] == 1757
        assert "core size 251" in err

    def test_product_file_as_base_exit_2(self, capsys, tmp_path):
        product = tmp_path / "p.json"
        run(capsys, "gen", "product", "--base", "path:3", "--output", str(product))
        code, out, err = run(capsys, "gen", "product", "--base", str(product))
        assert code == 2
        assert out == "" and "--base must be a plain graph" in err

    def test_tree(self, capsys):
        code, out, _ = run(
            capsys, "gen", "tree",
            "--root-children", "3", "--internal-children", "2", "--leaf-depth", "5",
        )
        assert code == 0
        assert json.loads(out)["n"] == 94

    def test_dot(self, capsys, tmp_path):
        dot = tmp_path / "g.dot"
        code, _, _ = run(capsys, "gen", "cycle", "--n", "5", "--dot", str(dot))
        assert code == 0
        assert dot.read_text().startswith("graph G {")

    def test_unwritable_dot_writes_nothing_exit_2(self, capsys, tmp_path):
        dot = tmp_path / "missing" / "g.dot"
        code, out, err = run(capsys, "gen", "path", "--n", "3", "--dot", str(dot))
        assert code == 2
        assert out == "" and "error" in err
        out_file = tmp_path / "g.json"
        code, out, _ = run(
            capsys, "gen", "path", "--n", "3", "--dot", str(dot), "--output", str(out_file)
        )
        assert code == 2
        assert out == "" and not out_file.exists()

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "gen", "path", "--n", "12")
        _, out2, _ = run(capsys, "gen", "path", "--n", "12")
        assert out1 == out2


class TestColor:
    def test_path_empty_summary(self, capsys):
        code, out, err = run(capsys, "color", "path-empty", "--n", "8", "--k", "3")
        assert code == 0
        d = json.loads(out)
        assert d["palette"] == 7 and d["one_based"] is False
        assert "palette=7" in err and "rainbow=no" in err

    def test_path_rainbow_summary(self, capsys):
        code, out, err = run(capsys, "color", "path-rainbow", "--n", "24", "--k", "2")
        assert code == 0
        assert json.loads(out)["palette"] == 7
        assert "rainbow=yes" in err

    def test_tree_complete(self, capsys):
        code, out, err = run(capsys, "color", "tree-complete", "--k", "2", "--leaf-depth", "3")
        assert code == 0
        d = json.loads(out)
        assert d["palette"] == 8
        assert "palette=8" in err and "rainbow=yes" in err
        tree, _ = build_rooted_tree(3, 2, 3)
        pg = lex_product(tree, COMPLETE, 2)
        assert find_repetitive_path(pg.view, d["colors"], 12) is None

    @pytest.mark.parametrize("bound", ["3", "-5"])
    def test_tree_complete_bad_path_bound_exit_2(self, capsys, bound):
        code, out, err = run(
            capsys, "color", "tree-complete", "--leaf-depth", "3", "--path-bound", bound
        )
        assert code == 2
        assert out == "" and "even" in err

    def test_tree_complete_guard_reads_node_budget(self, capsys, monkeypatch):
        # the bound-24 search of this guard takes minutes without a budget
        monkeypatch.setenv("THUE_NODE_BUDGET", "10")
        started = time.monotonic()
        code, out, err = run(
            capsys, "color", "tree-complete", "--k", "2", "--leaf-depth", "8",
            "--path-bound", "24",
        )
        assert code == 3
        assert time.monotonic() - started < 10
        assert out == "" and "budget of 10 nodes" in err

    def test_tree_complete_k0_exit_2(self, capsys):
        code, out, err = run(capsys, "color", "tree-complete", "--k", "0")
        assert code == 2
        assert out == "" and "error" in err

    def test_c7_fractional(self, capsys):
        code, out, err = run(capsys, "color", "c7-fractional")
        assert code == 0
        d = json.loads(out)
        assert (d["p"], d["q"]) == (2, 7)
        assert "v3 -> {1,7}" in err  # 1-based human listing


class TestVerify:
    def test_construction_verifies_exact(self, capsys, tmp_path):
        graph = tmp_path / "g.json"
        col = tmp_path / "c.json"
        run(capsys, "gen", "product", "--base", "path:6", "--inner", "empty",
            "--k", "2", "--output", str(graph))
        run(capsys, "color", "path-empty", "--n", "6", "--k", "2", "--output", str(col))
        code, out, err = run(capsys, "verify", str(graph), str(col), "--exact")
        assert code == 0
        d = json.loads(out)
        assert d["verified"] is True and d["exact"] is True
        assert "exact" in err

    def test_witness_exit_1(self, capsys, tmp_path):
        col = tmp_path / "c.json"
        col.write_text(json.dumps({"palette": 2, "colors": [0, 1, 0, 1]}))
        code, out, _ = run(capsys, "verify", "path:4", str(col), "--exact")
        assert code == 1
        d = json.loads(out)
        assert d["verified"] is False
        assert d["path"] == [0, 1, 2, 3] and d["half_colors"] == [0, 1]

    def test_exact_with_bound_exit_2(self, capsys, tmp_path):
        # --exact checks every even path, so a --bound beside it is refused
        # rather than ignored
        col = tmp_path / "c.json"
        col.write_text(json.dumps({"palette": 3, "colors": [0, 1, 2, 0]}))
        code, out, err = run(capsys, "verify", "path:4", str(col), "--exact", "--bound", "2")
        assert code == 2
        assert out == "" and "not allowed with argument" in err

    def test_c7_fractional_exact(self, capsys, tmp_path):
        col = tmp_path / "c.json"
        run(capsys, "color", "c7-fractional", "--output", str(col))
        code, out, _ = run(capsys, "verify", "cycle:7", str(col), "--exact")
        assert code == 0
        assert json.loads(out)["exact"] is True

    def test_bounded_report(self, capsys, tmp_path):
        col = tmp_path / "c.json"
        run(capsys, "color", "path-empty", "--n", "12", "--k", "3", "--output", str(col))
        graph = tmp_path / "g.json"
        run(capsys, "gen", "product", "--base", "path:12", "--inner", "empty",
            "--k", "3", "--output", str(graph))
        code, out, err = run(capsys, "verify", str(graph), str(col), "--bound", "8")
        assert code == 0
        d = json.loads(out)
        assert d["verified"] is True and d["exact"] is False and d["bound_used"] == 8
        assert "2l <= 8" in err

    def test_rainbow_flag(self, capsys, tmp_path):
        graph = tmp_path / "g.json"
        col = tmp_path / "c.json"
        run(capsys, "gen", "product", "--base", "path:10", "--inner", "empty",
            "--k", "3", "--output", str(graph))
        run(capsys, "color", "path-empty", "--n", "10", "--k", "3", "--output", str(col))
        code, out, _ = run(capsys, "verify", str(graph), str(col), "--bound", "6", "--rainbow")
        assert code == 1
        assert json.loads(out)["rainbow"] is False

    def _non_rainbow_p2e2(self, capsys, tmp_path):
        """A P_2[E_2] product file and a coloring of it that is not rainbow,
        so a rainbow check run before the input checks would exit 1 with its
        report."""
        graph = tmp_path / "g.json"
        run(capsys, "gen", "product", "--base", "path:2", "--inner", "empty",
            "--k", "2", "--output", str(graph))
        col = tmp_path / "c.json"
        col.write_text(json.dumps({"palette": 1, "colors": [0, 0, 0, 0]}))
        return str(graph), str(col)

    @pytest.mark.parametrize("bound", ["3", "1", "-2"])
    def test_bad_bound_refused_before_the_rainbow_check_exit_2(self, capsys, tmp_path, bound):
        graph, col = self._non_rainbow_p2e2(capsys, tmp_path)
        code, out, err = run(capsys, "verify", graph, col, "--rainbow", "--bound", bound)
        assert code == 2
        assert out == "" and err == "error: path bound must be even and at least 2\n"

    @pytest.mark.parametrize(
        "env, flags",
        [
            (None, ("--max-nodes", "0")),
            (None, ("--time-budget", "0")),
            (None, ("--time-budget", "nan")),
            ("abc", ()),
        ],
        ids=["--max-nodes", "--time-budget", "--time-budget-nan", "THUE_NODE_BUDGET"],
    )
    def test_bad_budget_refused_before_the_rainbow_check_exit_2(
        self, capsys, tmp_path, monkeypatch, env, flags
    ):
        graph, col = self._non_rainbow_p2e2(capsys, tmp_path)
        if env is not None:
            monkeypatch.setenv("THUE_NODE_BUDGET", env)
        code, out, err = run(capsys, "verify", graph, col, "--rainbow", "--bound", "4", *flags)
        assert code == 2
        assert out == "" and err.startswith("error: ") and "budget" in err.lower()

    def test_walks_flag(self, capsys, tmp_path):
        col = tmp_path / "c.json"
        col.write_text(json.dumps({"palette": 2, "colors": [0, 1, 0]}))
        code, out, _ = run(capsys, "verify", "path:3", str(col), "--exact", "--walks", "4")
        assert code == 1
        assert json.loads(out)["walk_nonrepetitive"] is False

    def test_walks_are_labelled_bounded(self, capsys, tmp_path):
        """An exact path check says how far walks were checked."""
        col = tmp_path / "c.json"
        col.write_text(json.dumps({"palette": 3, "colors": [0, 1, 2]}))
        code, out, err = run(capsys, "verify", "path:3", str(col), "--exact", "--walks", "4")
        assert code == 0
        report = json.loads(out)
        assert (report["exact"], report["walk_bound_used"], report["walk_nonrepetitive"]) == (
            True, 4, True
        )
        assert "walks: no repetition up to 4 vertices (bounded)" in err

    @pytest.mark.parametrize(
        "coloring,walks",
        [
            ({"p": 2, "q": 3, "sets": [[0, 1], [0, 2], [0, 1], [0, 2]]}, "4"),
            ({"palette": 2, "colors": [0, 1, 0, 1]}, "3"),
            ({"palette": 2, "colors": [0, 1, 0, 1]}, "1"),
            ({"palette": 2, "colors": [0, 1, 0, 1]}, "-2"),
        ],
        ids=["tuple-coloring", "odd-bound", "bound-below-2", "negative-bound"],
    )
    def test_bad_walks_refused_before_the_path_search_exit_2(
        self, capsys, tmp_path, coloring, walks
    ):
        """Both colorings make P_4 repetitive, so a path search run first
        would exit 1 with its witness."""
        col = tmp_path / "c.json"
        col.write_text(json.dumps(coloring))
        code, out, err = run(capsys, "verify", "path:4", str(col), "--walks", walks)
        assert code == 2
        assert out == "" and err.startswith("error: ")

    def test_walks_0_is_no_walk_check(self, capsys, tmp_path):
        col = tmp_path / "c.json"
        col.write_text(json.dumps({"palette": 2, "colors": [0, 1, 0]}))
        code, out, _ = run(capsys, "verify", "path:3", str(col), "--exact", "--walks", "0")
        assert code == 0
        assert "walk_nonrepetitive" not in json.loads(out)

    def test_inline_g0_spec(self, capsys, tmp_path):
        col = tmp_path / "c.json"
        col.write_text(json.dumps({"palette": 1757, "colors": list(range(1757))}))
        code, out, _ = run(capsys, "verify", "g0", str(col), "--bound", "2")
        assert code == 0
        assert json.loads(out) == {"bound_used": 2, "exact": False, "verified": True}

    def test_long_walks_exit_0(self, capsys, tmp_path):
        col = tmp_path / "c.json"
        col.write_text(json.dumps({"palette": 2, "colors": [0, 1]}))
        code, out, _ = run(capsys, "verify", "path:2", str(col), "--walks", "2000")
        assert code == 0
        assert json.loads(out)["walk_nonrepetitive"] is True

    def test_long_walks_refused_at_once_exit_3(self, capsys, tmp_path):
        """The walk charge bounds the second halves the walk search visits,
        so a bound whose search would take minutes is refused by the node
        budget before the search starts; the time budget guards the test."""
        col = tmp_path / "c.json"
        col.write_text(json.dumps({"palette": 2, "colors": [0, 1]}))
        code, _, err = run(
            capsys, "verify", "path:2", str(col), "--walks", "20000",
            "--max-nodes", "100000000", "--time-budget", "10",
        )
        assert code == 3
        assert "budget of 100000000 nodes" in err

    def test_walks_without_edges_exit_0(self, capsys, tmp_path):
        """No walk has two vertices, so the charge stops at once however
        long the bound."""
        col = tmp_path / "c.json"
        col.write_text(json.dumps({"palette": 4, "colors": [0, 1, 2, 3]}))
        code, out, _ = run(
            capsys, "verify", "empty:4", str(col), "--walks", "10000000", "--time-budget", "10"
        )
        assert code == 0
        assert json.loads(out)["walk_nonrepetitive"] is True

    def _rainbow_p24e2(self, capsys, tmp_path):
        graph, col = tmp_path / "p24e2.json", tmp_path / "c24r.json"
        run(capsys, "gen", "product", "--base", "path:24", "--inner", "empty",
            "--k", "2", "--output", str(graph))
        run(capsys, "color", "path-rainbow", "--n", "24", "--k", "2", "--output", str(col))
        return str(graph), str(col)

    def test_rainbow_p24e2_exact(self, capsys, tmp_path):
        # the exact certificate of the rainbow coloring of P_24[E_2]: every
        # even path of up to 48 vertices
        graph, col = self._rainbow_p24e2(capsys, tmp_path)
        code, out, err = run(capsys, "verify", graph, col, "--rainbow", "--exact")
        assert code == 0
        d = json.loads(out)
        assert (d["bound_used"], d["exact"], d["verified"]) == (48, True, True)
        assert "(exact)" in err

    @pytest.mark.parametrize(
        "flags", [("--max-nodes", "10"), ("--time-budget", "1e-9")], ids=["nodes", "time"]
    )
    def test_budget_exit_3(self, capsys, tmp_path, flags):
        graph, col = self._rainbow_p24e2(capsys, tmp_path)
        code, out, err = run(capsys, "verify", graph, col, "--rainbow", "--exact", *flags)
        assert code == 3
        assert out == "" and "resource limit" in err

    @pytest.mark.parametrize(
        "flag, value",
        [("--max-nodes", "0"), ("--time-budget", "0"), ("--time-budget", "nan")],
        ids=["--max-nodes", "--time-budget", "--time-budget-nan"],
    )
    def test_zero_budget_exit_2(self, capsys, tmp_path, flag, value):
        col = tmp_path / "c.json"
        col.write_text(json.dumps({"palette": 2, "colors": [0, 1, 0]}))
        code, out, err = run(capsys, "verify", "path:3", str(col), flag, value)
        assert code == 2
        assert out == "" and "positive" in err

    def test_one_based_coloring_accepted(self, capsys, tmp_path):
        col = tmp_path / "c.json"
        col.write_text(
            json.dumps({"palette": 3, "colors": [1, 2, 3], "one_based": True})
        )
        code, out, _ = run(capsys, "verify", "path:3", str(col), "--exact")
        assert code == 0

    @pytest.mark.parametrize(
        "graph, coloring",
        [
            ("path:4", {"palette": 3, "colors": ["a", "b", "c", "a"]}),
            ({"n": 2, "edges": [["x", 1]]}, {"palette": 2, "colors": [0, 1]}),
            ("path:2", {"p": 1, "q": 2, "sets": [[0], ["x"]]}),
            ("cycle:5", {"p": 2, "q": 5, "sets": "x"}),
            ("path:2", {"palette": "2", "colors": [0, 1]}),
            (
                {"base": {"n": 2, "edges": [[0, 1]]}, "inner": "empty", "k": "2"},
                {"palette": 2, "colors": [0, 0, 1, 1]},
            ),
            ({"n": True, "edges": []}, {"palette": 1, "colors": [0]}),
            ("path:4", {"palette": 2}),
            ({"base": {"n": 2, "edges": [[0, 1]]}}, {"palette": 2, "colors": [0, 0, 1, 1]}),
            ("empty:0", {"palette": 1, "colors": [0]}),
        ],
        ids=[
            "colors", "edge-endpoint", "set-member", "sets", "palette", "product-k", "bool-n",
            "neither-colors-nor-sets", "product-without-inner-and-k", "empty-0",
        ],
    )
    def test_non_integer_json_exit_2(self, capsys, tmp_path, graph, coloring):
        if isinstance(graph, dict):
            (tmp_path / "g.json").write_text(json.dumps(graph))
            graph = str(tmp_path / "g.json")
        col = tmp_path / "c.json"
        col.write_text(json.dumps(coloring))
        code, out, err = run(capsys, "verify", graph, str(col), "--bound", "4")
        assert code == 2
        assert out == "" and err.startswith("error: ")

    def test_malformed_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, _ = run(capsys, "verify", "path:3", str(bad), "--exact")
        assert code == 2

    def test_default_bound_small_graph_is_exact(self, capsys, tmp_path):
        col = tmp_path / "c.json"
        col.write_text(json.dumps({"palette": 2, "colors": [0, 1, 0]}))
        code, out, _ = run(capsys, "verify", "path:3", str(col))
        assert code == 0
        assert json.loads(out)["exact"] is True

    def test_default_bound_large_graph_is_bounded(self, capsys, tmp_path):
        graph = tmp_path / "g.json"
        col = tmp_path / "c.json"
        run(capsys, "gen", "product", "--base", "path:12", "--inner", "empty",
            "--k", "3", "--output", str(graph))
        run(capsys, "color", "path-empty", "--n", "12", "--k", "3", "--output", str(col))
        code, out, err = run(capsys, "verify", str(graph), str(col))
        assert code == 0
        d = json.loads(out)
        assert d["exact"] is False and d["bound_used"] == 14
        assert "defaulting" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "{deep}", "{flat}"),
        ("verify", "path:1", "{deep}"),
        ("seq", "check", "{deep}"),
    ],
    ids=["graph", "coloring", "sequence"],
)
def test_deeply_nested_json_exit_2(capsys, tmp_path, argv):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    flat = tmp_path / "c.json"
    flat.write_text(json.dumps({"palette": 1, "colors": [0]}))
    argv = [a.format(deep=deep, flat=flat) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "{product}", "{sets}", "--rainbow", "--bound", "2"),
        ("gen", "tree", "--internal-children", "-1"),
        ("color", "path-rainbow", "--n", "0"),
        ("color", "path-complete", "--n", "0"),
        ("seq", "gen", "--sigma", "27", "--len", "3"),
        ("seq", "enumerate", "--maxrep", "1"),
    ],
    ids=[
        "rainbow-tuple-coloring", "negative-internal-children", "path-rainbow-n-0",
        "path-complete-n-0", "letters-beyond-z", "maxrep-1",
    ],
)
def test_invalid_value_exit_2(capsys, tmp_path, argv):
    product, sets = tmp_path / "p.json", tmp_path / "c.json"
    product.write_text(json.dumps({"base": {"n": 2, "edges": [[0, 1]]}, "inner": "empty", "k": 2}))
    sets.write_text(json.dumps({"p": 1, "q": 2, "sets": [[0], [1], [0], [1]]}))
    code, out, err = run(capsys, *(a.format(product=product, sets=sets) for a in argv))
    assert code == 2
    assert out == "" and err.startswith("error: ")


class TestSolve:
    def test_thue_c7(self, capsys):
        # flag-first order as documented: solve --mode thue cycle:7
        code, out, err = run(capsys, "solve", "--mode", "thue", "cycle:7")
        assert code == 0
        d = json.loads(out)
        assert d["status"] == "exact" and d["value"] == 4
        assert d["witness"]["palette"] == 4
        assert "wall=" in err

    def test_inline_tree_spec(self, capsys):
        # tree:2,1,2 is the root with two legs of two vertices: P_5
        code, out, _ = run(capsys, "solve", "tree:2,1,2")
        assert code == 0
        d = json.loads(out)
        assert d["status"] == "exact" and d["value"] == 3
        assert len(d["witness"]["colors"]) == 5

    def test_tuple_infeasible(self, capsys):
        code, out, _ = run(
            capsys, "solve", "cycle:7", "--mode", "tuple", "--p", "2", "--q", "6"
        )
        assert code == 0
        d = json.loads(out)
        assert d["status"] == "exact" and d["value"] is False

    def test_thue_path(self, capsys):
        code, out, _ = run(capsys, "solve", "path:6", "--mode", "thue")
        assert code == 0
        assert json.loads(out)["value"] == 3

    def test_rainbow_inline_product(self, capsys, tmp_path):
        graph = tmp_path / "g.json"
        run(capsys, "gen", "product", "--base", "path:4", "--inner", "empty",
            "--k", "2", "--output", str(graph))
        code, out, _ = run(capsys, "solve", "--mode", "rainbow", str(graph))
        assert code == 0
        assert json.loads(out)["value"] == 6

    @pytest.mark.parametrize(
        "flag, value", [("--base", "path:4"), ("--inner", "empty"), ("--k", "3")]
    )
    def test_product_flags_are_gone(self, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--mode", "rainbow", flag, value])
        assert exc.value.code == 2

    def test_rainbow_needs_a_product(self, capsys):
        code, out, err = run(capsys, "solve", "--mode", "rainbow", "path:4")
        assert code == 2
        assert out == "" and "product" in err

    def test_timeout_exit_3(self, capsys, tmp_path):
        graph = tmp_path / "g.json"
        run(capsys, "gen", "product", "--base", "path:6", "--inner", "empty",
            "--k", "2", "--output", str(graph))
        code, out, _ = run(
            capsys, "solve", str(graph), "--mode", "thue", "--max-nodes", "10"
        )
        assert code == 3
        assert json.loads(out)["status"] == "lower_bound_only"

    def test_budget_runs_out_inside_an_exact_check(self, capsys, tmp_path, monkeypatch):
        """The budget lets the search reach its first exact check, at q = 2,
        and runs out inside it; the nodes reported include the verifier's."""
        graph = tmp_path / "g.json"
        run(capsys, "gen", "product", "--base", "path:6", "--inner", "empty",
            "--k", "2", "--output", str(graph))
        calls = []
        check = solver.find_tuple_repetitive_path

        def record(g, sets, max_vertices, *, budget):
            calls.append(budget.spent)
            try:
                return check(g, sets, max_vertices, budget=budget)
            except ResourceLimitError:
                calls.append("ran out")
                raise

        monkeypatch.setattr(solver, "find_tuple_repetitive_path", record)
        run(capsys, "solve", str(graph), "--mode", "thue")
        limit = calls[0] + 1
        calls.clear()
        code, out, _ = run(
            capsys, "solve", str(graph), "--mode", "thue", "--max-nodes", str(limit)
        )
        assert code == 3
        d = json.loads(out)
        assert (d["status"], d["value"], d["nodes_explored"]) == ("lower_bound_only", 2, limit + 1)
        assert calls == [limit - 1, "ran out"]

    def test_long_path_times_out_exit_3(self, capsys):
        # deeper than Python's recursion limit
        code, out, _ = run(
            capsys, "solve", "path:1100", "--mode", "thue", "--max-nodes", "5000"
        )
        assert code == 3
        d = json.loads(out)
        assert (d["status"], d["value"], d["nodes_explored"]) == ("lower_bound_only", 3, 5001)

    def test_missing_params_exit_2(self, capsys):
        code, _, _ = run(capsys, "solve", "cycle:7", "--mode", "tuple")
        assert code == 2

    def test_missing_graph_exit_2(self, capsys):
        code, out, err = run(capsys, "solve", "--mode", "thue")
        assert code == 2
        assert out == "" and "the following arguments are required: graph" in err

    def test_palette_cap_flag_is_gone(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "path:3", "--palette-cap", "3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "flag, value",
        [("--max-nodes", "0"), ("--time-budget", "0"), ("--time-budget", "nan")],
        ids=["--max-nodes", "--time-budget", "--time-budget-nan"],
    )
    def test_zero_budget_exit_2(self, capsys, flag, value):
        code, out, err = run(capsys, "solve", "path:3", flag, value)
        assert code == 2
        assert out == "" and "positive" in err


class TestSeq:
    def test_gen(self, capsys):
        code, out, _ = run(capsys, "seq", "gen", "--sigma", "3", "--len", "5")
        assert code == 0
        assert out.strip() == "ABACA"

    def test_gen_output_file(self, capsys, tmp_path):
        word = tmp_path / "w.txt"
        code, out, _ = run(
            capsys, "seq", "gen", "--sigma", "3", "--len", "5", "--output", str(word)
        )
        assert code == 0
        assert out == "" and word.read_text() == "ABACA\n"

    def test_gen_infeasible_exit_1(self, capsys):
        code, _, _ = run(capsys, "seq", "gen", "--sigma", "2", "--len", "4")
        assert code == 1

    def test_check(self, capsys):
        code, out, _ = run(capsys, "seq", "check", "ABAB")
        assert code == 0
        d = json.loads(out)
        assert d["repetition"] == [1, 2] and d["palindrome_free"] is False

    @pytest.mark.parametrize("max_period", ["0", "-3"])
    def test_check_max_period_below_1_exit_2(self, capsys, max_period):
        code, out, err = run(capsys, "seq", "check", "ABAB", "--max-period", max_period)
        assert code == 2
        assert out == "" and "max period must be at least 1" in err

    @pytest.mark.parametrize("action", ["check", "gaps", "enumerate", "kozik"])
    def test_palindrome_free_outside_gen_exit_2(self, capsys, action):
        argv = ["seq", action, *(["ABAB"] if action in ("check", "gaps") else [])]
        code, out, err = run(capsys, *argv, "--len", "5", "--palindrome-free")
        assert code == 2
        assert out == "" and "unrecognized arguments:" in err and "--palindrome-free" in err

    @pytest.mark.parametrize("action", ["gen", "gaps", "enumerate", "kozik"])
    def test_max_period_outside_check_exit_2(self, capsys, action):
        argv = ["seq", action, *(["ABAB"] if action == "gaps" else [])]
        code, out, err = run(capsys, *argv, "--len", "5", "--max-period", "3")
        assert code == 2
        assert out == "" and "unrecognized arguments:" in err and "--max-period" in err

    def test_gaps_pattern(self, capsys):
        code, out, _ = run(capsys, "seq", "gaps", "CBABCBA")
        assert code == 0
        d = json.loads(out)
        assert d["peaks"] == [1, 3, 5, 7] and d["gaps"] == [1, 1, 1]
        assert d["pattern"]["id"] == 1

    def test_enumerate_small(self, capsys):
        code, out, _ = run(capsys, "seq", "enumerate", "--len", "4", "--maxrep", "6")
        assert code == 0
        assert json.loads(out)["count"] == 18

    def test_enumerate_sigma(self, capsys):
        code, out, _ = run(capsys, "seq", "enumerate", "--len", "5", "--sigma", "4")
        assert code == 0
        assert json.loads(out)["count"] == 264

    @pytest.mark.parametrize("length, count", [(0, 1), (1, 3)])
    def test_enumerate_words_too_short_for_a_valley(self, capsys, length, count):
        code, out, _ = run(capsys, "seq", "enumerate", "--len", str(length))
        assert code == 0
        d = json.loads(out)
        assert d["count"] == count and d["with_valley"] == 0

    @pytest.mark.parametrize("word, peaks", [("A", [1]), ("", [])])
    def test_gaps_word_too_short_for_a_gap(self, capsys, word, peaks):
        code, out, _ = run(capsys, "seq", "gaps", word)
        assert code == 0
        d = json.loads(out)
        assert d == {"peaks": peaks, "gaps": [], "valley": None, "pattern": None}

    def test_gaps_short_square_has_no_pattern(self, capsys):
        code, out, _ = run(capsys, "seq", "gaps", "ABABCBAB")
        assert code == 0
        d = json.loads(out)
        assert d["peaks"] == [1, 2, 3, 5, 7, 8] and d["gaps"] == [0, 0, 1, 1, 0]
        assert d["valley"] == 0 and d["pattern"] is None

    def test_gaps_symbol_outside_ternary_has_no_pattern(self, capsys, tmp_path):
        ternary = gen_nonrepetitive(3, 20)
        code, out, _ = run(capsys, "seq", "gaps", ternary.to_str())
        assert code == 0
        want = json.loads(out)
        assert want["pattern"] is not None
        f = tmp_path / "s.json"
        symbols = [(0, 1, 3)[x] for x in ternary.symbols]
        f.write_text(json.dumps({"sigma": 4, "symbols": symbols}))
        code, out, _ = run(capsys, "seq", "gaps", str(f))
        assert code == 0
        assert json.loads(out) == {**want, "pattern": None}

    @pytest.mark.parametrize("action", ["check", "gaps"])
    def test_missing_sequence_exit_2(self, capsys, action):
        code, out, err = run(capsys, "seq", action)
        assert code == 2
        assert out == "" and "error" in err

    @pytest.mark.parametrize(
        "doc",
        [
            {"sigma": 3, "symbols": ["a", 1]},
            {"sigma": "3", "symbols": [0, 1]},
            {"sigma": 3, "symbols": [True, 0]},
            {"sigma": 3, "symbols": "AB"},
        ],
        ids=["string-symbol", "string-sigma", "bool-symbol", "symbols-not-list"],
    )
    def test_non_integer_json_exit_2(self, capsys, tmp_path, doc):
        f = tmp_path / "s.json"
        f.write_text(json.dumps(doc))
        for action in ("check", "gaps"):
            code, out, err = run(capsys, "seq", action, str(f))
            assert code == 2
            assert out == "" and "error" in err

    @pytest.mark.parametrize("action", ["check", "gaps"])
    def test_wide_alphabet_json_exit_2(self, capsys, tmp_path, action):
        f = tmp_path / "s.json"
        f.write_text(json.dumps({"sigma": 300, "symbols": [0, 1, 0]}))
        code, out, err = run(capsys, "seq", action, str(f))
        assert code == 2
        assert out == "" and "between 1 and 256" in err

    def test_enumerate_wide_alphabet_exit_2(self, capsys):
        code, out, err = run(capsys, "seq", "enumerate", "--sigma", "300", "--len", "2")
        assert code == 2
        assert out == "" and "between 1 and 256" in err

    def test_enumerate_short_maxrep_exit_2(self, capsys):
        code, out, err = run(capsys, "seq", "enumerate", "--maxrep", "1")
        assert code == 2
        assert out == "" and "max repetition length must be at least 2, got 1" in err

    def test_kozik_out_of_words_exit_1(self, capsys, monkeypatch):
        monkeypatch.setattr(sequences, "_square_free_words", lambda *a, **kw: iter(()))
        code, out, err = run(capsys, "seq", "kozik", "--len", "5")
        assert code == 1
        assert out == "" and "no such sequence" in err

    def test_kozik(self, capsys):
        code, out, _ = run(capsys, "seq", "kozik", "--len", "30")
        assert code == 0
        d = json.loads(out)
        assert d["certified"] is True and len(d["sequence"]) == 30

    def test_json_form_roundtrip(self, capsys, tmp_path):
        out = tmp_path / "s.json"
        code, _, _ = run(
            capsys, "seq", "gen", "--sigma", "4", "--len", "10",
            "--palindrome-free", "--json", "--output", str(out),
        )
        assert code == 0
        d = json.loads(out.read_text())
        assert d["sigma"] == 4 and len(d["symbols"]) == 10
        code, out2, _ = run(capsys, "seq", "check", str(out))
        assert code == 0
        assert json.loads(out2)["repetition"] is None

    def test_node_budget_env(self, capsys, monkeypatch):
        monkeypatch.setenv("THUE_NODE_BUDGET", "1000")
        code, _, err = run(capsys, "seq", "enumerate", "--len", "22", "--maxrep", "6")
        assert code == 3
        assert "resource limit" in err

    def test_length_beyond_budget_exit_3(self, capsys, monkeypatch):
        monkeypatch.setenv("THUE_NODE_BUDGET", "10")
        code, out, err = run(capsys, "seq", "gen", "--len", "10000000")
        assert code == 3
        assert out == "" and "10000000 letters" in err

    @pytest.mark.parametrize(
        "argv", [("check", "ABAB"), ("gaps", "CBABCBA")], ids=["check", "gaps"]
    )
    def test_check_and_gaps_read_no_budget(self, capsys, monkeypatch, argv):
        want = run(capsys, "seq", *argv)
        assert want[0] == 0
        monkeypatch.setenv("THUE_NODE_BUDGET", "abc")
        assert run(capsys, "seq", *argv) == want

    def test_bad_budget_env(self, capsys, monkeypatch):
        monkeypatch.setenv("THUE_NODE_BUDGET", "zero")
        code, _, _ = run(capsys, "seq", "gen", "--sigma", "3", "--len", "5")
        assert code == 2


# The flags each action's handler reads.  gen, color and seq pick an action
# by a sub-subcommand; verify and solve are actions themselves.
TREE_SHAPE = ("--root-children", "--internal-children", "--leaf-depth")
READS = {
    ("gen", "path"): ("--n", "--output", "--dot"),
    ("gen", "cycle"): ("--n", "--output", "--dot"),
    ("gen", "tree"): (*TREE_SHAPE, "--output", "--dot"),
    ("gen", "g0"): ("--output", "--dot"),
    ("gen", "product"): ("--base", "--inner", "--k", "--output", "--dot"),
    ("color", "path-empty"): ("--n", "--k", "--output"),
    ("color", "path-rainbow"): ("--n", "--k", "--output"),
    ("color", "path-complete"): ("--n", "--k", "--output"),
    ("color", "tree-complete"): (*TREE_SHAPE, "--k", "--path-bound", "--output"),
    ("color", "c7-fractional"): ("--output",),
    ("seq", "gen"): ("--sigma", "--len", "--palindrome-free", "--json", "--output"),
    ("seq", "check"): ("--max-period", "--output"),
    ("seq", "gaps"): ("--output",),
    ("seq", "enumerate"): ("--sigma", "--len", "--maxrep", "--output"),
    ("seq", "kozik"): ("--len", "--output"),
    ("verify",): ("--bound", "--exact", "--rainbow", "--walks", "--max-nodes", "--time-budget",
                  "--output"),
    ("solve",): ("--mode", "--p", "--q", "--max-nodes", "--time-budget", "--output"),
}
# what an action needs besides its flags' defaults
REQUIRED = {
    ("gen", "path"): ("--n", "3"),
    ("gen", "cycle"): ("--n", "3"),
    ("gen", "product"): ("--base", "path:3"),
    ("color", "path-empty"): ("--n", "3"),
    ("color", "path-rainbow"): ("--n", "3"),
    ("color", "path-complete"): ("--n", "3"),
    ("seq", "check"): ("ABAB",),
    ("seq", "gaps"): ("ABAB",),
}
# a valid value of each flag that takes one
VALUES = {
    "--n": "3", "--base": "path:3", "--inner": "empty", "--k": "2", "--root-children": "3",
    "--internal-children": "2", "--leaf-depth": "3", "--path-bound": "0", "--sigma": "3",
    "--len": "5", "--max-period": "3", "--maxrep": "6",
}


def _foreign_flags():
    """Each gen, color and seq action with each flag that another action of
    its command reads, and each seq action that reads no sequence with one."""
    for action in (a for a in READS if len(a) == 2):
        own = set(READS[action])
        others = {f for a in READS if a[0] == action[0] for f in READS[a]} - own
        for flag in sorted(others):
            value = (VALUES[flag],) if flag in VALUES else ()
            yield (*action, *REQUIRED.get(action, ()), flag, *value), flag
    for action in ("gen", "enumerate", "kozik"):
        yield ("seq", action, "ABAB"), "ABAB"
    yield ("solve", "--p", "2", "path:3"), "--p"
    yield ("solve", "--mode", "thue", "--q", "3", "path:3"), "--q"
    yield ("solve", "--mode", "rainbow", "--p", "2", "path:3"), "--p"


FOREIGN = list(_foreign_flags())


@pytest.mark.parametrize("argv, flag", FOREIGN, ids=[" ".join(a) for a, _ in FOREIGN])
def test_flag_of_another_action_exit_2(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and flag in err


@pytest.mark.parametrize("action", list(READS), ids=" ".join)
def test_help_lists_the_flags_the_action_reads(capsys, action):
    code, out, _ = run(capsys, *action, "-h")
    assert code == 0
    usage = out.split("\n\n", 1)[0]
    assert set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", usage)) == {"-h", *READS[action]}


# -- the parsers argv names ------------------------------------------------------
# main builds only the parsers on the way to the action its argv names, and
# every parser when it names none; build_parser() builds every parser.

def _full(capsys, argv):
    """The exit code, stdout and stderr of the every-command parser on
    ``argv``, which it refuses or answers with help."""
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(list(argv))
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


def test_main_in_process_freezes_nothing(capsys):
    before = gc.get_freeze_count()
    assert main(["seq", "gen", "--len", "5"]) == 0
    assert gc.get_freeze_count() == before


def test_process_entry_freezes_before_main(monkeypatch):
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 0)
    assert cli.run() == 0
    assert calls == ["freeze", "main"]


# a value for each flag that takes one and is not in VALUES; every other flag
# is a switch
MORE_VALUES = {
    "--output": "o.json", "--dot": "g.dot", "--max-nodes": "9", "--time-budget": "1.5",
    "--bound": "4", "--walks": "4", "--mode": "tuple", "--p": "2", "--q": "5",
}
POSITIONALS = {("verify",): ("path:3", "c.json"), ("solve",): ("path:3",)}


def _argvs(action):
    """The action with only what it needs, and with every flag it reads
    (--exact, which --bound excludes, on its own)."""
    bare = [*action, *REQUIRED.get(action, ()), *POSITIONALS.get(action, ())]
    every = list(bare)
    for flag in READS[action]:
        value = VALUES.get(flag, MORE_VALUES.get(flag))
        if flag not in bare and flag != "--exact":
            every += [flag] if value is None else [flag, value]
    yield bare
    yield every
    if "--exact" in READS[action]:
        yield [*bare, "--exact"]


@pytest.mark.parametrize("action", list(READS), ids=" ".join)
def test_argv_parser_parses_as_every_parser(action):
    for argv in _argvs(action):
        assert build_parser(argv).parse_args(argv) == build_parser().parse_args(argv)
    # and it holds no other action
    other = next(a for a in READS if a[0] != action[0])
    with pytest.raises(SystemExit):
        build_parser(argv).parse_args([*other, *REQUIRED.get(other, ())])


HELP = [(), *dict.fromkeys(a[:1] for a in READS), *READS]


@pytest.mark.parametrize("path", HELP, ids=lambda p: " ".join(p) or "top")
def test_help_reads_as_every_parser(capsys, path):
    code, out, err = run(capsys, *path, "-h")
    assert code == 0 and out.startswith("usage: thuelex")
    assert (code, out, err) == _full(capsys, [*path, "-h"])


@pytest.mark.parametrize("argv", [
    (), ("bogus",), ("bogus", "path"), ("gen",), ("gen", "bogus"), ("color", "bogus"),
    ("seq", "bogus", "ABAB"), ("-x", "gen", "path"),
    # unrecognized arguments: the top level's usage, every command in it
    ("gen", "path", "--n", "3", "extra"), ("verify", "path:3", "c.json", "extra"),
    ("seq", "gaps", "ABAB", "--bogus"),
], ids=" ".join)
def test_refusal_reads_as_every_parser(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("usage: thuelex")
    assert (code, out, err) == _full(capsys, argv)
