import json

import pytest

from thuelex.cli import main


def run(capsys, *argv):
    code = main(list(argv))
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

    def test_walks_flag(self, capsys, tmp_path):
        col = tmp_path / "c.json"
        col.write_text(json.dumps({"palette": 2, "colors": [0, 1, 0]}))
        code, out, _ = run(capsys, "verify", "path:3", str(col), "--exact", "--walks", "4")
        assert code == 1
        assert json.loads(out)["walk_nonrepetitive"] is False

    def test_long_walks_exit_0(self, capsys, tmp_path):
        col = tmp_path / "c.json"
        col.write_text(json.dumps({"palette": 2, "colors": [0, 1]}))
        code, out, _ = run(capsys, "verify", "path:2", str(col), "--walks", "2000")
        assert code == 0
        assert json.loads(out)["walk_nonrepetitive"] is True

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
            ("path:2", {"palette": "2", "colors": [0, 1]}),
            (
                {"base": {"n": 2, "edges": [[0, 1]]}, "inner": "empty", "k": "2"},
                {"palette": 2, "colors": [0, 0, 1, 1]},
            ),
        ],
        ids=["colors", "edge-endpoint", "set-member", "palette", "product-k"],
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


class TestSolve:
    def test_thue_c7(self, capsys):
        # flag-first order as documented: solve --mode thue cycle:7
        code, out, err = run(capsys, "solve", "--mode", "thue", "cycle:7")
        assert code == 0
        d = json.loads(out)
        assert d["status"] == "exact" and d["value"] == 4
        assert d["witness"]["palette"] == 4
        assert "wall=" in err

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

    def test_rainbow_inline_product(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--mode", "rainbow",
            "--base", "path:4", "--inner", "empty", "--k", "2",
        )
        assert code == 0
        assert json.loads(out)["value"] == 6

    def test_timeout_exit_3(self, capsys, tmp_path):
        graph = tmp_path / "g.json"
        run(capsys, "gen", "product", "--base", "path:6", "--inner", "empty",
            "--k", "2", "--output", str(graph))
        code, out, _ = run(
            capsys, "solve", str(graph), "--mode", "thue", "--max-nodes", "10"
        )
        assert code == 3
        assert json.loads(out)["status"] == "lower_bound_only"

    def test_long_path_enumeration_times_out_exit_3(self, capsys):
        # deeper than Python's recursion limit
        code, out, _ = run(
            capsys, "solve", "path:1100", "--mode", "thue", "--max-nodes", "5000"
        )
        assert code == 3
        d = json.loads(out)
        assert (d["status"], d["value"], d["nodes_explored"]) == ("lower_bound_only", 1, 5001)

    def test_missing_params_exit_2(self, capsys):
        code, _, _ = run(capsys, "solve", "cycle:7", "--mode", "tuple")
        assert code == 2

    def test_missing_graph_exit_2(self, capsys):
        code, _, err = run(capsys, "solve", "--mode", "thue")
        assert code == 2
        assert "missing graph spec" in err

    @pytest.mark.parametrize("flag", ["--max-nodes", "--time-budget"])
    def test_zero_budget_exit_2(self, capsys, flag):
        code, out, err = run(capsys, "solve", "path:3", flag, "0")
        assert code == 2
        assert out == "" and "positive" in err


class TestSeq:
    def test_gen(self, capsys):
        code, out, _ = run(capsys, "seq", "gen", "--sigma", "3", "--len", "5")
        assert code == 0
        assert out.strip() == "ABACA"

    def test_gen_infeasible_exit_1(self, capsys):
        code, _, _ = run(capsys, "seq", "gen", "--sigma", "2", "--len", "4")
        assert code == 1

    def test_check(self, capsys):
        code, out, _ = run(capsys, "seq", "check", "ABAB")
        assert code == 0
        d = json.loads(out)
        assert d["repetition"] == [1, 2] and d["palindrome_free"] is False

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

    def test_bad_budget_env(self, capsys, monkeypatch):
        monkeypatch.setenv("THUE_NODE_BUDGET", "zero")
        code, _, _ = run(capsys, "seq", "gen", "--sigma", "3", "--len", "5")
        assert code == 2
