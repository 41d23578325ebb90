import json

import pytest

from thuelex import (
    COMPLETE,
    EMPTY,
    Graph,
    build_complete,
    build_cycle,
    build_empty,
    build_outerplanar_g0,
    build_path,
    build_rooted_tree,
    layer_vertices,
    lex_product,
)
from thuelex.graphs import (
    from_json_dict,
    graph_from_json_dict,
    graph_to_json_dict,
    product_from_json_dict,
    product_to_json_dict,
    to_dot,
)


def bfs_reachable(g, start=0):
    seen = {start}
    queue = [start]
    while queue:
        v = queue.pop()
        for u in g.adj[v]:
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return seen


class TestBuilders:
    def test_path_counts(self):
        assert (build_path(4).n, build_path(4).m) == (4, 3)
        assert (build_path(1).n, build_path(1).m) == (1, 0)
        assert (build_path(28).n, build_path(28).m) == (28, 27)

    def test_path_invalid(self):
        with pytest.raises(ValueError):
            build_path(0)

    def test_cycle(self):
        c7 = build_cycle(7)
        assert (c7.n, c7.m) == (7, 7)
        assert all(c7.degree(v) == 2 for v in range(7))
        assert build_cycle(3).m == 3
        assert (build_cycle(5).n, build_cycle(5).m) == (5, 5)
        with pytest.raises(ValueError):
            build_cycle(2)

    def test_complete_and_empty(self):
        assert build_complete(4).m == 6
        assert build_empty(5).m == 0

    def test_tree_counts(self):
        t36, meta = build_rooted_tree(3, 2, 5)
        # geometric series 1 + 3*(1+2+4+8+16)
        assert t36.n == 1 + 3 + 6 + 12 + 24 + 48 == 94
        assert max(meta.level) == 5
        t47, _ = build_rooted_tree(4, 3, 6)
        assert t47.n == 1 + 4 + 12 + 36 + 108 + 324 + 972 == 1457
        p2, meta2 = build_rooted_tree(1, 0, 1)
        assert (p2.n, p2.m) == (2, 1)
        assert meta2.level == (0, 1)

    def test_tree_structure(self):
        tree, meta = build_rooted_tree(3, 2, 3)
        assert tree.m == tree.n - 1
        assert bfs_reachable(tree) == set(range(tree.n))
        assert meta.level[meta.root] == 0
        for u, v in tree.edges():
            assert abs(meta.level[u] - meta.level[v]) == 1

    def test_tree_invalid(self):
        with pytest.raises(ValueError):
            build_rooted_tree(0, 2, 5)
        with pytest.raises(ValueError):
            build_rooted_tree(2, 0, 3)

    def test_g0(self):
        g, core = build_outerplanar_g0()
        assert len(core) == 10 + 1 + 10 * 24 == 251
        assert g.n == 251 * 7 == 1757
        assert g.degree(10) == 10 + 6  # apex: the path plus its own leaves
        # interior path vertex: two path neighbors, apex, its 24-path, 6 leaves
        assert g.degree(1) == 2 + 1 + 24 + 6
        assert g.degree(0) == 1 + 1 + 24 + 6
        # leaves are pendant
        assert all(g.degree(v) == 1 for v in range(251, g.n))


class TestProducts:
    def test_p2_empty_2_is_c4(self):
        pg = lex_product(build_path(2), EMPTY, 2)
        assert (pg.view.n, pg.view.m) == (4, 4)
        assert all(pg.view.degree(v) == 2 for v in range(4))

    def test_p3_complete_2_edge_count(self):
        pg = lex_product(build_path(3), COMPLETE, 2)
        assert pg.view.m == 4 * 2 + 3 * 1 == 11

    def test_k1_complete_identity(self):
        for g in (build_path(5), build_cycle(6)):
            pg = lex_product(g, COMPLETE, 1)
            assert pg.view == g

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            lex_product(build_path(2), EMPTY, 0)
        with pytest.raises(ValueError):
            lex_product(build_path(2), "clique", 2)

    def test_edge_rule(self):
        base = build_cycle(5)
        for kind in (EMPTY, COMPLETE):
            pg = lex_product(base, kind, 3)
            for u in range(pg.view.n):
                for v in range(u + 1, pg.view.n):
                    bu, bv = u // 3, v // 3
                    expect = base.has_edge(bu, bv) or (
                        bu == bv and kind == COMPLETE
                    )
                    assert pg.view.has_edge(u, v) == expect

    def test_count_formula_all_builders(self):
        bases = [build_path(n) for n in range(1, 9)]
        bases += [build_cycle(n) for n in range(3, 9)]
        bases += [build_rooted_tree(2, 1, 2)[0], build_complete(4)]
        for base in bases:
            for kind in (EMPTY, COMPLETE):
                for k in (1, 2, 3):
                    pg = lex_product(base, kind, k)
                    assert pg.view.n == base.n * k
                    inner = 0 if kind == EMPTY else k * (k - 1) // 2
                    assert pg.view.m == k * k * base.m + base.n * inner

    def test_empty_subgraph_of_complete(self):
        base = build_path(4)
        pe = lex_product(base, EMPTY, 3)
        pk = lex_product(base, COMPLETE, 3)
        assert set(pe.view.edges()) <= set(pk.view.edges())

    def test_layer_vertices(self):
        pe = lex_product(build_path(3), EMPTY, 2)
        assert layer_vertices(pe, 1) == (2, 3)
        assert layer_vertices(pe, 0) == (0, 1)
        pk = lex_product(build_path(3), COMPLETE, 3)
        assert layer_vertices(pk, 2) == (6, 7, 8)
        with pytest.raises(ValueError):
            layer_vertices(pe, 3)


class TestValidation:
    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            Graph(2, ((1,), ()))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph(1, ((0,),))

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, ((2, 1), (0, 2), (0, 1)))

    @pytest.mark.parametrize(
        "n,adj,message",
        [
            (-1, (), "nonnegative"),
            (2, ((),), "adjacency length"),
            (2, ((2,), ()), "out of range"),
        ],
        ids=["negative-n", "adjacency-length", "neighbor-out-of-range"],
    )
    def test_malformed_rejected(self, n, adj, message):
        with pytest.raises(ValueError, match=message):
            Graph(n, adj)

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 1), (1, 0)])


class TestSerialization:
    @pytest.mark.parametrize(
        "g",
        [
            build_path(6),
            build_cycle(7),
            build_rooted_tree(3, 2, 3)[0],
            lex_product(build_path(3), COMPLETE, 2).view,
        ],
    )
    def test_graph_roundtrip(self, g):
        d = graph_to_json_dict(g)
        assert graph_from_json_dict(json.loads(json.dumps(d))) == g
        assert all(u < v for u, v in d["edges"])
        assert d["edges"] == sorted(d["edges"])

    def test_product_roundtrip(self):
        pg = lex_product(build_path(4), EMPTY, 2)
        d = product_to_json_dict(pg)
        back = product_from_json_dict(json.loads(json.dumps(d)))
        assert back.view == pg.view and back.k == 2 and back.inner_kind == EMPTY

    def test_from_json_dict_reads_graph_or_product(self):
        pg = lex_product(build_path(4), EMPTY, 2)
        assert from_json_dict(json.loads(json.dumps(product_to_json_dict(pg)))) == pg
        g = build_cycle(5)
        assert from_json_dict(json.loads(json.dumps(graph_to_json_dict(g)))) == g

    def test_malformed(self):
        for bad in (
            {"n": 2},
            {"edges": []},
            {"n": 2, "edges": [[0]]},
            {"n": 2, "edges": [[0, 2]]},
            {"n": 2, "edges": [[0, 0]]},
        ):
            with pytest.raises(ValueError):
                graph_from_json_dict(bad)

    def test_dot(self):
        g = build_path(3)
        dot = to_dot(g)
        assert dot.startswith("graph G {")
        assert dot.count("--") == g.m
