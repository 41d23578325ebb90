from itertools import product

import pytest

from oracles import naive_repetitive_path_exists
from thuelex import (
    COMPLETE,
    EMPTY,
    Coloring,
    SearchLimits,
    brute_oracle,
    build_complete,
    build_cycle,
    build_path,
    build_rooted_tree,
    exists_coloring,
    exists_tuple_coloring,
    find_repetitive_path,
    find_tuple_repetitive_path,
    lex_product,
    rainbow_exists_coloring,
    rainbow_thue_number,
    thue_number,
)

SMALL = [
    ("P4", build_path(4)),
    ("P7", build_path(7)),
    ("C5", build_cycle(5)),
    ("K4", build_complete(4)),
    ("S3", build_rooted_tree(3, 0, 1)[0]),
    ("tree212", build_rooted_tree(2, 1, 2)[0]),
]


class TestExistsColoring:
    def test_p4(self):
        g = build_path(4)
        assert exists_coloring(g, 2).value is False
        r = exists_coloring(g, 3)
        assert r.value is True
        assert not brute_oracle(g, r.witness)

    def test_c7_three_colors_infeasible(self):
        assert exists_coloring(build_cycle(7), 3).value is False

    def test_brute_confirmation_small(self):
        """Exact feasibility agrees with full enumeration of q^n colorings."""
        for name, g in SMALL:
            for q in (2, 3):
                if q ** g.n > 300_000:
                    continue
                brute = any(
                    not brute_oracle(g, Coloring(q, w))
                    for w in product(range(q), repeat=g.n)
                )
                assert exists_coloring(g, q).value is brute, (name, q)

    def test_symmetry_breaking_sound(self):
        for name, g in SMALL:
            for q in (2, 3, 4):
                a = exists_coloring(g, q)
                b = exists_coloring(g, q, symmetry_breaking=False)
                assert a.value == b.value, (name, q)

    def test_witness_passes_exact_verifier(self):
        for name, g in SMALL:
            r = thue_number(g)
            assert r.status == "exact"
            bound = max(2, g.n - g.n % 2)
            assert find_repetitive_path(g, r.witness.colors, bound) is None, name

    def test_timeout(self):
        g = lex_product(build_path(6), EMPTY, 2).view
        r = exists_coloring(g, 5, SearchLimits(max_nodes=5))
        assert r.status == "timeout"
        assert r.nodes_explored >= 5

    def test_invalid_palette(self):
        with pytest.raises(ValueError):
            exists_coloring(build_path(2), 0)


class TestThueNumber:
    @pytest.mark.parametrize("n", range(5, 11))
    def test_paths(self, n):
        assert thue_number(build_path(n)).value == 3

    def test_short_paths(self):
        assert thue_number(build_path(1)).value == 1
        assert thue_number(build_path(2)).value == 2
        assert thue_number(build_path(3)).value == 2
        assert thue_number(build_path(4)).value == 3

    def test_c7(self):
        assert thue_number(build_cycle(7)).value == 4

    def test_k4(self):
        assert thue_number(build_complete(4)).value == 4

    def test_subgraph_monotonicity(self):
        values = [thue_number(build_path(n)).value for n in range(3, 9)]
        assert values == sorted(values)

    def test_budget_gives_lower_bound(self):
        g = lex_product(build_path(6), EMPTY, 2).view
        r = thue_number(g, SearchLimits(max_nodes=50))
        assert r.status == "lower_bound_only"
        assert r.value >= 1 and r.witness is None

    def test_deterministic(self):
        a = thue_number(build_cycle(7))
        b = thue_number(build_cycle(7))
        assert (a.value, a.witness) == (b.value, b.witness)


class TestRainbow:
    def test_p4e2_feasibility(self):
        pg = lex_product(build_path(4), EMPTY, 2)
        assert rainbow_exists_coloring(pg, 6).value is True
        assert rainbow_exists_coloring(pg, 5).value is False

    def test_rainbow_witness_is_rainbow(self):
        from thuelex import is_rainbow

        pg = lex_product(build_path(4), EMPTY, 2)
        r = rainbow_thue_number(pg)
        assert r.status == "exact"
        assert is_rainbow(pg, r.witness.colors)
        bound = pg.view.n - pg.view.n % 2
        assert find_repetitive_path(pg.view, r.witness.colors, bound) is None

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_equals_plain_on_complete_products(self, n):
        pg = lex_product(build_path(n), COMPLETE, 2)
        assert rainbow_thue_number(pg).value == thue_number(pg.view).value

    def test_k1_equals_base_thue_number(self):
        pg = lex_product(build_cycle(5), EMPTY, 1)
        assert rainbow_thue_number(pg).value == thue_number(build_cycle(5)).value


class TestTuple:
    def test_c7_2_7_feasible(self):
        g = build_cycle(7)
        r = exists_tuple_coloring(g, 2, 7)
        assert r.value is True
        assert find_tuple_repetitive_path(g, r.witness.sets, 6) is None

    def test_c7_2_6_infeasible(self):
        assert exists_tuple_coloring(build_cycle(7), 2, 6).value is False

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_p1_reduction(self, q):
        g = build_cycle(5)
        assert exists_tuple_coloring(g, 1, q).value == exists_coloring(g, q).value

    def test_invalid(self):
        with pytest.raises(ValueError):
            exists_tuple_coloring(build_path(3), 2, 2)

    def test_timeout(self):
        g = build_cycle(7)
        r = exists_tuple_coloring(g, 2, 7, SearchLimits(max_nodes=3))
        assert r.status == "timeout"


P6E2 = lex_product(build_path(6), EMPTY, 2)

# (call, status, value, nodes_explored), recorded before the plain, rainbow
# and tuple searches were merged into one engine; any change to candidate
# order or budget charging shows up here.
PINNED = [
    (lambda: rainbow_exists_coloring(P6E2, 5), "exact", False, 10430),
    (lambda: exists_tuple_coloring(build_cycle(9), 2, 5), "exact", False, 198),
    (lambda: exists_tuple_coloring(build_cycle(7), 2, 7), "exact", True, 1242),
    (lambda: exists_tuple_coloring(build_cycle(5), 2, 4), "exact", False, 62),
    (lambda: exists_coloring(build_cycle(7), 4, symmetry_breaking=False), "exact", True, 107),
    (lambda: thue_number(build_rooted_tree(2, 1, 2)[0]), "exact", 3, 45),
    (lambda: exists_coloring(P6E2.view, 5, SearchLimits(max_nodes=1000)), "timeout", None, 1001),
]


class TestPinned:
    @pytest.mark.parametrize("case", range(len(PINNED)))
    def test_status_value_nodes(self, case):
        call, status, value, nodes = PINNED[case]
        r = call()
        assert (r.status, r.value, r.nodes_explored) == (status, value, nodes)

    def test_single_color_tuples_match_plain(self):
        for name, g in SMALL:
            for q in (2, 3, 4):
                t = exists_tuple_coloring(g, 1, q)
                c = exists_coloring(g, q)
                assert (t.value, t.nodes_explored) == (c.value, c.nodes_explored), (name, q)
                if c.value:
                    assert t.witness.sets == tuple((x,) for x in c.witness.colors), (name, q)


class TestSharedConstraints:
    """Optimum searches enumerate the path constraints once and reuse them
    for every palette size; the answers must be those of a fresh
    feasibility call at the optimum."""

    PRODUCTS = [
        (f"P{n}{tag}2", lex_product(build_path(n), inner, 2))
        for n in range(1, 6)
        for inner, tag in ((EMPTY, "E"), (COMPLETE, "K"))
    ]
    GRAPHS = SMALL + [(name, pg.view) for name, pg in PRODUCTS]

    @pytest.mark.parametrize("g", [g for _, g in GRAPHS], ids=[name for name, _ in GRAPHS])
    def test_thue_number_matches_exists_coloring(self, g):
        r = thue_number(g)
        d = exists_coloring(g, r.value)
        assert r.status == d.status == "exact"
        assert d.value is True and r.witness == d.witness

    @pytest.mark.parametrize("pg", [pg for _, pg in PRODUCTS], ids=[name for name, _ in PRODUCTS])
    def test_rainbow_thue_number_matches_rainbow_exists(self, pg):
        r = rainbow_thue_number(pg)
        d = rainbow_exists_coloring(pg, r.value)
        assert r.status == d.status == "exact"
        assert d.value is True and r.witness == d.witness

    def test_small_budget_decides_p10(self):
        r = thue_number(build_path(10), SearchLimits(max_nodes=300))
        assert (r.status, r.value) == ("exact", 3)


class TestLemma1Star:
    """A nonrepetitive coloring of S_3[E_2] that repeats a color inside the
    center layer needs at least 3*2+1 colors, so with at most 6 colors every
    solver witness keeps the center layer rainbow."""

    def test_witness_center_rainbow(self):
        star = build_rooted_tree(3, 0, 1)[0]
        pg = lex_product(star, EMPTY, 2)
        feasible_qs = []
        for q in range(1, 7):
            r = exists_coloring(pg.view, q)
            if r.value:
                feasible_qs.append(q)
                center = r.witness.colors[0:2]
                assert center[0] != center[1], f"q={q}"
        assert feasible_qs, "some palette at most 6 must be feasible"

    def test_center_repeat_with_few_colors_is_repetitive(self):
        star = build_rooted_tree(3, 0, 1)[0]
        pg = lex_product(star, EMPTY, 2)
        colors = (0, 0, 1, 2, 3, 4, 5, 1)  # center layer repeats, 6 colors
        assert brute_oracle(pg.view, Coloring(6, colors))


class TestBruteOracle:
    def test_examples(self):
        g = build_path(4)
        assert brute_oracle(g, Coloring(2, (0, 1, 0, 1)))
        assert not brute_oracle(g, Coloring(3, (0, 1, 2, 0)))

    def test_matches_naive_path_scan(self):
        import random

        rng = random.Random(3)
        g = lex_product(build_path(3), EMPTY, 2).view
        for _ in range(50):
            colors = tuple(rng.randrange(3) for _ in range(6))
            assert brute_oracle(g, Coloring(3, colors)) == naive_repetitive_path_exists(
                g, colors
            )

    def test_cap(self):
        with pytest.raises(ValueError):
            brute_oracle(build_path(13), Coloring(2, (0, 1) * 6 + (0,)))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            brute_oracle(build_path(3), Coloring(2, (0, 1)))
