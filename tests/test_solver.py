from itertools import combinations, product
from random import Random

import pytest

from oracles import (
    all_simple_paths,
    halves_repetitive_path_exists,
    naive_repetitive_path_exists,
)
from thuelex import (
    COMPLETE,
    EMPTY,
    Graph,
    build_complete,
    build_cycle,
    build_path,
    build_rooted_tree,
    enumerate_bounded_nonrep,
    exists_coloring,
    exists_tuple_coloring,
    find_repetitive_path,
    find_tuple_repetitive_path,
    is_walk_nonrepetitive,
    lex_product,
    rainbow_exists_coloring,
    rainbow_thue_number,
    thue_number,
)
from thuelex import solver
from thuelex.errors import Budget, ResourceLimitError

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
        assert not naive_repetitive_path_exists(g, r.witness.colors)

    def test_c7_three_colors_infeasible(self):
        assert exists_coloring(build_cycle(7), 3).value is False

    def test_brute_confirmation_small(self):
        """Exact feasibility agrees with full enumeration of q^n colorings."""
        for name, g in SMALL:
            for q in (2, 3):
                if q ** g.n > 300_000:
                    continue
                brute = any(
                    not naive_repetitive_path_exists(g, w)
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
        r = exists_coloring(g, 5, Budget(5))
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

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_single_layer_rainbow(self, k):
        """The first palette of P_1[E_k], k, is also the last one tried, and
        the ascending layer takes one node a vertex."""
        r = rainbow_thue_number(lex_product(build_path(1), EMPTY, k))
        assert (r.status, r.value, r.nodes_explored) == ("exact", k, k)

    def test_subgraph_monotonicity(self):
        values = [thue_number(build_path(n)).value for n in range(3, 9)]
        assert values == sorted(values)

    def test_budget_gives_lower_bound(self):
        g = lex_product(build_path(6), EMPTY, 2).view
        r = thue_number(g, Budget(50))
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

    def test_empty_product_is_exact_at_k(self):
        pg = lex_product(Graph.from_edges(0, []), EMPTY, 3)
        assert rainbow_exists_coloring(pg, 3).value is True
        r = rainbow_thue_number(pg)
        assert (r.status, r.value, r.witness.colors) == ("exact", 3, ())


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
        r = exists_tuple_coloring(g, 2, 7, Budget(3))
        assert r.status == "timeout"


P6E2 = lex_product(build_path(6), EMPTY, 2)

# (call, status, value, nodes_explored).  The statuses and values were
# recorded before the plain, rainbow and tuple searches were merged into one
# engine, the node counts under lazy cuts from the exact check (the rainbow
# ones with ascending layers); any change to candidate order, the cuts or
# budget charging shows up here.
PINNED = [
    (lambda: rainbow_exists_coloring(P6E2, 5), "exact", False, 110),
    (lambda: exists_tuple_coloring(build_cycle(9), 2, 5), "exact", False, 476),
    (lambda: exists_tuple_coloring(build_cycle(7), 2, 7), "exact", True, 1297),
    (lambda: exists_tuple_coloring(build_cycle(5), 2, 4), "exact", False, 23),
    (lambda: exists_coloring(build_cycle(7), 4, symmetry_breaking=False), "exact", True, 46),
    (lambda: thue_number(build_rooted_tree(2, 1, 2)[0]), "exact", 3, 30),
    (lambda: exists_coloring(P6E2.view, 5, Budget(100)), "timeout", None, 101),
    (lambda: rainbow_thue_number(lex_product(build_path(8), EMPTY, 2)), "exact", 6, 780),
    (lambda: rainbow_exists_coloring(P6E2, 6, Budget(50)), "timeout", None, 51),
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


class TestBudget:
    def test_spent_counts_the_node_that_ran_out(self):
        b = Budget(3)
        b.charge()
        b.charge(2)
        with pytest.raises(ResourceLimitError):
            b.charge()
        assert b.spent == 4

    def test_expired_deadline_raises(self):
        b = Budget(10, time_budget=-1.0)
        with pytest.raises(ResourceLimitError):
            b.charge()
        assert b.spent == 1

    def test_time_budget_gives_timeout(self):
        r = exists_coloring(P6E2.view, 5, Budget(time_budget=1e-9))
        assert (r.status, r.value, r.witness) == ("timeout", None, None)

    def test_shared_budget(self):
        """Each call reports the nodes it charged; the third runs out."""
        b = Budget(160)
        got = [thue_number(build_path(10), b) for _ in range(3)]
        assert [(r.status, r.value, r.nodes_explored) for r in got] == [
            ("exact", 3, 64),
            ("exact", 3, 64),
            ("lower_bound_only", 3, 33),
        ]
        assert b.spent == 161

    def test_refused_sweeps_charge_their_projection(self):
        b = Budget(10)
        with pytest.raises(ResourceLimitError):
            enumerate_bounded_nonrep(3, 20, 6, budget=b)
        assert b.spent == 1_572_864  # 3 * 2**19 words without equal neighbours
        b = Budget(100)
        g = lex_product(build_path(6), COMPLETE, 2).view
        with pytest.raises(ResourceLimitError):
            is_walk_nonrepetitive(g, range(12), 12, budget=b)
        assert b.spent == 288  # 52 two-vertex and 236 three-vertex walks of P_6[K_2], once each


class TestSharedConstraints:
    """Optimum searches share one set of constraints and cuts across every
    palette size; the answers must be those of a fresh feasibility call at
    the optimum."""

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
        r = thue_number(build_path(10), Budget(300))
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
        assert naive_repetitive_path_exists(pg.view, colors)


def _flat_pairs(path):
    l = len(path) // 2
    return tuple(v for pair in zip(path[:l], path[l:]) for v in pair)


def _full_enumeration(g, p, palettes, symmetry_breaking=True, classes=None, pairs=()):
    """The first palette size with a solution and its sets, searched under
    every even path of g and the extra constraints ``pairs`` at once and a
    check that never cuts, or (None, None)."""
    classes = classes or [(v,) for v in solver.bfs_order(g)]
    rank = {v: r for r, v in enumerate(v for c in classes for v in c)}
    constraints = list(pairs)
    for path in all_simple_paths(g):
        if len(path) % 2 == 0 and path[0] < path[-1]:
            constraints.append(_flat_pairs(path))
    buckets = [[] for _ in range(g.n)]
    for c in constraints:
        buckets[max(rank[v] for v in c)].append(c)
    for q in palettes:
        sets = solver._search(
            p, q, Budget(), classes, buckets, lambda sets: None, symmetry_breaking=symmetry_breaking
        )
        if sets is not None:
            return q, sets
    return None, None


class _Restart(Exception):
    pass


def _restarting(search):
    """``search`` (the engine) run again from rank 0 after every cut, which
    it keeps, instead of resuming at the cut's rank."""

    def restarting(p, q, budget, classes, buckets, check, **options):
        rank = {v: r for r, v in enumerate(v for c in classes for v in c)}

        def cut(sets):
            found = check(sets)
            if found is None:
                return None
            buckets[max(rank[v] for v in found.path)].append(_flat_pairs(found.path))
            raise _Restart

        while True:
            try:
                return search(p, q, budget, classes, buckets, cut, **options)
            except _Restart:
                pass

    return restarting


def _cut_cases():
    """(id, case) pairs; each case returns the solver's (value, witness
    cells) and those of ``_full_enumeration``."""
    def plain(g):
        r = thue_number(g)
        assert r.status == "exact"
        q, sets = _full_enumeration(g, 1, range(1, g.n + 1))
        return (r.value, r.witness.colors), (q, tuple(c for (c,) in sets))

    def rainbow(pg):
        """Against the search that ascending layers replaced: one vertex at a
        time in layer order, every pair of one layer a constraint."""
        r = rainbow_thue_number(pg)
        assert r.status == "exact"
        layers = solver._rainbow(pg)
        q, sets = _full_enumeration(
            pg.view,
            1,
            range(pg.k, pg.view.n + 1),
            classes=[(v,) for layer in layers for v in layer],
            pairs=[pair for layer in layers for pair in combinations(layer, 2)],
        )
        return (r.value, r.witness.colors), (q, tuple(c for (c,) in sets))

    def tuples(g, p, q):
        r = exists_tuple_coloring(g, p, q)
        assert r.status == "exact"
        got, sets = _full_enumeration(g, p, [q])
        return (
            (r.value, r.witness and r.witness.sets),
            (got is not None, sets and tuple(sets)),
        )

    def unbroken(g, q):
        r = exists_coloring(g, q, symmetry_breaking=False)
        assert r.status == "exact"
        got, sets = _full_enumeration(g, 1, [q], symmetry_breaking=False)
        full = (got is not None, sets and tuple(c for (c,) in sets))
        return (r.value, r.witness and r.witness.colors), full

    cases = [(f"thue-{name}", lambda g=g: plain(g)) for name, g in SMALL]
    cases += [
        (f"unbroken-{name}-{q}", lambda g=g, q=q: unbroken(g, q))
        for name, g in SMALL
        for q in (2, 3, 4)
    ]
    for n in range(1, 7):
        for inner, tag in ((EMPTY, "E"), (COMPLETE, "K")):
            pg = lex_product(build_path(n), inner, 2)
            cases.append((f"thue-P{n}{tag}2", lambda pg=pg: plain(pg.view)))
            cases.append((f"rainbow-P{n}{tag}2", lambda pg=pg: rainbow(pg)))
    rainbows = [(f"P{n}E3", lex_product(build_path(n), EMPTY, 3)) for n in (1, 2, 3)]
    rainbows.append(("C5E2", lex_product(build_cycle(5), EMPTY, 2)))
    cases += [(f"rainbow-{name}", lambda pg=pg: rainbow(pg)) for name, pg in rainbows]
    for n in range(3, 11):
        for p, q in ((2, 5), (2, 6), (2, 7), (3, 8)):
            case = lambda n=n, p=p, q=q: tuples(build_cycle(n), p, q)
            cases.append((f"tuple-C{n}-{p}-{q}", case))
    return cases


CUT_CASES = _cut_cases()


class TestLadder:
    """Lazy cuts from the exact check give the answers of a search over
    every even path: the same value and witness.  The ids ``climb`` and
    ``cut`` are those of the rung ladder the cuts replaced: ``cut`` runs the
    solver as it is, resuming at each cut's rank, and ``climb`` restarts it
    from rank 0 after every cut, which the proof in the solver's docstring
    covers too."""

    @pytest.mark.parametrize("resume", [False, True], ids=["climb", "cut"])
    @pytest.mark.parametrize("case", [c for _, c in CUT_CASES], ids=[i for i, _ in CUT_CASES])
    def test_matches_full_enumeration(self, case, resume, monkeypatch):
        if not resume:
            monkeypatch.setattr(solver, "_search", _restarting(solver._search))
        cuts, full = case()
        assert cuts == full

    def test_p12e2_thue_number(self):
        g = lex_product(build_path(12), EMPTY, 2).view
        r = thue_number(g)
        assert (r.status, r.value) == ("exact", 5)
        assert not halves_repetitive_path_exists(g, r.witness.colors)

    @staticmethod
    def _checked_bounds(monkeypatch):
        bounds = []
        check = solver.find_tuple_repetitive_path

        def record(g, sets, max_vertices, *, budget):
            bounds.append(max_vertices)
            return check(g, sets, max_vertices, budget=budget)

        monkeypatch.setattr(solver, "find_tuple_repetitive_path", record)
        return bounds

    @pytest.mark.parametrize("g", [build_path(1), build_complete(1), Graph.from_edges(0, [])])
    def test_no_even_path_skips_the_check(self, g, monkeypatch):
        with pytest.raises(ValueError):
            find_repetitive_path(g, [0] * g.n, 0)
        bounds = self._checked_bounds(monkeypatch)
        assert thue_number(g).status == "exact"
        assert exists_tuple_coloring(g, 1, 2).value is True
        assert bounds == []

    @pytest.mark.parametrize("g", [build_path(7), build_cycle(9), build_path(8)])
    def test_checks_at_every_even_path(self, g, monkeypatch):
        """The exact check's bound is |V| rounded down to even."""
        bounds = self._checked_bounds(monkeypatch)
        assert thue_number(g).status == "exact"
        assert bounds and set(bounds) == {g.n - g.n % 2}


class TestHalvesOracle:
    def test_agrees_with_every_path(self):
        rng = Random(12)
        graphs = [g for _, g in SMALL] + [
            lex_product(build_path(n), inner, 2).view
            for n in (2, 3, 4)
            for inner in (EMPTY, COMPLETE)
        ]
        seen = set()
        for g in graphs:
            for _ in range(40):
                colors = [rng.randrange(g.n) for _ in range(g.n)]
                got = halves_repetitive_path_exists(g, colors)
                assert got == naive_repetitive_path_exists(g, colors), (g.adj, colors)
                seen.add(got)
        assert seen == {True, False}
