import random

import pytest

from thuelex import (
    COMPLETE,
    EMPTY,
    Budget,
    Coloring,
    Graph,
    ResourceLimitError,
    RootedTreeMeta,
    TupleColoring,
    build_path,
    build_rooted_tree,
    c7_fractional_example,
    color_path_complete,
    color_path_empty,
    color_path_rainbow,
    color_tree_complete,
    find_repetitive_path,
    is_rainbow,
    is_rich,
    label_layers,
    layer_color_sets,
    lex_product,
)


def layer(col, k, b):
    return col.colors[b * k : (b + 1) * k]


class TestPathEmpty:
    @pytest.mark.parametrize("k,palette", [(1, 3), (2, 6), (3, 7), (4, 9), (5, 11), (6, 13)])
    def test_palette_formula(self, k, palette):
        for n in (1, 7, 23, 40):
            col = color_path_empty(n, k)
            assert col.palette == palette
            assert len(col.colors) == n * k

    def test_layer_structure(self):
        k = 3
        col = color_path_empty(12, k)
        x = set(range(k))
        for b in range(12):
            j = b + 1
            lay = layer(col, k, b)
            if j % 4 == 1:
                assert set(lay) == x
            elif j % 4 == 3:
                assert len(set(lay)) == k and set(lay) <= set(range(k, 2 * k + 1))
            else:
                assert len(set(lay)) == 1 and lay[0] >= k

    def test_k2_uses_two_smallest(self):
        col = color_path_empty(3, 2)
        s1 = layer(col, 2, 1)[0]
        rest = sorted(c for c in (2, 3, 4, 5) if c != s1)
        assert list(layer(col, 2, 2)) == rest[:2]

    def test_k1_is_ternary_word(self):
        col = color_path_empty(9, 1)
        assert col.palette == 3
        g = build_path(9)
        assert find_repetitive_path(g, col.colors, 8) is None

    def test_single_layer(self):
        col = color_path_empty(1, 3)
        assert sorted(col.colors) == [0, 1, 2]

    def test_deterministic(self):
        assert color_path_empty(17, 3) == color_path_empty(17, 3)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_restriction(self, k):
        full = color_path_empty(24, k)
        for n in (5, 9, 13, 23):
            assert color_path_empty(n, k).colors == full.colors[: n * k]

    def test_invalid(self):
        with pytest.raises(ValueError):
            color_path_empty(0, 2)


class TestPathRainbow:
    @pytest.mark.parametrize("k,palette", [(2, 7), (3, 11), (4, 14), (5, 18)])
    def test_palette_formula(self, k, palette):
        assert palette == (7 * k + 1) // 2
        for n in (1, 12, 24):
            col = color_path_rainbow(n, k)
            assert col.palette == palette

    def test_all_layers_rainbow(self):
        for k in (2, 3, 4):
            pg = lex_product(build_path(13), EMPTY, k)
            col = color_path_rainbow(13, k)
            assert is_rainbow(pg, col.colors)

    def test_x_layers(self):
        k = 3
        col = color_path_rainbow(9, k)
        for b in (0, 4, 8):
            assert set(layer(col, k, b)) == set(range(k))

    def test_restriction(self):
        full = color_path_rainbow(24, 3)
        for n in (6, 11, 23):
            assert color_path_rainbow(n, 3).colors == full.colors[: n * 3]

    def test_k1_rejected(self):
        with pytest.raises(ValueError):
            color_path_rainbow(8, 1)

    def test_single_layer(self):
        assert sorted(color_path_rainbow(1, 2).colors) == [0, 1]


class TestPathComplete:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_palette_formula(self, k):
        col = color_path_complete(12, k)
        assert col.palette == 4 * k
        pg = lex_product(build_path(12), COMPLETE, k)
        assert is_rainbow(pg, col.colors)

    def test_layers_are_blocks(self):
        k = 3
        col = color_path_complete(10, k)
        for b in range(10):
            lay = layer(col, k, b)
            block = lay[0] // k
            assert list(lay) == list(range(block * k, block * k + k))

    def test_two_layers(self):
        col = color_path_complete(2, 2)
        assert len(set(col.colors)) == 4

    def test_k1_is_four_letter_word(self):
        col = color_path_complete(5, 1)
        assert col.palette == 4
        g = build_path(5)
        assert find_repetitive_path(g, col.colors, 4) is None

    def test_restriction(self):
        full = color_path_complete(30, 2)
        for n in (7, 15, 29):
            assert color_path_complete(n, 2).colors == full.colors[: n * 2]


# C_4 plus a disjoint P_4: m = n - 1 edges, but not a tree
C4_AND_P4 = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7)])


class TestTreeComplete:
    def test_t36_k1(self):
        tree, meta = build_rooted_tree(3, 2, 5)
        col = color_tree_complete(tree, meta, 1, path_bound=12)
        assert col.palette == 4
        pg = lex_product(tree, COMPLETE, 1)
        assert find_repetitive_path(pg.view, col.colors, 12) is None

    def test_guard_charges_the_budget(self):
        tree, meta = build_rooted_tree(3, 2, 5)
        budget = Budget(10)
        with pytest.raises(ResourceLimitError):
            color_tree_complete(tree, meta, 2, budget=budget)
        assert budget.spent == 11
        want = color_tree_complete(tree, meta, 2, path_bound=4)
        assert color_tree_complete(tree, meta, 2, path_bound=4, budget=Budget()) == want

    def test_path_shaped_tree_matches_path_construction(self):
        tree, meta = build_rooted_tree(1, 1, 3)  # P_4 rooted at an end
        assert meta.level == (0, 1, 2, 3)
        col = color_tree_complete(tree, meta, 2)
        assert col == color_path_complete(4, 2)

    def test_single_vertex(self):
        tree = Graph(1, ((),))
        col = color_tree_complete(tree, RootedTreeMeta(0, (0,)), 3)
        assert col.palette == 12
        assert len(set(col.colors)) == 3

    def test_rejects_non_tree(self):
        from thuelex import build_cycle

        with pytest.raises(ValueError):
            color_tree_complete(build_cycle(4), RootedTreeMeta(0, (0, 1, 2, 1)), 1)

    def test_rejects_bad_levels(self):
        tree, meta = build_rooted_tree(2, 1, 2)
        bad = RootedTreeMeta(0, tuple(0 for _ in meta.level))
        with pytest.raises(ValueError):
            color_tree_complete(tree, bad, 1)

    @pytest.mark.parametrize(
        "tree,level",
        [
            (build_path(3), (0, -1, -2)),
            (C4_AND_P4, (0, 1, 2, 1, 0, 1, 2, 3)),
            (build_path(8), (0, 1, 0, 1, 0, 1, 0, 1)),
            (C4_AND_P4, (0, 1, 2, 1, -1, -1, -1, -1)),
            (build_path(3), (0, 1)),
        ],
        ids=[
            "negative-levels", "disconnected", "levels-not-distances", "negative-disconnected",
            "wrong-length",
        ],
    )
    def test_rejects_levels_that_are_not_distances(self, tree, level):
        with pytest.raises(ValueError):
            color_tree_complete(tree, RootedTreeMeta(0, level), 2)

    @pytest.mark.parametrize("k,max_n,count", [(2, 7, 85), (3, 4, 8)])
    def test_every_small_rooted_tree_is_nonrepetitive(self, k, max_n, count):
        """Backs the proof in the docstring with an exact check of every
        rooted tree of at most max_n vertices, up to isomorphism."""
        trees, of_size = [], {()}
        for _ in range(max_n):
            trees += of_size
            of_size = {g for t in of_size for g in _add_leaf(t)}
        assert len(trees) == count
        for t in trees:
            tree, meta = _rooted_tree_graph(t)
            col = color_tree_complete(tree, meta, k, path_bound=0)
            pg = lex_product(tree, COMPLETE, k)
            exact = pg.view.n - pg.view.n % 2
            assert find_repetitive_path(pg.view, col.colors, exact) is None, t


def _add_leaf(t):
    """Every rooted tree made by adding a leaf to t, a rooted tree written as
    the sorted tuple of its children's subtrees."""
    yield tuple(sorted(t + ((),)))
    for i, child in enumerate(t):
        for grown in _add_leaf(child):
            yield tuple(sorted(t[:i] + (grown,) + t[i + 1 :]))


def _rooted_tree_graph(t):
    edges, level, stack = [], [0], [(0, t)]
    while stack:
        v, children = stack.pop()
        for child in children:
            w = len(level)
            edges.append((v, w))
            level.append(level[v] + 1)
            stack.append((w, child))
    return Graph.from_edges(len(level), edges), RootedTreeMeta(0, tuple(level))


class TestLayerSets:
    def test_theorem1_monochromatic_layers(self):
        k = 3
        pg = lex_product(build_path(8), EMPTY, k)
        col = color_path_empty(8, k)
        sets = layer_color_sets(pg, col.colors)
        for b in range(8):
            j = b + 1
            if j % 4 in (2, 0):
                assert len(sets[b]) == 1

    def test_rainbow_layers_have_size_k(self):
        k = 2
        pg = lex_product(build_path(9), COMPLETE, k)
        col = color_path_complete(9, k)
        sets = layer_color_sets(pg, col.colors)
        assert all(len(s) == k for s in sets)

    def test_k1_singletons(self):
        pg = lex_product(build_path(5), EMPTY, 1)
        col = color_path_empty(5, 1)
        sets = layer_color_sets(pg, col.colors)
        assert all(len(s) == 1 for s in sets)

    def test_size_mismatch(self):
        pg = lex_product(build_path(3), EMPTY, 2)
        with pytest.raises(ValueError):
            layer_color_sets(pg, (0, 1, 2))


class TestRich:
    def test_thresholds(self):
        assert is_rich(range(4), {1, 2, 3, 9}, 4)  # intersection 3, threshold 3
        assert not is_rich({0, 1, 2, 3}, {2, 3, 8, 9}, 4)
        assert is_rich({0, 1, 2, 3, 4}, {0, 1, 2, 3, 9}, 5)  # threshold 4
        assert not is_rich({0, 1, 2, 3, 4}, {0, 1, 2, 8, 9}, 5)


class TestLabeling:
    def test_seed_then_repeat(self):
        sets = ({0, 1}, {2, 3}, {4, 5}, {0, 1})
        assert label_layers(sets, 2) == ("A", "B", "C", "A")

    def test_all_overlapping_unlabeled(self):
        sets = [{0, i} for i in range(1, 6)]
        assert label_layers(sets, 2) == (None,) * 5

    def test_skips_first_set(self):
        sets = ({0, 2}, {0, 1}, {2, 3}, {4, 5})
        assert label_layers(sets, 2) == (None, "A", "B", "C")

    def test_unrelated_set_stays_unlabeled(self):
        sets = ({0, 1}, {2, 3}, {4, 5}, {6, 7})
        assert label_layers(sets, 2) == ("A", "B", "C", None)


class TestProposition1:
    def test_random_rich_chains(self):
        """If Y is X-rich and Z is Y-rich then X and Z share two colors."""
        rng = random.Random(20260809)
        checked = 0
        for _ in range(4000):
            k = rng.randint(2, 8)
            universe = list(range(3 * k + k // 2 - 1))
            threshold = (k + 1) // 2 + 1
            x = rng.sample(universe, k)
            # bias half the trials toward rich chains so the premise fires
            if rng.random() < 0.5:
                y = rng.sample(x, threshold) + rng.sample(
                    [c for c in universe if c not in x], k - threshold
                )
                z = rng.sample(y, threshold) + rng.sample(
                    [c for c in universe if c not in y], k - threshold
                )
            else:
                y = rng.sample(universe, k)
                z = rng.sample(universe, k)
            if is_rich(y, x, k) and is_rich(z, y, k):
                checked += 1
                assert len(set(x) & set(z)) >= 2
        assert checked > 1000


class TestC7Fractional:
    def test_listing(self):
        col = c7_fractional_example()
        assert (col.p, col.q) == (2, 7)
        # 1-based listing from the construction: v3 -> {1, 7}
        assert tuple(c + 1 for c in col.sets[2]) == (1, 7)
        one_based = [tuple(c + 1 for c in s) for s in col.sets]
        assert one_based == [
            (1, 2),
            (3, 4),
            (1, 7),
            (5, 6),
            (3, 4),
            (2, 6),
            (5, 7),
        ]


class TestColoringValidation:
    def test_color_outside_palette_rejected(self):
        with pytest.raises(ValueError, match="outside palette"):
            Coloring(3, (0, 3))


class TestTupleColoringValidation:
    @pytest.mark.parametrize(
        "p,q,sets,message",
        [
            (1.5, 7, (), "integers"),
            (2, "7", (), "integers"),
            (2, 7, ((0,),), "not a 2-subset"),
            (2, 7, ((1, 1),), "not a 2-subset"),
            (2, 7, ((3, 1),), "ascending"),
            (2, 7, ((0, 7),), "ascending"),
            (2, 7, ((-1, 0),), "ascending"),
        ],
        ids=["float-p", "str-q", "wrong-size", "repeated", "unsorted", "above", "below"],
    )
    def test_rejected(self, p, q, sets, message):
        with pytest.raises(ValueError, match=message):
            TupleColoring(p, q, sets)
