import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

import thuelex
from oracles import (
    check_tuple_witness,
    check_witness,
    naive_find_repetition,
    naive_least_repetitive_path,
    naive_repetitive_path_exists,
    naive_repetitive_walk_exists,
    naive_tuple_repetitive_path_exists,
)
from thuelex import (
    COMPLETE,
    EMPTY,
    Budget,
    Coloring,
    Graph,
    ResourceLimitError,
    RepetitionWitness,
    build_cycle,
    build_path,
    c7_fractional_example,
    check_path4_trichotomy,
    color_path_complete,
    color_path_empty,
    color_path_rainbow,
    find_repetitive_path,
    find_tuple_repetitive_path,
    gen_nonrepetitive,
    is_rainbow,
    is_walk_nonrepetitive,
    lex_product,
)


class TestFindRepetitivePath:
    def test_alternating_p4(self):
        g = build_path(4)
        w = find_repetitive_path(g, (0, 1, 0, 1), 4)
        assert w is not None
        assert w.path == (0, 1, 2, 3)
        assert w.half_colors == (0, 1)
        check_witness(g, (0, 1, 0, 1), w)

    def test_all_two_colorings_of_p4(self):
        g = build_path(4)
        for colors in product(range(2), repeat=4):
            w = find_repetitive_path(g, colors, 4)
            assert w is not None
            check_witness(g, colors, w)

    def test_construction_exact(self):
        pg = lex_product(build_path(6), EMPTY, 2)
        col = color_path_empty(6, 2)
        assert find_repetitive_path(pg.view, col.colors, 12) is None

    def test_adjacent_repeat(self):
        g = build_path(3)
        w = find_repetitive_path(g, (1, 1, 0), 2)
        assert w is not None and len(w.path) == 2

    def test_reversal_also_valid(self):
        g = build_path(4)
        colors = (0, 1, 0, 1)
        w = find_repetitive_path(g, colors, 4)
        rev = RepetitionWitness(
            tuple(reversed(w.path)), tuple(colors[v] for v in reversed(w.path))[:2]
        )
        check_witness(g, colors, rev)

    def test_bound_monotone(self):
        g = build_path(6)
        colors = (0, 1, 2, 0, 1, 2)  # repetition needs six vertices
        assert find_repetitive_path(g, colors, 4) is None
        for bound in (6,):
            assert find_repetitive_path(g, colors, bound) is not None

    def test_bad_bound(self):
        g = build_path(4)
        with pytest.raises(ValueError):
            find_repetitive_path(g, (0, 1, 2, 0), 5)
        with pytest.raises(ValueError):
            find_repetitive_path(g, (0, 1, 2, 0), 0)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            find_repetitive_path(build_path(3), (0, 1), 2)

    def test_matches_naive_on_random_colorings(self):
        rng = random.Random(7)
        graphs = [
            build_path(6),
            build_cycle(5),
            lex_product(build_path(3), EMPTY, 2).view,
            lex_product(build_path(3), COMPLETE, 2).view,
        ]
        for g in graphs:
            for _ in range(60):
                q = rng.randint(2, 5)
                colors = tuple(rng.randrange(q) for _ in range(g.n))
                fast = find_repetitive_path(g, colors, g.n - g.n % 2)
                assert (fast is not None) == naive_repetitive_path_exists(g, colors)
                if fast is not None:
                    check_witness(g, colors, fast)


def _relabelled(rng, n, cycle):
    """A path or cycle on n vertices whose vertex labels are shuffled."""
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[i], perm[i + 1]) for i in range(n - 1)]
    if cycle:
        edges.append((perm[-1], perm[0]))
    return Graph.from_edges(n, edges)


def _mostly_proper(rng, g, q, size):
    """Random color sets of 1 to size colors, each avoiding the colors of its
    earlier neighbours where it can, so that witnesses are longer than one
    edge."""
    sets = []
    for v in range(g.n):
        used = {c for u in g.adj[v] if u < v for c in sets[u]}
        free = sorted(set(range(q)) - used) or list(range(q))
        sets.append(tuple(rng.sample(free, min(rng.randint(1, size), len(free)))))
    return sets


def _as_found(w):
    return None if w is None else (w.path, w.half_colors)


class TestWitnessOrder:
    """The witness is the least repetitive path by length, then by vertex
    sequence, with the smaller endpoint first, for every bound."""

    def _graphs(self, rng):
        for _ in range(80):
            n = rng.randint(2, 7)
            p = rng.uniform(0.2, 0.7)
            edges = [
                (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
            ]
            yield Graph.from_edges(n, edges)
        for n in range(2, 16):
            yield _relabelled(rng, n, cycle=False)
            if n >= 3:
                yield _relabelled(rng, n, cycle=True)

    def test_plain_matches_oracle(self):
        rng = random.Random(17)
        for g in self._graphs(rng):
            sets = _mostly_proper(rng, g, rng.randint(2, 4), 1)
            colors = [c for (c,) in sets]
            for bound in range(2, g.n + 3, 2):
                got = find_repetitive_path(g, colors, bound)
                assert _as_found(got) == naive_least_repetitive_path(g, sets, bound)

    def test_twin_of_a_first_half_vertex(self):
        # P_10 plus a twin (10) of vertex 4: two repetitions of half-length 5
        # differ only there, and the one through 4 comes first
        g = Graph.from_edges(11, [(i, i + 1) for i in range(9)] + [(3, 10), (5, 10)])
        colors = (0, 1, 0, 2, 3) * 2 + (3,)
        for bound in range(2, 12, 2):
            got = find_repetitive_path(g, colors, bound)
            want = naive_least_repetitive_path(g, [(c,) for c in colors], bound)
            assert _as_found(got) == want
        assert find_repetitive_path(g, colors, 10).path == tuple(range(10))

    def test_tuple_matches_oracle(self):
        rng = random.Random(19)
        for g in self._graphs(rng):
            sets = _mostly_proper(rng, g, rng.randint(3, 6), 2)
            for bound in range(2, g.n + 3, 2):
                got = find_tuple_repetitive_path(g, sets, bound)
                assert _as_found(got) == naive_least_repetitive_path(g, sets, bound)


def _union(rng):
    """A relabelled disjoint union of paths, cycles and isolated vertices."""
    n, edges = 0, []
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(("path", "cycle", "isolated"))
        m = 1 if kind == "isolated" else rng.randint(3 if kind == "cycle" else 2, 12)
        edges += [(n + i, n + i + 1) for i in range(m - 1)]
        if kind == "cycle":
            edges.append((n + m - 1, n))
        n += m
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])


class TestWindowScan:
    """A graph of maximum degree at most 2 runs the window scan; its witness
    must be the oracle's at every even bound.  The oracle runs once per
    colouring, at |V|: its answer at a smaller bound is the same path if
    that path fits, else None."""

    @pytest.mark.parametrize("mode", ["plain", "tuple"])
    def test_unions_match_oracle(self, mode):
        rng = random.Random(23 if mode == "plain" else 29)
        for _ in range(150):
            g = _union(rng)
            if mode == "plain":
                sets = _mostly_proper(rng, g, rng.randint(2, 4), 1)
            else:
                sets = _mostly_proper(rng, g, rng.randint(3, 6), 2)
            least = naive_least_repetitive_path(g, sets, g.n)
            for bound in range(2, g.n + 3, 2):
                if mode == "plain":
                    got = find_repetitive_path(g, [c for (c,) in sets], bound)
                else:
                    got = find_tuple_repetitive_path(g, sets, bound)
                want = least if least and len(least[0]) <= bound else None
                assert _as_found(got) == want


def _star(leaves):
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


# K_{2,3}: the two vertices of one side are false twins, and so are the three
# of the other
_K23 = Graph.from_edges(5, [(a, b) for a in range(2) for b in range(2, 5)])

# (base, inner, k) with at most 14 vertices and few enough simple paths for
# the oracle.  The ends of P_3, the leaves of a star and the sides of K_{2,3}
# are twins, so their layers merge into one class.
_TWIN_PRODUCTS = [
    (build_path(3), EMPTY, 1),
    (_star(4), EMPTY, 1),
    (_K23, EMPTY, 1),
    (build_path(3), EMPTY, 2),
    (build_path(3), EMPTY, 3),
    (build_path(3), COMPLETE, 2),
    (build_path(3), COMPLETE, 3),
    (build_path(4), EMPTY, 2),
    (build_path(4), COMPLETE, 2),
    (build_path(5), EMPTY, 2),
    (build_path(5), COMPLETE, 2),
    (_star(3), EMPTY, 2),
    (_star(3), EMPTY, 3),
    (_star(3), COMPLETE, 2),
    (_star(4), EMPTY, 2),
    (_star(4), COMPLETE, 2),
    (_K23, EMPTY, 2),
    (build_cycle(4), EMPTY, 2),
    (build_cycle(4), COMPLETE, 2),
    (build_cycle(5), EMPTY, 2),
]


class TestTwinClasses:
    """Graphs with twins run the class search, then the vertex search on the
    least half-length it finds; the witness must be the oracle's at every
    even bound.  The oracle runs once per colouring, at |V|: its answer at a
    smaller bound is the same path if that path fits, else None."""

    MODES = ["plain", "rainbow", "tuple"]

    def _check(self, g, sets, mode):
        least = naive_least_repetitive_path(g, sets, g.n)
        for bound in range(2, g.n + 3, 2):
            if mode == "tuple":
                got = find_tuple_repetitive_path(g, sets, bound)
            else:
                got = find_repetitive_path(g, [c for (c,) in sets], bound)
            want = least if least and len(least[0]) <= bound else None
            assert _as_found(got) == want, (g, sets, bound)
        return 0 if least is None else len(least[0])

    @pytest.mark.parametrize("mode", MODES)
    def test_products_match_oracle(self, mode):
        """Colors avoid the colors of earlier neighbours where they can;
        rainbow ones also those of earlier vertices of the same layer, and
        tuple sets hold one or two colors."""
        rng = random.Random(23)
        for base, inner, k in _TWIN_PRODUCTS:
            g = lex_product(base, inner, k).view
            for _ in range(2):
                q = rng.randint(k + 1, 3 * k + 1)
                sets = []
                for v in range(g.n):
                    used = {c for u in g.adj[v] if u < v for c in sets[u]}
                    if mode == "rainbow":
                        used |= {c for u in range(v - v % k, v) for c in sets[u]}
                    free = sorted(set(range(q)) - used) or list(range(q))
                    size = rng.randint(1, 2) if mode == "tuple" else 1
                    sets.append(tuple(rng.sample(free, min(size, len(free)))))
                self._check(g, sets, mode)

    @pytest.mark.parametrize("mode", MODES)
    def test_long_witnesses_match_oracle(self, mode):
        """P_n[E_k] and P_n[K_k] whose layers have distinct letters but for a
        planted square of letters, of period 0 to n / 2.  Layer b gets the
        colors letter_b * k + j, shuffled.  Plain layers sometimes repeat a
        color, and tuple sets add the color (letter_b + n) * k + (j + 1) % k."""
        rng = random.Random(29)
        lengths = set()
        for n, inner, k in [(3, EMPTY, 3), (5, COMPLETE, 2), (6, EMPTY, 2), (7, EMPTY, 2)]:
            g = lex_product(build_path(n), inner, k).view
            for _ in range(4):
                letters = list(range(n))
                l = rng.randint(0, n // 2)
                s = rng.randrange(n - 2 * l + 1)
                letters[s + l : s + 2 * l] = letters[s : s + l]
                sets = []
                for b in range(n):
                    for j in rng.sample(range(k), k):
                        if mode == "plain" and rng.random() < 0.2:
                            j = rng.randrange(k)
                        c = letters[b] * k + j
                        shadow = (letters[b] + n) * k + (j + 1) % k
                        sets.append((c, shadow) if mode == "tuple" else (c,))
                lengths.add(self._check(g, sets, mode))
        assert {0, 6} <= lengths, lengths

    def test_label_clash(self):
        # P_7[E_2], layers colored {0,1} {2,3} {4,5} {2,6} {0,7} {2,8} {4,9}.
        # The class walk of layers 1 0 1 2 3 4 5 6 pairs every position with
        # a layer of a shared color, but both visits to layer 1 need its one
        # vertex of color 2: no path carries that repetition, nor any other
        g = lex_product(build_path(7), EMPTY, 2).view
        colors = (0, 1, 2, 3, 4, 5, 2, 6, 0, 7, 2, 8, 4, 9)
        for bound in range(2, 16, 2):
            assert find_repetitive_path(g, colors, bound) is None
        assert naive_least_repetitive_path(g, [(c,) for c in colors], 14) is None

    def test_lone_layers_with_one_label_set(self):
        # P_6[E_2], layers colored {0,1} {2,3} {4,5} {0,1} {2,3} {4,5}: each
        # layer is rainbow, so it cannot pair with itself, and the layer
        # three on holds the same colors.  The least witness 0 2 4 0 2 4
        # pairs each layer with that one.  The class search and then the
        # vertex search at l = 3 each open second halves once; a table that
        # let a rainbow layer pair with itself would open them after every
        # first half that steps back next to the layer it starts in.
        g = lex_product(build_path(6), EMPTY, 2).view
        colors = (0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5)
        assert self._check(g, [(c,) for c in colors], "plain") == 6
        for bound in range(2, 14, 2):
            budget = Budget()
            find_repetitive_path(g, colors, bound, budget=budget)
            assert budget.spent == (0 if bound < 6 else 2), bound

    def test_single_vertex_classes_beside_twins(self):
        # P_4 plus a false twin (4) of vertex 1, every color distinct: the
        # class search runs on 0, C = {1, 4}, 2 and 3.  Its classes of one
        # vertex cannot pair with themselves either, so no first half opens
        # second halves.  A table that let them would open them after the
        # first halves 0 C, 2 C, 2 3 and 3 2.
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (0, 4), (2, 4)])
        budget = Budget()
        assert find_repetitive_path(g, range(5), 4, budget=budget) is None
        assert budget.spent == 0

    def test_large_class_of_distinct_labels(self):
        # K_1,3 plus 40,000 isolated vertices, every color distinct: the
        # isolated vertices form one twin class of 40,000 labels.  Whether a
        # class can pair with itself costs a pass over the labels meeting
        # each of its labels, not a pass per pair of them, so this bound-4
        # check takes well under a second
        code = (
            "from thuelex import Graph, find_repetitive_path\n"
            "g = Graph.from_edges(40_004, [(0, 1), (0, 2), (0, 3)])\n"
            "print(find_repetitive_path(g, range(g.n), 4))\n"
        )
        env = dict(os.environ)
        src = str(Path(thuelex.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=30
        ).stdout
        assert out.strip() == "None"

    def test_round_schedule_witness(self):
        # copying layers 7..10 of P_16[K_2] onto 11..14 plants an 8-vertex
        # least witness, found in the bound-12 round of half-lengths 4..6.
        # The oracle runs at bound 8 only: the least witness has 8 vertices,
        # so it is also the least at bound 12.
        pg = lex_product(build_path(16), COMPLETE, 2)
        colors = list(color_path_complete(16, 2).colors)
        colors[22:30] = colors[14:22]
        got = find_repetitive_path(pg.view, colors, 12)
        want = naive_least_repetitive_path(pg.view, [(c,) for c in colors], 8)
        assert len(want[0]) == 8
        assert _as_found(got) == want

    @pytest.mark.parametrize("b", [13, 16, 17])
    def test_round_schedule_p30k3(self, b):
        # the same copy in P_30[K_3]: too dense for the oracle, so the
        # witness is re-checked and its length is shown to be least
        pg = lex_product(build_path(30), COMPLETE, 3)
        colors = list(color_path_complete(30, 3).colors)
        colors[(b + 4) * 3 : (b + 8) * 3] = colors[b * 3 : (b + 4) * 3]
        w = find_repetitive_path(pg.view, colors, 12)
        check_witness(pg.view, colors, w)
        assert len(w.path) == 8
        assert find_repetitive_path(pg.view, colors, 6) is None


class TestLongPaths:
    """Exact verification of long paths agrees with the word square search."""

    @pytest.mark.parametrize("n", [200, 301])
    def test_square_free_word_has_no_witness(self, n):
        word = gen_nonrepetitive(3, n).symbols
        assert find_repetitive_path(build_path(n), word, n - n % 2) is None

    @pytest.mark.parametrize("seed", range(4))
    def test_planted_square_least_period_then_start(self, seed):
        rng = random.Random(seed)
        n = 300
        word = list(gen_nonrepetitive(3, n).symbols)
        l = rng.randint(2, 40)
        s = rng.randrange(n - 2 * l + 1)
        word[s + l : s + 2 * l] = word[s : s + l]
        # the least period first, then the least start with that period
        period = next(
            p for p in range(1, n // 2 + 1) if naive_find_repetition(word, p)
        )
        start = naive_find_repetition(word, period)[0] - 1
        w = find_repetitive_path(build_path(n), word, n)
        assert w.path == tuple(range(start, start + 2 * period))
        assert w.half_colors == tuple(word[start : start + period])

    @pytest.mark.parametrize("seed", range(4))
    def test_planted_square_in_a_cycle(self, seed):
        """The paths of a cycle are the windows of its doubled word, read
        either way: the witness is the least vertex sequence among the
        square windows of the least period.  Around the cycle the word is
        u 3 u 3 v 4 for square-free u and v that start with different
        letters.  A square holds each letter an even number of times, so its
        only square is u 3 u 3; the rotation puts it across the edge
        (n - 1, 0)."""
        rng = random.Random(seed)
        n = 300 + seed % 2
        l = rng.randint(2, 40)
        u = gen_nonrepetitive(3, l - 1).symbols
        v = [(c + 1) % 3 for c in gen_nonrepetitive(3, n - 2 * l - 1).symbols]
        ring = [*u, 3, *u, 3, *v, 4]
        r = rng.randrange(1, 2 * l)
        word = ring[r:] + ring[:r]
        doubled = word + word

        def squares(p):
            return [t for t in range(n) if doubled[t : t + p] == doubled[t + p : t + 2 * p]]

        period = next(p for p in range(1, n // 2 + 1) if squares(p))
        windows = [tuple((t + i) % n for i in range(2 * period)) for t in squares(period)]
        want = min(min(w, w[::-1]) for w in windows)
        w = find_repetitive_path(build_cycle(n), word, n - n % 2)
        assert period == l
        assert w.path == want
        assert w.half_colors == tuple(word[x] for x in want[:period])

    def test_budget_charges_one_node_per_half_length(self):
        """One component, half-lengths 2..150: Budget(k) runs out on node
        k + 1, and 149 nodes decide."""
        g, word = build_path(300), gen_nonrepetitive(3, 300).symbols
        for k in (0, 1, 74, 148):
            b = Budget(k)
            with pytest.raises(ResourceLimitError):
                find_repetitive_path(g, word, 300, budget=b)
            assert b.spent == k + 1
        b = Budget(149)
        assert find_repetitive_path(g, word, 300, budget=b) is None
        assert b.spent == 149
        with pytest.raises(ResourceLimitError, match="time budget"):
            find_repetitive_path(g, word, 300, budget=Budget(time_budget=-1.0))


class TestRainbow:
    def test_rainbow_construction(self):
        pg = lex_product(build_path(10), EMPTY, 2)
        assert is_rainbow(pg, color_path_rainbow(10, 2).colors)

    def test_monochromatic_layers_rejected(self):
        pg = lex_product(build_path(10), EMPTY, 3)
        assert not is_rainbow(pg, color_path_empty(10, 3).colors)

    def test_k1_always_rainbow(self):
        pg = lex_product(build_path(5), EMPTY, 1)
        assert is_rainbow(pg, (0,) * 5)


class TestTuplePaths:
    def test_c7_listing_exact(self):
        g = build_cycle(7)
        col = c7_fractional_example()
        assert find_tuple_repetitive_path(g, col.sets, 6) is None

    def test_shared_adjacent_color(self):
        g = build_path(2)
        w = find_tuple_repetitive_path(g, ((0, 1), (1, 2)), 2)
        assert w is not None and w.half_colors == (1,)

    def test_p1_reduces_to_plain(self):
        rng = random.Random(11)
        g = build_cycle(5)
        for _ in range(40):
            colors = tuple(rng.randrange(3) for _ in range(5))
            plain = find_repetitive_path(g, colors, 4)
            singl = find_tuple_repetitive_path(g, tuple((c,) for c in colors), 4)
            assert (plain is None) == (singl is None)

    def test_intersection_criterion_matches_choice_expansion(self):
        rng = random.Random(13)
        for g in (build_cycle(5), build_cycle(7)):
            for _ in range(40):
                q = rng.randint(3, 6)
                sets = tuple(
                    tuple(sorted(rng.sample(range(q), 2))) for _ in range(g.n)
                )
                fast = find_tuple_repetitive_path(g, sets, g.n - g.n % 2)
                slow = naive_tuple_repetitive_path_exists(g, sets)
                assert (fast is not None) == slow
                if fast is not None:
                    check_tuple_witness(g, sets, fast)


class TestWalks:
    def test_p3_010_not_walk_nonrepetitive(self):
        g = build_path(3)
        assert find_repetitive_path(g, (0, 1, 0), 2) is None  # path-nonrepetitive
        assert not is_walk_nonrepetitive(g, (0, 1, 0), 4)

    def test_p3_012_walk_nonrepetitive(self):
        g = build_path(3)
        assert is_walk_nonrepetitive(g, (0, 1, 2), 8)

    def test_boring_walks_exempt(self):
        # K_2 with distinct colors: the only repetitive 4-walks are boring
        g = build_path(2)
        assert is_walk_nonrepetitive(g, (0, 1), 4)

    def test_budget(self):
        g = lex_product(build_path(6), COMPLETE, 2).view
        with pytest.raises(ResourceLimitError):
            is_walk_nonrepetitive(g, tuple(range(12)), 12, budget=Budget(100))

    def test_bad_bound(self):
        with pytest.raises(ValueError):
            is_walk_nonrepetitive(build_path(2), (0, 1), 3)

    @pytest.mark.parametrize("bound", [3, 1, 0, -2])
    def test_bad_bound_is_refused_before_charging(self, bound):
        b = Budget()
        with pytest.raises(ValueError, match="walk bound must be even and at least 2"):
            is_walk_nonrepetitive(build_path(4), (0, 1, 2, 0), bound, budget=b)
        assert b.spent == 0

    def test_matches_walk_enumeration(self):
        """Random graphs of at most 9 vertices, paths, cycles and P_n[E_k],
        P_n[K_k] with k <= 2, colored with 1-5 colors, at even bounds 2-8."""
        rng = random.Random(12)
        walk_nonrepetitive = 0
        for _ in range(3000):
            kind = rng.randrange(4)
            if kind == 0:
                n, p = rng.randint(1, 9), rng.choice((0.2, 0.3, 0.4))
                edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
                g = Graph.from_edges(n, edges)
            elif kind == 1:
                g = build_path(rng.randint(1, 9))
            elif kind == 2:
                g = build_cycle(rng.randint(3, 9))
            else:
                inner = rng.choice((EMPTY, COMPLETE))
                g = lex_product(build_path(rng.randint(1, 4)), inner, rng.randint(1, 2)).view
            q = rng.randint(1, 5)
            colors = [rng.randrange(q) for _ in range(g.n)]
            bound = rng.choice((2, 4, 6, 8))
            fast = is_walk_nonrepetitive(g, colors, bound)
            assert fast is not naive_repetitive_walk_exists(g, colors, bound), (g, colors, bound)
            walk_nonrepetitive += fast
        assert 300 < walk_nonrepetitive < 2700  # both answers are exercised

    def test_oversized_count_is_refused_at_once(self):
        # each length's charge is made as its walk count is, so the count
        # stops at the first length whose running total passes 10^8
        b = Budget()
        with pytest.raises(ResourceLimitError):
            is_walk_nonrepetitive(build_path(500), [v % 3 for v in range(500)], 4000, budget=b)
        assert b.spent == 108_159_924


class TestTrichotomy:
    def test_theorem1_coloring(self):
        pg = lex_product(build_path(8), EMPTY, 3)
        assert check_path4_trichotomy(pg, color_path_empty(8, 3).colors)

    def test_rainbow_coloring(self):
        pg = lex_product(build_path(8), EMPTY, 2)
        assert check_path4_trichotomy(pg, color_path_rainbow(8, 2).colors)

    def test_negative_control(self):
        pg = lex_product(build_path(4), EMPTY, 2)
        abab = (0, 0, 1, 1, 0, 0, 1, 1)  # layer sets {0},{1},{0},{1}
        assert not check_path4_trichotomy(pg, abab)
