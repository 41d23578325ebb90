"""Acceptance suite: one test per criterion, each printing a PASS line with
its elapsed time (visible under pytest -s or in the captured output).

Time budgets are asserted as stated; every solver call checks its status so a
silent timeout can never masquerade as a result.
"""

import random
import time
from contextlib import contextmanager

from oracles import check_witness, naive_repetitive_path_exists
from thuelex import (
    COMPLETE,
    EMPTY,
    SymbolSeq,
    build_cycle,
    build_path,
    build_rooted_tree,
    c7_fractional_example,
    classify_valley_pattern,
    color_path_complete,
    color_path_empty,
    color_path_rainbow,
    enumerate_bounded_nonrep,
    exists_coloring,
    exists_tuple_coloring,
    find_repetition,
    find_repetitive_path,
    find_tuple_repetitive_path,
    find_valley,
    gap_profile,
    gen_nonrepetitive,
    is_palindrome_free,
    is_rainbow,
    is_rich,
    is_walk_nonrepetitive,
    label_layers,
    layer_color_sets,
    lex_product,
    rainbow_exists_coloring,
    rainbow_thue_number,
    search_constrained,
    thue_number,
)


@contextmanager
def criterion(number, budget_s, description):
    start = time.monotonic()
    failed = True
    try:
        yield
        failed = False
    finally:
        elapsed = time.monotonic() - start
        verdict = "FAIL" if failed else "PASS"
        print(f"ACCEPTANCE {number}: {verdict} ({elapsed:.2f}s) - {description}")
    assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s budget"


def test_criterion_01_path_thue_numbers():
    with criterion(1, 6 * 1.0, "pi(P_n) = 3 for n = 5..10, exact, under 1 s each"):
        for n in range(5, 11):
            t = time.monotonic()
            r = thue_number(build_path(n))
            assert time.monotonic() - t < 1.0
            assert r.status == "exact" and r.value == 3
            assert not naive_repetitive_path_exists(build_path(n), r.witness.colors)


def test_criterion_02_c7_thue_number():
    with criterion(2, 10.0, "pi(C_7) = 4, exact, under 10 s"):
        r = thue_number(build_cycle(7))
        assert r.status == "exact" and r.value == 4


def test_criterion_03_c7_fractional():
    with criterion(
        3, 1.0 + 600.0, "C_7 (7,2)-coloring verifies exactly; (2,6) infeasible"
    ):
        g = build_cycle(7)
        col = c7_fractional_example()
        t = time.monotonic()
        assert find_tuple_repetitive_path(g, col.sets, 6) is None
        assert time.monotonic() - t < 1.0
        t = time.monotonic()
        r = exists_tuple_coloring(g, 2, 6)
        assert time.monotonic() - t < 600.0
        assert r.status == "exact" and r.value is False


def test_criterion_04_path_empty_construction():
    with criterion(
        4, 300.0, "path-empty palettes 2k+1 (6 for k=2); exact on P_6[E_2]; "
        "bounded 10 on P_40[E_3]"
    ):
        assert color_path_empty(10, 2).palette == 6
        for k in (3, 4, 5):
            assert color_path_empty(10, k).palette == 2 * k + 1
        pg = lex_product(build_path(6), EMPTY, 2)
        assert find_repetitive_path(pg.view, color_path_empty(6, 2).colors, 12) is None
        big = lex_product(build_path(40), EMPTY, 3)
        assert find_repetitive_path(big.view, color_path_empty(40, 3).colors, 10) is None


def test_criterion_05_p6e2_lower_bound():
    with criterion(5, 60.0, "pi(P_6[E_2]) >= 5: q=4 exactly infeasible, under 1 min"):
        pg = lex_product(build_path(6), EMPTY, 2)
        r = exists_coloring(pg.view, 4)
        assert r.status == "exact" and r.value is False


def test_criterion_06_path_rainbow_construction():
    with criterion(
        6, 300.0, "rainbow palettes ceil(7k/2) for k=2..5; rainbow exact; "
        "bounded 10 on P_24[E_2]"
    ):
        for k in (2, 3, 4, 5):
            col = color_path_rainbow(12, k)
            assert col.palette == (7 * k + 1) // 2
            assert is_rainbow(lex_product(build_path(12), EMPTY, k), col.colors)
        pg = lex_product(build_path(24), EMPTY, 2)
        col = color_path_rainbow(24, 2)
        assert is_rainbow(pg, col.colors)
        assert find_repetitive_path(pg.view, col.colors, 10) is None


def test_criterion_07_path_complete_and_richness():
    with criterion(
        7, 300.0, "complete palettes 4k; bounded 10 on P_30[K_3]; richness suite"
    ):
        for k in (1, 2, 3, 4, 5):
            assert color_path_complete(12, k).palette == 4 * k
        pg = lex_product(build_path(30), COMPLETE, 3)
        assert find_repetitive_path(pg.view, color_path_complete(30, 3).colors, 10) is None

        # substitute for the non-desk-verifiable 3k+floor(k/2) lower bound:
        # richness transitivity on 10^4 randomized set instances
        rng = random.Random(28)
        fired = 0
        for trial in range(10_000):
            k = rng.randint(2, 8)
            universe = list(range(3 * k + k // 2 - 1))
            threshold = (k + 1) // 2 + 1
            x = rng.sample(universe, k)
            if trial % 2 == 0:
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
                fired += 1
                assert len(set(x) & set(z)) >= 2
        assert fired >= 5000  # the biased half always fires

        # labeling consistency on a verifier-accepted solver coloring
        pk = lex_product(build_path(6), COMPLETE, 2)
        r = exists_coloring(pk.view, 7)
        assert r.status == "exact" and r.value is True
        assert find_repetitive_path(pk.view, r.witness.colors, 12) is None
        sets = layer_color_sets(pk, r.witness.colors)
        labels = label_layers(sets, 2)
        assert any(l is not None for l in labels)
        by_label = {}
        for i, l in enumerate(labels):
            if l is not None:
                by_label.setdefault(l, []).append(i)
        for positions in by_label.values():
            for a, b in zip(positions, positions[1:]):
                assert len(sets[a] & sets[b]) >= 2
            for a, b in zip(positions, positions[2:]):
                assert len(sets[a] & sets[b]) >= 2


def test_criterion_08_length22_sweep():
    with criterion(
        8, 60.0, "all ternary length-22 words avoiding repetitions <= 6 have a "
        "valley classifying as pattern 1/2/3"
    ):
        pattern_counts = {1: 0, 2: 0, 3: 0}

        def visit(word: bytes):
            seq = SymbolSeq(tuple(word), 3)
            valley = find_valley(gap_profile(seq))
            assert valley is not None, word
            pat = classify_valley_pattern(seq, valley)
            pattern_counts[pat.pattern] += 1

        count = enumerate_bounded_nonrep(3, 22, 6, visit)
        assert count == sum(pattern_counts.values())
        assert count < 4_200_000  # stays well inside the projected node bound
        assert all(v > 0 for v in pattern_counts.values())


def test_criterion_09_generators():
    with criterion(
        9, 90.0, "gen(4, 5000, palindrome-free) certified under 30 s; "
        "constrained search at 100 certified under 1 min"
    ):
        t = time.monotonic()
        s = gen_nonrepetitive(4, 5000, True)
        assert find_repetition(s) is None
        assert is_palindrome_free(s)
        assert time.monotonic() - t < 30.0
        t = time.monotonic()
        w = search_constrained(100)
        assert w is not None
        assert find_repetition(w) is None
        assert is_palindrome_free(w)
        assert all(
            (a, b) not in {(2, 3), (3, 2)} for a, b in zip(w.symbols, w.symbols[1:])
        )
        assert time.monotonic() - t < 60.0


def test_criterion_10_oracle_equivalence():
    with criterion(
        10, 300.0, "verifier agrees with the brute oracle on >= 2000 random cases"
    ):
        graphs = [build_path(n) for n in range(5, 10)]
        graphs += [build_cycle(5), build_cycle(7)]
        graphs += [build_rooted_tree(3, 0, 1)[0], build_rooted_tree(2, 1, 2)[0]]
        graphs += [
            lex_product(build_path(4), EMPTY, 2).view,
            lex_product(build_path(3), EMPTY, 3).view,
            lex_product(build_path(4), COMPLETE, 2).view,
            lex_product(build_path(2), COMPLETE, 3).view,
            lex_product(build_cycle(4), EMPTY, 2).view,
        ]
        assert all(g.n <= 9 for g in graphs)
        rng = random.Random(1906)
        cases = 0
        for g in graphs:
            bound = max(2, g.n - g.n % 2)
            for _ in range(200):
                q = rng.randint(2, 6)
                colors = tuple(rng.randrange(q) for _ in range(g.n))
                fast = find_repetitive_path(g, colors, bound)
                slow = naive_repetitive_path_exists(g, colors)
                assert (fast is not None) == slow
                if fast is not None:
                    check_witness(g, colors, fast)
                cases += 1
        assert cases >= 2000


def test_criterion_11_chain_inequality():
    with criterion(
        11, 600.0, "pi(P_4[E_2]) <= piR(P_4[E_2]) <= pi(P_4[K_2]), all exact"
    ):
        pe = lex_product(build_path(4), EMPTY, 2)
        pk = lex_product(build_path(4), COMPLETE, 2)
        a = thue_number(pe.view)
        b = rainbow_thue_number(pe)
        c = thue_number(pk.view)
        assert a.status == b.status == c.status == "exact"
        assert a.value <= b.value <= c.value


def test_criterion_12_walks():
    with criterion(
        12, 30.0, "P_3 colored 0,1,0 is nonrepetitive but not walk-nonrepetitive "
        "at bound 4; boring walks exempt"
    ):
        g = build_path(3)
        assert find_repetitive_path(g, (0, 1, 0), 2) is None
        assert not is_walk_nonrepetitive(g, (0, 1, 0), 4)
        # injective coloring: every repetitive walk is boring, hence exempt
        assert is_walk_nonrepetitive(g, (0, 1, 2), 8)


def test_lemma9_rainbow_lower_bound():
    """Lemma 9, pi_R(P_24[E_2]) >= 7: no rainbow nonrepetitive 6-coloring of
    P_24[E_2], decided exactly.  The paper says only "sufficiently long";
    22 is the least length: P_21[E_2] has a rainbow 6-coloring, which passes
    the exact check, and P_22[E_2] has none."""
    def rainbow6(n):
        pg = lex_product(build_path(n), EMPTY, 2)
        return pg, rainbow_exists_coloring(pg, 6)

    _, r = rainbow6(24)
    assert (r.status, r.value, r.nodes_explored) == ("exact", False, 320_861)
    pg, r = rainbow6(21)
    assert (r.status, r.value, r.nodes_explored) == ("exact", True, 109_373)
    assert is_rainbow(pg, r.witness.colors)
    assert find_repetitive_path(pg.view, r.witness.colors, 42) is None
    _, r = rainbow6(22)
    assert (r.status, r.value, r.nodes_explored) == ("exact", False, 270_184)
