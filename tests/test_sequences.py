from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import naive_find_repetition, naive_palindrome_free
from thuelex import (
    Budget,
    GapProfile,
    NoSuchSequenceError,
    ResourceLimitError,
    SymbolSeq,
    classify_valley_pattern,
    enumerate_bounded_nonrep,
    find_repetition,
    find_valley,
    gap_profile,
    gen_nonrepetitive,
    is_palindrome_free,
    search_constrained,
)


def seq(text: str, sigma=None) -> SymbolSeq:
    return SymbolSeq.from_str(text, sigma)


short_words = st.lists(st.integers(0, 3), max_size=28).map(
    lambda xs: SymbolSeq(tuple(xs), 4)
)


class TestFindRepetition:
    def test_examples(self):
        assert find_repetition(seq("ABAB")) == (1, 2)
        assert find_repetition(seq("ABA")) is None
        assert find_repetition(seq("ABCBAA")) == (5, 1)

    def test_max_period(self):
        s = seq("ABCABC")
        assert find_repetition(s) == (1, 3)
        assert find_repetition(s, max_period=2) is None

    @pytest.mark.parametrize("max_period", [0, -3])
    def test_max_period_below_1_is_refused(self, max_period):
        # an empty range of periods would report ABAB square-free
        with pytest.raises(ValueError, match=f"max period must be at least 1, got {max_period}"):
            find_repetition(seq("ABAB"), max_period=max_period)

    @settings(max_examples=300)
    @given(short_words)
    def test_matches_naive(self, s):
        assert find_repetition(s) == naive_find_repetition(s.symbols)

    @settings(max_examples=200)
    @given(short_words, st.permutations(range(4)))
    def test_alphabet_permutation_invariant(self, s, perm):
        permuted = SymbolSeq(tuple(perm[x] for x in s.symbols), 4)
        assert find_repetition(s) == find_repetition(permuted)

    def test_wide_alphabet_fallback(self):
        # words are byte strings: every word function refuses sigma > 256 up front
        for make in (
            lambda: SymbolSeq((300, 301, 300, 301), 400),
            lambda: gen_nonrepetitive(257, 3, budget=Budget(1)),
            lambda: enumerate_bounded_nonrep(300, 2, 6, budget=Budget(1)),
        ):
            with pytest.raises(ValueError, match="between 1 and 256"):
                make()
        assert find_repetition(SymbolSeq((255, 0, 255, 0), 256)) == (1, 2)


class TestPalindromeFree:
    def test_examples(self):
        assert not is_palindrome_free(seq("ABA"))
        assert is_palindrome_free(seq("ABCA"))
        assert not is_palindrome_free(seq("ABACABA"))

    @settings(max_examples=200)
    @given(short_words)
    def test_matches_naive(self, s):
        assert is_palindrome_free(s) == naive_palindrome_free(s.symbols)


class TestGenerate:
    def test_least_ternary_length5(self):
        # oracle: enumerate all 3^5 words, least square-free one
        best = next(
            w
            for w in product(range(3), repeat=5)
            if naive_find_repetition(w) is None
        )
        assert best == (0, 1, 0, 2, 0)  # ABACA
        assert gen_nonrepetitive(3, 5).symbols == best

    def test_certified_midsize(self):
        s = gen_nonrepetitive(4, 400, True)
        assert find_repetition(s) is None
        assert is_palindrome_free(s)
        t = gen_nonrepetitive(3, 150)
        assert find_repetition(t) is None

    def test_infeasible_binary(self):
        with pytest.raises(NoSuchSequenceError):
            gen_nonrepetitive(2, 4)

    def test_negative_length_is_named(self):
        with pytest.raises(ValueError, match="word length must be nonnegative, got -1"):
            gen_nonrepetitive(3, -1)

    def test_infeasible_ternary_palindrome_free(self):
        # brute force: no ternary palindrome-free square-free word of length 6
        assert not any(
            naive_find_repetition(w) is None and naive_palindrome_free(w)
            for w in product(range(3), repeat=6)
        )
        assert gen_nonrepetitive(3, 5, True).symbols == (0, 1, 2, 0, 1)
        with pytest.raises(NoSuchSequenceError):
            gen_nonrepetitive(3, 6, True)

    def test_budget(self):
        with pytest.raises(ResourceLimitError):
            gen_nonrepetitive(3, 40, budget=Budget(5))

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            gen_nonrepetitive(0, 3)

    def test_empty_length(self):
        assert gen_nonrepetitive(3, 0).symbols == ()


class TestGapProfile:
    def test_examples(self):
        p = gap_profile(seq("ABCBA"))
        assert (p.peaks, p.gaps) == ((1, 3, 5), (1, 1))
        p = gap_profile(seq("ABCAB"))
        assert (p.peaks, p.gaps) == ((1, 5), (3,))
        p = gap_profile(seq("CBABCBA"))
        assert (p.peaks, p.gaps) == ((1, 3, 5, 7), (1, 1, 1))

    def test_length_two(self):
        assert gap_profile(seq("AA")).gaps == (0,)

    def test_too_short(self):
        p = gap_profile(seq("A"))
        assert (p.peaks, p.gaps) == ((1,), ())
        p = gap_profile(seq(""))
        assert (p.peaks, p.gaps) == ((), ())

    def test_gaps_sum(self):
        s = gen_nonrepetitive(3, 60)
        p = gap_profile(s)
        assert len(p.gaps) == len(p.peaks) - 1
        assert sum(p.gaps) + len(p.peaks) == 60


class TestValleys:
    def test_examples(self):
        assert find_valley(GapProfile((1, 3, 5, 7), (1, 1, 1))) == 0
        assert find_valley(GapProfile((1, 2, 4, 7, 11), (0, 1, 2, 3))) is None
        longest = (0, 1, 2, 3, 3, 2, 1, 0)
        peaks = [1]
        for g in longest:
            peaks.append(peaks[-1] + g + 1)
        assert find_valley(GapProfile(tuple(peaks), longest)) is None

    def test_pattern_examples(self):
        for text, want in (("CBABCBA", 1), ("ACBABCACBA", 2), ("BACBABCABACBA", 3)):
            s = seq(text, 3)
            v = find_valley(gap_profile(s))
            assert v is not None
            pat = classify_valley_pattern(s, v)
            assert pat.pattern == want
            assert pat.window == (1, len(text))
            assert pat.letter_map == (0, 1, 2)

    def test_pattern_under_permutation(self):
        # relabel CBABCBA by A->B, B->C, C->A
        perm = {0: 1, 1: 2, 2: 0}
        base = seq("CBABCBA", 3)
        s = SymbolSeq(tuple(perm[x] for x in base.symbols), 3)
        pat = classify_valley_pattern(s, 0)
        assert pat.pattern == 1
        assert pat.letter_map == (1, 2, 0)

    def test_pattern_rejects_bad_input(self):
        with pytest.raises(ValueError):
            classify_valley_pattern(seq("CBABCBA", 3), 5)
        assert classify_valley_pattern(SymbolSeq((0, 1, 0, 1), 3), 0) is None
        with pytest.raises(ValueError):
            classify_valley_pattern(SymbolSeq((0, 1, 2, 0), 4), 0)


class TestEnumerate:
    def test_negative_length_is_named(self):
        with pytest.raises(ValueError, match="between 0 and 24, got -2"):
            enumerate_bounded_nonrep(3, -2)

    @pytest.mark.parametrize("length", [1, 2, 4, 6, 8])
    def test_counts_match_brute(self, length):
        """The visitor sees exactly the brute-force words, in lexicographic
        order, for every alphabet and repetition bound."""
        for sigma in (2, 3, 4):
            for maxrep in (2, 4, 6):
                brute = [
                    bytes(w)
                    for w in product(range(sigma), repeat=length)
                    if naive_find_repetition(w, max_period=maxrep // 2) is None
                ]
                got = []
                n = enumerate_bounded_nonrep(sigma, length, maxrep, got.append)
                assert n == len(got)
                assert got == brute, (sigma, maxrep)

    def test_known_small_counts(self):
        assert enumerate_bounded_nonrep(3, 1, 6) == 3
        assert enumerate_bounded_nonrep(3, 2, 6) == 6
        assert enumerate_bounded_nonrep(3, 4, 6) == 18

    def test_visitor_sees_every_word(self):
        got = []
        n = enumerate_bounded_nonrep(3, 3, 6, got.append)
        assert len(got) == n == len(set(got))
        assert all(isinstance(w, bytes) and len(w) == 3 for w in got)

    def test_length_cap(self):
        with pytest.raises(ValueError):
            enumerate_bounded_nonrep(3, 25, 6)

    def test_budget(self):
        with pytest.raises(ResourceLimitError):
            enumerate_bounded_nonrep(3, 20, 6, budget=Budget(10))

    def test_gap_bounds_property(self):
        """Within a short-repetition-free word, gaps are 1..3 except that the
        first and last gap may be 0."""

        def visit(word):
            p = gap_profile(SymbolSeq(tuple(word), 3))
            for i, g in enumerate(p.gaps):
                assert g <= 3
                if g == 0:
                    assert i in (0, len(p.gaps) - 1)

        enumerate_bounded_nonrep(3, 14, 6, visit)

    def test_palindrome_center_property(self):
        """An interior peak with gaps g1 <= g2 around it centers a palindrome
        of length 2*g1 + 3."""

        def visit(word):
            p = gap_profile(SymbolSeq(tuple(word), 3))
            for i in range(1, len(p.peaks) - 1):
                g1 = min(p.gaps[i - 1], p.gaps[i])
                c = p.peaks[i] - 1  # 0-based center
                block = word[c - g1 - 1 : c + g1 + 2]
                assert len(block) == 2 * g1 + 3
                assert block == block[::-1]

        enumerate_bounded_nonrep(3, 12, 6, visit)


class TestNodeBudget:
    """Every candidate symbol costs one node, so these least budgets are exact."""

    @pytest.mark.parametrize(
        "search, least",
        [
            (lambda b: gen_nonrepetitive(3, 40, budget=Budget(b)), 82),
            (lambda b: gen_nonrepetitive(4, 100, True, budget=Budget(b)), 240),
            (lambda b: search_constrained(60, budget=Budget(b)), 206),
        ],
        ids=["ternary-40", "palindrome-free-100", "constrained-60"],
    )
    def test_least_budget(self, search, least):
        with pytest.raises(ResourceLimitError):
            search(least - 1)
        assert search(least) is not None

    def test_length_beyond_budget_is_refused_before_allocating(self):
        # a word of 10^12 letters would need a terabyte of buffers
        b = Budget(10)
        with pytest.raises(ResourceLimitError, match="letters"):
            gen_nonrepetitive(3, 10**12, budget=b)
        assert b.spent == 0

    def test_exhaustion_needs_full_budget(self):
        with pytest.raises(ResourceLimitError):
            gen_nonrepetitive(3, 6, True, budget=Budget(83))
        with pytest.raises(NoSuchSequenceError):
            gen_nonrepetitive(3, 6, True, budget=Budget(84))


class TestSearchConstrained:
    def test_least_small(self):
        banned = {(2, 3), (3, 2)}

        def ok(w):
            return (
                naive_find_repetition(w) is None
                and naive_palindrome_free(w)
                and not any((a, b) in banned for a, b in zip(w, w[1:]))
            )

        assert search_constrained(1).symbols == (0,)
        best3 = next(w for w in product(range(4), repeat=3) if ok(w))
        assert search_constrained(3).symbols == best3 == (0, 1, 2)

    def test_certified_length_40(self):
        s = search_constrained(40)
        assert s is not None
        assert find_repetition(s) is None
        assert is_palindrome_free(s)
        assert all((a, b) not in {(2, 3), (3, 2)} for a, b in zip(s.symbols, s.symbols[1:]))

    def test_budget(self):
        with pytest.raises(ResourceLimitError):
            search_constrained(60, budget=Budget(3))

    def test_invalid(self):
        with pytest.raises(ValueError):
            search_constrained(0)


class TestSymbolSeq:
    def test_roundtrip(self):
        s = seq("ABCD")
        assert s.to_str() == "ABCD"
        assert s.sigma == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            SymbolSeq((3,), 3)
        with pytest.raises(ValueError):
            SymbolSeq.from_str("A1")
