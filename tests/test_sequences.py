import hashlib
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import naive_find_repetition, naive_palindrome_free
from thuelex import sequences
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
    valley_census,
)


def seq(text: str, sigma=None) -> SymbolSeq:
    return SymbolSeq.from_str(text, sigma)


CD = frozenset({(2, 3), (3, 2)})
# every alphabet with and without each extra constraint of the word engine
CONSTRAINTS = [
    (sigma, palindrome_free, banned)
    for sigma in (2, 3, 4)
    for palindrome_free in (False, True)
    for banned in (frozenset(), CD)
]


def naive_walk(sigma, length, max_period=None, palindrome_free=False, banned=frozenset()):
    """Backtrack over words of at most ``length`` letters in lexicographic
    order, trying every symbol at every position and checking each extended
    word against the definitions as a whole.  Yields ``(word, nodes)`` at
    every letter placed, ``nodes`` counting the symbols tried so far, and
    ``(None, nodes)`` once the search is exhausted."""
    word = []
    nodes = 0

    def allowed():
        return (
            naive_find_repetition(word, max_period) is None
            and (not palindrome_free or naive_palindrome_free(word))
            and tuple(word[-2:]) not in banned
        )

    def extend():
        nonlocal nodes
        if len(word) == length:
            return
        for x in range(sigma):
            nodes += 1
            word.append(x)
            if allowed():
                yield tuple(word), nodes
                yield from extend()
            word.pop()

    yield from extend()
    yield None, nodes


def engine_words(sigma, length, max_period=None, palindrome_free=False, banned=frozenset()):
    """Every word of the engine, as tuples, and the nodes it charged."""
    budget = Budget(float("inf"))
    words = sequences._square_free_words(
        sigma, length, max_period=max_period, palindrome_free=palindrome_free,
        banned_adjacent=banned, budget=budget,
    )
    return [tuple(w) for w in words], budget.spent


short_words = st.lists(st.integers(0, 3), max_size=28).map(
    lambda xs: SymbolSeq(tuple(xs), 4)
)


def xor_scan(symbols, max_period=None):
    """Least (start, period), 1-based, from one xor pass per period: the word
    against its shift by the period, where a square is a run of ``period``
    zero bytes.  Fast enough for words of a few thousand letters, and held
    to naive_find_repetition on short ones."""
    buf = bytes(symbols)
    n = len(buf)
    top = n // 2 if max_period is None else min(max_period, n // 2)
    best = None
    for l in range(1, top + 1):
        m = n - l
        z = (int.from_bytes(buf[:m], "big") ^ int.from_bytes(buf[l:], "big")).to_bytes(m, "big")
        i = z.find(bytes(l))
        if i >= 0 and (best is None or (i + 1, l) < best):
            best = (i + 1, l)
    return best


def long_period_words():
    """Words whose least squares fall on both sides of the block length, by
    kind: a square of each period 1-400 planted in square-free words over 3
    and 4 letters, one letter repeated, short periods repeated, square-free
    blocks repeated, and square-free words written twice, whole or in part."""
    rng = random.Random(18)
    bases = (gen_nonrepetitive(3, 900).symbols, gen_nonrepetitive(4, 900, True).symbols)
    planted = []
    for base in bases:
        for period in range(1, 401):
            start = rng.randrange(len(base) - 2 * period - 59)
            xs = list(base[start : start + 2 * period + 60])
            at = rng.randrange(61)
            xs[at + period : at + 2 * period] = xs[at : at + period]
            planted.append(xs)
    one_letter = [[0] * n for n in (0, 1, 2, 31, 32, 33, 34, 35, 100, 777)]
    periodic = [
        [bases[0][i % q] for i in range(n)]
        for q in (2, 3, 7, 15, 16, 17, 18, 40) for n in (2 * q - 1, 2 * q, 3 * q + 1, 500)
    ]
    block_repeats = []
    for _ in range(60):
        pieces = [bases[0][at : at + rng.randrange(5, 41)] for at in rng.sample(range(850), 4)]
        block_repeats.append([x for _ in range(rng.randrange(2, 30)) for x in rng.choice(pieces)])
    twice = []
    for _ in range(60):
        at, n = rng.randrange(400), rng.randrange(1, 450)
        w = list(bases[0][at : at + n])
        twice += [w + w, w + w[: rng.randrange(n)]]
    return {
        "planted": planted, "one-letter": one_letter, "periodic": periodic,
        "block-repeats": block_repeats, "twice": twice,
    }


LONG_PERIOD_WORDS = long_period_words()


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

    @settings(max_examples=300)
    @given(short_words)
    def test_matches_naive_with_a_short_block(self, s):
        # a block of 3 sends every period from 3 on through the segments
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sequences, "_BLOCK", 3)
            assert find_repetition(s) == naive_find_repetition(s.symbols)
            assert find_repetition(s, 3) == naive_find_repetition(s.symbols, 3)

    @settings(max_examples=300)
    @given(short_words, st.integers(1, 15))
    def test_xor_scan_matches_naive(self, s, max_period):
        assert xor_scan(s.symbols, max_period) == naive_find_repetition(s.symbols, max_period)
        assert xor_scan(s.symbols) == naive_find_repetition(s.symbols)

    @pytest.mark.parametrize("kind", list(LONG_PERIOD_WORDS))
    def test_long_periods_match_the_xor_scan(self, kind):
        k = sequences._BLOCK
        periods = set()
        for xs in LONG_PERIOD_WORDS[kind]:
            s = SymbolSeq(tuple(xs), 4)
            for max_period in (k - 1, k, k + 1, None):
                want = xor_scan(xs, max_period)
                assert find_repetition(s, max_period) == want, (len(xs), max_period)
            periods.add(want and want[1])
        # the least squares of the planted words have every period up to 400
        assert kind != "planted" or set(range(1, 401)) <= periods

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


def first_in_order(word):
    """True iff the letters of ``word`` first appear in the order 0, 1, 2, ..."""
    seen = 0
    for x in word:
        if x > seen:
            return False
        seen += x == seen
    return True


def census_per_word(sigma, length, max_rep_len):
    """valley_census's counts from every word of the sweep, one valley test
    per word."""
    with_valley = 0

    def visit(word):
        nonlocal with_valley
        if find_valley(gap_profile(SymbolSeq(tuple(word), sigma))) is not None:
            with_valley += 1

    return enumerate_bounded_nonrep(sigma, length, max_rep_len, visit), with_valley


class TestValleyCensus:
    K = sequences._BLOCK

    @pytest.mark.parametrize("sigma", [1, 2, 3, 4])
    def test_matches_every_word(self, sigma):
        for length in range(11):
            for maxrep in (2, 4, 6):
                assert valley_census(sigma, length, maxrep) == census_per_word(
                    sigma, length, maxrep
                ), (length, maxrep)

    def test_valley_scan_matches_the_gap_profile(self):
        # every ternary word up to 9 letters: with equal neighbours, without
        # an interior peak, and with a valley only through the last gap
        seen = set()
        for length in range(10):
            for w in product(range(3), repeat=length):
                profile = gap_profile(SymbolSeq(w, 3))
                want = find_valley(profile)
                assert sequences._has_valley(bytes(w)) == (want is not None), w
                seen.add((len(profile.peaks) > 2, want == len(profile.gaps) - 3))
        assert seen == {(False, False), (True, False), (True, True)}

    @pytest.mark.parametrize("length, maxrep", [(20, 32), (22, 32), (24, 40)])
    def test_matches_every_word_with_the_block_index_on(self, length, maxrep):
        # the index is kept, though no square of period 16 fits in 24
        # letters; the short block below makes it refuse squares
        assert maxrep // 2 >= self.K
        assert valley_census(3, length, maxrep) == census_per_word(3, length, maxrep)

    @pytest.mark.parametrize("maxrep", [6, 8, 24])
    def test_matches_every_word_around_a_short_block(self, monkeypatch, maxrep):
        # a block of 3 lets the tail index refuse squares of words this short
        monkeypatch.setattr(sequences, "_BLOCK", 3)
        for sigma in (3, 4):
            assert valley_census(sigma, 10, maxrep) == census_per_word(sigma, 10, maxrep)

    @staticmethod
    def letter_order_matches(sigma, length, palindrome_free, banned, max_period):
        """The engine with letters_in_order yields the words of the full
        engine whose letters first appear in order, in the same order."""
        full = engine_words(sigma, length, max_period, palindrome_free, banned)[0]
        restricted = [
            tuple(w)
            for w in sequences._square_free_words(
                sigma, length, max_period=max_period, palindrome_free=palindrome_free,
                banned_adjacent=banned, letters_in_order=True, budget=Budget(float("inf")),
            )
        ]
        return restricted == [w for w in full if first_in_order(w)]

    @pytest.mark.parametrize("sigma, palindrome_free, banned", CONSTRAINTS)
    def test_engine_in_letter_order_around_two_short_blocks(
        self, monkeypatch, sigma, palindrome_free, banned
    ):
        # the restriction filters the walk whatever the constraints, so
        # banned pairs, which break the renaming symmetry, are checked too
        block = 3
        monkeypatch.setattr(sequences, "_BLOCK", block)
        for max_period in (block - 1, block, block + 1, None):
            assert self.letter_order_matches(
                sigma, 2 * block + 2, palindrome_free, banned, max_period
            ), max_period

    @pytest.mark.parametrize("max_period", [K - 1, K, None])
    def test_engine_in_letter_order_around_two_blocks(self, max_period):
        # the 34-letter words of TestEngineDifferential, squares of period 16
        # refused through the index
        assert self.letter_order_matches(4, 2 * self.K + 2, True, CD, max_period)

    @pytest.mark.parametrize(
        "args, match",
        [
            ((0, 3, 6), None),
            ((300, 3, 6), None),
            ((3, -2, 6), None),
            ((3, 25, 6), None),
            ((3, 5, 1), "max repetition length must be at least 2, got 1"),
        ],
        ids=["sigma-0", "sigma-300", "length-negative", "length-25", "maxrep-1"],
    )
    def test_validation_matches_the_sweep(self, args, match):
        with pytest.raises(ValueError, match=match) as want:
            enumerate_bounded_nonrep(*args)
        with pytest.raises(ValueError) as got:
            valley_census(*args)
        assert str(got.value) == str(want.value)

    def test_budget_matches_the_sweep(self):
        with pytest.raises(ResourceLimitError) as want:
            enumerate_bounded_nonrep(3, 20, 6, budget=Budget(10))
        with pytest.raises(ResourceLimitError) as got:
            valley_census(3, 20, 6, budget=Budget(10))
        assert str(got.value) == str(want.value)
        swept, census = Budget(), Budget()
        enumerate_bounded_nonrep(3, 12, 6, budget=swept)
        valley_census(3, 12, 6, budget=census)
        assert census.spent == swept.spent == 3 * 2**11


class TestWordLemma:
    """Every ternary word of 22 letters without repetitions of length <= 6
    has a valley, and 22 is the least such length.  A valley of a prefix
    stays one in the whole word (only its last gap can grow), so every
    longer length follows."""

    def test_22_is_the_least_length(self):
        assert valley_census(3, 22, 6) == (18906, 18906)
        assert valley_census(3, 21, 6) == census_per_word(3, 21, 6) == (12900, 12894)
        for length in range(21):
            count, with_valley = valley_census(3, length, 6)
            assert with_valley < count, length


class TestNodeBudget:
    """Every candidate symbol costs one node, so these least budgets are exact."""

    @pytest.mark.parametrize(
        "search, least, sha256",
        [
            (
                lambda b: gen_nonrepetitive(3, 40, budget=Budget(b)),
                82,
                "d31d4718f4fe235b966255b2aa0335e99b24aee523eea82774915dc1f37e3274",
            ),
            (
                lambda b: gen_nonrepetitive(4, 100, True, budget=Budget(b)),
                240,
                "86a44f329ec524ad8c594b0b7d45ef39b20c12ca0f49171b92157e1b0c361598",
            ),
            (
                lambda b: search_constrained(60, budget=Budget(b)),
                206,
                "2592ca751ac52035260f7dbf4523da6cf805afbe9d2c876365d827db655afb5f",
            ),
            # long enough that most squares are refused through the block
            # index; pinned from the occurrence-list scan alone
            (
                lambda b: gen_nonrepetitive(3, 10000, budget=Budget(b)),
                22001,
                "e46e72439e3fee1c07f609e6b084dd2be374ba5a9c8cc879a72413983fe64557",
            ),
            (
                lambda b: gen_nonrepetitive(4, 10000, True, budget=Budget(b)),
                23523,
                "a687629c67dbdf6370ac7f0c2eb1a9bbad07b31c4ffdbe59b5c6f57062a45adb",
            ),
            (
                lambda b: search_constrained(2000, budget=Budget(b)),
                8629,
                "73b7f8715735c8c3d589d638e08c1547a8013e43c853de82bd0bc22db0a449d9",
            ),
            # wide alphabets: the least words use 14 letters, and each tail
            # follows several of them, so many segments wait at once
            (
                lambda b: gen_nonrepetitive(26, 10000, budget=Budget(b)),
                19995,
                "070ab5b4251243c11edc4f4073daf232276f40cdaf65579c8eaa00daad3e4120",
            ),
            (
                lambda b: gen_nonrepetitive(256, 10000, budget=Budget(b)),
                19995,
                "070ab5b4251243c11edc4f4073daf232276f40cdaf65579c8eaa00daad3e4120",
            ),
            (
                lambda b: gen_nonrepetitive(256, 10000, True, budget=Budget(b)),
                23327,
                "9592ab276f7867222f5de0b468f38c8190fb3a9cc4c48222e8e9a0b1d97199bc",
            ),
        ],
        ids=[
            "ternary-40", "palindrome-free-100", "constrained-60",
            "ternary-10000", "palindrome-free-10000", "constrained-2000",
            "sigma-26-10000", "sigma-256-10000", "sigma-256-palindrome-free-10000",
        ],
    )
    def test_least_budget(self, search, least, sha256):
        with pytest.raises(ResourceLimitError):
            search(least - 1)
        word = search(least)
        assert hashlib.sha256(bytes(word.symbols)).hexdigest() == sha256

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


class TestEngineDifferential:
    """The word engine against a naive backtracker on the definitions: the
    same words in the same order, for the same nodes."""

    K = sequences._BLOCK

    @pytest.mark.parametrize("sigma, palindrome_free, banned", CONSTRAINTS)
    def test_first_word_and_nodes_up_to_three_blocks(
        self, monkeypatch, sigma, palindrome_free, banned
    ):
        # the first word of each length is where the walk first reaches that
        # depth; exhausted lengths cost the whole finite tree.  A block of 3
        # leaves segments of periods up to 24 waiting up to 21 letters.
        top = 3 * self.K
        want = {}
        exhausted = None
        for word, nodes in naive_walk(sigma, top, None, palindrome_free, banned):
            if word is None:
                exhausted = nodes
                break
            want.setdefault(len(word), (word, nodes))
            if len(word) == top:
                break
        for block in (self.K, 3):
            monkeypatch.setattr(sequences, "_BLOCK", block)
            for length in range(1, top + 1):
                budget = Budget(float("inf"))
                words = sequences._square_free_words(
                    sigma, length, palindrome_free=palindrome_free, banned_adjacent=banned,
                    budget=budget,
                )
                first = next(words, None)
                got = (None if first is None else tuple(first), budget.spent)
                assert got == want.get(length, (None, exhausted)), (block, length)

    @pytest.mark.parametrize("sigma, palindrome_free, banned", CONSTRAINTS)
    def test_every_word_around_two_short_blocks(self, monkeypatch, sigma, palindrome_free, banned):
        # a block of 3 puts the index boundary where naive checks are cheap;
        # max_period 1 and 2 refuse through contexts of 2 and 3 letters, so
        # a context long enough for the squares but not for the palindrome
        # letter is caught
        block = 3
        monkeypatch.setattr(sequences, "_BLOCK", block)
        length = 2 * block + 2
        for max_period in (1, block - 1, block, block + 1, None):
            walk = list(naive_walk(sigma, length, max_period, palindrome_free, banned))
            want = [w for w, _ in walk if w is not None and len(w) == length]
            assert engine_words(sigma, length, max_period, palindrome_free, banned) == (
                want, walk[-1][1]
            ), max_period

    def test_squares_at_a_short_block_boundary_occur(self, monkeypatch):
        # the lists above hold squares of period block - 1, block and block + 1:
        # raising max_period to each removes words
        block = 3
        monkeypatch.setattr(sequences, "_BLOCK", block)
        counts = [
            len(engine_words(4, 2 * block + 2, p, False, CD)[0])
            for p in range(block - 2, block + 2)
        ]
        assert counts == sorted(set(counts), reverse=True)

    @pytest.mark.parametrize("max_period", [K - 1, K, K + 1, None])
    def test_every_word_around_two_blocks_matches_the_scan(self, monkeypatch, max_period):
        # 6 648 words of 34 letters, 96 of them with a square of period 16:
        # the index gives the words and nodes of the occurrence-list scan alone
        got = engine_words(4, 2 * self.K + 2, max_period, True, CD)
        monkeypatch.setattr(sequences, "_BLOCK", 2 * self.K + 3)
        assert got == engine_words(4, 2 * self.K + 2, max_period, True, CD)

    @pytest.mark.parametrize(
        "sigma, palindrome_free, text",
        [
            (3, False, "010201210120212010201210120212"),
            (3, False, "01020121020102120102012102010212"),
            (4, True, "0120130120310210312012301203102103120123"),
        ],
        ids=["period-15", "period-16", "period-17"],
    )
    def test_squares_at_the_block_boundary_are_refused(self, sigma, palindrome_free, text):
        # each word's shortest squares have a period p next to the block:
        # the engine yields it below max_period p and refuses it at p
        word = tuple(int(c) for c in text)
        p = naive_find_repetition(word)[1]
        assert abs(p - self.K) <= 1 and naive_find_repetition(word, p - 1) is None

        def yields_word(max_period):
            for w in sequences._square_free_words(
                sigma, len(word), max_period=max_period, palindrome_free=palindrome_free,
                budget=Budget(float("inf")),
            ):
                if tuple(w) >= word:
                    return tuple(w) == word
            return False

        assert yields_word(p - 1) and not yields_word(p)


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
