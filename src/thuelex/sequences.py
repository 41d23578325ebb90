"""Nonrepetitive sequence generation and analysis.

A repetition is a contiguous block x_1..x_2l whose second half equals its
first half position-wise; a palindrome is an odd contiguous block of length
>= 3 symmetric about its center.  For contiguous blocks, palindrome-freeness
reduces to "no position has equal neighbors at distance 2": any odd palindrome
of length 2l+1 >= 3 contains the length-3 palindrome around its center, and a
length-3 palindrome is exactly an equal-neighbor position.

Peaks and gaps: the first and last letters are peaks, an interior letter is a
peak iff its two neighbors carry equal symbols, and a gap is the number of
letters strictly between consecutive peaks.

One backtracking engine yields the square-free words of a given length in
lexicographic order (symbol order 0 < 1 < 2 < ...), optionally with bounded
period, palindrome-freeness or banned adjacent pairs.  The generators take its
first word, the lexicographically least witness, and raise NoSuchSequenceError
when there is none; the bounded sweep takes all of them, and the valley
census one per renaming of the letters, so every result is deterministic.
Words are byte strings, so an alphabet has 1 to 256 symbols.  Search budgets
default to 10^8 expansions.

Squares of a period l >= _BLOCK (16) are found through repeated segments:
the maximal runs of positions i with buf[i] == buf[i-l].  A square of period
l is a run of l such positions, so it lies in one segment.  A segment of at
least _BLOCK - 1 positions starts with a (_BLOCK-1)-letter tail that also
occurs l letters earlier, and the letters before the two copies differ (or
the earlier copy starts the word), since otherwise the segment would reach
one position further left.  So each such segment is named exactly once,
where its first _BLOCK - 1 positions end, p: the tail at p is
buf[p-_BLOCK+2 .. p], and the letter before it is buf[p-_BLOCK+1], or -1
when the tail starts the word.  An index maps each tail to {letter before:
latest end}, and earlier[j] links an end j to the previous end of the same
tail and letter, or is -1; each earlier end j of the tail at p with another
letter before it names the segment of period p - j.  The ends are read
newest first, so a chain stops at the least end still of use.  The word
engine checks a segment once, where it could first close a square: it waits
in the list of periods due at that position.  find_repetition checks at
once whether it is at least l positions long.  Shorter periods are found
through the letters before each position in the engine, which decide them,
and through one xor pass each in find_repetition.
"""

from __future__ import annotations

from math import perm

from .errors import Budget, FrozenValue, NoSuchSequenceError, ResourceLimitError

_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
# Least period found through repeated segments, whose tails have _BLOCK - 1
# letters (see the module docstring)
_BLOCK = 16
# C next to D, in either order, which no search_constrained word has
CD_PAIRS = frozenset({(2, 3), (3, 2)})


def _check_alphabet(sigma: int):
    """Words are byte strings, so an alphabet has 1 to 256 symbols."""
    if not 1 <= sigma <= 256:
        raise ValueError(f"alphabet size must be between 1 and 256, got {sigma}")


class SymbolSeq(FrozenValue):
    """Finite sequence over the alphabet {0, .., sigma-1}, 1 <= sigma <= 256."""

    symbols: tuple[int, ...]
    sigma: int

    def __init__(self, symbols, sigma):
        _check_alphabet(sigma)
        for x in symbols:
            if not 0 <= x < sigma:
                raise ValueError(f"symbol {x} outside alphabet of size {sigma}")
        super().__init__(symbols, sigma)

    def __len__(self) -> int:
        return len(self.symbols)

    @classmethod
    def from_str(cls, text: str, sigma: int | None = None) -> "SymbolSeq":
        """Parse a word over A, B, C, ...; sigma defaults to the largest
        letter used (at least 1)."""
        symbols = []
        for ch in text:
            i = _LETTERS.find(ch.upper())
            if i < 0:
                raise ValueError(f"not a letter symbol: {ch!r}")
            symbols.append(i)
        if sigma is None:
            sigma = max(symbols, default=0) + 1
        return cls(tuple(symbols), sigma)

    def to_str(self) -> str:
        if self.sigma > len(_LETTERS):
            raise ValueError("alphabet too large for letter form")
        return "".join(_LETTERS[x] for x in self.symbols)


def seq_to_json_dict(seq: SymbolSeq) -> dict:
    return {"sigma": seq.sigma, "symbols": list(seq.symbols)}


def seq_from_json_dict(d: dict) -> SymbolSeq:
    if not isinstance(d, dict) or "sigma" not in d or "symbols" not in d:
        raise ValueError("sequence JSON needs 'sigma' and 'symbols'")
    symbols = d["symbols"]
    if type(d["sigma"]) is not int:
        raise ValueError("'sigma' must be an integer")
    if not isinstance(symbols, list) or not all(type(x) is int for x in symbols):
        raise ValueError("'symbols' must be a list of integers")
    return SymbolSeq(tuple(symbols), d["sigma"])


class GapProfile(FrozenValue):
    """Peak positions (1-based, ascending) and the gaps between them."""

    peaks: tuple[int, ...]
    gaps: tuple[int, ...]


class ValleyPattern(FrozenValue):
    """Result of matching a valley against the three canonical shapes.

    ``pattern`` is 1, 2 or 3 (the middle gap), ``window`` is the matched
    1-based [start, end] span, and ``letter_map`` sends the canonical letters
    0, 1, 2 (A, B, C) to the symbols actually used in the window.
    """

    pattern: int
    window: tuple[int, int]
    letter_map: tuple[int, int, int]


def _least_square_start(buf: bytes, period: int) -> int | None:
    """Least 0-based start of a square with this period (at most half the
    length), via one xor pass.

    Aligns the sequence with its shift by ``period``; a square is exactly a
    run of ``period`` equal positions, i.e. a run of zero bytes in the xor.
    """
    m = len(buf) - period
    a = int.from_bytes(buf[:m], "big")
    b = int.from_bytes(buf[period:], "big")
    z = (a ^ b).to_bytes(m, "big")
    i = z.find(b"\x00" * period)
    return i if i >= 0 else None


def find_repetition(
    seq: SymbolSeq, max_period: int | None = None
) -> tuple[int, int] | None:
    """Least (start, period), 1-based start, of a contiguous repetition.

    "Least" orders by start first, then period.  Returns None if the sequence
    contains no repetition of period <= max_period (default: half the
    length; ValueError if it is below 1).

    Periods below _BLOCK take one xor pass each.  A square of a longer period
    l lies in a segment (see the module docstring), and if the segment has
    at least l positions from its left end s on, the square at s - l
    (0-based) is the least of period l in it.  Each segment of at least
    _BLOCK - 1 positions is named at p = s + _BLOCK - 2, and one
    compare of positions p+1 .. s+l-1 with those l back tells whether it
    reaches l positions.  The answer is the least (start, l) over the xor
    passes and those segments.  Tails that can only open squares starting
    after the best one found so far are not kept, and the scan stops when
    no segment named later can start earlier.
    """
    n = len(seq.symbols)
    if max_period is None:
        max_period = n // 2
    elif max_period < 1:
        raise ValueError(f"max period must be at least 1, got {max_period}")
    buf = bytes(seq.symbols)
    top = min(max_period, n // 2)
    block = _BLOCK
    best = None
    for l in range(1, min(top, block - 1) + 1):
        s = _least_square_start(buf, l)
        if s is not None and (best is None or (s + 1, l) < best):
            best = (s + 1, l)
    if top < block:
        return best
    view = memoryview(buf)
    index: dict = {}
    earlier = [-1] * n
    for p in range(block - 2, n - 1):
        # a segment named at p starts at s and can hold periods l up to n - s
        s = p - block + 2
        lo = max(p - min(top, n - s), block - 2)
        # a tail ending at j opens squares that start at j - block + 2
        if best is not None and lo - block + 3 > best[0]:
            break  # every later square starts after the best one
        tail = buf[s : p + 1]
        before = buf[s - 1] if s else -1
        ends = index.get(tail)
        if ends is not None:
            for c, j in ends.items():
                if c != before:
                    while j >= lo:
                        l = p - j
                        if l >= block and (best is None or (s - l + 1, l) < best):
                            if view[p + 1 : s + l] == view[p + 1 - l : s]:
                                best = (s - l + 1, l)
                        j = earlier[j]
        if p <= n - block - 2 and (best is None or p - block + 3 <= best[0]):
            if ends is None:
                ends = index[tail] = {}
            earlier[p] = ends.get(before, -1)
            ends[before] = p
    return best


def is_palindrome_free(seq: SymbolSeq) -> bool:
    """True iff no contiguous odd block of length >= 3 is a palindrome,
    i.e. no position has equal neighbors at distance 2."""
    xs = seq.symbols
    return all(xs[i] != xs[i + 2] for i in range(len(xs) - 2))


def _square_free_words(
    sigma: int,
    length: int,
    *,
    max_period: int | None = None,
    palindrome_free: bool = False,
    banned_adjacent: frozenset[tuple[int, int]] = frozenset(),
    letters_in_order: bool = False,
    budget: Budget,
):
    """Yield every word with no square of period <= max_period (default: any
    period) under the extra constraints, in lexicographic order.

    With ``letters_in_order`` only the words whose letters first appear in
    the order 0, 1, 2, ... are yielded, in the same order: position p tries
    the letters up to the number of distinct letters in buf[:p], kept per
    position in ``used``.  Every prefix of such a word is one, so the
    pruned branches hold no other.

    Each word is the live buffer: copy it before resuming the generator.
    Every candidate symbol is charged as one node to ``budget``, so a word
    of ``length`` letters costs at least ``length`` nodes: a budget with
    fewer left is refused before the buffers are allocated.

    Incremental check: after placing position p, only squares ending at p can
    be new; the halves of a square of period l are buf[p-2l+1 .. p-l] and
    buf[p-l+1 .. p].
    - The letters refused at p through periods l < _BLOCK, the previous
      letter, the letters banned after it and, with ``palindrome_free``, the
      letter two back are fixed by the context of p, its last
      c = min(p, ctx_len) letters, ctx_len = max(2 short_l - 1, 2): a square
      of period 2 <= l <= min(short_l, (p+1)//2) ending at p needs
      buf[p] == buf[p-l] and halves buf[p-2l+1 .. p-l-1] == buf[p-l+1 .. p-1]
      (last letters, first letters, then a memcmp), all in the context, and
      the bound on l depends on p only while p < ctx_len.  So two positions
      with one ctx_len-letter context refuse the same letters, kept in
      ``memo`` under its bytes once per factor met (450 for the least
      ternary word of 10 000 letters); shorter contexts are whole prefixes,
      met at one position, and not stored.  Re-entries read ``refusing``.
    - Periods l >= _BLOCK: such a square fills the segment of positions i
      with buf[i] == buf[i-l] from s = p-l+1 to p, and the segment starts at
      s exactly: had it started earlier, buf[p-2l .. p-1] would be a square
      of the prefix, which is square-free.  So the placement of s+_BLOCK-2,
      before p, named the segment (see the module docstring), and only then:
      the segment could close a square at due = s+l-1 = p, and only with the
      letter buf[p-l].  Its period l waits in the list of periods due at
      that position, and only a candidate equal to buf[p-l] pays one memcmp
      of buf[s+_BLOCK-1 .. p-1] with the letters l back, which tells whether
      it is refused.  Undo pops the index entry and the periods that the
      placement pushed, which top their lists.  The index is kept only when
      max_period >= _BLOCK, and only for tails some square of the word can
      start with.
    Every candidate is accepted or refused as by a scan of every period, so
    the words, their order and the nodes charged do not depend on _BLOCK.
    A position costs a lookup of its context (a new one about short_l letter
    compares), and a candidate one ``in`` test and a memcmp per due segment
    whose letter it is.
    """
    if length == 0:
        yield bytearray()
        return
    if budget.spent + length > budget.max_nodes:
        raise ResourceLimitError(
            f"a word of {length} letters needs more nodes than the budget has left"
        )
    max_l = length if max_period is None else max_period
    block = _BLOCK
    buf = bytearray(length)
    view = memoryview(buf)
    start_from = [0] * length
    used = [0] * length  # distinct letters in buf[:p], with letters_in_order
    short_l = min(max_l, block - 1)  # periods refused through the context
    ctx_len = max(2 * short_l - 1, 2)  # the letters that decide those refusals
    memo: dict = {}  # the short refusals after each ctx_len-letter context
    refusing: list = [()] * length  # the short refusals at each position
    # refused after each letter: itself and the letters banned after it
    after = [(a,) + tuple(y for y in range(sigma) if (a, y) in banned_adjacent)
             for a in range(sigma)]
    # long periods: the tail index, the entry each placement joined, the
    # periods due at each position, and the due positions in push order
    indexed = max_l >= block
    keep_to = length - block - 2  # the last tail that can open a square
    index: dict = {}
    earlier = [-1] * length
    joined: list = [None] * length
    pending: list[list[int]] = [[] for _ in range(length)]
    dues: list[int] = []
    pos = 0
    charge = budget.charge
    while True:
        placed = False
        if not start_from[pos]:  # the first entry; re-entries keep buf[:pos]
            key = view[pos - ctx_len : pos].tobytes() if pos >= ctx_len else None
            refused = memo.get(key)
            if refused is None:
                refused = after[buf[pos - 1]] if pos else ()
                if palindrome_free and pos >= 2:
                    refused += (buf[pos - 2],)
                last = buf[pos - 1]  # unread at pos 0, where no period fits
                for l in range(2, min(short_l, (pos + 1) // 2) + 1):
                    # the halves but the letter at pos: last letters, first, the rest
                    if buf[pos - l - 1] == last and buf[pos - 2 * l + 1] == buf[pos - l + 1] and (
                        l == 2 or view[pos - 2 * l + 2 : pos - l] == view[pos - l + 2 : pos]
                    ):
                        refused += (buf[pos - l],)
                if key is not None:
                    memo[key] = refused
            refusing[pos] = refused
        refused = refusing[pos]
        due = pending[pos]
        top = min(used[pos] + 1, sigma) if letters_in_order else sigma
        for x in range(start_from[pos], top):
            charge()
            if x in refused:
                continue
            ok = True
            for l in due:
                # the segment named at pos-l+block-1 closes a square with x
                # if x is its letter and it reached pos-1
                if x == buf[pos - l] and (
                        view[pos - l + block : pos] == view[pos - 2 * l + block : pos - l]):
                    ok = False
                    break
            if not ok:
                continue
            buf[pos] = x
            # the tail here is kept if a later square can start with it, and
            # looked up if a segment named here can still close a square: it
            # is due at pos-block+1+l, with l >= block
            if indexed and (block - 2 <= pos <= keep_to or block * 2 - 2 <= pos < length - 1):
                lo_long = max(pos - min(max_l, length - pos + block - 2), block - 2)
                tail = view[pos - block + 2 : pos + 1].tobytes()
                before = buf[pos - block + 1] if pos >= block - 1 else -1
                ends = index.get(tail)
                if ends is not None:
                    for c, j in ends.items():
                        if c != before:
                            while j >= lo_long:
                                d = 2 * pos - block + 1 - j
                                pending[d].append(pos - j)
                                dues.append(d)
                                j = earlier[j]
                if pos <= keep_to:
                    if ends is None:
                        ends = index[tail] = {}
                    earlier[pos] = ends.get(before, -1)
                    ends[before] = pos
                    joined[pos] = ends
            start_from[pos] = x + 1
            placed = True
            break
        if placed:
            pos += 1
            if pos < length:
                start_from[pos] = 0
                if letters_in_order:
                    used[pos] = max(used[pos - 1], x + 1)
                continue
            yield buf
        # a word was yielded or this position is exhausted: undo the previous
        # placement and resume after it
        pos -= 1
        if pos < 0:
            return
        if indexed:
            if block - 2 <= pos <= keep_to:
                joined[pos][buf[pos - block + 1] if pos >= block - 1 else -1] = earlier[pos]
            while dues and dues[-1] - pending[dues[-1]][-1] + block - 1 == pos:
                pending[dues.pop()].pop()


def _least_word(sigma: int, length: int, what: str, budget: Budget | None, **constraints):
    """The first word of the engine, or NoSuchSequenceError naming ``what``."""
    words = _square_free_words(sigma, length, budget=budget or Budget(), **constraints)
    buf = next(words, None)
    if buf is None:
        raise NoSuchSequenceError(f"no {what} sequence of length {length} over {sigma} symbols")
    return SymbolSeq(tuple(buf), sigma)


def gen_nonrepetitive(
    sigma: int,
    length: int,
    require_palindrome_free: bool = False,
    *,
    budget: Budget | None = None,
) -> SymbolSeq:
    """Lexicographically least nonrepetitive word of the given length;
    optionally also palindrome-free.

    Three symbols suffice for unbounded nonrepetitive words and four for
    palindrome-free ones; smaller alphabets exhaust quickly and raise
    NoSuchSequenceError."""
    _check_alphabet(sigma)
    if length < 0:
        raise ValueError(f"word length must be nonnegative, got {length}")
    kind = "palindrome-free nonrepetitive" if require_palindrome_free else "nonrepetitive"
    return _least_word(sigma, length, kind, budget, palindrome_free=require_palindrome_free)


def search_constrained(length: int, *, budget: Budget | None = None) -> SymbolSeq:
    """Least word over A, B, C, D that is nonrepetitive, palindrome-free and
    never puts C and D next to each other; NoSuchSequenceError if the search
    runs out of words."""
    if length < 1:
        raise ValueError("length must be positive")
    return _least_word(
        4,
        length,
        "palindrome-free nonrepetitive CD-free",
        budget,
        palindrome_free=True,
        banned_adjacent=CD_PAIRS,
    )


def gap_profile(seq: SymbolSeq) -> GapProfile:
    """Peak positions and gaps, for a word of any length.

    The first and last letters are peaks, and so is each letter whose two
    neighbours are equal.  A one-letter word has the peak 1 and no gaps; the
    empty word has neither."""
    xs = seq.symbols
    n = len(xs)
    peaks = tuple([p for p in range(1, n + 1) if p == 1 or p == n or xs[p - 2] == xs[p]])
    gaps = tuple(b - a - 1 for a, b in zip(peaks, peaks[1:]))
    return GapProfile(peaks, gaps)


def find_valley(profile: GapProfile) -> int | None:
    """Least i with gaps[i] >= gaps[i+1] <= gaps[i+2], or None."""
    g = profile.gaps
    for i in range(len(g) - 2):
        if g[i] >= g[i + 1] <= g[i + 2]:
            return i
    return None


def _has_valley(word) -> bool:
    """find_valley(gap_profile(word)) is not None, by one scan of the peaks
    and gaps of a byte string that stops at the first valley."""
    a, b, last = -2, -1, 0  # the last two gaps (-2, -1 before there are two) and peak
    for i, x, z in zip(range(1, len(word)), word, word[2:]):
        if x == z:
            if a >= b <= i - last - 1:
                return True
            a, b, last = b, i - last - 1, i
    return a >= b <= len(word) - last - 2  # the gap that ends at the last letter


# canonical valley shapes, one per middle-gap value; letters 0,1,2 = A,B,C
_VALLEY_PATTERNS = {
    1: tuple(SymbolSeq.from_str("CBABCBA", 3).symbols),
    2: tuple(SymbolSeq.from_str("ACBABCACBA", 3).symbols),
    3: tuple(SymbolSeq.from_str("BACBABCABACBA", 3).symbols),
}


def classify_valley_pattern(seq: SymbolSeq, valley: int) -> ValleyPattern | None:
    """Match the window around a valley against the canonical shape for its
    middle gap.

    ``valley`` must be a valley index as returned by find_valley (ValueError
    otherwise).  Classification is defined for words over the letters A, B, C
    (symbols 0, 1, 2, whatever ``sigma`` says) that avoid repetitions of
    length <= 6; the window around the two middle peaks then always matches
    pattern g2 up to a permutation of the letters.  Every other word gets
    None.
    """
    profile = gap_profile(seq)
    g = profile.gaps
    if not (0 <= valley <= len(g) - 3 and g[valley] >= g[valley + 1] <= g[valley + 2]):
        raise ValueError(f"index {valley} is not a valley of this sequence")
    if not set(seq.symbols) <= {0, 1, 2} or find_repetition(seq, max_period=3) is not None:
        return None
    g2 = g[valley + 1]
    if g2 not in _VALLEY_PATTERNS:
        raise ValueError(f"middle gap {g2} admits no canonical pattern")
    p, q = profile.peaks[valley + 1], profile.peaks[valley + 2]
    start, end = p - (g2 + 1), q + (g2 + 1)  # 1-based, inclusive
    if start < 1 or end > len(seq):
        raise ValueError("valley window leaves the sequence")
    window = seq.symbols[start - 1 : end]
    canon = _VALLEY_PATTERNS[g2]
    mapping: dict[int, int] = {}
    for c, x in zip(canon, window):
        if mapping.setdefault(c, x) != x:
            raise ValueError("window does not match the canonical pattern")
    if len(set(mapping.values())) != len(mapping):
        raise ValueError("window does not match the canonical pattern")
    return ValleyPattern(g2, (start, end), (mapping[0], mapping[1], mapping[2]))


def _charge_sweep(sigma: int, length: int, max_rep_len: int, budget: Budget | None):
    """Validate a sweep's arguments and charge its projected size to the
    budget, as enumerate_bounded_nonrep describes."""
    _check_alphabet(sigma)
    if not 0 <= length <= 24:
        raise ValueError(f"enumeration length must be between 0 and 24, got {length}")
    if max_rep_len < 2:
        raise ValueError(f"max repetition length must be at least 2, got {max_rep_len}")
    projected = sigma * max(sigma - 1, 1) ** max(length - 1, 0)
    (budget or Budget()).charge(projected)


def enumerate_bounded_nonrep(
    sigma: int = 3,
    length: int = 22,
    max_rep_len: int = 6,
    visitor=None,
    *,
    budget: Budget | None = None,
) -> int:
    """Visit every length-``length`` word over ``sigma`` symbols with no
    repetition of (total block) length <= max_rep_len; returns how many.

    The visitor, if given, receives each word as a bytes object, in
    lexicographic order.  The run's projected size, the number of words
    without equal neighbours, is charged to the budget up front, so an
    oversized run is refused at once; the search itself is uncharged, as its
    node count can exceed that by up to sigma/(sigma-2).
    """
    _charge_sweep(sigma, length, max_rep_len, budget)
    count = 0
    for word in _square_free_words(
        sigma, length, max_period=max_rep_len // 2, budget=Budget(float("inf"))
    ):
        count += 1
        if visitor is not None:
            visitor(bytes(word))
    return count


def valley_census(
    sigma: int, length: int, max_rep_len: int, *, budget: Budget | None = None
) -> tuple[int, int]:
    """How many length-``length`` words over ``sigma`` symbols have no
    repetition of length <= max_rep_len, and how many of those have a
    valley (find_valley of their gap profile is not None).

    The counts are those of enumerate_bounded_nonrep with the valley test
    on each word, but the test runs once per renaming of the letters:
    1. A bijective renaming of the letters maps a word without squares of
       period <= max_rep_len // 2 to such a word, and keeps its peaks, gaps
       and valleys, which depend only on which letters are equal.
    2. Each class of words under renaming has exactly one member whose
       letters first appear in the order 0, 1, 2, ...: rename the i-th
       distinct letter to i.
    3. A class whose words use m letters has perm(sigma, m) members, one per
       injective map from those m letters into the alphabet.
    4. Every prefix of such a canonical word is canonical, so the word
       engine, pruned to canonical prefixes, still reaches every class.
    So each canonical word adds perm(sigma, m) to both counts where it has
    a valley, and to the first only where it has none; m = max(word) + 1,
    or 0 for the empty word.  The valley test is one scan of the live
    buffer's peaks and gaps that stops at the first valley.  Validation and
    the budget charge are those of enumerate_bounded_nonrep.
    """
    _charge_sweep(sigma, length, max_rep_len, budget)
    count = with_valley = 0
    for word in _square_free_words(
        sigma, length, max_period=max_rep_len // 2, letters_in_order=True,
        budget=Budget(float("inf")),
    ):
        weight = perm(sigma, max(word, default=-1) + 1)
        count += weight
        if _has_valley(word):
            with_valley += weight
    return count, with_valley
