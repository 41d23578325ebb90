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
when there is none; the bounded sweep takes all of them, so every result is
deterministic.  Words are byte strings, so an alphabet has 1 to 256 symbols.
Search budgets default to 10^8 expansions.

Each placed letter can only end new squares.  Periods below _BLOCK (16) are
found through the occurrences of the letter in the last _BLOCK positions.  A
square of a longer period l ends both halves with the same _BLOCK letters, so
its first half ends at an earlier position where the block now ending also
ended; an index from blocks to those positions names the few candidates, and
one compare of the other l - _BLOCK letters confirms each.  A letter thus
costs about _BLOCK/sigma probes plus the block's repeats, not a scan of half
the word.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import Budget, NoSuchSequenceError, ResourceLimitError

_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
# Block length of the word engine's long-period index (see _square_free_words)
_BLOCK = 16
_BYTES = tuple(bytes((x,)) for x in range(256))


def _check_alphabet(sigma: int):
    """Words are byte strings, so an alphabet has 1 to 256 symbols."""
    if not 1 <= sigma <= 256:
        raise ValueError(f"alphabet size must be between 1 and 256, got {sigma}")


@dataclass(frozen=True)
class SymbolSeq:
    """Finite sequence over the alphabet {0, .., sigma-1}, 1 <= sigma <= 256."""

    symbols: tuple[int, ...]
    sigma: int

    def __post_init__(self):
        _check_alphabet(self.sigma)
        for x in self.symbols:
            if not 0 <= x < self.sigma:
                raise ValueError(f"symbol {x} outside alphabet of size {self.sigma}")

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


@dataclass(frozen=True)
class GapProfile:
    """Peak positions (1-based, ascending) and the gaps between them."""

    peaks: tuple[int, ...]
    gaps: tuple[int, ...]


@dataclass(frozen=True)
class ValleyPattern:
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
    length; ValueError if it is below 1)."""
    n = len(seq.symbols)
    if max_period is None:
        max_period = n // 2
    elif max_period < 1:
        raise ValueError(f"max period must be at least 1, got {max_period}")
    buf = bytes(seq.symbols)
    best = None
    for l in range(1, min(max_period, n // 2) + 1):
        s = _least_square_start(buf, l)
        if s is not None and (best is None or (s + 1, l) < best):
            best = (s + 1, l)
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
    budget: Budget,
):
    """Yield every word with no square of period <= max_period (default: any
    period) under the extra constraints, in lexicographic order.

    Each word is the live buffer: copy it before resuming the generator.
    Every candidate symbol is charged as one node to ``budget``, so a word
    of ``length`` letters costs at least ``length`` nodes: a budget with
    fewer left is refused before the buffers are allocated.

    Incremental check: after placing position p, only squares ending at p can
    be new; the halves of a square of period l are buf[p-2l+1 .. p-l] and
    buf[p-l+1 .. p].
    - Periods l < _BLOCK are read off the occurrence list of the placed
      symbol (the halves' last letters match), back to position p-_BLOCK+1,
      and each is confirmed with one probe and a memcmp of the overlap.
    - Periods l >= _BLOCK: the last _BLOCK letters of both halves agree, so
      the first half ends at a position j = p-l whose _BLOCK-letter block
      equals the one ending at p.  An index from each block to the placed
      positions it ends at, pushed on placement and popped on undo, lists
      exactly these j; each is confirmed by one memcmp of the other l-_BLOCK
      letters.  The index is kept only when max_period >= _BLOCK.
    Every candidate is accepted or refused as by a scan of every period, so
    the words, their order and the nodes charged do not depend on _BLOCK;
    the check costs about _BLOCK/sigma probes plus the block's repeats in the
    window, where a scan of the occurrence list costs about p/(2 sigma).
    """
    if length == 0:
        yield bytearray()
        return
    if budget.spent + length > budget.max_nodes:
        raise ResourceLimitError(
            f"a word of {length} letters needs more nodes than the budget has left"
        )
    max_l = length if max_period is None else max_period
    buf = bytearray(length)
    view = memoryview(buf)
    occ: list[list[int]] = [[] for _ in range(sigma)]
    start_from = [0] * length
    # long periods: the latest position each _BLOCK-letter block ends at,
    # and for each position the previous one with the same block (or -1)
    indexed = max_l >= _BLOCK
    latest: dict[bytes, int] = {}
    earlier = [-1] * length
    short_l = min(max_l, _BLOCK - 1)  # periods left to the occurrence lists
    pos = 0
    charge = budget.charge
    while True:
        placed = False
        lo = pos - min((pos + 1) // 2, short_l)  # least i with period pos-i checked
        head = None
        if indexed and pos >= _BLOCK - 1:
            head = view[pos - _BLOCK + 1 : pos].tobytes()  # the block less its last letter
            lo_long = pos - min((pos + 1) // 2, max_l)
        for x in range(start_from[pos], sigma):
            charge()
            if pos >= 1 and buf[pos - 1] == x:
                continue
            if palindrome_free and pos >= 2 and buf[pos - 2] == x:
                continue
            if pos >= 1 and (buf[pos - 1], x) in banned_adjacent:
                continue
            ok = True
            for i in reversed(occ[x]):
                if i < lo:
                    break
                l = pos - i
                if buf[pos - 2 * l + 1] != buf[i + 1]:
                    continue
                if l == 2 or view[pos - 2 * l + 2 : pos - l] == view[i + 2 : pos]:
                    ok = False
                    break
            if not ok:
                continue
            if head is not None:
                # no listed j exceeds pos - _BLOCK: equal blocks at distance
                # d < _BLOCK would hold a square of period d, refused above
                key = head + _BYTES[x]
                j = latest.get(key, -1)
                while j >= lo_long:
                    l = pos - j
                    if view[j - l + 1 : j - _BLOCK + 1] == view[pos - l + 1 : pos - _BLOCK + 1]:
                        ok = False
                        break
                    j = earlier[j]
                if not ok:
                    continue
            buf[pos] = x
            occ[x].append(pos)
            if head is not None:
                earlier[pos] = latest.get(key, -1)
                latest[key] = pos
            start_from[pos] = x + 1
            placed = True
            break
        if placed:
            pos += 1
            if pos < length:
                start_from[pos] = 0
                continue
            yield buf
        # a word was yielded or this position is exhausted: undo the previous
        # placement and resume after it
        pos -= 1
        if pos < 0:
            return
        occ[buf[pos]].pop()
        if indexed and pos >= _BLOCK - 1:
            key = view[pos - _BLOCK + 1 : pos + 1].tobytes()
            if earlier[pos] < 0:
                del latest[key]
            else:
                latest[key] = earlier[pos]


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
        banned_adjacent=frozenset({(2, 3), (3, 2)}),
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
    _check_alphabet(sigma)
    if not 0 <= length <= 24:
        raise ValueError(f"enumeration length must be between 0 and 24, got {length}")
    if max_rep_len < 2:
        raise ValueError("invalid enumeration parameters")
    projected = sigma * max(sigma - 1, 1) ** max(length - 1, 0)
    (budget or Budget()).charge(projected)
    count = 0
    for word in _square_free_words(
        sigma, length, max_period=max_rep_len // 2, budget=Budget(float("inf"))
    ):
        count += 1
        if visitor is not None:
            visitor(bytes(word))
    return count
