"""Explicit colorings of path and tree products, and the color-set analyses
(layer sets, richness, labeling) used by the lower-bound machinery.

All constructions are driven by the lexicographically least palindrome-free
nonrepetitive word over four symbols, so the same (n, k) always produces the
same coloring and prefixes restrict consistently.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ResourceLimitError
from .graphs import COMPLETE, Graph, ProductGraph, RootedTreeMeta, lex_product
from .sequences import gen_nonrepetitive
from .verifier import find_repetitive_path


@dataclass(frozen=True)
class Coloring:
    """Vertex -> color map with a declared palette size."""

    palette: int
    colors: tuple[int, ...]

    def __post_init__(self):
        if type(self.palette) is not int or self.palette < 1:
            raise ValueError("palette must be a positive integer")
        for c in self.colors:
            if not 0 <= c < self.palette:
                raise ValueError(f"color {c} outside palette of size {self.palette}")

    def used_colors(self) -> frozenset[int]:
        return frozenset(self.colors)


@dataclass(frozen=True)
class TupleColoring:
    """Vertex -> p-subset of {0..q-1}; each subset strictly ascending."""

    p: int
    q: int
    sets: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not (type(self.p) is int and type(self.q) is int and 1 <= self.p < self.q):
            raise ValueError("need integers 1 <= p < q")
        for s in self.sets:
            if len(s) != self.p or len(set(s)) != self.p:
                raise ValueError(f"set {s} is not a {self.p}-subset")
            if list(s) != sorted(s) or not all(0 <= c < self.q for c in s):
                raise ValueError(f"set {s} is not an ascending subset of 0..{self.q - 1}")


@dataclass(frozen=True)
class LayerColorSets:
    """Colors appearing in each layer of a product, indexed by base vertex."""

    k: int
    sets: tuple[frozenset[int], ...]


@dataclass(frozen=True)
class LabelSequence:
    """Partial labeling of layer color sets by 'A', 'B', 'C' (None where the
    labeling procedure assigns nothing)."""

    labels: tuple[str | None, ...]


# The least word of length L is not always a prefix of the least word of
# length L+1 (the first counterexamples sit at L=11/12 for the four-letter
# palindrome-free word and L=7/8 for the ternary one).  Slicing a run padded
# well past those backtrack depths keeps prefixes of the same construction
# consistent across n.
_WORD_PAD = 64


def _driving_word(length: int) -> tuple[int, ...]:
    """Prefix of the four-symbol palindrome-free nonrepetitive word driving
    every construction."""
    return gen_nonrepetitive(4, length + _WORD_PAD, True).symbols[:length]


def _ternary_word(length: int) -> tuple[int, ...]:
    return gen_nonrepetitive(3, length + _WORD_PAD).symbols[:length]


def color_path_empty(n: int, k: int) -> Coloring:
    """Coloring of P_n[E_k] with 2k+1 colors for k >= 3, 6 colors for k = 2,
    and the plain ternary nonrepetitive coloring for k = 1.

    Layers cycle with period four: a rainbow layer on the low color block X,
    a monochromatic layer colored s_i, a rainbow layer on k colors of the
    high block Y avoiding s_i, and the monochromatic s_i layer again.
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    if k == 1:
        return Coloring(3, _ternary_word(n))
    s = _driving_word((n + 3) // 4)
    if k == 2:
        palette = 6
        x = (0, 1)
        y = (2, 3, 4, 5)
        offset = 2
    else:
        palette = 2 * k + 1
        x = tuple(range(k))
        y = tuple(range(k, 2 * k + 1))
        offset = k  # s takes the four smallest elements of Y
    colors: list[int] = []
    for b in range(n):
        j = b + 1
        si = s[(j - 1) // 4] + offset
        if j % 4 == 1:
            layer = x
        elif j % 4 == 3:
            layer = tuple(c for c in y if c != si)[:k]
        else:
            layer = (si,) * k
        colors.extend(layer)
    return Coloring(palette, tuple(colors))


def color_path_rainbow(n: int, k: int) -> Coloring:
    """Rainbow coloring of P_n[E_k] with exactly ceil(7k/2) colors, k >= 2.

    Six disjoint blocks X, A, B, C, D, E of sizes k, floor(k/2), ceil(k/2),
    ceil(k/2), ceil(k/2), floor(k/2); every fourth layer is X and the word
    s picks which unions fill the three layers in between."""
    if n < 1:
        raise ValueError("need n >= 1")
    if k < 2:
        raise ValueError("rainbow construction needs k >= 2")
    up, dn = (k + 1) // 2, k // 2
    pos = k
    blocks = []
    for size in (dn, up, up, up, dn):  # A, B, C, D, E
        blocks.append(tuple(range(pos, pos + size)))
        pos += size
    a, b_, c, d, e = blocks
    palette = pos
    x = tuple(range(k))
    pair = {0: a + b_, 1: a + c, 2: c + e, 3: d + e}
    middle = {0: c + d[:dn], 1: b_ + e, 2: a + d, 3: b_ + c[:dn]}
    s = _driving_word((n + 3) // 4)
    colors: list[int] = []
    for v in range(n):
        j = v + 1
        si = s[(j - 1) // 4]
        if j % 4 == 1:
            layer = x
        elif j % 4 == 3:
            layer = middle[si]
        else:
            layer = pair[si]
        colors.extend(sorted(layer))
    return Coloring(palette, tuple(colors))


def color_path_complete(n: int, k: int) -> Coloring:
    """Coloring of P_n[K_k] with exactly 4k colors: layer i is rainbow on the
    d_i-th of four disjoint k-blocks, d the driving four-symbol word."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    d = _driving_word(n)
    colors = tuple(d[b] * k + j for b in range(n) for j in range(k))
    return Coloring(4 * k, colors)


def color_tree_complete(
    tree: Graph,
    meta: RootedTreeMeta,
    k: int,
    *,
    path_bound: int = 12,
    limits=None,
) -> Coloring:
    """4k-coloring of T[K_k]: the vertex at level l with clique index j gets
    color (d_l, j), d the driving word over four symbols.

    The attempt is checked against paths of at most ``path_bound`` vertices;
    if a repetition is found, a bounded branch-and-bound search replaces it.
    The returned coloring always passed the configured check."""
    if k < 1:
        raise ValueError("need k >= 1")
    if tree.m != tree.n - 1:
        raise ValueError("input graph is not a tree")
    if len(meta.level) != tree.n or meta.level[meta.root] != 0:
        raise ValueError("level metadata does not match the tree")
    for u, v in tree.edges():
        if abs(meta.level[u] - meta.level[v]) != 1:
            raise ValueError("adjacent vertices must differ in level by one")
    d = _driving_word(max(meta.level) + 1)
    colors = tuple(
        d[meta.level[v]] * k + j for v in range(tree.n) for j in range(k)
    )
    pg = lex_product(tree, COMPLETE, k)
    bound = min(path_bound, pg.view.n)
    bound -= bound % 2
    if bound >= 2 and find_repetitive_path(pg.view, colors, bound) is not None:
        from . import solver  # deferred: solver depends on this module's types

        lim = limits if limits is not None else solver.SearchLimits()
        try:
            found = solver.find_coloring_bounded(pg.view, 4 * k, bound, lim)
        except ResourceLimitError as exc:
            raise ResourceLimitError(
                f"fallback search for a {4 * k}-coloring ran out of budget",
                partial=Coloring(4 * k, colors),
            ) from exc
        if found is None:
            raise RuntimeError(
                f"no {4 * k}-coloring survives the bound-{bound} check; "
                "tree input is outside the guaranteed regime"
            )
        return Coloring(4 * k, tuple(found))
    return Coloring(4 * k, colors)


def layer_color_sets(pg: ProductGraph, coloring: Coloring) -> LayerColorSets:
    """Per-base-vertex set of colors appearing in that layer."""
    if len(coloring.colors) != pg.view.n:
        raise ValueError("coloring does not cover the product")
    k = pg.k
    sets = tuple(
        frozenset(coloring.colors[b * k : (b + 1) * k]) for b in range(pg.base.n)
    )
    return LayerColorSets(k, sets)


def is_rich(x, y, k: int) -> bool:
    """True iff the color sets share at least ceil(k/2)+1 colors."""
    return len(frozenset(x) & frozenset(y)) >= (k + 1) // 2 + 1


def label_layers(sets: LayerColorSets, k: int) -> LabelSequence:
    """Seed A, B, C on the first three consecutive pairwise disjoint sets
    (skipping at most the first set), then extend left to right: each set
    copies the label of its largest rich labeled predecessor.

    Positions with no rich labeled predecessor stay unlabeled; if no seed
    exists the sequence comes back fully unlabeled."""
    s = sets.sets
    n = len(s)
    labels: list[str | None] = [None] * n
    seed = None
    for t in (0, 1):
        if t + 2 <= n - 1:
            a, b, c = s[t], s[t + 1], s[t + 2]
            if not (a & b or a & c or b & c):
                seed = t
                break
    if seed is None:
        return LabelSequence(tuple(labels))
    labels[seed], labels[seed + 1], labels[seed + 2] = "A", "B", "C"
    for i in range(seed + 3, n):
        for j in range(i - 1, -1, -1):
            if labels[j] is not None and is_rich(s[i], s[j], k):
                labels[i] = labels[j]
                break
    return LabelSequence(tuple(labels))


def c7_fractional_example() -> TupleColoring:
    """The (7,2)-nonrepetitive coloring of the 7-cycle witnessing that two
    colors per vertex from a 7-color palette suffice (0-based sets)."""
    sets = ((0, 1), (2, 3), (0, 6), (4, 5), (2, 3), (1, 5), (4, 6))
    return TupleColoring(2, 7, sets)
