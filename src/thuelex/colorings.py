"""Explicit colorings of path and tree products, and every analysis of a
product's layer color sets: rainbow layers, the four-vertex path trichotomy,
layer sets, richness and labeling.

All constructions are driven by the lexicographically least palindrome-free
nonrepetitive word over four symbols, so the same (n, k) always produces the
same coloring and prefixes restrict consistently.
"""

from __future__ import annotations

from .errors import Budget, FrozenValue
from .graphs import (
    COMPLETE,
    Graph,
    ProductGraph,
    RootedTreeMeta,
    layer_vertices,
    lex_product,
)
from .sequences import gen_nonrepetitive
from .verifier import find_repetitive_path


class Coloring(FrozenValue):
    """Vertex -> color map with a declared palette size."""

    palette: int
    colors: tuple[int, ...]

    def __init__(self, palette, colors):
        if type(palette) is not int or palette < 1:
            raise ValueError("palette must be a positive integer")
        for c in colors:
            if not 0 <= c < palette:
                raise ValueError(f"color {c} outside palette of size {palette}")
        super().__init__(palette, colors)


class TupleColoring(FrozenValue):
    """Vertex -> p-subset of {0..q-1}; each subset strictly ascending."""

    p: int
    q: int
    sets: tuple[tuple[int, ...], ...]

    def __init__(self, p, q, sets):
        if not (type(p) is int and type(q) is int and 1 <= p < q):
            raise ValueError("need integers 1 <= p < q")
        for s in sets:
            if len(s) != p or len(set(s)) != p:
                raise ValueError(f"set {s} is not a {p}-subset")
            if list(s) != sorted(s) or not all(0 <= c < q for c in s):
                raise ValueError(f"set {s} is not an ascending subset of 0..{q - 1}")
        super().__init__(p, q, sets)


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


def _four_layer_cycle(n: int, k: int, pair, middle) -> tuple[int, ...]:
    """Colors of the n layers of P_n[E_k] cycling with period four: the block
    X = 0..k-1, then pair[s_i], middle[s_i] and pair[s_i] again, s_i the i-th
    letter of the driving word."""
    s = _driving_word((n + 3) // 4)
    colors: list[int] = []
    for b in range(n):
        si = s[b // 4]
        colors.extend(range(k) if b % 4 == 0 else middle[si] if b % 4 == 2 else pair[si])
    return tuple(colors)


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
    palette = k + max(k + 1, 4)  # s takes the four smallest elements of Y
    y = range(k, palette)
    mono = [(k + si,) * k for si in range(4)]
    rainbow = [tuple(c for c in y if c != k + si)[:k] for si in range(4)]
    return Coloring(palette, _four_layer_cycle(n, k, mono, rainbow))


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
    # every union joins its blocks in ascending order, so its colors ascend
    pair = (a + b_, a + c, c + e, d + e)
    middle = (c + d[:dn], b_ + e, a + d, b_ + c[:dn])
    return Coloring(pos, _four_layer_cycle(n, k, pair, middle))


def _level_coloring(levels, k: int) -> Coloring:
    """The 4k-coloring whose layer b is rainbow on the d_l-th of four
    disjoint k-blocks, l = levels[b] and d the driving four-symbol word."""
    d = _driving_word(max(levels) + 1)
    return Coloring(4 * k, tuple(d[level] * k + j for level in levels for j in range(k)))


def color_path_complete(n: int, k: int) -> Coloring:
    """Coloring of P_n[K_k] with exactly 4k colors: the level coloring of
    the path rooted at vertex 0, so layer i is rainbow on the d_i-th block."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    return _level_coloring(range(n), k)


def color_tree_complete(
    tree: Graph,
    meta: RootedTreeMeta,
    k: int,
    *,
    path_bound: int = 12,
    budget: Budget | None = None,
) -> Coloring:
    """4k-coloring of T[K_k]: the vertex at level l with clique index j gets
    color (d_l, j), d the driving word over four symbols.

    ``meta.level`` must hold the distances from ``meta.root`` (ValueError
    otherwise).  The coloring is then nonrepetitive, by the level argument of
    Brešar, Grytczuk, Klavžar, Niwczyk and Peterin for trees.  Suppose the
    colors of a simple path x_1..x_2l repeat, and let L_i be x_i's level.
    1. The letter fixes the step.  An in-layer step keeps level and letter;
       an edge moves one level and, as d has no equal neighbours, changes the
       letter.  As d has no d_(y-1) = d_(y+1), the next letter fixes the
       next level.
    2. Levels repeat.  Both halves read the same letters, so they step in
       layer at the same positions.  Where one half turns back and the other
       goes on, the levels either side of the latter get one letter, a
       palindrome in d; so L_(l+1..2l) is a translate L_i + t or a mirror
       c - L_i of L_(1..l).  The first half covers a level interval I, and
       L_(l+1) is within one of L_l.  So t != 0 gives |t| <= |I| and a square
       of period |t| in d.  A mirror has c/2 within half a level of I: equal
       neighbours in d (c odd), a palindrome around c/2 (c even, |I| >= 2),
       or t = 0.  So L_(i+l) = L_i for every i.
    3. Vertices repeat.  Take i <= l with L_i least; by step 2 no level from
       x_i to x_(i+l) is below L_i.  So the base walk stays in the subtree of
       x_i's base vertex, whose only vertex at level L_i is itself, and the
       equal colors give x_(i+l) = x_i.
    The ``path_bound`` check stays as a guard: a repetition it finds refutes
    this proof and raises AssertionError.  It takes find_repetitive_path's
    bounds (even and at least 2, else ValueError); 0 skips it.  It charges
    ``budget`` as find_repetitive_path does, and raises ResourceLimitError
    once that is spent."""
    if k < 1:
        raise ValueError("need k >= 1")
    if len(meta.level) != tree.n or not 0 <= meta.root < tree.n:
        raise ValueError("level metadata does not match the tree")
    depth = [-1] * tree.n
    depth[meta.root] = 0
    queue = [meta.root]
    for v in queue:
        for u in tree.adj[v]:
            if depth[u] < 0:
                depth[u] = depth[v] + 1
                queue.append(u)
    if tree.m != tree.n - 1 or len(queue) != tree.n:
        raise ValueError("input graph is not a tree")
    if depth != list(meta.level):
        raise ValueError("levels must be the distances from the root")
    coloring = _level_coloring(depth, k)
    if path_bound:
        view = lex_product(tree, COMPLETE, k).view
        witness = find_repetitive_path(view, coloring.colors, path_bound, budget=budget)
        if witness is not None:
            raise AssertionError(f"level coloring repeats on path {witness.path}")
    return coloring


def layer_color_sets(pg: ProductGraph, colors) -> tuple[frozenset[int], ...]:
    """The set of colors in each layer of the product, by base vertex."""
    colors = tuple(colors)
    if len(colors) != pg.view.n:
        raise ValueError(f"coloring covers {len(colors)} vertices, graph has {pg.view.n}")
    return tuple(
        frozenset(colors[v] for v in layer_vertices(pg, b)) for b in range(pg.base.n)
    )


def _pairwise_disjoint(*sets) -> bool:
    return len(frozenset().union(*sets)) == sum(map(len, sets))


def is_rainbow(pg: ProductGraph, colors) -> bool:
    """True iff every layer's colors are pairwise distinct."""
    return all(len(s) == pg.k for s in layer_color_sets(pg, colors))


def check_path4_trichotomy(pg: ProductGraph, colors) -> bool:
    """For every 4-vertex path in the base graph, the color sets of the first
    three layers or of the last three layers must be pairwise disjoint."""
    layer_sets = layer_color_sets(pg, colors)
    base = pg.base
    for a in range(base.n):
        for b in base.adj[a]:
            for c in base.adj[b]:
                if c == a:
                    continue
                for d in base.adj[c]:
                    if d == a or d == b or d < a:
                        continue
                    s = [layer_sets[v] for v in (a, b, c, d)]
                    if not (_pairwise_disjoint(*s[:3]) or _pairwise_disjoint(*s[1:])):
                        return False
    return True


def is_rich(x, y, k: int) -> bool:
    """True iff the color sets share at least ceil(k/2)+1 colors."""
    return len(frozenset(x) & frozenset(y)) >= (k + 1) // 2 + 1


def label_layers(sets, k: int) -> tuple[str | None, ...]:
    """Label a sequence of color sets by 'A', 'B', 'C': seed A, B, C on the
    first three consecutive pairwise disjoint sets (skipping at most the
    first set), then extend left to right: each set copies the label of its
    largest rich labeled predecessor.

    Positions with no rich labeled predecessor stay None; if no seed exists
    every position is None."""
    n = len(sets)
    labels: list[str | None] = [None] * n
    seed = next((t for t in (0, 1) if t + 3 <= n and _pairwise_disjoint(*sets[t : t + 3])), None)
    if seed is None:
        return tuple(labels)
    labels[seed], labels[seed + 1], labels[seed + 2] = "A", "B", "C"
    for i in range(seed + 3, n):
        for j in range(i - 1, -1, -1):
            if labels[j] is not None and is_rich(sets[i], sets[j], k):
                labels[i] = labels[j]
                break
    return tuple(labels)


def c7_fractional_example() -> TupleColoring:
    """The (7,2)-nonrepetitive coloring of the 7-cycle witnessing that two
    colors per vertex from a 7-color palette suffice (0-based sets)."""
    sets = ((0, 1), (2, 3), (0, 6), (4, 5), (2, 3), (1, 5), (4, 6))
    return TupleColoring(2, 7, sets)
