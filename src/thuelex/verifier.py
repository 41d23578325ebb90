"""Decide whether colorings are nonrepetitive, rainbow, tuple-nonrepetitive
or walk-nonrepetitive, producing re-checkable witnesses.

Plain and tuple colorings share one repetitive-path search: a plain color c
is the color set {c}, and positions i and i+l of an even path agree when
their color sets meet.  Each distinct set gets a label, and ``step[x][L]``
lists the neighbours of x (ascending) whose set meets the set labelled L.
Half-length 1 is one scan of the edges; longer ones go in rounds lo+1..cap,
cap = ceil(top / 2^k) for top = bound / 2, so a short repetition needs no
deep search from the starts before it.  In a round, a DFS from each start in
turn walks its first halves of up to cap vertices once (O(n cap) at max
degree 2); at each of l > lo vertices it walks the second halves along only
``step[last][label of the vertex l back]``, which prunes almost everything.
A witness of half-length l stops all first halves of l or more vertices, so
the least l wins, then the least start: the smaller endpoint, as the
reversal of a repetition is one.

With max_vertices = |V| rounded down to even the check is exact; smaller
bounds give sound but partial verification and the caller must say so.

Walks run the same search: the in-path marks stay clear, so a vertex may
repeat; a completed repetition whose second half is its first half vertex
by vertex (a boring walk, never a simple path) is skipped; and the bound is
not clamped to |V|.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import Budget
from .graphs import Graph, ProductGraph


@dataclass(frozen=True)
class RepetitionWitness:
    """An even path whose color string is a repetition; ``half_colors`` are
    the l colors of the first half (for tuple colorings, the least color
    common to positions i and i+l)."""

    path: tuple[int, ...]
    half_colors: tuple[int, ...]


def _check_coloring_size(g: Graph, n_colors: int):
    if n_colors != g.n:
        raise ValueError(f"coloring covers {n_colors} vertices, graph has {g.n}")


def _even_bound(g: Graph, max_vertices: int, walks: bool = False) -> int:
    if max_vertices < 2 or max_vertices % 2 != 0:
        raise ValueError(f"{'walk' if walks else 'path'} bound must be even and at least 2")
    return max_vertices if walks else min(max_vertices, g.n - (g.n % 2))


def is_exact_bound(g: Graph, max_vertices: int) -> bool:
    """True iff the bound covers every even simple path of the graph."""
    return max_vertices >= g.n - (g.n % 2)


def _find_repetition(
    g: Graph, sets, max_vertices: int, walks: bool = False
) -> RepetitionWitness | None:
    """First (in l, then start vertex, then lexicographic extension order)
    even simple path of at most max_vertices vertices whose positions i and
    i+l have meeting color sets, or None.  With ``walks``, the first such
    walk that is not boring."""
    sets = [frozenset(s) for s in sets]
    _check_coloring_size(g, len(sets))
    bound = _even_bound(g, max_vertices, walks)
    mark = 0 if walks else 1  # the in-path mark; walks leave every vertex free
    labels: dict = {}
    lab = [labels.setdefault(s, len(labels)) for s in sets]
    holders: dict = {}
    for s, label in labels.items():
        for c in s:
            holders.setdefault(c, []).append(label)
    # meets[L]: the labels of every set that meets the set labelled L
    meets = [{m for c in s for m in holders[c]} for s in labels]
    adj = g.adj
    step = []
    for x in range(g.n):
        by_label: dict = {}
        for u in adj[x]:
            for label in meets[lab[u]]:
                by_label.setdefault(label, []).append(u)
        step.append(by_label)
    for start in range(g.n):  # half-length 1: an edge whose ends' sets meet
        for u in step[start].get(lab[start], ()):
            return RepetitionWitness((start, u), (min(sets[start] & sets[u]),))
    top, best, lo, in_path = bound // 2, None, 1, bytearray(g.n)
    # one round per cap, the half-lengths lo + 1 .. cap: top / 2^k rounded up
    for cap in sorted({-(-top >> k) for k in range(top.bit_length())} - {1}):
        for start in range(g.n):
            in_path[start] = mark
            # l, m: half-length and length of the second halves searched, or 0;
            # base: the frame of their first vertices
            path, l, m, base, stack = [start], 0, 0, None, [iter(adj[start])]
            while stack:
                for u in stack[-1]:
                    if not in_path[u]:
                        break
                else:
                    if stack.pop() is base:  # every second half of path is done
                        l = m = 0
                        if len(path) < cap:
                            stack.append(iter(adj[path[-1]]))
                            continue
                    in_path[path.pop()] = 0
                    continue
                d = len(path) + 1  # vertices once u is added
                if d < m:
                    nxt = step[u].get(lab[path[d - l]])
                elif not l:  # a new first half: search its second halves first
                    nxt = step[u].get(lab[start]) if d > lo else None
                    if nxt:  # iter(base) is base: base is the frame pushed below
                        l, m, base = d, 2 * d, iter(nxt)
                        nxt = base
                    elif d < cap:
                        nxt = adj[u]
                else:  # a repetition of half-length l
                    p = (*path, u)
                    if p[:l] == p[l:]:  # a boring walk
                        continue
                    half = tuple(min(sets[p[i]] & sets[p[i + l]]) for i in range(l))
                    best = RepetitionWitness(p, half)
                    if l - 1 == lo:
                        return best
                    cap = l - 1
                    for v in path[l - 2 :]:
                        in_path[v] = 0
                    del path[l - 2 :], stack[l - 2 :]
                    nxt = l = m = 0
                if nxt:
                    path.append(u)
                    in_path[u] = mark
                    stack.append(iter(nxt))
        if best:
            return best
        lo = cap
    return None


def find_repetitive_path(
    g: Graph, colors, max_vertices: int
) -> RepetitionWitness | None:
    """First (in l, then start-vertex, then lexicographic extension order)
    even simple path of at most max_vertices vertices whose colors form a
    repetition, or None."""
    return _find_repetition(g, [(c,) for c in colors], max_vertices)


def is_rainbow(pg: ProductGraph, colors) -> bool:
    """True iff every layer's colors are pairwise distinct."""
    colors = tuple(colors)
    _check_coloring_size(pg.view, len(colors))
    k = pg.k
    for b in range(pg.base.n):
        layer = colors[b * k : (b + 1) * k]
        if len(set(layer)) != k:
            return False
    return True


def find_tuple_repetitive_path(
    g: Graph, sets, max_vertices: int
) -> RepetitionWitness | None:
    """Tuple-coloring analogue: an even path admits a repetitive choice iff
    the color sets at positions i and i+l intersect for every i (positions
    are distinct vertices, so the choices are independent)."""
    return _find_repetition(g, sets, max_vertices)


def _charge_walks(g: Graph, max_vertices: int, budget: Budget):
    """Charge the walks with an even vertex count up to the bound, one
    length at a time, so an oversized count is refused as soon as it is."""
    counts = [1] * g.n
    for length in range(2, max_vertices + 1):
        counts = [sum(counts[u] for u in g.adj[v]) for v in range(g.n)]
        if length % 2 == 0:
            budget.charge(sum(counts))


def is_walk_nonrepetitive(
    g: Graph, colors, max_walk_vertices: int, *, budget: Budget | None = None
) -> bool:
    """True iff no non-boring walk of at most the given even vertex count is
    repetitively colored.  A boring walk (second half revisits the first
    vertex-by-vertex) is repetitively colored under every coloring and is
    exempt by definition.  The number of walks of each even length up to the
    bound is charged to the budget up front, length by length; the walk
    search itself is uncharged."""
    sets = [(c,) for c in colors]
    _check_coloring_size(g, len(sets))
    bound = _even_bound(g, max_walk_vertices, walks=True)
    _charge_walks(g, bound, budget or Budget())
    return _find_repetition(g, sets, bound, walks=True) is None


def check_path4_trichotomy(pg: ProductGraph, colors) -> bool:
    """For every 4-vertex path in the base graph, the color sets of the first
    three layers or of the last three layers must be pairwise disjoint."""
    colors = tuple(colors)
    _check_coloring_size(pg.view, len(colors))
    k = pg.k
    layer_sets = [
        frozenset(colors[b * k : (b + 1) * k]) for b in range(pg.base.n)
    ]

    def disjoint3(a, b, c):
        return not (a & b or a & c or b & c)

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
                    if not (disjoint3(*s[:3]) or disjoint3(*s[1:])):
                        return False
    return True
