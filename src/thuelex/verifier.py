"""Decide whether colorings of a graph are nonrepetitive, tuple-nonrepetitive
or walk-nonrepetitive by one repetitive-path search, producing re-checkable
witnesses.

Plain and tuple colorings share one repetitive-path search: a plain color c
is the color set {c}, and positions i and i+l of an even path agree when
their color sets meet.  Each distinct set gets a label.

The kernel, ``_search``, is one explicit-stack DFS over nodes that each have
a room: how often one path may hold the node.  Half-length 1 is one scan of
the edges; longer ones go in rounds lo+1..cap, cap = ceil(top / 2^k) for
top = bound / 2, so a short repetition needs no deep search from the starts
before it.  In a round, a DFS from each start in turn walks its first halves
of up to cap nodes once; at each of l > lo nodes it walks the second halves
along only ``step[last][key of the node l back]``, which prunes almost
everything.  A repetition of half-length l stops all first halves of l or
more nodes, so the least l wins, then the least start, then the first
extension.  Each first half that opens second halves charges the budget one
node.

The vertex search runs the kernel on the vertices, each with room 1.  Its
first repetition is the least repetitive path by (length, vertex sequence),
which starts at its smaller endpoint, as the reversal of a repetition is one.

Paths run the class search first; it is exact, and without twins it is the
vertex search.
1. Twin classes.  False twins share their open neighbourhood and true twins
   their closed one.  No vertex u has both kinds: a false twin v and a true
   twin w of u would make w adjacent to v, so v adjacent to u.  Each class is
   a module: a vertex outside it sees all of it or none of it.
2. Paths are class walks.  So distinct vertices x_1..x_m form a path iff
   their classes C_1..C_m step between adjacent classes or inside a
   true-twin class (a clique), and then every choice of distinct vertices
   with those classes is a path too.
3. Label multiplicities suffice.  Whether positions i and i+l meet depends
   on their labels alone.  So some path of 2l vertices is a repetition iff
   some class walk C_1..C_2l as in 2 has labels L_p held in C_p such that
   (a) the sets labelled L_i and L_(i+l) meet, for every i <= l, and
   (b) no class is asked for a label more often than it holds it.
   A path gives the labels of its vertices.  Conversely, labels as in (a)
   and (b) lift to distinct vertices, class by class and label by label,
   and 2 makes those a path.
4. The search.  The kernel runs on the classes, each with room its size, so
   it walks every class walk of 2 that enters no class too often.  A class
   is keyed by the set of labels it holds, and ``step[c][K]`` lists the
   classes next to c (c too, for a clique) holding a label that meets a
   label of the set keyed K, for K the key of the class l back.  A class
   pairs with itself only through two meeting labels or one label held
   twice.  One that cannot, as no class of one vertex can, gets a key of
   its own, which ``step`` never pairs it with: its key is the key l back
   iff it is the class l back.  So ``step`` gives what a table keyed by the
   class l back would, and these are (a) and (b) for one pair at a time:
   they prune no walk of 3.  At a complete walk ``fits`` decides (a) and (b)
   exactly.  A pair whose two classes the walk enters once each takes any
   meeting labels, and the other pairs try every choice.  So the class
   search meets a repetition of half-length l iff a path has one.  Its
   rounds and cuts are those of the vertex search, so its first repetition
   has the least l.  It walks each class walk once, where the vertex search,
   these tables on one vertex per class, each keyed by its label alone,
   walks every choice of vertices in it.
5. The witness.  If a class has two or more vertices, the vertex search then
   runs on that l alone (lo = l - 1, bound 2l).  It returns what it would
   have returned over every half-length, as its order is the least l, then
   the least start, then the first extension.

A graph of maximum degree at most 2 runs neither search: after the edge scan
the window scan finds the same witness.
1. Windows are the paths.  Each component is an isolated vertex, a path
   listed from an end, or a cycle listed round from a vertex and on for
   m - 1 more vertices, where m counts the component's vertices.  Along a
   simple path each vertex is adjacent to the one before, so its position in
   the listing moves by one (round the cycle), and always the same way, as
   turning back would repeat a vertex.  So a simple path of k vertices is a
   window of k consecutive positions of a listing, read forwards or
   backwards, and k <= m.  Conversely every such window is a simple path: k
   <= m consecutive positions hold distinct vertices.
2. Rows.  For each l, each component with 2l <= m gets one bytes row whose
   entry i says whether the sets at positions i and i + l meet.  The window
   of 2l positions from i is a repetition iff the row holds l ones from i.
   Read backwards it pairs the same positions, so it is one then too.
3. The witness.  At the least l with a hit, the least vertex sequence among
   the hit windows read both ways is the least repetitive path by (length,
   vertex sequence): the vertex search's witness.
Each component with windows of 2l vertices charges the budget one node per l.

A bound of at least ``exact_bound(g)`` (|V| rounded down to even) is exact;
smaller bounds give sound but partial verification and the caller must say so.

Walks run the vertex search: every vertex has room for the whole walk, so a
vertex may repeat; a completed repetition whose second half is its first
half vertex by vertex (a boring walk, never a simple path) is skipped; and
the bound is not clamped to |V|.
"""

from __future__ import annotations

from collections import Counter
from itertools import product

from .errors import Budget, FrozenValue
from .graphs import Graph


class RepetitionWitness(FrozenValue):
    """An even path whose color string is a repetition; ``half_colors`` are
    the l colors of the first half (for tuple colorings, the least color
    common to positions i and i+l)."""

    path: tuple[int, ...]
    half_colors: tuple[int, ...]


def exact_bound(g: Graph) -> int:
    """|V| rounded down to even: a path bound is exact iff it is at least this."""
    return g.n - g.n % 2


def even_bound(g: Graph, max_vertices: int, *, walks: bool = False) -> int:
    """The vertex bound a search of paths (or, with ``walks``, of walks) of
    at most max_vertices vertices runs at.  The bound must be even and at
    least 2 (ValueError otherwise); a path bound is clamped to
    ``exact_bound(g)``."""
    if max_vertices < 2 or max_vertices % 2 != 0:
        raise ValueError(f"{'walk' if walks else 'path'} bound must be even and at least 2")
    return max_vertices if walks else min(max_vertices, exact_bound(g))


def _search(adj, step, key, room, fits, lo: int, bound: int, budget: Budget):
    """The first (in l, then start, then extension order) node sequence p of
    lo < l <= bound / 2 nodes a half whose positions i and i+l are paired by
    ``step`` and for which ``fits(p, l)`` holds, or None.  The first halves
    start at the nodes of ``adj`` and walk it; ``room`` holds every node's
    room and is used up as nodes join the sequence."""
    top, best = bound // 2, None
    # one round per cap, the half-lengths lo + 1 .. cap: top / 2^k rounded up
    for cap in sorted(c for c in {-(-top >> k) for k in range(top.bit_length())} if c > lo):
        for start in range(len(adj)):
            room[start] -= 1
            # l, m: half-length and length of the second halves searched, or 0;
            # base: the frame of their first nodes
            path, l, m, base, stack = [start], 0, 0, None, [iter(adj[start])]
            while stack:
                for u in stack[-1]:
                    if room[u]:
                        break
                else:
                    if stack.pop() is base:  # every second half of path is done
                        l = m = 0
                        if len(path) < cap:
                            stack.append(iter(adj[path[-1]]))
                            continue
                    room[path.pop()] += 1
                    continue
                d = len(path) + 1  # nodes once u is added
                if d < m:
                    nxt = step[u].get(key[path[d - l]])
                elif not l:  # a new first half: search its second halves first
                    nxt = step[u].get(key[start]) if d > lo else None
                    if nxt:  # iter(base) is base: base is the frame pushed below
                        budget.charge()
                        l, m, base = d, 2 * d, iter(nxt)
                        nxt = base
                    elif d < cap:
                        nxt = adj[u]
                else:  # a repetition of half-length l
                    p = (*path, u)
                    if not fits(p, l):
                        continue
                    best = p
                    if l - 1 == lo:
                        return best
                    cap = l - 1
                    for v in path[l - 2 :]:
                        room[v] += 1
                    del path[l - 2 :], stack[l - 2 :]
                    nxt = l = m = 0
                if nxt:
                    path.append(u)
                    room[u] -= 1
                    stack.append(iter(nxt))
        if best:
            return best
        lo = cap
    return None


def _not_boring(p, l: int) -> bool:
    """The vertex search's end check: a path is never boring, a walk may be."""
    return p[:l] != p[l:]


def _twin_classes(g: Graph) -> list[list[int]]:
    """The twin classes of g in order of least vertex, each ascending."""
    closed = [tuple(sorted((*nbrs, v))) for v, nbrs in enumerate(g.adj)]
    by_open: dict = {}
    by_closed: dict = {}
    for v, nbrs in enumerate(g.adj):
        by_open.setdefault(nbrs, []).append(v)
        by_closed.setdefault(closed[v], []).append(v)
    classes = []
    for v, nbrs in enumerate(g.adj):
        twins = by_open[nbrs] if len(by_open[nbrs]) > 1 else by_closed[closed[v]]
        if twins[0] == v:
            classes.append(twins)
    return classes


def _nodes(g: Graph, classes, lab, meets):
    """The kernel's ``adj``, ``step``, ``key`` and end check ``fits`` with the
    classes as its nodes; for one vertex per class, the vertex search's."""
    if len(classes) == g.n:  # a vertex is keyed by its label, and pairs with meets
        adj, key, pairs, fits = g.adj, lab, meets, _not_boring
    else:
        # held[c][L]: how many vertices of class c have the set labelled L
        held = [Counter(map(lab.__getitem__, members)) for members in classes]
        cls = {v: c for c, members in enumerate(classes) for v in members}
        # a true-twin class is among its own neighbours: a step inside it
        adj = [sorted({cls[u] for u in g.adj[members[0]]}) for members in classes]
        # key[c]: the id of c's set of labels, or ~c if c cannot pair with
        # itself: no two labels it holds meet, and it holds no label twice
        # that meets itself
        ids: dict = {}
        key = [
            ids.setdefault(frozenset(labels), len(ids)) if any(
                n > 1 and a in meets[a] or any(b != a and b in labels for b in meets[a])
                for a, n in labels.items()
            ) else ~c
            for c, labels in enumerate(held)
        ]
        keyed = dict(zip(key, range(len(key))))  # each key -> a class keyed so
        holding: dict = {}  # label -> the keys whose label sets hold it
        for k, c in keyed.items():
            for a in held[c]:
                holding.setdefault(a, []).append(k)
        # pairs[k]: the keys that a class keyed k pairs with, never its own ~c
        pairs = {
            k: {j for a in held[c] for b in meets[a] for j in holding[b]} - {~c}
            for k, c in keyed.items()
        }

        def fits(p, l: int) -> bool:
            """Whether the positions of the class walk p can be labelled as
            point 4 of the module docstring asks."""
            visits = Counter(p)
            choices = [
                [((c, a), (d, b)) for a in held[c] for b in held[d] if b in meets[a]]
                for c, d in zip(p[:l], p[l:])
                if visits[c] > 1 or visits[d] > 1
            ]
            for choice in product(*choices):
                count = Counter(x for pair in choice for x in pair)
                if all(n <= held[c][a] for (c, a), n in count.items()):
                    return True
            return False

    step = []
    for nbrs in adj:
        by_key: dict = {}  # key l back -> the neighbours (ascending) that pair with it
        for d in nbrs:
            for j in pairs[key[d]]:
                by_key.setdefault(j, []).append(d)
        step.append(by_key)
    return adj, step, key, fits


def _window_scan(adj, lab, meets, bound: int, budget: Budget):
    """The vertex search's first repetition of 1 < l <= bound / 2 vertices a
    half, or None, on a graph of maximum degree at most 2: the least
    repetitive window of a component, by l and then by vertex sequence, in
    either orientation.  Each component with windows of 2l vertices charges
    the budget one node per l."""
    seen = [False] * len(adj)
    comps = []  # (m, vertex listing, meets of each label, labels)
    # the ends first, so that a component not reached from one is a cycle
    for v in sorted(range(len(adj)), key=lambda v: len(adj[v]) == 2):
        if seen[v]:
            continue
        seen[v] = True
        seq = [v]
        for u in seq:  # appends the one unseen neighbour of the last vertex
            for x in adj[u]:
                if not seen[x]:
                    seen[x] = True
                    seq.append(x)
                    break
        m = len(seq)
        if len(adj[v]) == 2:  # a cycle: go on round it to every window
            seq += seq[: m - 1]
        w = [lab[x] for x in seq]
        comps.append((m, seq, [meets[a] for a in w], w))
    for l in range(2, bound // 2 + 1):
        comps = [c for c in comps if 2 * l <= c[0]]
        if not comps:
            return None
        ones, hits = b"\1" * l, []
        for m, seq, ms, w in comps:
            budget.charge()
            # row[i]: whether positions i and i + l meet, for the m windows
            # of a cycle or the m - 2l + 1 of a path
            row = bytes(map(set.__contains__, ms, w[l : m + 2 * l - 1]))
            if ones in row:
                hits += [
                    seq[i : i + 2 * l] for i in range(len(row) - l + 1) if row.startswith(ones, i)
                ]
        if hits:
            return tuple(min(min(h, h[::-1]) for h in hits))
    return None


def _find_repetition(
    g: Graph, sets, max_vertices: int, budget: Budget | None = None, walks: bool = False
) -> RepetitionWitness | None:
    """First (in l, then start vertex, then lexicographic extension order)
    even simple path of at most max_vertices vertices whose positions i and
    i+l have meeting color sets, or None.  With ``walks``, the first such
    walk that is not boring."""
    sets = [frozenset(s) for s in sets]
    if len(sets) != g.n:
        raise ValueError(f"coloring covers {len(sets)} vertices, graph has {g.n}")
    bound = even_bound(g, max_vertices, walks=walks)
    budget = budget or Budget()
    if walks:
        _charge_walks(g, bound, budget)
    labels: dict = {}
    lab = [labels.setdefault(s, len(labels)) for s in sets]
    holders: dict = {}
    for s, label in labels.items():
        for c in s:
            holders.setdefault(c, []).append(label)
    # meets[L]: the labels of every set that meets the set labelled L
    meets = [{m for c in s for m in holders[c]} for s in labels]
    # half-length 1: the first edge whose ends' sets meet
    p = next(
        ((v, u) for v, nbrs in enumerate(g.adj) for u in nbrs if lab[u] in meets[lab[v]]), None
    )
    if p is None and not walks and max(map(len, g.adj), default=0) <= 2:
        p = _window_scan(g.adj, lab, meets, bound, budget)
    elif p is None:
        singles = [[v] for v in range(g.n)]
        classes = singles if walks else _twin_classes(g)
        adj, step, key, fits = _nodes(g, classes, lab, meets)
        room = [bound] * g.n if walks else [len(members) for members in classes]
        p = _search(adj, step, key, room, fits, 1, bound, budget)
        if p and len(classes) < g.n:  # the witness: the vertex search at l alone
            adj, step, key, fits = _nodes(g, singles, lab, meets)
            p = _search(adj, step, key, [1] * g.n, fits, len(p) // 2 - 1, len(p), budget)
    if p is None:
        return None
    l = len(p) // 2
    return RepetitionWitness(p, tuple(min(sets[p[i]] & sets[p[i + l]]) for i in range(l)))


def find_repetitive_path(
    g: Graph, colors, max_vertices: int, *, budget: Budget | None = None
) -> RepetitionWitness | None:
    """First (in l, then start-vertex, then lexicographic extension order)
    even simple path of at most max_vertices vertices whose colors form a
    repetition, or None.  Each first half that opens second halves charges
    the budget one node; on a graph of maximum degree at most 2, each
    component scanned at a half-length does."""
    return _find_repetition(g, [(c,) for c in colors], max_vertices, budget)


def find_tuple_repetitive_path(
    g: Graph, sets, max_vertices: int, *, budget: Budget | None = None
) -> RepetitionWitness | None:
    """Tuple-coloring analogue: an even path admits a repetitive choice iff
    the color sets at positions i and i+l intersect for every i (positions
    are distinct vertices, so the choices are independent)."""
    return _find_repetition(g, sets, max_vertices, budget)


def _charge_walks(g: Graph, max_vertices: int, budget: Budget):
    """Charge a bound on the second-half nodes the walk search visits, one
    length at a time, so an oversized bound is refused as soon as it is.  A
    walk of m vertices is visited at most once per half-length l with
    m / 2 <= l < m and l <= max_vertices / 2; once no walk of a length
    exists, no longer one does."""
    top = max_vertices // 2
    counts = [1] * g.n
    for m in range(2, max_vertices + 1):
        counts = [sum(counts[u] for u in g.adj[v]) for v in range(g.n)]
        walks = sum(counts)
        if not walks:
            return
        budget.charge(walks * (min(m - 1, top) - (m + 1) // 2 + 1))


def is_walk_nonrepetitive(
    g: Graph, colors, max_walk_vertices: int, *, budget: Budget | None = None
) -> bool:
    """True iff no non-boring walk of at most the given even vertex count is
    repetitively colored.  A boring walk (second half revisits the first
    vertex-by-vertex) is repetitively colored under every coloring and is
    exempt by definition.  A bound on the walk search's second-half nodes,
    from the number of walks of each length, is charged to the budget up
    front, length by length; the walk search then charges it as the path
    searches do."""
    sets = [(c,) for c in colors]
    return _find_repetition(g, sets, max_walk_vertices, budget, walks=True) is None
