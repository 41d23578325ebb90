"""Exact Thue, rainbow-Thue and tuple-coloring feasibility on small instances
by branch and bound.

One engine, ``_search``, serves every mode: it gives each vertex a p-subset
of the palette as a bitmask, with p = 1 for plain and rainbow colorings (a
plain color c is the mask 1 << c).  Vertices are assigned in a fixed order
(BFS from vertex 0, or whole layers for rainbow searches), so the colored set
is always a prefix of that order.  The constraints are even simple paths,
and for rainbow searches every pair of vertices in one layer, bucketed by
their last vertex in assignment order.  When a vertex is (re)assigned,
exactly the constraints completed by it need rechecking, each as a flat list
of positions whose masks must not all meet.  Value symmetry is broken by
allowing fresh colors only as the block right above the largest color used;
ascending-q optimum searches make the dominant infeasibility proofs as small
as possible.  Budget exhaustion raises ResourceLimitError, which ``_solve``
catches once.

Palette sizes are decided on a ladder of path bounds L = 4, 8, 16, ...:
1. The constraints are the layer pairs and the even paths of at most L
   vertices.  They are built when the rung changes and shared by every
   palette size after it.
2. When ``_search`` finds no coloring under them, q is infeasible: they are
   a relaxation of the full problem.
3. When it finds one and L covers every even path, that is the answer.
   Otherwise ``find_tuple_repetitive_path`` checks it exactly at |V| rounded
   down to even (a plain color c is the set {c}).  A coloring that passes
   is the answer.  One that fails sends the search to the next rung; when
   that rung's enumeration would charge more than ``_RUNG_NODE_CAP`` nodes,
   the solver stays on its rung for good and adds the exact check's witness,
   a repetitive path, to its bucket as a lazy cut.  Either way it searches
   again from the start.
The exact checks and the enumerations, abandoned ones too, are charged to
the one budget.

The answers are those of a search over every even path.  ``_search`` tries
candidates in one fixed order and prunes a prefix only when a constraint
inside it is violated, so under any set of constraints it returns the first
complete coloring, in that order, that violates none of them.  Every rung
and every cut is a valid constraint: a path of the graph, or a layer pair,
that no nonrepetitive coloring violates.  So the full problem's first
coloring is never pruned, and every coloring before it that a rung lets
through is repetitive and fails the exact check; the first coloring that
passes is the full problem's first.  The status, value and witness are
therefore unchanged; ``nodes_explored`` is not.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .colorings import Coloring, TupleColoring
from .errors import Budget, ResourceLimitError
from .graphs import Graph, ProductGraph
from .verifier import find_tuple_repetitive_path

STATUS_EXACT = "exact"
STATUS_LOWER_BOUND = "lower_bound_only"
STATUS_TIMEOUT = "timeout"

# The ladder's first path bound, and the most nodes a rung's enumeration may
# charge before the solver stays on the rung it has and cuts lazily instead.
_FIRST_RUNG = 4
_RUNG_NODE_CAP = 131_072


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a solver call.

    status "exact": ``value`` is the decided feasibility (bool) or optimum
    (int), with a witness for feasible/optimum results.  "lower_bound_only":
    an optimum search proved value >= ``value`` before running out of budget.
    "timeout": a single feasibility decision ran out of budget.
    ``nodes_explored`` is what this call charged to its budget: the color
    assignments tried, the path extensions made while enumerating the
    constraints of each rung (one node per vertex added to a path), and the
    nodes of the verifier's exact checks.
    """

    status: str
    value: int | bool | None
    witness: Coloring | TupleColoring | None
    nodes_explored: int


def bfs_order(g: Graph) -> list[int]:
    """BFS order from vertex 0; restarts at the smallest unvisited vertex."""
    order: list[int] = []
    seen = bytearray(g.n)
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = 1
        queue = [root]
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            order.append(v)
            for u in g.adj[v]:
                if not seen[u]:
                    seen[u] = 1
                    queue.append(u)
    return order


def _path_buckets(
    g: Graph,
    budget: Budget,
    order: list[int] | None = None,
    layer_pairs=(),
    max_vertices: int | None = None,
) -> tuple[list[int], list[list[tuple]]]:
    """The assignment order (BFS unless given) and, for it, all even simple
    paths of at most max_vertices vertices (default: all) as flat
    (a0,b0,a1,b1,...) agreement-pair tuples, plus the ``layer_pairs`` of
    vertices that must not share a color, bucketed by the rank at which
    they complete.

    The enumeration itself is charged against the budget (one unit per path
    extension) so oversized inputs run out of budget instead of hanging."""
    if order is None:
        order = bfs_order(g)
    rank = [0] * g.n
    for r, v in enumerate(order):
        rank[v] = r
    buckets: list[list[tuple]] = [[] for _ in range(g.n)]
    limit = g.n if max_vertices is None else min(max_vertices, g.n)
    adj = g.adj
    in_path = bytearray(g.n)
    charge = budget.charge
    for start in range(g.n):
        charge()
        path = [start]
        top = [rank[start]]  # top[d]: largest rank among path[0..d]
        in_path[start] = 1
        stack = [iter(adj[start] if limit > 1 else ())]
        while stack:
            for u in stack[-1]:
                if not in_path[u]:
                    break
            else:
                stack.pop()
                in_path[path.pop()] = 0
                top.pop()
                continue
            charge()
            path.append(u)
            t = top[-1]
            if rank[u] > t:
                t = rank[u]
            m = len(path)
            if m % 2 == 0 and start < u:
                l = m // 2
                pairs = [0] * m
                pairs[0::2] = path[:l]
                pairs[1::2] = path[l:]
                buckets[t].append(tuple(pairs))
            if m < limit:
                top.append(t)
                in_path[u] = 1
                stack.append(iter(adj[u]))
            else:
                path.pop()
    for u, v in layer_pairs:
        buckets[max(rank[u], rank[v])].append((u, v))
    for lst in buckets:
        lst.sort(key=len)
    return order, buckets


def _tuple_candidates(maxused: int, p: int, q: int) -> list[tuple[int, tuple[int, ...]]]:
    """Canonical p-subsets available when colors 0..maxused are in use: any
    number of fresh colors must form the consecutive block right above
    maxused.  Returned as (bitmask, ascending tuple), sorted by tuple."""
    out = []
    for fresh in range(p + 1):
        if maxused + fresh >= q:
            continue
        new_block = tuple(range(maxused + 1, maxused + 1 + fresh))
        for old in combinations(range(maxused + 1), p - fresh):
            s = old + new_block
            m = 0
            for c in s:
                m |= 1 << c
            out.append((m, s))
    out.sort(key=lambda t: t[1])
    return out


def _search(
    p: int, q: int, budget: Budget, constraints: tuple, *, symmetry_breaking: bool = True
) -> list[tuple[int, ...]] | None:
    """The one assignment engine: gives every vertex a p-subset of 0..q-1
    (p = 1 for plain and rainbow colorings), returned per vertex, or None
    when no assignment meets the constraints.

    ``constraints`` is the (order, buckets) pair from ``_path_buckets``.
    Candidates at rank r are ``_tuple_candidates(maxused[r], p, q)``, or
    every p-subset when symmetry breaking is off.  Each candidate tried costs
    one node of the budget."""
    order, buckets = constraints
    n = len(order)
    cand_cache: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
    masks = [0] * n
    placed: list[tuple[int, ...]] = [()] * n
    try_next = [0] * (n + 1)
    maxused = [-1] * (n + 1)
    charge = budget.charge
    r = 0
    while r < n:
        v = order[r]
        key = maxused[r] if symmetry_breaking else q - 1
        cands = cand_cache.get(key)
        if cands is None:
            cands = cand_cache[key] = _tuple_candidates(key, p, q)
        bucket = buckets[r]
        i = try_next[r]
        while i < len(cands):
            charge()
            masks[v] = cands[i][0]
            # accept unless some bucketed constraint has all its pairs meeting
            for pr in bucket:
                j, end = 0, len(pr)
                while j < end and masks[pr[j]] & masks[pr[j + 1]]:
                    j += 2
                if j == end:
                    break
            else:
                break
            i += 1
        if i < len(cands):
            try_next[r] = i + 1
            s = placed[r] = cands[i][1]
            maxused[r + 1] = max(maxused[r], s[-1])
            r += 1
            try_next[r] = 0
        else:
            masks[v] = 0
            r -= 1
            if r < 0:
                return None
            masks[order[r]] = 0
    # back from assignment order to vertex order
    return [sets for _, sets in sorted(zip(order, placed))]


def _rainbow(pg: ProductGraph) -> dict:
    """Engine options for rainbow searches: whole layers in base BFS order,
    and every pair of vertices in one layer as a constraint."""
    layers = [range(b * pg.k, (b + 1) * pg.k) for b in bfs_order(pg.base)]
    return {
        "order": [v for layer in layers for v in layer],
        "layer_pairs": [pair for layer in layers for pair in combinations(layer, 2)],
    }


def _rung(g: Graph, budget: Budget, rung: int, paths: dict):
    """The constraints of the ladder rung of at most ``rung`` vertices, or
    None when enumerating them would charge more than ``_RUNG_NODE_CAP``
    nodes.  The nodes an abandoned enumeration charged are charged to the
    budget all the same, and when it is the budget that runs out, its
    ResourceLimitError is raised."""
    trial = Budget(min(_RUNG_NODE_CAP, budget.max_nodes - budget.spent))
    trial.deadline = budget.deadline
    try:
        constraints = _path_buckets(g, trial, max_vertices=rung, **paths)
    except ResourceLimitError:
        constraints = None
    budget.charge(trial.spent)
    return constraints


def _solve(
    g: Graph, p: int, palettes, budget: Budget | None, symmetry_breaking=True, **paths
) -> tuple[int | None, list[tuple[int, ...]] | None, int]:
    """What every entry point runs: search the palette sizes in order on the
    ladder of path bounds (``paths`` goes to ``_path_buckets``), all charged
    to one budget (a fresh ``Budget()`` for None).  Returns (q, sets, nodes):
    the first feasible q and its sets; q = None when every size is
    infeasible; sets = None with the q being decided when the budget ran
    out; nodes is what this call charged."""
    budget = budget or Budget()
    before = budget.spent
    full = g.n - g.n % 2  # the exact check's bound: every even path
    q, sets = palettes[0], None
    try:
        rung, capped = _FIRST_RUNG, False
        order, buckets = _path_buckets(g, budget, max_vertices=rung, **paths)
        for q in palettes:
            while True:
                got = _search(p, q, budget, (order, buckets), symmetry_breaking=symmetry_breaking)
                if got is None:
                    break
                # below the full bound a relaxation's coloring needs the exact check
                found = None
                if rung < full:
                    found = find_tuple_repetitive_path(g, got, full, budget=budget)
                if found is None:
                    sets = got
                    break
                climbed = not capped and _rung(g, budget, 2 * rung, paths)
                if climbed:
                    rung *= 2
                    order, buckets = climbed
                else:  # stay on this rung and cut off the witness
                    capped = True
                    path, l = found.path, len(found.path) // 2
                    cut = tuple(v for pair in zip(path[:l], path[l:]) for v in pair)
                    buckets[max(map(order.index, path))].append(cut)
            if sets is not None:
                break
        else:
            q = None
    except ResourceLimitError:
        pass
    return q, sets, budget.spent - before


def _coloring(q: int, sets: list[tuple[int, ...]]) -> Coloring:
    return Coloring(q, tuple(c for (c,) in sets))


def _decide(
    g: Graph, p: int, q: int, budget: Budget | None, witness=_coloring, **engine
) -> SolveResult:
    """Feasibility at palette size q; ``witness(q, sets)`` builds the
    coloring returned with a feasible answer."""
    if q < 1:
        raise ValueError("palette size must be positive")
    got, sets, nodes = _solve(g, p, [q], budget, **engine)
    if sets is not None:
        return SolveResult(STATUS_EXACT, True, witness(q, sets), nodes)
    if got is None:
        return SolveResult(STATUS_EXACT, False, None, nodes)
    return SolveResult(STATUS_TIMEOUT, None, None, nodes)


def _least_palette(g: Graph, first: int, budget: Budget | None, **engine) -> SolveResult:
    """Smallest palette size >= first admitting a coloring, by ascending
    search over one shared ladder of path constraints up to q = max(n, first)
    (distinct colors everywhere always work); exact only when feasibility at q and
    infeasibility below q both are."""
    cap = max(g.n, first)
    q, sets, nodes = _solve(g, 1, range(first, cap + 1), budget, **engine)
    if sets is not None:
        return SolveResult(STATUS_EXACT, q, _coloring(q, sets), nodes)
    return SolveResult(STATUS_LOWER_BOUND, cap + 1 if q is None else q, None, nodes)


def exists_coloring(
    g: Graph,
    q: int,
    budget: Budget | None = None,
    *,
    symmetry_breaking: bool = True,
) -> SolveResult:
    """Decide whether a nonrepetitive q-coloring of g exists (exact unless
    the budget runs out)."""
    return _decide(g, 1, q, budget, symmetry_breaking=symmetry_breaking)


def thue_number(g: Graph, budget: Budget | None = None) -> SolveResult:
    """Smallest q admitting a nonrepetitive q-coloring, by ascending search;
    exact only when feasibility at q and infeasibility at q-1 both are."""
    return _least_palette(g, 1, budget)


def rainbow_exists_coloring(
    pg: ProductGraph, q: int, budget: Budget | None = None
) -> SolveResult:
    """Decide existence of a nonrepetitive coloring with every layer rainbow.

    Branches over ordered layer tuples (vertex by vertex within the layer,
    which prunes tuple prefixes early); the first layer is canonically
    colored 0..k-1 by the combination of value symmetry breaking and the
    rainbow pair constraints."""
    return _decide(pg.view, 1, q, budget, **_rainbow(pg))


def rainbow_thue_number(pg: ProductGraph, budget: Budget | None = None) -> SolveResult:
    """Smallest palette for a rainbow nonrepetitive coloring of the product."""
    return _least_palette(pg.view, pg.k, budget, **_rainbow(pg))


def exists_tuple_coloring(
    g: Graph, p: int, q: int, budget: Budget | None = None
) -> SolveResult:
    """Decide existence of a p-tuple nonrepetitive q-coloring: no even simple
    path may have intersecting color sets at every pair of positions half a
    length apart."""
    if not 1 <= p < q:
        raise ValueError("need 1 <= p < q")
    return _decide(g, p, q, budget, lambda q, sets: TupleColoring(p, q, tuple(sets)))
