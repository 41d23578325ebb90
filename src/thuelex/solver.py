"""Exact Thue, rainbow-Thue and tuple-coloring feasibility on small instances
by branch and bound.

One engine, ``_search``, serves every mode: it gives each vertex a p-subset of
the palette as a bitmask, with p = 1 for plain and rainbow colorings (a plain
color c is the mask 1 << c).  Vertices are assigned class by class, single
vertices in BFS order from vertex 0 or rainbow layers in base BFS order.
Value symmetry is broken by allowing fresh colors only as the block right
above the largest color used, and the colors of a class ascend.  Ascending-q
optimum searches make the dominant infeasibility proofs as small as possible.
Budget exhaustion raises ResourceLimitError, which ``_solve`` catches once.

Rainbow layers may ascend.  A layer's vertices are twins, false in G[E_k] and
true in G[K_k], so permuting its colors is an automorphism, and an ascending
layer is rainbow.  Make any rainbow coloring canonical, then sort each layer:
a layer's fresh colors are its largest, so sorted they come last and
consecutive, and the result stays canonical.  With every pair of one layer as
a constraint, the search returns the least canonical coloring in candidate
order, which ascends, as sorting a layer that does not would give a smaller
one.  So the witness is the same.

The constraints are paths as flat lists of agreement pairs, positions whose
masks must not all meet, bucketed by their largest rank in assignment order;
a (re)assigned vertex rechecks exactly the ones it completes.  The verifier
is the only source of longer paths (lazy cuts):
1. The starting constraints are the edges, the 2-vertex paths, built once
   per call and shared by every palette size, as is every cut added to them.
2. Each complete coloring is checked by ``find_tuple_repetitive_path`` at
   the verifier's ``exact_bound`` (a plain color c is the set {c}); a graph of
   fewer than 2 vertices has no even path and is not checked.  A coloring
   that passes is the answer; the checks are charged to the one budget.
3. The witness of one that fails, a repetitive path, is added as a cut to
   the bucket of its largest rank r, and the search resumes at rank r with
   the candidate placed there, which the cut now rejects.
4. When ``_search`` finds no coloring, q is infeasible: its constraints are
   a relaxation of the full problem.

The answers are those of a search over every even path.  ``_search`` tries
candidates in one fixed order and prunes a prefix only when a constraint
inside it is violated, so it meets complete colorings in that order and
returns the first that violates no constraint and passes the check.  Every cut
is a path that no nonrepetitive coloring makes repetitive, so the full
problem's first coloring is never pruned, and every complete coloring before
it that the constraints let through fails the check.  Resuming at rank r skips
only colorings that match the rejected one on ranks <= r, each of which
violates the cut, whose vertices all have rank <= r.  So the first coloring
that passes is the full problem's first, and the search ends, as it only moves
forward.  Status, value and witness are thus unchanged; ``nodes_explored`` is
not.
"""

from __future__ import annotations

from itertools import combinations

from .colorings import Coloring, TupleColoring
from .errors import Budget, FrozenValue, ResourceLimitError
from .graphs import Graph, ProductGraph, layer_vertices
from .verifier import exact_bound, find_tuple_repetitive_path

STATUS_EXACT = "exact"
STATUS_LOWER_BOUND = "lower_bound_only"
STATUS_TIMEOUT = "timeout"


class SolveResult(FrozenValue):
    """Outcome of a solver call.

    status "exact": ``value`` is the decided feasibility (bool) or optimum
    (int), with a witness for feasible/optimum results.  "lower_bound_only":
    an optimum search proved value >= ``value`` before running out of budget.
    "timeout": a single feasibility decision ran out of budget.
    ``nodes_explored`` is what this call charged to its budget: the color
    assignments tried and the nodes of the verifier's exact checks.
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
    p: int,
    q: int,
    budget: Budget,
    classes: list[tuple[int, ...]],
    buckets: list[list[tuple]],
    check,
    *,
    symmetry_breaking: bool = True,
) -> list[tuple[int, ...]] | None:
    """The one assignment engine: gives every vertex a p-subset of 0..q-1,
    returned per vertex, or None when no assignment meets the constraints
    and passes ``check``.

    Vertices are assigned in the order of ``classes``, and ``buckets[r]``
    holds the flat-pairs constraints completed at rank r.  ``check(sets)``
    returns None for a complete assignment it accepts, else a witness whose
    path is added to ``buckets`` as a cut, at whose largest rank the search
    resumes.  Candidates at rank r, one node each, are
    ``_tuple_candidates(maxused[r], p, q)``, or every p-subset when symmetry
    breaking is off.  For p = 1 the candidate at index c is color c, so a
    vertex after the first of its class starts above the color before it;
    classes of more than one vertex need p = 1."""
    order = [v for c in classes for v in c]
    ascend = [i > 0 for c in classes for i in range(len(c))] + [False]
    n = len(order)
    rank = [0] * n
    for r, v in enumerate(order):
        rank[v] = r
    cand_cache: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
    masks = [0] * n
    placed: list[tuple[int, ...]] = [()] * n
    try_next = [0] * (n + 1)
    maxused = [-1] * (n + 1)
    charge = budget.charge
    r = 0
    while True:
        if r == n:
            # back from assignment order to vertex order
            sets = [s for _, s in sorted(zip(order, placed))]
            found = check(sets)
            if found is None:
                return sets
            path = found.path
            l = len(path) // 2
            r = max(rank[v] for v in path)
            buckets[r].append(tuple(v for pair in zip(path[:l], path[l:]) for v in pair))
            try_next[r] -= 1  # the cut rejects the candidate placed at r
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
            try_next[r] = s[-1] + 1 if ascend[r] else 0
        else:
            r -= 1
            if r < 0:
                return None


def _rainbow(pg: ProductGraph) -> list[tuple[int, ...]]:
    """The classes of rainbow searches: the layers in base BFS order."""
    return [layer_vertices(pg, b) for b in bfs_order(pg.base)]


def _solve(
    g: Graph,
    p: int,
    q: int,
    budget: Budget | None,
    *,
    optimum: bool = False,
    tuples: bool = False,
    symmetry_breaking: bool = True,
    classes: list[tuple[int, ...]] | None = None,
) -> SolveResult:
    """What every entry point runs: decide palette size q, or with
    ``optimum`` find the least size >= q by ascending search up to max(n, q)
    (distinct colors everywhere always work).  The sizes share the edges and
    the cuts, all charged to one budget (a fresh ``Budget()`` for None), and
    assign in the order of ``classes`` (BFS unless given).  The witness is a
    ``TupleColoring`` with ``tuples``, else a ``Coloring``.  An optimum is
    exact only when feasibility at it and infeasibility below it both are:
    when the budget runs out, an optimum search reports the size it was
    deciding as a lower bound, and a decision reports a timeout."""
    if q < 1:
        raise ValueError("palette size must be positive")
    budget = budget or Budget()
    before = budget.spent
    classes = classes or [(v,) for v in bfs_order(g)]
    rank = [0] * g.n
    for r, v in enumerate(v for c in classes for v in c):
        rank[v] = r
    buckets: list[list[tuple]] = [[] for _ in range(g.n)]
    for u, v in g.edges():
        buckets[max(rank[u], rank[v])].append((u, v))
    full = exact_bound(g)

    def check(sets):
        return find_tuple_repetitive_path(g, sets, full, budget=budget) if full else None

    cap = max(g.n, q) if optimum else q
    status, value, witness = STATUS_EXACT, False, None
    try:
        for q in range(q, cap + 1):
            sets = _search(p, q, budget, classes, buckets, check, symmetry_breaking=symmetry_breaking)
            if sets is not None:
                value = q if optimum else True
                witness = (
                    TupleColoring(p, q, tuple(sets)) if tuples
                    else Coloring(q, tuple(c for (c,) in sets))
                )
                break
    except ResourceLimitError:
        status, value = (STATUS_LOWER_BOUND, q) if optimum else (STATUS_TIMEOUT, None)
    return SolveResult(status, value, witness, budget.spent - before)


def exists_coloring(
    g: Graph,
    q: int,
    budget: Budget | None = None,
    *,
    symmetry_breaking: bool = True,
) -> SolveResult:
    """Decide whether a nonrepetitive q-coloring of g exists (exact unless
    the budget runs out)."""
    return _solve(g, 1, q, budget, symmetry_breaking=symmetry_breaking)


def thue_number(g: Graph, budget: Budget | None = None) -> SolveResult:
    """Smallest q admitting a nonrepetitive q-coloring, by ascending search;
    exact only when feasibility at q and infeasibility at q-1 both are."""
    return _solve(g, 1, 1, budget, optimum=True)


def rainbow_exists_coloring(
    pg: ProductGraph, q: int, budget: Budget | None = None
) -> SolveResult:
    """Decide existence of a nonrepetitive coloring with every layer
    rainbow.  Layers are assigned whole, their colors strictly ascending,
    which makes them rainbow; the module docstring proves that this loses no
    coloring and keeps the witness."""
    return _solve(pg.view, 1, q, budget, classes=_rainbow(pg))


def rainbow_thue_number(pg: ProductGraph, budget: Budget | None = None) -> SolveResult:
    """Smallest palette for a rainbow nonrepetitive coloring of the product."""
    return _solve(pg.view, 1, pg.k, budget, optimum=True, classes=_rainbow(pg))


def exists_tuple_coloring(
    g: Graph, p: int, q: int, budget: Budget | None = None
) -> SolveResult:
    """Decide existence of a p-tuple nonrepetitive q-coloring: no even simple
    path may have intersecting color sets at every pair of positions half a
    length apart."""
    if not 1 <= p < q:
        raise ValueError("need 1 <= p < q")
    return _solve(g, p, q, budget, tuples=True)
