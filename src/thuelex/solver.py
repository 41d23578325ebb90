"""Exact Thue, rainbow-Thue and tuple-coloring feasibility on small instances
by branch and bound.

One engine, ``_search``, serves every mode: it gives each vertex a p-subset
of the palette as a bitmask, with p = 1 for plain and rainbow colorings (a
plain color c is the mask 1 << c).  Vertices are assigned in a fixed order
(BFS from vertex 0, or whole layers for rainbow searches), so the colored set
is always a prefix of that order.  All even simple paths are enumerated up
front, once per public call, and bucketed by the last vertex of the path in
assignment order; an optimum search shares these constraints across every
palette size it tries.  When a vertex is (re)assigned, exactly the paths
completed by it need rechecking, each as a flat list of positions whose masks
must not all meet.
Value symmetry is broken by allowing fresh colors only as the block right
above the largest color used; ascending-q optimum searches make the dominant
infeasibility proofs as small as possible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations

from .colorings import Coloring, TupleColoring
from .errors import DEFAULT_NODE_BUDGET, ResourceLimitError
from .graphs import Graph, ProductGraph

STATUS_EXACT = "exact"
STATUS_LOWER_BOUND = "lower_bound_only"
STATUS_TIMEOUT = "timeout"


@dataclass(frozen=True)
class SearchLimits:
    """Budgets for one solver invocation.  Nodes count both the color
    assignments tried and the path extensions made while enumerating the
    constraints (one node per vertex added to a path)."""

    max_nodes: int = DEFAULT_NODE_BUDGET
    time_budget: float = float("inf")
    palette_cap: int = 64

    def __post_init__(self):
        if self.max_nodes <= 0 or self.time_budget <= 0 or self.palette_cap <= 0:
            raise ValueError("all limits must be positive")


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a solver call.

    status "exact": ``value`` is the decided feasibility (bool) or optimum
    (int), with a witness for feasible/optimum results.  "lower_bound_only":
    an optimum search proved value >= ``value`` before running out of budget.
    "timeout": a single feasibility decision ran out of budget.
    """

    status: str
    value: int | bool | None
    witness: Coloring | TupleColoring | None
    nodes_explored: int


class _Budget:
    __slots__ = ("remaining", "deadline", "spent")

    def __init__(self, limits: SearchLimits):
        self.remaining = limits.max_nodes
        self.deadline = (
            None
            if limits.time_budget == float("inf")
            else time.monotonic() + limits.time_budget
        )
        self.spent = 0

    def charge(self, nodes: int) -> bool:
        """Account for work; False once the budget is gone."""
        self.spent += nodes
        self.remaining -= nodes
        if self.remaining < 0:
            return False
        if self.deadline is not None and time.monotonic() > self.deadline:
            return False
        return True


def bfs_order(g: Graph, start: int = 0) -> list[int]:
    """BFS order from ``start``; restarts at the smallest unvisited vertex."""
    order: list[int] = []
    if g.n == 0:
        return order
    seen = bytearray(g.n)
    for root in [start] + list(range(g.n)):
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
    budget: _Budget,
    order: list[int] | None = None,
    max_vertices: int | None = None,
) -> tuple[list[int], list[list[tuple]]] | None:
    """The assignment order (BFS unless given) and, for it, all even simple
    paths of at most max_vertices vertices (default: all) as flat
    (a0,b0,a1,b1,...) agreement-pair tuples, bucketed by the rank at which
    they complete.  Built once per public call and shared by every palette
    size.

    The enumeration itself is charged against the budget (one unit per path
    extension) so oversized inputs time out instead of hanging; returns None
    when the budget runs out."""
    if order is None:
        order = bfs_order(g)
    rank = [0] * g.n
    for r, v in enumerate(order):
        rank[v] = r
    buckets: list[list[tuple]] = [[] for _ in range(g.n)]
    limit = min(max_vertices or g.n, g.n)
    adj = g.adj
    in_path = bytearray(g.n)
    for start in range(g.n):
        if not budget.charge(1):
            return None
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
            if not budget.charge(1):
                return None
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
    g: Graph,
    p: int,
    q: int,
    budget: _Budget,
    constraints: tuple[list[int], list[list[tuple]]],
    *,
    symmetry_breaking: bool = True,
    layer_size: int = 0,
) -> tuple[str, bool, list[tuple[int, ...]] | None]:
    """The one assignment engine: gives every vertex a p-subset of 0..q-1
    (p = 1 for plain and rainbow colorings), returned per vertex.

    ``constraints`` is the (order, buckets) pair from ``_path_buckets``.
    Candidates at rank r are ``_tuple_candidates(maxused[r], p, q)``, or
    every p-subset when symmetry breaking is off.  layer_size > 0 adds the
    rainbow constraint (vertices v//layer_size share a layer and must take
    disjoint sets); rainbow callers pass a layer-major assignment order."""
    n = g.n
    if n == 0:
        return STATUS_EXACT, True, []
    order, buckets = constraints
    cand_cache: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
    masks = [0] * n
    placed: list[tuple[int, tuple[int, ...]]] = [(0, ())] * n
    try_next = [0] * n
    maxused = [-1] * (n + 1)
    layer_mask = [0] * (n // layer_size if layer_size else 0)
    r = 0
    while True:
        v = order[r]
        key = maxused[r] if symmetry_breaking else q - 1
        cands = cand_cache.get(key)
        if cands is None:
            cands = cand_cache[key] = _tuple_candidates(key, p, q)
        bucket = buckets[r]
        lay = v // layer_size if layer_size else -1
        i = try_next[r]
        while i < len(cands):
            if not budget.charge(1):
                return STATUS_TIMEOUT, False, None
            m = cands[i][0]
            if not (layer_size and layer_mask[lay] & m):
                masks[v] = m
                # accept unless some bucketed path has all its pairs meeting
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
            m, s = placed[r] = cands[i]
            if layer_size:
                layer_mask[lay] |= m
            maxused[r + 1] = max(maxused[r], s[-1])
            r += 1
            if r == n:
                out: list[tuple[int, ...]] = [()] * n
                for rr in range(n):
                    out[order[rr]] = placed[rr][1]
                return STATUS_EXACT, True, out
            try_next[r] = 0
        else:
            masks[v] = 0
            r -= 1
            if r < 0:
                return STATUS_EXACT, False, None
            if layer_size:
                layer_mask[order[r] // layer_size] &= ~placed[r][0]
            masks[order[r]] = 0


def _search_once(
    g: Graph,
    p: int,
    q: int,
    budget: _Budget,
    order: list[int] | None = None,
    max_path_vertices: int | None = None,
    **engine,
) -> tuple[str, bool, list[tuple[int, ...]] | None]:
    """A single palette size: build the constraints, then search."""
    constraints = _path_buckets(g, budget, order, max_path_vertices)
    if constraints is None:
        return STATUS_TIMEOUT, False, None
    return _search(g, p, q, budget, constraints, **engine)


def _layer_major_order(pg: ProductGraph) -> list[int]:
    """Assignment order for rainbow searches: base BFS order, whole layers."""
    return [b * pg.k + j for b in bfs_order(pg.base) for j in range(pg.k)]


def _coloring(q: int, sets: list[tuple[int, ...]] | None) -> Coloring | None:
    return None if sets is None else Coloring(q, tuple(c for (c,) in sets))


def _decide(g: Graph, q: int, limits: SearchLimits | None, **engine) -> SolveResult:
    """Plain or rainbow feasibility at palette size q."""
    if q < 1:
        raise ValueError("palette size must be positive")
    budget = _Budget(limits or SearchLimits())
    status, feasible, sets = _search_once(g, 1, q, budget, **engine)
    if status == STATUS_TIMEOUT:
        return SolveResult(STATUS_TIMEOUT, None, None, budget.spent)
    return SolveResult(STATUS_EXACT, feasible, _coloring(q, sets), budget.spent)


def _least_palette(
    g: Graph,
    first: int,
    limits: SearchLimits | None,
    order: list[int] | None = None,
    **engine,
) -> SolveResult:
    """Smallest palette size >= first admitting a coloring, by ascending
    search over one shared set of path constraints; exact only when
    feasibility at q and infeasibility below q both are."""
    limits = limits or SearchLimits()
    budget = _Budget(limits)
    cap = min(limits.palette_cap, max(g.n, 1))
    if first > cap:
        return SolveResult(STATUS_LOWER_BOUND, cap + 1, None, 0)
    constraints = _path_buckets(g, budget, order)
    if constraints is None:
        return SolveResult(STATUS_LOWER_BOUND, first, None, budget.spent)
    for q in range(first, cap + 1):
        status, feasible, sets = _search(g, 1, q, budget, constraints, **engine)
        if status == STATUS_TIMEOUT:
            return SolveResult(STATUS_LOWER_BOUND, q, None, budget.spent)
        if feasible:
            return SolveResult(STATUS_EXACT, q, _coloring(q, sets), budget.spent)
    return SolveResult(STATUS_LOWER_BOUND, cap + 1, None, budget.spent)


def exists_coloring(
    g: Graph,
    q: int,
    limits: SearchLimits | None = None,
    *,
    symmetry_breaking: bool = True,
) -> SolveResult:
    """Decide whether a nonrepetitive q-coloring of g exists (exact unless
    the budget runs out)."""
    return _decide(g, q, limits, symmetry_breaking=symmetry_breaking)


def find_coloring_bounded(
    g: Graph, q: int, max_path_vertices: int, limits: SearchLimits | None = None
) -> tuple[int, ...] | None:
    """First q-coloring with no repetitive path of at most max_path_vertices
    vertices, or None if none exists.  Raises ResourceLimitError on budget
    exhaustion.  Used by construction fallbacks; not an exactness claim."""
    budget = _Budget(limits or SearchLimits())
    status, feasible, sets = _search_once(
        g, 1, q, budget, max_path_vertices=max(2, max_path_vertices - max_path_vertices % 2)
    )
    if status == STATUS_TIMEOUT:
        raise ResourceLimitError("bounded coloring search ran out of budget")
    return tuple(c for (c,) in sets) if feasible else None


def thue_number(g: Graph, limits: SearchLimits | None = None) -> SolveResult:
    """Smallest q admitting a nonrepetitive q-coloring, by ascending search;
    exact only when feasibility at q and infeasibility at q-1 both are."""
    return _least_palette(g, 1, limits)


def rainbow_exists_coloring(
    pg: ProductGraph, q: int, limits: SearchLimits | None = None
) -> SolveResult:
    """Decide existence of a nonrepetitive coloring with every layer rainbow.

    Branches over ordered layer tuples (vertex by vertex within the layer,
    which prunes tuple prefixes early); the first layer is canonically
    colored 0..k-1 by the combination of value symmetry breaking and the
    rainbow constraint."""
    return _decide(pg.view, q, limits, layer_size=pg.k, order=_layer_major_order(pg))


def rainbow_thue_number(
    pg: ProductGraph, limits: SearchLimits | None = None
) -> SolveResult:
    """Smallest palette for a rainbow nonrepetitive coloring of the product."""
    return _least_palette(
        pg.view, pg.k, limits, layer_size=pg.k, order=_layer_major_order(pg)
    )


def exists_tuple_coloring(
    g: Graph, p: int, q: int, limits: SearchLimits | None = None
) -> SolveResult:
    """Decide existence of a p-tuple nonrepetitive q-coloring: no even simple
    path may have intersecting color sets at every pair of positions half a
    length apart."""
    if not 1 <= p < q:
        raise ValueError("need 1 <= p < q")
    budget = _Budget(limits or SearchLimits())
    status, feasible, sets = _search_once(g, p, q, budget)
    if status == STATUS_TIMEOUT:
        return SolveResult(STATUS_TIMEOUT, None, None, budget.spent)
    witness = TupleColoring(p, q, tuple(sets)) if feasible else None
    return SolveResult(STATUS_EXACT, feasible, witness, budget.spent)
