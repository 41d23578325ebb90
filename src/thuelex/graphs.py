"""Canonical graph construction: paths, cycles, regular rooted trees, the
outerplanar gadget, and lexicographic products with empty or complete inner
graphs.

Vertices are always the integers 0..n-1.  A product vertex (b, j) gets the id
b*k + j (base-major), so layer extraction is O(1) and every witness printed by
the verifier or solver is reproducible across runs.  All types are immutable
value data after construction.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass

EMPTY = "empty"
COMPLETE = "complete"
INNER_KINDS = (EMPTY, COMPLETE)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with strictly ascending adjacency tuples.

    Invariants (checked at construction): adjacency is symmetric, no
    self-loops, no duplicate neighbors.
    """

    n: int
    adj: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        if len(self.adj) != self.n:
            raise ValueError("adjacency length does not match vertex count")
        seen = set()
        for u, nbrs in enumerate(self.adj):
            prev = -1
            for v in nbrs:
                if not 0 <= v < self.n:
                    raise ValueError(f"neighbor {v} of {u} out of range")
                if v == u:
                    raise ValueError(f"self-loop at {u}")
                if v <= prev:
                    raise ValueError(f"adjacency of {u} not strictly ascending")
                prev = v
                seen.add((u, v))
        for u, v in seen:
            if (v, u) not in seen:
                raise ValueError(f"edge {u}-{v} is not symmetric")

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Build from an iterable of (u, v) pairs; duplicates are rejected."""
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if v in adj[u]:
                raise ValueError(f"duplicate edge ({u},{v})")
            adj[u].add(v)
            adj[v].add(u)
        return cls(n, tuple(tuple(sorted(s)) for s in adj))

    @property
    def m(self) -> int:
        """Number of edges."""
        return sum(len(nbrs) for nbrs in self.adj) // 2

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self.adj[u]
        i = bisect_left(nbrs, v)
        return i < len(nbrs) and nbrs[i] == v

    def edges(self):
        """Yield edges (u, v) with u < v, in lexicographic order."""
        for u, nbrs in enumerate(self.adj):
            for v in nbrs:
                if v > u:
                    yield (u, v)


@dataclass(frozen=True)
class ProductGraph:
    """A lexicographic product base[E_k] or base[K_k].

    ``view`` is the expanded product graph; vertex (b, j) has id b*k + j.
    """

    base: Graph
    k: int
    inner_kind: str
    view: Graph


@dataclass(frozen=True)
class RootedTreeMeta:
    """Root id and per-vertex distance from the root."""

    root: int
    level: tuple[int, ...]


def build_path(n: int) -> Graph:
    """Path on n vertices: edges {i, i+1}."""
    if n < 1:
        raise ValueError("path needs at least one vertex")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def build_cycle(n: int) -> Graph:
    """Cycle on n >= 3 vertices."""
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])


def build_complete(n: int) -> Graph:
    """Complete graph on n vertices."""
    if n < 1:
        raise ValueError("complete graph needs at least one vertex")
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def build_empty(n: int) -> Graph:
    """Edgeless graph on n vertices."""
    if n < 1:
        raise ValueError("empty graph needs at least one vertex")
    return Graph.from_edges(n, [])


def build_rooted_tree(
    root_children: int, internal_children: int, leaf_depth: int
) -> tuple[Graph, RootedTreeMeta]:
    """Regular rooted tree, breadth-first vertex numbering with root = 0.

    The root has ``root_children`` children, every other internal vertex has
    ``internal_children`` children, and all leaves sit at distance
    ``leaf_depth`` from the root.  (3, 2, 5) gives the 94-vertex tree whose
    non-leaf vertices all have degree three; (4, 3, 6) gives the 1457-vertex
    degree-four analogue.
    """
    if root_children < 1:
        raise ValueError("root needs at least one child")
    if internal_children < 0 or leaf_depth < 1:
        raise ValueError("invalid tree shape")
    if internal_children == 0 and leaf_depth > 1:
        raise ValueError("leaves cannot reach the requested depth with childless internals")
    edges = []
    level = [0]
    frontier = [0]
    next_id = 1
    for depth in range(leaf_depth):
        fanout = root_children if depth == 0 else internal_children
        new_frontier = []
        for parent in frontier:
            for _ in range(fanout):
                edges.append((parent, next_id))
                level.append(depth + 1)
                new_frontier.append(next_id)
                next_id += 1
        frontier = new_frontier
    return Graph.from_edges(next_id, edges), RootedTreeMeta(0, tuple(level))


def build_outerplanar_g0() -> tuple[Graph, tuple[int, ...]]:
    """Outerplanar gadget: P_10 plus an apex joined to it, a 24-vertex path
    fully joined to each path vertex, and 6 pendant leaves on every vertex of
    that 251-vertex core.

    Numbering: path vertices 0..9, apex 10, then the ten 24-vertex paths in
    order, then the leaves in core order.  Returns the graph and the core
    vertex ids.
    """
    edges = [(i, i + 1) for i in range(9)]
    apex = 10
    edges += [(i, apex) for i in range(10)]
    next_id = 11
    for i in range(10):
        q = list(range(next_id, next_id + 24))
        edges += [(a, b) for a, b in zip(q, q[1:])]
        edges += [(i, v) for v in q]
        next_id += 24
    core = tuple(range(next_id))
    for v in core:
        for _ in range(6):
            edges.append((v, next_id))
            next_id += 1
    return Graph.from_edges(next_id, edges), core


def lex_product(base: Graph, inner_kind: str, k: int) -> ProductGraph:
    """Lexicographic product of ``base`` with the empty or complete graph on
    k vertices.  (b, j) and (b', j') are adjacent iff b-b' is a base edge, or
    b = b' and the inner graph is complete and j != j'."""
    if inner_kind not in INNER_KINDS:
        raise ValueError(f"inner kind must be one of {INNER_KINDS}")
    if k < 1:
        raise ValueError("inner size must be positive")
    adj = []
    for b in range(base.n):
        base_nbrs = base.adj[b]
        for j in range(k):
            nbrs = [bp * k + jp for bp in base_nbrs for jp in range(k)]
            if inner_kind == COMPLETE:
                nbrs.extend(b * k + jp for jp in range(k) if jp != j)
            nbrs.sort()
            adj.append(tuple(nbrs))
    view = Graph(base.n * k, tuple(adj))
    return ProductGraph(base, k, inner_kind, view)


def layer_vertices(pg: ProductGraph, b: int) -> tuple[int, ...]:
    """The product vertex ids of the layer over base vertex b."""
    if not 0 <= b < pg.base.n:
        raise ValueError(f"base vertex {b} out of range")
    return tuple(range(b * pg.k, (b + 1) * pg.k))


# -- serialization ------------------------------------------------------------

def graph_to_json_dict(g: Graph) -> dict:
    return {"n": g.n, "edges": [[u, v] for u, v in g.edges()]}


def graph_from_json_dict(d: dict) -> Graph:
    if not isinstance(d, dict) or "n" not in d or "edges" not in d:
        raise ValueError("graph JSON needs 'n' and 'edges'")
    n = d["n"]
    if not isinstance(n, int):
        raise ValueError("'n' must be an integer")
    edges = d["edges"]
    if not isinstance(edges, list) or any(
        not isinstance(e, list) or len(e) != 2 or not all(type(x) is int for x in e)
        for e in edges
    ):
        raise ValueError("'edges' must be a list of [u, v] integer pairs")
    return Graph.from_edges(n, [(e[0], e[1]) for e in edges])


def product_to_json_dict(pg: ProductGraph) -> dict:
    return {
        "base": graph_to_json_dict(pg.base),
        "inner": pg.inner_kind,
        "k": pg.k,
    }


def product_from_json_dict(d: dict) -> ProductGraph:
    if not isinstance(d, dict) or not {"base", "inner", "k"} <= set(d):
        raise ValueError("product JSON needs 'base', 'inner' and 'k'")
    if type(d["k"]) is not int:
        raise ValueError("'k' must be an integer")
    return lex_product(graph_from_json_dict(d["base"]), d["inner"], d["k"])


def loads_graph(text: str) -> Graph:
    """Parse either a plain graph or a product (expanded to its view)."""
    d = json.loads(text)
    if isinstance(d, dict) and "base" in d:
        return product_from_json_dict(d).view
    return graph_from_json_dict(d)


def to_dot(g: Graph, name: str = "G") -> str:
    """Undirected DOT form with vertex ids as labels."""
    lines = [f"graph {name} {{"]
    lines += [f"  {v};" for v in range(g.n)]
    lines += [f"  {u} -- {v};" for u, v in g.edges()]
    lines.append("}")
    return "\n".join(lines) + "\n"
