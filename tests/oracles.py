"""Independent brute-force oracles used by the tests.

These deliberately restate the definitions as literally as possible and share
no code with the library: sequences are scanned pair by pair, paths and
walks are enumerated without pruning, and tuple choices are expanded one by
one.
"""

from itertools import product


def naive_find_repetition(word, max_period=None):
    """Least (start, period), 1-based, by scanning every block."""
    n = len(word)
    if max_period is None:
        max_period = n // 2
    for s in range(n):
        for l in range(1, max_period + 1):
            if s + 2 * l > n:
                break
            if tuple(word[s : s + l]) == tuple(word[s + l : s + 2 * l]):
                return (s + 1, l)
    return None


def naive_palindrome_free(word):
    """No odd contiguous block of length >= 3 reads the same both ways."""
    n = len(word)
    for s in range(n):
        for m in range(s + 2, n, 2):  # block word[s..m], odd length >= 3
            block = word[s : m + 1]
            if all(block[i] == block[len(block) - 1 - i] for i in range(len(block) // 2)):
                return False
    return True


def all_simple_paths(g, max_vertices=None):
    """Every simple path with at least 2 vertices (and at most max_vertices,
    if given), both orientations."""
    paths = []
    stack = [[v] for v in range(g.n)]
    while stack:
        path = stack.pop()
        if len(path) >= 2:
            paths.append(tuple(path))
        if max_vertices is not None and len(path) >= max_vertices:
            continue
        tail = path[-1]
        for u in g.adj[tail]:
            if u not in path:
                stack.append(path + [u])
    return paths


def naive_repetitive_path_exists(g, colors):
    """Any even simple path whose color word is a repetition?"""
    for path in all_simple_paths(g):
        m = len(path)
        if m % 2:
            continue
        l = m // 2
        if all(colors[path[i]] == colors[path[i + l]] for i in range(l)):
            return True
    return False


def naive_repetitive_walk_exists(g, colors, max_vertices):
    """Any walk of an even number of vertices, at most max_vertices, whose
    color word is a repetition and which is not boring (its second half is
    not its first half vertex by vertex)?  Every walk is enumerated."""
    stack = [[v] for v in range(g.n)]
    while stack:
        walk = stack.pop()
        m = len(walk)
        if m % 2 == 0:
            l = m // 2
            repetitive = all(colors[walk[i]] == colors[walk[i + l]] for i in range(l))
            if repetitive and walk[:l] != walk[l:]:
                return True
        if m < max_vertices:
            stack.extend(walk + [u] for u in g.adj[walk[-1]])
    return False


def naive_least_repetitive_path(g, sets, max_vertices):
    """The least repetitive even path by (len(path), path), among simple paths
    of at most max_vertices vertices with path[0] < path[-1]; positions i and
    i+l repeat when their color sets meet.  Returns (path, half_colors), where
    half_colors[i] is the least color common to positions i and i+l, or None.
    """
    best = None
    for path in all_simple_paths(g, max_vertices):
        m = len(path)
        if m % 2 or m > max_vertices or path[0] > path[-1]:
            continue
        l = m // 2
        common = [set(sets[path[i]]) & set(sets[path[i + l]]) for i in range(l)]
        if all(common) and (best is None or (m, path) < (len(best[0]), best[0])):
            best = (path, tuple(min(c) for c in common))
    return best


def halves_repetitive_path_exists(g, colors):
    """Any even simple path x_1..x_2l with colors[x_i] == colors[x_(i+l)]
    for every i?  For graphs with too many paths to list: the two halves
    grow together, one position each, from every pair of distinct vertices
    of one color, and only extensions by another such pair are kept, so a
    pair of halves that already disagrees is never extended."""
    for l in range(1, g.n // 2 + 1):
        stack = [
            ((a,), (b,)) for a in range(g.n) for b in range(g.n)
            if a != b and colors[a] == colors[b]
        ]
        while stack:
            first, second = stack.pop()
            if len(first) == l:
                if second[0] in g.adj[first[-1]]:
                    return True
                continue
            used = set(first) | set(second)
            for a in g.adj[first[-1]]:
                for b in g.adj[second[-1]]:
                    if a != b and a not in used and b not in used and colors[a] == colors[b]:
                        stack.append((first + (a,), second + (b,)))
    return False


def naive_tuple_repetitive_path_exists(g, sets):
    """Expand every per-position color choice of every even simple path."""
    for path in all_simple_paths(g):
        m = len(path)
        if m % 2:
            continue
        l = m // 2
        for choice in product(*(sets[v] for v in path)):
            if all(choice[i] == choice[i + l] for i in range(l)):
                return True
    return False


def check_witness(g, colors, witness):
    """Re-validate a repetition witness against the definitions."""
    path = witness.path
    m = len(path)
    assert m >= 2 and m % 2 == 0, "witness must be an even path"
    assert len(set(path)) == m, "witness vertices must be distinct"
    for a, b in zip(path, path[1:]):
        assert b in g.adj[a], f"witness edge {a}-{b} missing"
    l = m // 2
    for i in range(l):
        assert colors[path[i]] == colors[path[i + l]], "halves disagree"
        assert witness.half_colors[i] == colors[path[i]], "half_colors wrong"


def check_tuple_witness(g, sets, witness):
    path = witness.path
    m = len(path)
    assert m >= 2 and m % 2 == 0
    assert len(set(path)) == m
    for a, b in zip(path, path[1:]):
        assert b in g.adj[a]
    l = m // 2
    for i in range(l):
        c = witness.half_colors[i]
        assert c in sets[path[i]] and c in sets[path[i + l]]
