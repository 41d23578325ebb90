"""Checks of the benchmark's own logic; runs in about a second.

    python3 bench/selfcheck.py

Kept apart from the test suite (no ``test_`` file name) so that the suite's
run time does not grow.  It checks the self-time arithmetic on a hand-made
span tree, that tracing attributes nested calls to the right layer and
restores every binding, and that the benchmark's own square and product
checks agree with ``tests/oracles.py`` and ``thuelex.graphs``.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import oracles  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402
from thuelex import colorings, graphs, verifier  # noqa: E402


def _span(layer, name, parent, start, end, counts=None):
    s = tr.Span(layer, name, parent, 0)
    s.start, s.end, s.counts = start, end, counts
    return s


def check_self_times():
    # cli 0..10 > colorings 1..6 > {sequences 2..3, verifier 3.5..5.5}; graphs 7..9
    spans = [
        _span("cli", "main", -1, 0.0, 10.0),
        _span("colorings", "color_tree_complete", 0, 1.0, 6.0),
        _span("sequences", "gen_nonrepetitive", 1, 2.0, 3.0, {"sequences.letters_generated": 7}),
        _span("verifier", "find_repetitive_path", 1, 3.5, 5.5,
              {"verifier.calls": 1, "verifier.witnesses": 0, "exact": 0}),
        _span("graphs", "lex_product", 0, 7.0, 9.0,
              {"graphs.vertices_built": 4, "graphs.edges_built": 5}),
    ]
    assert tr.self_times(spans) == [3.0, 2.0, 1.0, 2.0, 2.0]
    m = tr.layer_metrics(spans)
    want = {
        "cli.self_s": 3.0, "colorings.construct_s": 2.0, "sequences.gen_s": 1.0,
        "sequences.self_s": 1.0, "verifier.bounded_s": 2.0, "verifier.exact_s": 0.0,
        "verifier.calls": 1, "graphs.build_s": 2.0, "graphs.vertices_built": 4,
        "sequences.letters_generated": 7, "solver.nodes_per_s": 0.0,
    }
    for key, value in want.items():
        assert m[key] == value, (key, m[key], value)
    layer_totals = ("cli.self_s", "graphs.build_s", "sequences.self_s",
                    "colorings.construct_s", "verifier.self_s", "solver.search_s")
    assert sum(m[k] for k in layer_totals) == 10.0


def check_tracing():
    original = colorings.find_repetitive_path
    tracer = tr.Tracer()
    restore = tr.install(tracer)
    try:
        assert colorings.find_repetitive_path is not original
        tree, meta = graphs.build_rooted_tree(2, 2, 2)
        colorings.color_tree_complete(tree, meta, 1, path_bound=4)
    finally:
        restore()
    assert colorings.find_repetitive_path is original
    assert verifier.find_repetitive_path is original
    by_name = {s.name: s for s in tracer.spans}
    top = by_name["color_tree_complete"]
    assert top.parent == -1
    for inner in ("gen_nonrepetitive", "lex_product", "find_repetitive_path"):
        assert tracer.spans[by_name[inner].parent] is top, inner
    # counted once each: graphs handed out of the graphs layer
    tree_counts = {"graphs.vertices_built": 7, "graphs.edges_built": 6}
    assert by_name["build_rooted_tree"].counts == tree_counts
    assert by_name["lex_product"].counts == tree_counts


def check_word_helpers():
    rng = random.Random(0)
    for _ in range(400):
        word = [rng.randrange(3) for _ in range(rng.randrange(1, 40))]
        assert workloads.least_square(word) == oracles.naive_find_repetition(word)
        assert workloads.palindrome_free(word) == oracles.naive_palindrome_free(word)


def check_product_graph():
    for base_n, inner, k in ((5, "empty", 2), (4, "complete", 3), (6, "empty", 1)):
        pg = graphs.lex_product(graphs.build_path(base_n), inner, k)
        mine = workloads.product_graph(graphs.product_to_json_dict(pg))
        assert mine.n == pg.view.n
        assert [tuple(a) for a in mine.adj] == list(pg.view.adj)


def main() -> int:
    check_self_times()
    check_tracing()
    check_word_helpers()
    check_product_graph()
    print("selfcheck: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
