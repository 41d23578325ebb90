"""The CLI contract over generated arguments and JSON inputs.

Every run exits 0, 1, 2 or 3 with no traceback.  A `verify` witness (exit 1)
re-checks against the oracles, an exact pass (exit 0) is confirmed by brute
force, and malformed input exits 2.  `seq check` and `seq gaps` exit 0 or 2.

``cli.main`` runs in process.  Each example redirects stdout and stderr
itself, as hypothesis refuses function-scoped fixtures such as ``capsys``.
"""

import contextlib
import io
import json
import tempfile
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from thuelex import cli, gen_nonrepetitive


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refusals
            code = exc.code
    assert code in (0, 1, 2, 3), code
    assert "Traceback" not in err.getvalue()
    return code, out.getvalue()


def one_in(k):
    """True about once in k draws; False comes first, as hypothesis leans
    towards the first choice."""
    return st.sampled_from([False] * (k - 1) + [True])


def adjacency(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return SimpleNamespace(n=n, adj=[sorted(a) for a in adj])


# -- graphs: (argument, JSON document or None, oracle graph or None) -----------

FAMILIES = {
    "path": lambda n: [(i, i + 1) for i in range(n - 1)],
    "cycle": lambda n: [(i, (i + 1) % n) for i in range(n)] if n >= 3 else None,
    "complete": lambda n: list(combinations(range(n), 2)),
    "empty": lambda n: [],
}


@st.composite
def inline_graphs(draw):
    kind = draw(st.sampled_from(sorted(FAMILIES)))
    n = draw(st.integers(0, 5 if kind == "complete" else 8))
    edges = FAMILIES[kind](n) if n >= 1 else None
    return f"{kind}:{n}", None, None if edges is None else adjacency(n, edges)


@st.composite
def json_graphs(draw):
    n = draw(st.integers(0, 8))
    pairs = list(combinations(range(n), 2))
    if draw(st.booleans()):  # bipartite between even and odd vertices
        pairs = [(u, v) for u, v in pairs if (u + v) % 2]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=10)) if pairs else []
    return "{graph}", {"n": n, "edges": [list(e) for e in edges]}, adjacency(n, edges)


@st.composite
def product_graphs(draw):
    """Products of at most 8 vertices, numbered (b, j) -> b * k + j."""
    nb = draw(st.integers(1, 4))
    pairs = list(combinations(range(nb), 2))
    base = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=4)) if pairs else []
    inner = draw(st.sampled_from(["empty", "complete"]))
    k = draw(st.integers(1, 2))
    edges = [(b * k + j, c * k + i) for b, c in base for j in range(k) for i in range(k)]
    if inner == "complete":
        edges += [(b * k, b * k + 1) for b in range(nb) if k == 2]
    doc = {"base": {"n": nb, "edges": [list(e) for e in base]}, "inner": inner, "k": k}
    return "{graph}", doc, adjacency(nb * k, edges)


BAD_GRAPHS = [
    {"n": 3},
    {"n": 2, "edges": [[0, 5]]},
    {"n": 2, "edges": [[1, 1]]},
    {"n": 2, "edges": [[0, 1], [1, 0]]},
    {"n": 2, "edges": "01"},
    {"base": {"n": 2, "edges": []}, "inner": "full", "k": 2},
    {"base": {"n": 2, "edges": []}, "inner": "empty", "k": 0},
    [2, [[0, 1]]],
]
bad_graphs = st.one_of(
    st.sampled_from(["path:x", "tree:1", "nope:3", "cycle:"]).map(lambda s: (s, None, None)),
    st.sampled_from(BAD_GRAPHS).map(lambda d: ("{graph}", d, None)),
)


# -- colourings: (JSON document, colours or sets seen by the oracle or None) ---

@st.composite
def plain_colorings(draw, n, g=None):
    """Random colours; with a graph given, mostly a greedy proper colouring or
    colours repeating along the vertex numbering, so that witnesses longer
    than an edge come up."""
    q = draw(st.integers(1, 4))
    colors = draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
    if g is not None and not draw(one_in(4)):
        q = draw(st.integers(2, 4))
        periodic = draw(st.booleans())
        for v in range(n):
            free = [c for c in range(q) if all(colors[u] != c for u in g.adj[v] if u < v)]
            colors[v] = v % q if periodic else draw(st.sampled_from(free or range(q)))
    if draw(st.booleans()):
        return {"palette": q, "colors": [c + 1 for c in colors], "one_based": True}, colors
    return {"palette": q, "colors": colors}, colors


@st.composite
def tuple_colorings(draw, n):
    p = draw(st.integers(1, 2))
    q = draw(st.integers(p + 1, 5))
    subsets = list(combinations(range(q), p))
    sets = draw(st.lists(st.sampled_from(subsets), min_size=n, max_size=n))
    return {"p": p, "q": q, "sets": [list(s) for s in sets]}, sets


@st.composite
def bad_colorings(draw, n):
    """One defect in an otherwise well-formed colouring."""
    doc, _ = draw(st.one_of(plain_colorings(n), tuple_colorings(n)))
    key = "colors" if "colors" in doc else "sets"
    cell = [0] if key == "sets" else 0
    defect = draw(st.sampled_from(["length", "range", "type", "missing", "not-object"]))
    if defect == "length":
        doc[key] = doc[key] + [cell] if n == 0 or draw(st.booleans()) else doc[key][1:]
    elif defect == "range":
        bad = draw(st.sampled_from([-1, 99]))
        doc[key] = [[bad] * doc.get("p", 1) if key == "sets" else bad] + doc[key][1:]
    elif defect == "type":
        field = draw(st.sampled_from([key, "palette" if key == "colors" else "p"]))
        doc[field] = draw(st.sampled_from(["a", 1.5, None, True, {"x": 1}, ["a"]]))
    elif defect == "missing":
        del doc[draw(st.sampled_from(sorted(set(doc) - {"one_based"})))]
    else:
        doc = [doc]
    return doc, None


@st.composite
def verify_cases(draw):
    if draw(one_in(10)):
        arg, gdoc, g = draw(bad_graphs)
        n = 3
    else:
        arg, gdoc, g = draw(st.one_of(inline_graphs(), json_graphs(), product_graphs()))
        n = g.n if g is not None else 3
    if draw(one_in(5)):
        doc, col = draw(bad_colorings(n))
    else:
        doc, col = draw(st.one_of(plain_colorings(n, g), tuple_colorings(n)))
    flags = []
    bound = draw(st.one_of(st.none(), st.integers(1, 6).map(lambda b: 2 * b), st.integers(-3, 12)))
    if bound is not None:
        flags += ["--bound", str(bound)]
    if draw(st.booleans()):
        flags.append("--exact")
    if draw(one_in(4)):
        flags.append("--rainbow")
    if draw(one_in(4)):
        flags += ["--walks", str(draw(st.integers(-1, 6)))]
    return arg, gdoc, g, doc, col, flags


@settings(max_examples=120, deadline=None)
@given(verify_cases())
def test_verify_contract(case):
    arg, gdoc, g, doc, col, flags = case
    with tempfile.TemporaryDirectory() as tmp:
        gfile, cfile = Path(tmp, "g.json"), Path(tmp, "c.json")
        if gdoc is not None:
            gfile.write_text(json.dumps(gdoc))
        cfile.write_text(json.dumps(doc))
        code, out = run(["verify", arg.format(graph=gfile), str(cfile), *flags])
    if g is None or col is None:
        assert code == 2
        return
    if code in (0, 1):
        report = json.loads(out)
    tuples = "sets" in doc
    if code == 1:
        if "path" in report:
            w = SimpleNamespace(path=tuple(report["path"]), half_colors=report["half_colors"])
            check = oracles.check_tuple_witness if tuples else oracles.check_witness
            check(g, col, w)
        else:
            assert report.get("rainbow") is False or report.get("walk_nonrepetitive") is False
    if code == 0 and report["exact"]:
        assert report["verified"] is True
        if tuples:
            assert not oracles.naive_tuple_repetitive_path_exists(g, col)
        else:
            assert not oracles.naive_repetitive_path_exists(g, col)


# -- seq check / seq gaps --------------------------------------------------------

json_words = st.one_of(
    st.fixed_dictionaries(
        {
            "sigma": st.one_of(
                st.integers(3, 4), st.integers(-2, 300), st.sampled_from(["3", True, None, 2.0])
            ),
            "symbols": st.one_of(
                st.lists(st.integers(-1, 300), max_size=12),
                st.lists(st.integers(0, 3), max_size=40),
                st.lists(st.sampled_from(["A", True, None, 1.0, [0]]), max_size=3),
                st.sampled_from(["ABC", {"0": 1}, 7]),
            ),
        }
    ),
    st.sampled_from([{"sigma": 3}, {"symbols": [0, 1]}, [3, [0, 1]], "ABA", 12, None]),
)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(["check", "gaps"]),
    st.one_of(
        st.text(alphabet="ABCD", max_size=30),
        st.text(alphabet="ABab!1", max_size=4),
        st.integers(0, 40).map(lambda n: gen_nonrepetitive(3, n).to_str()),
        json_words,
    ),
    st.one_of(st.none(), st.integers(-2, 6)),
)
def test_seq_contract(action, word, max_period):
    flags = [] if max_period is None else ["--max-period", str(max_period)]
    if isinstance(word, str):
        code, out = run(["seq", action, word, *flags])
    else:
        with tempfile.TemporaryDirectory() as tmp:
            f = Path(tmp, "w.json")
            f.write_text(json.dumps(word))
            code, out = run(["seq", action, str(f), *flags])
        if isinstance(word, dict) and type(word.get("sigma")) is int and word["sigma"] > 256:
            assert code == 2  # words are byte strings
    assert code in (0, 2)
    if code == 0:
        assert isinstance(json.loads(out), dict)
