"""The three workloads: set-up commands, seeded input preparation, and the
timed job list with each job's expected exit code and answer.

Every answer is checked outside the timed region.  Witnesses and colourings
go through the oracles in ``tests/oracles.py``.  Generated words are too long
for the oracles' quadratic scans; ``least_square`` below (checked against
``oracles.naive_find_repetition`` in ``selfcheck.py``) re-checks them instead.
Search node counts are never checked, because a valid optimisation may
change them.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import oracles


class CheckFailed(Exception):
    """A job's exit code or output is not the expected answer."""


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    # check(exit code, stdout, {written file: text}); raises CheckFailed
    check: Callable[[int, str, dict], None]
    writes: tuple[str, ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    setup: tuple[tuple[str, ...], ...]
    # jobs(work dir, seeded rng): rewrites the set-up files as the seed says
    # and returns the job list; runs once, after set-up, outside any timing
    jobs: Callable[[Path, random.Random], list[Job]]


def expect(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


def _load(work: Path, name: str):
    return json.loads((work / name).read_text(encoding="utf-8"))


def _dump(work: Path, name: str, payload):
    (work / name).write_text(json.dumps(payload), encoding="utf-8")


def _json_out(code: int, out: str, want_code: int) -> dict:
    expect(code == want_code, f"exit code {code}, expected {want_code}")
    try:
        payload = json.loads(out)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"stdout is not JSON: {exc}") from None
    expect(isinstance(payload, dict), "stdout JSON is not an object")
    return payload


def answer(want: dict, want_code: int = 0):
    """Check that stdout is exactly the JSON object ``want``."""

    def check(code, out, _files):
        got = _json_out(code, out, want_code)
        expect(got == want, f"answer {got}, expected {want}")

    return check


# -- graphs rebuilt from their JSON, independently of thuelex.graphs ----------

def _graph(n: int, edges) -> SimpleNamespace:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return SimpleNamespace(n=n, adj=[sorted(a) for a in adj], edges=list(edges))


def product_graph(d: dict) -> SimpleNamespace:
    """base[E_k] / base[K_k] with vertex (b, j) numbered b*k + j."""
    base, k = d["base"], d["k"]
    edges = [
        (b * k + j, c * k + i)
        for b, c in base["edges"]
        for j in range(k)
        for i in range(k)
    ]
    if d["inner"] == "complete":
        edges += [
            (b * k + j, b * k + i)
            for b in range(base["n"])
            for j in range(k)
            for i in range(j + 1, k)
        ]
    return _graph(base["n"] * k, edges)


def cycle_graph(n: int) -> SimpleNamespace:
    return _graph(n, [(i, (i + 1) % n) for i in range(n)])


# -- words, independently of thuelex.sequences ---------------------------------

def least_square(symbols) -> tuple[int, int] | None:
    """Least (1-based start, period) of a square, ordered by start and then
    period.  For each period, the positions where the word agrees with its
    shift are the zero bytes of an xor; a square is a run of ``period`` of
    them."""
    buf = bytes(symbols)
    n = len(buf)
    best = None
    for period in range(1, n // 2 + 1):
        m = n - period
        diff = int.from_bytes(buf[:m], "big") ^ int.from_bytes(buf[period:], "big")
        start = diff.to_bytes(m, "big").find(bytes(period))
        if start >= 0 and (best is None or (start + 1, period) < best):
            best = (start + 1, period)
    return best


def palindrome_free(symbols) -> bool:
    """No odd palindrome of length >= 3, i.e. no letter equals the one two
    places on."""
    return all(a != b for a, b in zip(symbols, symbols[2:]))


def _letters(text: str) -> list[int]:
    return [ord(ch) - ord("A") for ch in text]


def square_free_word(symbols, length: int, sigma: int, *, no_palindromes=False):
    expect(len(symbols) == length, f"word has {len(symbols)} letters, expected {length}")
    expect(all(0 <= x < sigma for x in symbols), f"letter outside an alphabet of {sigma}")
    square = least_square(symbols)
    expect(square is None, f"word has a square at (start, period) {square}")
    if no_palindromes:
        expect(palindrome_free(symbols), "word has a palindrome")


# -- certify --------------------------------------------------------------------

# (graph file, colouring file, base path length, k) of the two colourings
# the witness job may corrupt
_CORRUPTIBLE = (("p30k3.json", "c30k3.json", 30, 3), ("p40e3.json", "c40e3.json", 40, 3))


def _certify_jobs(work: Path, rng: random.Random) -> list[Job]:
    # a seeded relabelling of the colours changes the inputs, not the answers
    for name in ("c30k3.json", "c40e3.json", "c24r.json", "c300.json"):
        d = _load(work, name)
        perm = list(range(d["palette"]))
        rng.shuffle(perm)
        d["colors"] = [perm[c] for c in d["colors"]]
        _dump(work, name, d)
    # Copying layers b, b+1 onto b+2, b+3 plants a repetitive 4-vertex path.
    # Only layers b that leave the colouring proper are drawn, so the least
    # witness has 4 vertices and the verifier must search paths to find it.
    graph_file, col_file, n, k = rng.choice(_CORRUPTIBLE)
    shutil.copyfile(work / graph_file, work / "bad_graph.json")
    bad_graph = product_graph(_load(work, graph_file))
    bad = _load(work, col_file)
    colors = bad["colors"]

    def corrupted(b):
        c = list(colors)
        c[(b + 2) * k : (b + 4) * k] = c[b * k : (b + 2) * k]
        return c

    def proper(c):
        return all(c[u] != c[v] for u, v in bad_graph.edges)

    bad["colors"] = corrupted(rng.choice([b for b in range(n - 3) if proper(corrupted(b))]))
    _dump(work, "bad.json", bad)
    tree = _load(work, "tree.json")

    def witness(code, out, _files):
        got = _json_out(code, out, 1)
        expect(got.get("verified") is False, "corrupted colouring was verified")
        path = tuple(got.get("path") or ())
        expect(len(path) == 4, f"witness path of {len(path)} vertices, least is 4")
        w = SimpleNamespace(path=path, half_colors=tuple(got["half_colors"]))
        try:
            oracles.check_witness(bad_graph, bad["colors"], w)
        except (AssertionError, IndexError, TypeError) as exc:
            raise CheckFailed(f"witness rejected by the oracle: {exc}") from None

    def tree_coloring(code, out, _files):
        got = _json_out(code, out, 0)
        cols, k = got["colors"], 2
        expect(got["palette"] == 4 * k, f"palette {got['palette']}, expected {4 * k}")
        expect(len(cols) == tree["n"] * k, "colouring does not cover T[K_2]")
        expect(all(0 <= c < 4 * k for c in cols), "colour outside the palette")
        layers = [set(cols[v * k : (v + 1) * k]) for v in range(tree["n"])]
        expect(all(len(s) == k for s in layers), "a K_2 layer repeats a colour")
        expect(
            all(not layers[u] & layers[v] for u, v in tree["edges"]),
            "adjacent layers share a colour",
        )

    bounded = {"bound_used": 12, "exact": False, "verified": True}
    return [
        Job("verify-P30K3", ("verify", "p30k3.json", "c30k3.json", "--bound", "12"),
            answer(bounded)),
        Job("verify-P40E3", ("verify", "p40e3.json", "c40e3.json", "--bound", "12"),
            answer(bounded)),
        Job("verify-P24E2-rainbow",
            ("verify", "p24e2.json", "c24r.json", "--rainbow", "--bound", "24"),
            answer({"bound_used": 24, "exact": False, "rainbow": True, "verified": True})),
        Job("verify-path300-exact", ("verify", "path:300", "c300.json", "--exact"),
            answer({"bound_used": 300, "exact": True, "verified": True})),
        Job("verify-C7-tuple-exact", ("verify", "cycle:7", "c7.json", "--exact"),
            answer({"bound_used": 6, "exact": True, "verified": True})),
        Job("color-tree-complete", ("color", "tree-complete", "--k", "2"), tree_coloring),
        Job("verify-corrupted", ("verify", "bad_graph.json", "bad.json", "--bound", "12"),
            witness),
    ]


CERTIFY = Workload(
    "certify",
    setup=(
        ("gen", "product", "--base", "path:30", "--inner", "complete", "--k", "3",
         "--output", "p30k3.json"),
        ("color", "path-complete", "--n", "30", "--k", "3", "--output", "c30k3.json"),
        ("gen", "product", "--base", "path:40", "--inner", "empty", "--k", "3",
         "--output", "p40e3.json"),
        ("color", "path-empty", "--n", "40", "--k", "3", "--output", "c40e3.json"),
        ("gen", "product", "--base", "path:24", "--inner", "empty", "--k", "2",
         "--output", "p24e2.json"),
        ("color", "path-rainbow", "--n", "24", "--k", "2", "--output", "c24r.json"),
        # P_300[E_1] is P_300: the ternary square-free word as a colouring
        ("color", "path-empty", "--n", "300", "--k", "1", "--output", "c300.json"),
        ("color", "c7-fractional", "--output", "c7.json"),
        ("gen", "tree", "--output", "tree.json"),
    ),
    jobs=_certify_jobs,
)


# -- solve ----------------------------------------------------------------------

def _solve_jobs(work: Path, _rng: random.Random) -> list[Job]:
    graphs = {f: product_graph(_load(work, f)) for f in ("p9e2.json", "p6k2.json",
                                                         "p8e2.json", "p6e2.json")}
    graphs["cycle:9"] = cycle_graph(9)

    def optimum(spec: str, value: int, rainbow_k: int = 0):
        g = graphs[spec]

        def check(code, out, _files):
            got = _json_out(code, out, 0)
            expect(got["status"] == "exact", f"status {got['status']}")
            expect(got["value"] == value, f"value {got['value']}, expected {value}")
            w = got["witness"] or {}
            cols = w.get("colors") or []
            expect(w.get("palette") == value and len(cols) == g.n, "witness shape")
            expect(all(0 <= c < value for c in cols), "witness colour outside palette")
            if rainbow_k:
                expect(
                    all(len(set(cols[i : i + rainbow_k])) == rainbow_k
                        for i in range(0, g.n, rainbow_k)),
                    "witness layer not rainbow",
                )
            expect(not oracles.naive_repetitive_path_exists(g, cols),
                   "oracle finds a repetitive path in the witness")

        return check

    def tuple_feasible(spec: str, p: int, q: int, feasible: bool):
        g = graphs[spec]

        def check(code, out, _files):
            got = _json_out(code, out, 0)
            expect(got["status"] == "exact", f"status {got['status']}")
            expect(got["value"] is feasible, f"value {got['value']}, expected {feasible}")
            if not feasible:
                expect(got["witness"] is None, "witness for an infeasible instance")
                return
            w = got["witness"]
            sets = [frozenset(s) for s in w["sets"]]
            expect((w["p"], w["q"]) == (p, q) and len(sets) == g.n, "witness shape")
            expect(all(len(s) == p and s <= set(range(q)) for s in sets),
                   "witness set is not a p-subset of the palette")
            expect(not oracles.naive_tuple_repetitive_path_exists(g, w["sets"]),
                   "oracle finds a repetitive path in the witness")

        return check

    def tuple_job(spec, p, q, feasible):
        return Job(f"tuple-{spec.split('.')[0]}-p{p}q{q}",
                   ("solve", "--mode", "tuple", "--p", str(p), "--q", str(q), spec),
                   tuple_feasible(spec, p, q, feasible))

    return [
        Job("thue-P9E2", ("solve", "--mode", "thue", "p9e2.json"), optimum("p9e2.json", 5)),
        Job("thue-P6K2", ("solve", "--mode", "thue", "p6k2.json"), optimum("p6k2.json", 6)),
        Job("rainbow-P8E2", ("solve", "--mode", "rainbow", "p8e2.json"),
            optimum("p8e2.json", 6, rainbow_k=2)),
        tuple_job("cycle:9", 2, 6, False),
        tuple_job("cycle:9", 2, 7, True),
        tuple_job("p6e2.json", 2, 9, False),
        tuple_job("p6e2.json", 2, 10, True),
    ]


SOLVE = Workload(
    "solve",
    setup=tuple(
        ("gen", "product", "--base", f"path:{n}", "--inner", inner, "--k", "2",
         "--output", out)
        for n, inner, out in ((9, "empty", "p9e2.json"), (6, "complete", "p6k2.json"),
                              (8, "empty", "p8e2.json"), (6, "empty", "p6e2.json"))
    ),
    jobs=_solve_jobs,
)


# -- words ----------------------------------------------------------------------

_STORED_LEN = 5000
# canonical valley windows by middle gap, letters 0, 1, 2 = A, B, C
_VALLEYS = {1: "CBABCBA", 2: "ACBABCACBA", 3: "BACBABCABACBA"}


def _expected_gaps(xs) -> dict:
    """The gaps answer from the definitions: the first and last letters and
    every letter with equal neighbours are peaks; a valley is the least i
    with gaps[i] >= gaps[i+1] <= gaps[i+2]."""
    n = len(xs)
    peaks = [1] + [p for p in range(2, n) if xs[p - 2] == xs[p]] + [n]
    gaps = [b - a - 1 for a, b in zip(peaks, peaks[1:])]
    valley = next(
        (i for i in range(len(gaps) - 2) if gaps[i] >= gaps[i + 1] <= gaps[i + 2]), None
    )
    return {"peaks": peaks, "gaps": gaps, "valley": valley}


def _words_jobs(work: Path, rng: random.Random) -> list[Job]:
    stored = _load(work, "stored.json")["symbols"]
    square_free_word(stored, _STORED_LEN, 3)
    # plant a seeded square; the answer is the least square of the result
    period = rng.randint(2, 50)
    at = rng.randrange(_STORED_LEN - 2 * period)
    bad = list(stored)
    bad[at + period : at + 2 * period] = bad[at : at + period]
    _dump(work, "bad.json", {"sigma": 3, "symbols": bad})
    bad_square = list(least_square(bad))
    gaps_want = _expected_gaps(stored)

    def gen4(code, out, _files):
        expect(code == 0, f"exit code {code}")
        square_free_word(_letters(out.strip()), 10_000, 4, no_palindromes=True)

    def gen3(code, _out, files):
        expect(code == 0, f"exit code {code}")
        d = json.loads(files["w3.json"])
        expect(d["sigma"] == 3, "sigma")
        square_free_word(d["symbols"], 10_000, 3)

    def gaps(code, out, _files):
        got = _json_out(code, out, 0)
        for key, want in gaps_want.items():
            expect(got[key] == want, f"{key} differs from the definition")
        pat = got["pattern"]
        expect(pat is not None, "no valley pattern")
        v = gaps_want["valley"]
        g2 = gaps_want["gaps"][v + 1]
        p, q = gaps_want["peaks"][v + 1], gaps_want["peaks"][v + 2]
        start, end = p - g2 - 1, q + g2 + 1
        expect(pat["id"] == g2 and pat["window"] == [start, end], "valley window")
        letter_map = pat["letter_map"]
        expect(sorted(letter_map) == [0, 1, 2], "letter map is not a permutation")
        canon = _letters(_VALLEYS[g2])
        expect([letter_map[c] for c in canon] == stored[start - 1 : end],
               "window does not match the canonical pattern")

    def kozik(code, out, _files):
        got = _json_out(code, out, 0)
        expect(got.get("certified") is True, "not certified")
        xs = _letters(got["sequence"])
        square_free_word(xs, 2000, 4, no_palindromes=True)
        expect(all({a, b} != {2, 3} for a, b in zip(xs, xs[1:])), "C next to D")

    return [
        Job("gen-sigma4-pf", ("seq", "gen", "--sigma", "4", "--len", "10000",
                              "--palindrome-free"), gen4),
        Job("gen-sigma3", ("seq", "gen", "--sigma", "3", "--len", "10000", "--json",
                           "--output", "w3.json"), gen3, writes=("w3.json",)),
        Job("check-generated", ("seq", "check", "w3.json"),
            answer({"length": 10_000, "palindrome_free": False, "repetition": None})),
        Job("check-planted", ("seq", "check", "bad.json"),
            answer({"length": _STORED_LEN, "palindrome_free": palindrome_free(bad),
                    "repetition": bad_square})),
        Job("gaps", ("seq", "gaps", "stored.json"), gaps),
        Job("enumerate", ("seq", "enumerate", "--len", "22", "--maxrep", "6"),
            answer({"all_have_valley": True, "count": 18_906, "with_valley": 18_906})),
        Job("kozik", ("seq", "kozik", "--len", "2000"), kozik),
    ]


WORDS = Workload(
    "words",
    setup=(("seq", "gen", "--sigma", "3", "--len", str(_STORED_LEN), "--json",
            "--output", "stored.json"),),
    jobs=_words_jobs,
)

WORKLOADS = {w.name: w for w in (CERTIFY, SOLVE, WORDS)}
