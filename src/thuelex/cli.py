"""Batch front door: build graphs, run constructions, verify, solve, analyze
sequences, import/export.

Exit codes: 0 success / verified at the stated bound, 1 witness or violation
found, 2 invalid parameters or malformed input, 3 resource limit hit.  All
JSON output is deterministic byte-for-byte for fixed inputs and flags; wall
times and other run commentary go to stderr.  Colors are 0-based in JSON
(recorded by the "one_based": false flag) and 1-based in human summaries.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import colorings, graphs, sequences, solver, verifier
from .errors import DEFAULT_NODE_BUDGET, NoSuchSequenceError, ResourceLimitError

EXIT_OK = 0
EXIT_WITNESS = 1
EXIT_INVALID = 2
EXIT_RESOURCE = 3

ENV_NODE_BUDGET = "THUE_NODE_BUDGET"


def _node_budget() -> int:
    raw = os.environ.get(ENV_NODE_BUDGET)
    if raw is None:
        return DEFAULT_NODE_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{ENV_NODE_BUDGET} must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise ValueError(f"{ENV_NODE_BUDGET} must be positive")
    return value


def _emit(payload, output: str | None):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _note(message: str):
    print(message, file=sys.stderr)


def _parse_graph_spec(spec: str | None):
    """Inline graph spec (path:N, cycle:N, complete:N, empty:N, tree:a,b,c,
    g0) or a JSON file holding a graph or a product."""
    if spec is None:
        raise ValueError("missing graph spec")
    kind, _, arg = spec.partition(":")
    builders = {
        "path": graphs.build_path,
        "cycle": graphs.build_cycle,
        "complete": graphs.build_complete,
        "empty": graphs.build_empty,
    }
    if kind in builders and arg:
        return "graph", builders[kind](int(arg))
    if kind == "tree" and arg:
        a, b, c = (int(x) for x in arg.split(","))
        return "graph", graphs.build_rooted_tree(a, b, c)[0]
    if spec == "g0":
        return "graph", graphs.build_outerplanar_g0()[0]
    with open(spec, encoding="utf-8") as fh:
        d = json.load(fh)
    if isinstance(d, dict) and "base" in d:
        return "product", graphs.product_from_json_dict(d)
    return "graph", graphs.graph_from_json_dict(d)


def _base_graph(spec: str | None) -> graphs.Graph:
    """The plain graph named by ``--base``."""
    kind, base = _parse_graph_spec(spec)
    if kind != "graph":
        raise ValueError("--base must be a plain graph")
    return base


def _required_n(n: int | None, what: str) -> int:
    if n is None:
        raise ValueError(f"{what} needs --n")
    return n


def _load_view(spec: str) -> graphs.Graph:
    kind, g = _parse_graph_spec(spec)
    return g.view if kind == "product" else g


def _load_coloring(path: str):
    """Plain or tuple coloring from JSON; returns ('plain', Coloring) or
    ('tuple', TupleColoring)."""
    with open(path, encoding="utf-8") as fh:
        d = json.load(fh)
    if not isinstance(d, dict):
        raise ValueError("coloring JSON must be an object")
    shift = 1 if d.get("one_based") else 0
    if "sets" in d:
        raw = d["sets"]
        if not isinstance(raw, list):
            raise ValueError("'sets' must be a list of integer lists")
        sets = tuple(tuple(sorted(c - shift for c in _int_list(s, "each set"))) for s in raw)
        return "tuple", colorings.TupleColoring(d["p"], d["q"], sets)
    if "colors" in d:
        cols = tuple(c - shift for c in _int_list(d["colors"], "'colors'"))
        return "plain", colorings.Coloring(d["palette"], cols)
    raise ValueError("coloring JSON needs 'colors' or 'sets'")


def _int_list(value, what: str) -> list:
    """``value`` itself, once it is known to be a JSON list of integers."""
    if not isinstance(value, list) or not all(type(x) is int for x in value):
        raise ValueError(f"{what} must be a list of integers")
    return value


def coloring_to_json_dict(col) -> dict:
    if isinstance(col, colorings.TupleColoring):
        return {
            "p": col.p,
            "q": col.q,
            "sets": [list(s) for s in col.sets],
            "one_based": False,
        }
    return {"palette": col.palette, "colors": list(col.colors), "one_based": False}


# -- gen ----------------------------------------------------------------------

def _cmd_gen(args) -> int:
    if args.kind in ("path", "cycle"):
        build = graphs.build_path if args.kind == "path" else graphs.build_cycle
        g = build(_required_n(args.n, args.kind))
    elif args.kind == "tree":
        g, _ = graphs.build_rooted_tree(
            args.root_children, args.internal_children, args.leaf_depth
        )
    elif args.kind == "g0":
        g, core = graphs.build_outerplanar_g0()
        _note(f"g0: {g.n} vertices, {g.m} edges, core size {len(core)}")
    else:  # product
        pg = graphs.lex_product(_base_graph(args.base), args.inner, args.k)
        g = pg.view
        _note(f"product: {g.n} vertices, {g.m} edges")
    if args.kind == "product":
        _emit(graphs.product_to_json_dict(pg), args.output)
    else:
        _emit(graphs.graph_to_json_dict(g), args.output)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(graphs.to_dot(g))
    return EXIT_OK


# -- color --------------------------------------------------------------------

def _cmd_color(args) -> int:
    if args.construction == "c7-fractional":
        col = colorings.c7_fractional_example()
        _emit(coloring_to_json_dict(col), args.output)
        listing = "; ".join(
            f"v{i + 1} -> {{{','.join(str(c + 1) for c in s)}}}"
            for i, s in enumerate(col.sets)
        )
        _note(f"tuple coloring p={col.p} q={col.q} (1-based): {listing}")
        return EXIT_OK
    if args.construction == "tree-complete":
        tree, meta = graphs.build_rooted_tree(
            args.root_children, args.internal_children, args.leaf_depth
        )
        col = colorings.color_tree_complete(
            tree, meta, args.k, path_bound=args.path_bound
        )
        pg = graphs.lex_product(tree, graphs.COMPLETE, args.k)
    else:
        build = {
            "path-empty": (colorings.color_path_empty, graphs.EMPTY),
            "path-rainbow": (colorings.color_path_rainbow, graphs.EMPTY),
            "path-complete": (colorings.color_path_complete, graphs.COMPLETE),
        }[args.construction]
        col = build[0](_required_n(args.n, args.construction), args.k)
        pg = graphs.lex_product(graphs.build_path(args.n), build[1], args.k)
    _emit(coloring_to_json_dict(col), args.output)
    rain = verifier.is_rainbow(pg, col.colors)
    _note(f"palette={col.palette} rainbow={'yes' if rain else 'no'}")
    return EXIT_OK


# -- verify -------------------------------------------------------------------

def _cmd_verify(args) -> int:
    kind, g = _parse_graph_spec(args.graph)
    view = g.view if kind == "product" else g
    ckind, col = _load_coloring(args.coloring)
    if args.exact:
        bound = max(2, view.n - view.n % 2)
    elif args.bound is not None:
        bound = args.bound
    else:
        # bounded checking is the default once exhaustion stops being cheap
        bound = max(2, min(view.n - view.n % 2, 14))
        _note(f"no bound given: defaulting to paths of at most {bound} vertices")
    exact = verifier.is_exact_bound(view, bound)
    report: dict = {"bound_used": bound, "exact": exact}

    if args.rainbow:
        if kind != "product":
            raise ValueError("--rainbow needs a product graph")
        if ckind != "plain":
            raise ValueError("--rainbow applies to plain colorings")
        report["rainbow"] = verifier.is_rainbow(g, col.colors)
        if not report["rainbow"]:
            report["verified"] = False
            _emit(report, args.output)
            _note("not a rainbow coloring")
            return EXIT_WITNESS

    if ckind == "tuple":
        witness = verifier.find_tuple_repetitive_path(view, col.sets, bound)
    else:
        witness = verifier.find_repetitive_path(view, col.colors, bound)
    if witness is not None:
        report["verified"] = False
        report["path"] = list(witness.path)
        report["half_colors"] = list(witness.half_colors)
        _emit(report, args.output)
        human = " ".join(str(c + 1) for c in witness.half_colors)
        _note(f"repetitive path found, first-half colors (1-based): {human}")
        return EXIT_WITNESS

    if args.walks:
        if ckind != "plain":
            raise ValueError("--walks applies to plain colorings")
        report["walk_nonrepetitive"] = verifier.is_walk_nonrepetitive(
            view, col.colors, args.walks, node_budget=_node_budget()
        )
        if not report["walk_nonrepetitive"]:
            report["verified"] = False
            _emit(report, args.output)
            _note(f"repetitively colored non-boring walk within {args.walks} vertices")
            return EXIT_WITNESS

    report["verified"] = True
    _emit(report, args.output)
    if exact:
        _note("verified: nonrepetitive (exact)")
    else:
        _note(f"verified: no repetition up to 2l <= {bound} (bounded, not exact)")
    return EXIT_OK


# -- solve --------------------------------------------------------------------

def _cmd_solve(args) -> int:
    limits = solver.SearchLimits(
        max_nodes=args.max_nodes if args.max_nodes is not None else _node_budget(),
        time_budget=args.time_budget if args.time_budget is not None else float("inf"),
        palette_cap=args.palette_cap,
    )
    started = time.monotonic()
    if args.mode == "thue":
        view = _load_view(args.graph)
        result = solver.thue_number(view, limits)
    elif args.mode == "rainbow":
        if args.base:
            pg = graphs.lex_product(_base_graph(args.base), args.inner, args.k)
        else:
            kind, pg = _parse_graph_spec(args.graph)
            if kind != "product":
                raise ValueError("rainbow mode needs a product (file or --base/--inner/--k)")
        result = solver.rainbow_thue_number(pg, limits)
    else:  # tuple
        if args.p is None or args.q is None:
            raise ValueError("tuple mode needs --p and --q")
        view = _load_view(args.graph)
        result = solver.exists_tuple_coloring(view, args.p, args.q, limits)
    elapsed = time.monotonic() - started
    payload = {
        "status": result.status,
        "value": result.value,
        "witness": coloring_to_json_dict(result.witness) if result.witness else None,
        "nodes_explored": result.nodes_explored,
    }
    _emit(payload, args.output)
    _note(
        f"status={result.status} value={result.value} "
        f"nodes={result.nodes_explored} wall={elapsed:.3f}s"
    )
    return EXIT_OK if result.status == solver.STATUS_EXACT else EXIT_RESOURCE


# -- seq ----------------------------------------------------------------------

def _parse_sequence(arg: str) -> sequences.SymbolSeq:
    """Letters (ABAC...) or a JSON file in the {"sigma", "symbols"} form."""
    if os.path.exists(arg):
        with open(arg, encoding="utf-8") as fh:
            return sequences.seq_from_json_dict(json.load(fh))
    return sequences.SymbolSeq.from_str(arg)


def _cmd_seq(args) -> int:
    budget = _node_budget()
    if args.action == "gen":
        seq = sequences.gen_nonrepetitive(
            args.sigma, args.len, args.palindrome_free, node_budget=budget
        )
        if args.json:
            _emit(sequences.seq_to_json_dict(seq), args.output)
            return EXIT_OK
        text = seq.to_str() + "\n"
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return EXIT_OK
    if args.action == "check":
        seq = _parse_sequence(args.sequence)
        rep = sequences.find_repetition(seq, args.max_period)
        payload = {
            "length": len(seq),
            "repetition": list(rep) if rep else None,
            "palindrome_free": sequences.is_palindrome_free(seq),
        }
        _emit(payload, args.output)
        return EXIT_OK
    if args.action == "gaps":
        seq = _parse_sequence(args.sequence)
        profile = sequences.gap_profile(seq)
        valley = sequences.find_valley(profile)
        payload = {
            "peaks": list(profile.peaks),
            "gaps": list(profile.gaps),
            "valley": valley,
            "pattern": None,
        }
        if valley is not None and len(set(seq.symbols)) <= 3:
            ternary = sequences.SymbolSeq(seq.symbols, 3)
            pat = sequences.classify_valley_pattern(ternary, valley)
            payload["pattern"] = {
                "id": pat.pattern,
                "window": list(pat.window),
                "letter_map": list(pat.letter_map),
            }
        _emit(payload, args.output)
        return EXIT_OK
    if args.action == "enumerate":
        stats = {"count": 0, "with_valley": 0}

        def visit(word: bytes):
            stats["count"] += 1
            seq = sequences.SymbolSeq(tuple(word), 3)
            if sequences.find_valley(sequences.gap_profile(seq)) is not None:
                stats["with_valley"] += 1

        total = sequences.enumerate_bounded_nonrep(
            3, args.len, args.maxrep, visit, node_budget=budget
        )
        payload = {
            "count": total,
            "with_valley": stats["with_valley"],
            "all_have_valley": stats["with_valley"] == total,
        }
        _emit(payload, args.output)
        return EXIT_OK
    # kozik
    seq = sequences.search_constrained(args.len, node_budget=budget)
    payload = {"sequence": seq.to_str() if seq else None}
    if seq is not None:
        ok = (
            sequences.find_repetition(seq) is None
            and sequences.is_palindrome_free(seq)
            and all((a, b) not in {(2, 3), (3, 2)} for a, b in zip(seq.symbols, seq.symbols[1:]))
        )
        payload["certified"] = ok
    _emit(payload, args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thuelex",
        description="Nonrepetitive colorings of graphs and lexicographic products",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="build a graph and write its JSON")
    p_gen.add_argument("kind", choices=["path", "cycle", "tree", "g0", "product"])
    p_gen.add_argument("--n", type=int, help="vertex count for path/cycle")
    p_gen.add_argument("--root-children", type=int, default=3)
    p_gen.add_argument("--internal-children", type=int, default=2)
    p_gen.add_argument("--leaf-depth", type=int, default=5)
    p_gen.add_argument("--base", help="base graph spec for products (e.g. path:24)")
    p_gen.add_argument("--inner", choices=[graphs.EMPTY, graphs.COMPLETE], default=graphs.EMPTY)
    p_gen.add_argument("--k", type=int, default=2)
    p_gen.add_argument("--output", help="write JSON here instead of stdout")
    p_gen.add_argument("--dot", help="additionally write DOT here")

    p_color = sub.add_parser("color", help="run a coloring construction")
    p_color.add_argument(
        "construction",
        choices=["path-empty", "path-rainbow", "path-complete", "tree-complete", "c7-fractional"],
    )
    p_color.add_argument("--n", type=int, help="path length")
    p_color.add_argument("--k", type=int, default=2, help="inner graph size")
    p_color.add_argument("--root-children", type=int, default=3)
    p_color.add_argument("--internal-children", type=int, default=2)
    p_color.add_argument("--leaf-depth", type=int, default=5)
    p_color.add_argument("--path-bound", type=int, default=12)
    p_color.add_argument("--output")

    p_verify = sub.add_parser("verify", help="check a coloring against a graph")
    p_verify.add_argument("graph", help="graph spec or JSON file")
    p_verify.add_argument("coloring", help="coloring JSON file")
    p_verify.add_argument("--bound", type=int, help="max path vertices (even)")
    p_verify.add_argument("--exact", action="store_true", help="check all even paths")
    p_verify.add_argument("--rainbow", action="store_true", help="also require rainbow layers")
    p_verify.add_argument("--walks", type=int, help="also check walks up to this length")
    p_verify.add_argument("--output")

    p_solve = sub.add_parser("solve", help="exact solve (thue / rainbow / tuple)")
    p_solve.add_argument("graph", nargs="?", help="graph spec or JSON file")
    p_solve.add_argument("--mode", choices=["thue", "rainbow", "tuple"], default="thue")
    p_solve.add_argument("--p", type=int)
    p_solve.add_argument("--q", type=int)
    p_solve.add_argument("--base", help="base graph spec for rainbow mode")
    p_solve.add_argument("--inner", choices=[graphs.EMPTY, graphs.COMPLETE], default=graphs.EMPTY)
    p_solve.add_argument("--k", type=int, default=2)
    p_solve.add_argument("--max-nodes", type=int)
    p_solve.add_argument("--time-budget", type=float)
    p_solve.add_argument("--palette-cap", type=int, default=64)
    p_solve.add_argument("--output")

    p_seq = sub.add_parser("seq", help="sequence generation and analysis")
    p_seq.add_argument("action", choices=["gen", "check", "gaps", "enumerate", "kozik"])
    p_seq.add_argument("sequence", nargs="?", help="letters for check/gaps")
    p_seq.add_argument("--sigma", type=int, default=3)
    p_seq.add_argument("--len", type=int, default=22)
    p_seq.add_argument("--palindrome-free", action="store_true")
    p_seq.add_argument("--max-period", type=int)
    p_seq.add_argument("--maxrep", type=int, default=6)
    p_seq.add_argument("--json", action="store_true", help="emit the JSON form")
    p_seq.add_argument("--output")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "gen": _cmd_gen,
        "color": _cmd_color,
        "verify": _cmd_verify,
        "solve": _cmd_solve,
        "seq": _cmd_seq,
    }[args.command]
    try:
        return handler(args)
    except ResourceLimitError as exc:
        _note(f"resource limit: {exc}")
        return EXIT_RESOURCE
    except NoSuchSequenceError as exc:
        _note(f"no such sequence: {exc}")
        return EXIT_WITNESS
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        _note(f"error: {exc}")
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
