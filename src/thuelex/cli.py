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
import gc
import json
import os
import sys
import time
from functools import partial

from . import colorings, graphs, sequences, solver, verifier
from .errors import Budget, NoSuchSequenceError, ResourceLimitError

EXIT_OK = 0
EXIT_WITNESS = 1
EXIT_INVALID = 2
EXIT_RESOURCE = 3

ENV_NODE_BUDGET = "THUE_NODE_BUDGET"


def _budget(max_nodes: int | None = None, time_budget: float | None = None) -> Budget:
    """The budget of one command's search: ``max_nodes`` (``--max-nodes``),
    else THUE_NODE_BUDGET, else the default; ``time_budget`` seconds from
    now.  Call it once the input is read, so reading it is not timed."""
    limits = {}
    raw = os.environ.get(ENV_NODE_BUDGET)
    if max_nodes is not None:
        limits["max_nodes"] = max_nodes
    elif raw is not None:
        try:
            limits["max_nodes"] = int(raw)
        except ValueError as exc:
            raise ValueError(f"{ENV_NODE_BUDGET} must be an integer, got {raw!r}") from exc
    if time_budget is not None:
        limits["time_budget"] = time_budget
    if not all(value > 0 for value in limits.values()):  # also refuses nan
        raise ValueError("node and time budgets must be positive")
    return Budget(**limits)


def _read_json(path: str):
    """The JSON document in a file; nesting too deep to parse is invalid input."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError as exc:
            raise ValueError(f"{path}: JSON nested too deeply") from exc


def _write(text: str, output: str | None):
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(payload, output: str | None):
    _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", output)


def _note(message: str):
    print(message, file=sys.stderr)


def _parse_graph_spec(spec: str) -> graphs.Graph | graphs.ProductGraph:
    """Inline graph spec (path:N, cycle:N, complete:N, empty:N, tree:a,b,c,
    g0) or a JSON file holding a graph or a product."""
    kind, _, arg = spec.partition(":")
    builders = {
        "path": graphs.build_path,
        "cycle": graphs.build_cycle,
        "complete": graphs.build_complete,
        "empty": graphs.build_empty,
    }
    if kind in builders and arg:
        return builders[kind](int(arg))
    if kind == "tree" and arg:
        a, b, c = (int(x) for x in arg.split(","))
        return graphs.build_rooted_tree(a, b, c)[0]
    if spec == "g0":
        return graphs.build_outerplanar_g0()[0]
    return graphs.from_json_dict(_read_json(spec))


def _view(g: graphs.Graph | graphs.ProductGraph) -> graphs.Graph:
    return g.view if isinstance(g, graphs.ProductGraph) else g


def _tree(args) -> tuple[graphs.Graph, graphs.RootedTreeMeta]:
    """The rooted tree of the tree-shape flags."""
    return graphs.build_rooted_tree(args.root_children, args.internal_children, args.leaf_depth)


def _load_coloring(path: str) -> colorings.Coloring | colorings.TupleColoring:
    """Plain or tuple coloring from JSON."""
    d = _read_json(path)
    if not isinstance(d, dict):
        raise ValueError("coloring JSON must be an object")
    shift = 1 if d.get("one_based") else 0
    if "sets" in d:
        raw = d["sets"]
        if not isinstance(raw, list):
            raise ValueError("'sets' must be a list of integer lists")
        sets = tuple(tuple(sorted(c - shift for c in _int_list(s, "each set"))) for s in raw)
        return colorings.TupleColoring(d["p"], d["q"], sets)
    if "colors" in d:
        cols = tuple(c - shift for c in _int_list(d["colors"], "'colors'"))
        return colorings.Coloring(d["palette"], cols)
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
    if args.kind == "tree":
        g = _tree(args)[0]
    elif args.kind == "g0":
        g, core = graphs.build_outerplanar_g0()
        _note(f"g0: {g.n} vertices, {g.m} edges, core size {len(core)}")
    elif args.kind == "product":
        base = _parse_graph_spec(args.base)
        if not isinstance(base, graphs.Graph):
            raise ValueError("--base must be a plain graph")
        pg = graphs.lex_product(base, args.inner, args.k)
        g, doc = pg.view, graphs.product_to_json_dict(pg)
        _note(f"product: {g.n} vertices, {g.m} edges")
    else:  # path, cycle: the graph of the inline spec kind:n
        g = _parse_graph_spec(f"{args.kind}:{args.n}")
    if args.dot:  # first, so an unwritable DOT target leaves no other output
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(graphs.to_dot(g))
    _emit(doc if args.kind == "product" else graphs.graph_to_json_dict(g), args.output)
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
        base, meta = _tree(args)
        col = colorings.color_tree_complete(
            base, meta, args.k, path_bound=args.path_bound, budget=_budget()
        )
        inner = graphs.COMPLETE
    else:
        construct, inner = {
            "path-empty": (colorings.color_path_empty, graphs.EMPTY),
            "path-rainbow": (colorings.color_path_rainbow, graphs.EMPTY),
            "path-complete": (colorings.color_path_complete, graphs.COMPLETE),
        }[args.construction]
        col = construct(args.n, args.k)
        base = graphs.build_path(args.n)
    pg = graphs.lex_product(base, inner, args.k)
    _emit(coloring_to_json_dict(col), args.output)
    rain = colorings.is_rainbow(pg, col.colors)
    _note(f"palette={col.palette} rainbow={'yes' if rain else 'no'}")
    return EXIT_OK


# -- verify -------------------------------------------------------------------

def _cmd_verify(args) -> int:
    g = _parse_graph_spec(args.graph)
    view = _view(g)
    col = _load_coloring(args.coloring)
    plain = isinstance(col, colorings.Coloring)
    # every input is checked here, before any check runs
    if args.walks:
        if not plain:
            raise ValueError("--walks applies to plain colorings")
        verifier.even_bound(view, args.walks, walks=True)
    full = verifier.exact_bound(view)
    if args.exact:
        bound = max(2, full)
    elif args.bound is not None:
        bound = args.bound
    else:
        # bounded checking is the default once exhaustion stops being cheap
        bound = max(2, min(full, 14))
        _note(f"no bound given: defaulting to paths of at most {bound} vertices")
    verifier.even_bound(view, bound)
    if args.rainbow:
        if not isinstance(g, graphs.ProductGraph):
            raise ValueError("--rainbow needs a product graph")
        if not plain:
            raise ValueError("--rainbow applies to plain colorings")
    budget = _budget(args.max_nodes, args.time_budget)

    # the checks fill one report; the first failure ends them
    report: dict = {"bound_used": bound, "exact": bound >= full}
    failure = None
    if args.rainbow:
        report["rainbow"] = colorings.is_rainbow(g, col.colors)
        if not report["rainbow"]:
            failure = "not a rainbow coloring"
    if failure is None:
        if plain:
            witness = verifier.find_repetitive_path(view, col.colors, bound, budget=budget)
        else:
            witness = verifier.find_tuple_repetitive_path(view, col.sets, bound, budget=budget)
        if witness is not None:
            report["path"] = list(witness.path)
            report["half_colors"] = list(witness.half_colors)
            human = " ".join(str(c + 1) for c in witness.half_colors)
            failure = f"repetitive path found, first-half colors (1-based): {human}"
    if failure is None and args.walks:
        report["walk_bound_used"] = args.walks
        report["walk_nonrepetitive"] = verifier.is_walk_nonrepetitive(
            view, col.colors, args.walks, budget=budget
        )
        if not report["walk_nonrepetitive"]:
            failure = f"repetitively colored non-boring walk within {args.walks} vertices"
    report["verified"] = failure is None
    _emit(report, args.output)
    if report["exact"]:
        passed = "verified: nonrepetitive (exact)"
    else:
        passed = f"verified: no repetition up to 2l <= {bound} (bounded, not exact)"
    if args.walks:
        passed += f"; walks: no repetition up to {args.walks} vertices (bounded)"
    _note(failure or passed)
    return EXIT_WITNESS if failure else EXIT_OK


# -- solve --------------------------------------------------------------------

def _cmd_solve(args) -> int:
    started = time.monotonic()
    if args.mode != "tuple" and (args.p is not None or args.q is not None):
        raise ValueError(f"{'--p' if args.p is not None else '--q'} needs --mode tuple")
    if args.mode == "thue":
        search = partial(solver.thue_number, _view(_parse_graph_spec(args.graph)))
    elif args.mode == "rainbow":
        pg = _parse_graph_spec(args.graph)
        if not isinstance(pg, graphs.ProductGraph):
            raise ValueError("rainbow mode needs a product graph")
        search = partial(solver.rainbow_thue_number, pg)
    else:  # tuple
        if args.p is None or args.q is None:
            raise ValueError("tuple mode needs --p and --q")
        g = _view(_parse_graph_spec(args.graph))
        search = partial(solver.exists_tuple_coloring, g, args.p, args.q)
    result = search(_budget(args.max_nodes, args.time_budget))
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
        return sequences.seq_from_json_dict(_read_json(arg))
    return sequences.SymbolSeq.from_str(arg)


def _cmd_seq_gen(args) -> int:
    seq = sequences.gen_nonrepetitive(args.sigma, args.len, args.palindrome_free, budget=_budget())
    if args.json:
        _emit(sequences.seq_to_json_dict(seq), args.output)
    else:
        _write(seq.to_str() + "\n", args.output)
    return EXIT_OK


def _cmd_seq_check(args) -> int:
    seq = _parse_sequence(args.sequence)
    rep = sequences.find_repetition(seq, args.max_period)
    _emit({"length": len(seq), "repetition": list(rep) if rep else None,
           "palindrome_free": sequences.is_palindrome_free(seq)}, args.output)
    return EXIT_OK


def _cmd_seq_gaps(args) -> int:
    seq = _parse_sequence(args.sequence)
    profile = sequences.gap_profile(seq)
    valley = sequences.find_valley(profile)
    pat = None if valley is None else sequences.classify_valley_pattern(seq, valley)
    _emit({
        "peaks": list(profile.peaks),
        "gaps": list(profile.gaps),
        "valley": valley,
        "pattern": None if pat is None else {
            "id": pat.pattern,
            "window": list(pat.window),
            "letter_map": list(pat.letter_map),
        },
    }, args.output)
    return EXIT_OK


def _cmd_seq_enumerate(args) -> int:
    total, valleys = sequences.valley_census(args.sigma, args.len, args.maxrep, budget=_budget())
    _emit({"count": total, "with_valley": valleys, "all_have_valley": valleys == total},
          args.output)
    return EXIT_OK


def _cmd_seq_kozik(args) -> int:
    seq = sequences.search_constrained(args.len, budget=_budget())
    certified = (
        sequences.find_repetition(seq) is None
        and sequences.is_palindrome_free(seq)
        and not sequences.CD_PAIRS.intersection(zip(seq.symbols, seq.symbols[1:]))
    )
    _emit({"sequence": seq.to_str(), "certified": certified}, args.output)
    return EXIT_OK


# -- parser -------------------------------------------------------------------

# flags that more than one action reads
_OUTPUT = ("--output", {"help": "write here instead of stdout"})
_N = ("--n", {"type": int, "required": True, "help": "vertices of the path or cycle"})
_K = ("--k", {"type": int, "default": 2, "help": "inner graph size"})
_TREE_SHAPE = (
    ("--root-children", {"type": int, "default": 3}),
    ("--internal-children", {"type": int, "default": 2}),
    ("--leaf-depth", {"type": int, "default": 5}),
)
_LIMITS = (("--max-nodes", {"type": int}), ("--time-budget", {"type": float}))
_DOT = ("--dot", {"help": "additionally write DOT here"})
_WORD = (("--sigma", {"type": int, "default": 3}), ("--len", {"type": int, "default": 22}))
_SEQUENCE = ("sequence", {"help": "letters (ABAC...) or a JSON word file"})

# Each command's help, and the destination of the action that gen, color and
# seq pick; verify and solve are actions themselves.
_COMMANDS = {
    "gen": ("build a graph and write its JSON", "kind"),
    "color": ("run a coloring construction", "construction"),
    "verify": ("check a coloring against a graph", None),
    "solve": ("exact solve (thue / rainbow / tuple)", None),
    "seq": ("sequence generation and analysis", "action"),
}
# Each action's handler and the flags it reads, by command, in the order -h
# lists them.  A tuple of flags among them is a group of which at most one
# may be given.
_ACTIONS = {
    ("gen", "path"): (_cmd_gen, (_N, _OUTPUT, _DOT)),
    ("gen", "cycle"): (_cmd_gen, (_N, _OUTPUT, _DOT)),
    ("gen", "tree"): (_cmd_gen, (*_TREE_SHAPE, _OUTPUT, _DOT)),
    ("gen", "g0"): (_cmd_gen, (_OUTPUT, _DOT)),
    ("gen", "product"): (_cmd_gen, (
        _K, _OUTPUT, _DOT,
        ("--base", {"required": True, "help": "base graph spec (e.g. path:24)"}),
        ("--inner", {"choices": [graphs.EMPTY, graphs.COMPLETE], "default": graphs.EMPTY}),
    )),
    ("color", "path-empty"): (_cmd_color, (_N, _K, _OUTPUT)),
    ("color", "path-rainbow"): (_cmd_color, (_N, _K, _OUTPUT)),
    ("color", "path-complete"): (_cmd_color, (_N, _K, _OUTPUT)),
    ("color", "tree-complete"): (_cmd_color, (
        *_TREE_SHAPE, _K, _OUTPUT, ("--path-bound", {"type": int, "default": 12}),
    )),
    ("color", "c7-fractional"): (_cmd_color, (_OUTPUT,)),
    ("verify",): (_cmd_verify, (
        *_LIMITS, _OUTPUT,
        ("graph", {"help": "graph spec or JSON file"}),
        ("coloring", {"help": "coloring JSON file"}),
        (
            ("--bound", {"type": int, "help": "max path vertices (even)"}),
            ("--exact", {"action": "store_true", "help": "check all even paths"}),
        ),
        ("--rainbow", {"action": "store_true", "help": "also require rainbow layers"}),
        ("--walks", {"type": int, "help": "also check walks up to this length"}),
    )),
    ("solve",): (_cmd_solve, (
        *_LIMITS, _OUTPUT,
        ("graph", {"help": "graph spec or JSON file; a product file in rainbow mode"}),
        ("--mode", {"choices": ["thue", "rainbow", "tuple"], "default": "thue"}),
        ("--p", {"type": int, "help": "colors per vertex (tuple mode)"}),
        ("--q", {"type": int, "help": "palette size (tuple mode)"}),
    )),
    ("seq", "gen"): (_cmd_seq_gen, (
        *_WORD, _OUTPUT,
        ("--palindrome-free", {"action": "store_true"}),
        ("--json", {"action": "store_true", "help": "emit the JSON form"}),
    )),
    ("seq", "check"): (_cmd_seq_check, (_SEQUENCE, _OUTPUT, ("--max-period", {"type": int}))),
    ("seq", "gaps"): (_cmd_seq_gaps, (_SEQUENCE, _OUTPUT)),
    ("seq", "enumerate"): (_cmd_seq_enumerate, (
        *_WORD, _OUTPUT, ("--maxrep", {"type": int, "default": 6}),
    )),
    ("seq", "kozik"): (_cmd_seq_kozik, (_OUTPUT, ("--len", {"type": int, "default": 22}))),
}


def _add_flags(parser, flags):
    for flag in flags:
        if isinstance(flag[0], str):
            parser.add_argument(flag[0], **flag[1])
        else:
            _add_flags(parser.add_mutually_exclusive_group(), flag)


def _choices(parser, dest: str, names, partial: bool):
    """The subparsers by which ``parser`` picks ``dest``.  A partial build
    still names every choice in the usage line, which its errors print."""
    metavar = "{%s}" % ",".join(names) if partial else None
    return parser.add_subparsers(dest=dest, required=True, metavar=metavar)


def build_parser(argv=()) -> argparse.ArgumentParser:
    """Each action's parser declares exactly the flags its handler reads.

    When ``argv`` names a command, and for gen, color and seq one of its
    actions, only the parsers on the way to that action are built: the same
    parse and errors from two or three parsers instead of 21.  Otherwise
    every parser is built, so the help and errors of the top level and of a
    command list every choice."""
    named = next((path for path in (tuple(argv[:1]), tuple(argv[:2])) if path in _ACTIONS), None)
    partial = named is not None
    parser = argparse.ArgumentParser(
        prog="thuelex",
        description="Nonrepetitive colorings of graphs and lexicographic products",
    )
    commands = _choices(parser, "command", _COMMANDS, partial)
    pickers = {}
    for path in [named] if partial else _ACTIONS:
        command = path[0]
        text, dest = _COMMANDS[command]
        if dest is None:
            leaf = commands.add_parser(command, help=text)
        else:
            if command not in pickers:
                names = [other[1] for other in _ACTIONS if other[0] == command]
                picker = commands.add_parser(command, help=text)
                pickers[command] = _choices(picker, dest, names, partial)
            leaf = pickers[command].add_parser(path[1])
        handler, flags = _ACTIONS[path]
        leaf.set_defaults(handler=handler)
        _add_flags(leaf, flags)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    try:
        return args.handler(args)
    except ResourceLimitError as exc:
        _note(f"resource limit: {exc}")
        return EXIT_RESOURCE
    except NoSuchSequenceError as exc:
        _note(f"no such sequence: {exc}")
        return EXIT_WITNESS
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        _note(f"error: {exc}")
        return EXIT_INVALID


def run() -> int:
    """The process entry of ``python -m thuelex.cli`` and the ``thuelex``
    script: ``main`` with the import-time heap frozen.  The package,
    argparse and json live until the process exits, so no collection, the
    one at exit included, needs to walk them.  ``main`` freezes nothing, so
    a caller that runs it in process keeps its own heap as it was."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
