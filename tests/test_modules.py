"""The package's structure: every module imports at module level only, the
command line starts without loading ``dataclasses``, the imports between
its modules form no cycle, and every search takes one budget type."""

import ast
import inspect
import os
import subprocess
import sys
import typing
from pathlib import Path

import thuelex
from thuelex import Graph, verifier

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "thuelex"


def _modules():
    return {
        path.stem: ast.parse(path.read_text(), str(path))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
    }


def _package_imports(tree):
    """Names a parsed module imports from its own package, which imports
    itself by relative imports only."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # from . import a, b
                names.update(alias.name for alias in node.names)
            else:
                names.add(node.module.split(".")[0])
    return names


def test_imports_are_at_module_level():
    for name, tree in _modules().items():
        top = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                assert id(node) in top, f"{name}.py line {node.lineno} imports below module level"


def test_cli_startup_loads_no_dataclasses():
    """Every command starts by importing ``thuelex.cli``, so the package's
    value types are plain classes: a fresh process that imports it has not
    loaded ``dataclasses`` or the introspection modules it pulls in."""
    heavy = ["dataclasses", "inspect", "ast", "dis", "tokenize"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    code = f"import sys, thuelex.cli; print([m for m in {heavy!r} if m in sys.modules])"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    ).stdout
    assert out.strip() == "[]"


def test_package_imports_are_acyclic():
    modules = _modules()
    graph = {name: _package_imports(tree) & modules.keys() for name, tree in modules.items()}
    done, on_path = set(), []

    def visit(name):
        if name in on_path:
            cycle = on_path[on_path.index(name) :] + [name]
            raise AssertionError("import cycle: " + " -> ".join(cycle))
        if name in done:
            return
        on_path.append(name)
        for dep in sorted(graph[name]):
            visit(dep)
        on_path.pop()
        done.add(name)

    for name in sorted(graph):
        visit(name)
    assert graph["cli"] >= {"colorings", "solver", "verifier"}


def test_searches_take_one_budget():
    """Every search takes its limits as one ``Budget``: no public function
    has a ``limits`` or ``node_budget`` parameter."""
    assert "SearchLimits" not in thuelex.__all__
    for name in thuelex.__all__:
        obj = getattr(thuelex, name)
        if inspect.isfunction(obj):
            params = inspect.signature(obj).parameters
            assert not {"limits", "node_budget"} & params.keys(), name


def test_verifier_has_one_search():
    """Paths and walks share one repetitive-path kernel, the verifier's only
    explicit-stack loop, so a second search cannot come back unnoticed."""
    tree = _modules()["verifier"]
    loops = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.While)]
    assert len(loops) == 1, f"verifier.py has while loops at lines {loops}"


def test_verifier_has_one_table_builder():
    """The vertex and the class searches take the kernel's ``step`` table
    from one builder, ``_nodes``, so a second builder cannot come back
    unnoticed.  A function builds a table when it binds ``step`` to anything
    but what ``_nodes`` returns, assigns into it or calls a method of it."""

    def builds(node):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            named = any(
                isinstance(n, ast.Name) and n.id == "step" for t in targets for n in ast.walk(t)
            )
            from_nodes = (
                isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Name)
                and node.value.func.id == "_nodes"
            )
            return named and not from_nodes
        return (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "step"
            and node.attr != "get"
        )

    found = {
        fn.name
        for fn in ast.walk(_modules()["verifier"])
        if isinstance(fn, ast.FunctionDef) and any(map(builds, ast.walk(fn)))
    }
    assert found == {"_nodes"}


def test_one_path_dfs_in_the_package():
    """The solver takes its paths from the verifier, so the verifier's
    kernel is the package's only explicit-stack path search."""
    found = []
    for name, tree in _modules().items():
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                found += [
                    f"{name}.{fn.name}"
                    for node in ast.walk(fn)
                    if isinstance(node, ast.While)
                    and isinstance(node.test, ast.Name)
                    and node.test.id == "stack"
                ]
    assert found == ["verifier._search"]


def test_verifier_takes_plain_graphs():
    """Product layers belong to the colorings module: every public function
    of the verifier takes a plain ``Graph`` first, and verifier.py does not
    import ``ProductGraph``."""
    public = [
        obj for name, obj in vars(verifier).items()
        if inspect.isfunction(obj) and not name.startswith("_")
        and obj.__module__ == verifier.__name__
    ]
    assert public
    for fn in public:
        first = next(iter(inspect.signature(fn).parameters))
        assert typing.get_type_hints(fn).get(first) is Graph, fn.__name__
    imported = {
        alias.name
        for node in ast.walk(_modules()["verifier"])
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert "ProductGraph" not in imported


def _rounds_down_to_even(node) -> bool:
    """Whether the expression is ``x - x % 2`` for some expression x."""
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Sub)
        and isinstance(node.right, ast.BinOp)
        and isinstance(node.right.op, ast.Mod)
        and isinstance(node.right.right, ast.Constant)
        and node.right.right.value == 2
        and ast.dump(node.left) == ast.dump(node.right.left)
    )


def test_exact_bound_has_one_owner():
    """A path bound is exact iff it reaches |V| rounded down to even.  Only
    ``verifier.exact_bound`` rounds down to even, so no other module can
    restate when a check is exact."""
    found = [
        f"{name}.py:{node.lineno}"
        for name, tree in _modules().items()
        for node in ast.walk(tree)
        if _rounds_down_to_even(node)
    ]
    assert len(found) == 1 and found[0].startswith("verifier.py:"), found


def _calls_by_function(name):
    """``module.function`` of every module-level function, once per call in
    it (nested functions included) to a callee spelled ``name``."""
    return [
        f"{module}.{fn.name}"
        for module, tree in _modules().items()
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


def test_one_solve_result_constructor():
    """``solver._solve`` decides status, value, witness and nodes once, for
    every entry point, so no other function builds a ``SolveResult``."""
    assert _calls_by_function("SolveResult") == ["solver._solve"]


def test_one_repetition_witness_constructor():
    """``verifier._find_repetition`` turns the path of every search, the
    half-length-1 edge scan included, into a witness at one return."""
    assert _calls_by_function("RepetitionWitness") == ["verifier._find_repetition"]


def test_only_the_value_base_touches_instance_dicts():
    """``errors.FrozenValue`` alone stores a value's fields, so no other
    module reads or writes ``self.__dict__``."""
    found = [
        f"{name}.py:{node.lineno}"
        for name, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == "__dict__"
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ]
    assert found and all(f.startswith("errors.py:") for f in found), found


def test_verify_writes_one_report():
    """``verify`` checks all of its input first, so its checks fill one
    report that one ``_emit`` writes."""
    assert _calls_by_function("_emit").count("cli._cmd_verify") == 1


def test_graph_or_product_rule_has_one_owner():
    """A JSON document with a ``"base"`` is a product; only the graphs
    module says so."""
    found = [
        f"{name}.py:{node.lineno}"
        for name, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and isinstance(node.left, ast.Constant)
        and node.left.value == "base"
        and isinstance(node.ops[0], ast.In)
    ]
    assert len(found) == 1 and found[0].startswith("graphs.py:"), found


def test_layer_analyses_take_colors():
    """The layer analyses take the product and the color tuple, and read the
    layers through one function, so no second layer-set helper or value box
    can come back unnoticed."""
    for fn in (thuelex.layer_color_sets, thuelex.is_rainbow, thuelex.check_path4_trichotomy):
        assert list(inspect.signature(fn).parameters) == ["pg", "colors"], fn.__name__
    found = [f for f in _calls_by_function("layer_vertices") if f.startswith("colorings.")]
    assert found == ["colorings.layer_color_sets"]
