import ast
import subprocess
import sys
from collections import Counter
from pathlib import Path

import altgen

PACKAGE = Path(altgen.__file__).parent
REPO = PACKAGE.parents[1]

# public definitions kept without a caller, each mapped to its reason;
# meant to stay empty
UNCALLED_ALLOWED = {}


def _raises_assertion_error(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, and a hand-raised AssertionError
    # bypasses the one check helper, so every check in the package goes
    # through errors.require instead
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)
                  or isinstance(node, ast.Raise) and node.exc is not None
                  and _raises_assertion_error(node)]
    assert not found, f"assert statements or raised AssertionErrors in altgen: {found}"


def _public_definitions(tree):
    """Public top-level functions and classes, and the public methods of every class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (method for method in node.body
                        if isinstance(method, ast.FunctionDef)
                        and not method.name.startswith("_"))


def _module_references(tree):
    """(module stem, name) for each import of a name from an altgen module and
    each attribute on an imported altgen module; the stem is None for names
    imported from the package itself."""
    aliases = {}
    for sub in ast.walk(tree):
        if not isinstance(sub, ast.ImportFrom):
            continue
        module = sub.module or ""
        if not sub.level and not module.startswith("altgen"):
            continue
        stem = module.removeprefix("altgen").lstrip(".") or None
        for alias in sub.names:
            yield stem, alias.name
            if stem is None:
                aliases[alias.asname or alias.name] = alias.name
    for sub in ast.walk(tree):
        if (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                and sub.value.id in aliases):
            yield aliases[sub.value.id], sub.attr


def _attribute_uses(tree, prop):
    """Attribute names loaded (prop) or called as x.name(...) (not prop) in tree."""
    if prop:
        return Counter(sub.attr for sub in ast.walk(tree)
                       if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load))
    return Counter(sub.func.attr for sub in ast.walk(tree)
                   if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute))


def test_every_public_definition_has_a_caller():
    # the package holds what the CLI, the demos and the benchmark run; a
    # definition only tests call belongs in tests/, and re-exports in
    # __init__.py do not count as calls.  A top-level function counts only
    # references that must mean it, so a method of the same name elsewhere
    # does not hide it; a class counts the same references and also strings
    # naming it in other files.  A plain method counts only calls x.name(...)
    # and a property only loads of x.name, so a list attribute of the same
    # name does not hide a method; both also count strings naming them in
    # other files (the benchmark's tracer wraps classes and methods by name).
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    demos = sorted((REPO / "demos").glob("*.py"))
    bench = [p for p in sorted((REPO / "perfbench").glob("*.py"))
             if not p.name.startswith("test_")]
    assert demos and bench, "demos/ and perfbench/ must sit next to src/"
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in modules + demos + bench}
    uses = {False: Counter(), True: Counter()}
    qualified, strings = Counter(), {}
    for path, tree in trees.items():
        for prop in uses:
            uses[prop].update(_attribute_uses(tree, prop))
        qualified.update(_module_references(tree))
        strings[path] = Counter(sub.value for sub in ast.walk(tree)
                                if isinstance(sub, ast.Constant) and isinstance(sub.value, str))
    all_strings = sum(strings.values(), Counter())
    uncalled = []
    for path in modules:
        bare = Counter(sub.id for sub in ast.walk(trees[path]) if isinstance(sub, ast.Name))
        for node in _public_definitions(trees[path]):
            if node not in trees[path].body:
                prop = any(isinstance(d, ast.Name) and d.id == "property"
                           for d in node.decorator_list)
                inside = _attribute_uses(node, prop)[node.name]
                called = (uses[prop][node.name] > inside
                          or all_strings[node.name] > strings[path][node.name])
            else:
                inside = sum(isinstance(sub, ast.Name) and sub.id == node.name
                             for sub in ast.walk(node))
                called = (bare[node.name] > inside or qualified[None, node.name]
                          or qualified[path.stem, node.name]
                          or isinstance(node, ast.ClassDef)
                          and all_strings[node.name] > strings[path][node.name])
            if not called and f"{path.stem}.{node.name}" not in UNCALLED_ALLOWED:
                uncalled.append(f"{path.name}:{node.lineno} {node.name}")
    assert not uncalled, f"public definitions with no caller outside tests: {uncalled}"


def test_every_package_function_runs():
    # the trace sees what the static test above cannot: a method hidden by
    # another of its name, an operator dunder, a function only dead code calls
    result = subprocess.run([sys.executable, "tests/unrun.py"], cwd=REPO,
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stdout + result.stderr


def test_only_geometry_calls_the_index_tables():
    # the cube layout is known to geometry.py alone: other modules reach the
    # lines through `lines`, `line_coords` and `move`
    tables = {"coord_array", "line_id_array", "line_points"}
    found = []
    for path in sorted(Path(altgen.__file__).parent.glob("*.py")):
        if path.name == "geometry.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in tables]
    assert not found, f"index-table calls outside geometry.py: {found}"


def test_one_cube_object():
    # CubeGeometry is the one cube object: no code hops through a
    # `.geometry` attribute to reach it, and the package names no second cube
    # class; only the old name stays, as an alias the benchmark builds by
    alias = "CubeModel = CubeGeometry"
    found = []
    for path in sorted(PACKAGE.glob("*.py")) + sorted((REPO / "demos").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "geometry":
                found.append(f"{path.name}:{node.lineno} .geometry")
            names = {getattr(node, key, None) for key in ("id", "attr", "name")}
            if path.parent == PACKAGE and "CubeModel" in names:
                found.append(f"{path.name}:{node.lineno} CubeModel")
    lines = (PACKAGE / "embeddings.py").read_text().splitlines()
    assert alias in lines, "perfbench/ builds the cube as embeddings.CubeModel"
    found.remove(f"embeddings.py:{lines.index(alias) + 1} CubeModel")
    assert not found, f"a second cube object or a hop to one: {found}"


def test_no_id_calls_in_embeddings_or_graphs():
    # a generating set lists its line actions once, so no code needs to
    # find shared arrays again by object identity
    found = []
    for name in ("embeddings.py", "graphs.py"):
        path = Path(altgen.__file__).parent / name
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "id"]
    assert not found, f"id() calls: {found}"


def _is_object_dtype(node):
    return (isinstance(node, ast.Name) and node.id == "object"
            or isinstance(node, ast.Constant) and node.value in ("O", "object"))


def test_no_object_arrays_in_the_package():
    # exact integers live in fixed-width arrays whose range the code checks;
    # an object array of Python ints would hide a second, unbounded path
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            args = [kw.value for kw in node.keywords if kw.arg == "dtype"]
            if isinstance(node.func, ast.Attribute) and node.func.attr in ("astype", "dtype"):
                args += node.args[:1]
            if any(_is_object_dtype(arg) for arg in args):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"object-dtype arrays in altgen: {found}"


def test_only_main_builds_and_emits_the_report():
    # a handler adds records to the report main hands it, so `verify` can run
    # a subcommand's handler into its own report; a handler that built or
    # emitted one would be a second runner
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    found = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_"):
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                name = (call.func.id if isinstance(call.func, ast.Name)
                        else getattr(call.func, "attr", None))
                if name in ("Report", "emit"):
                    found.append(f"{node.name}:{call.lineno} {name}")
    assert not found, f"handlers that build or emit a report: {found}"


# defaulted parameters kept although no caller sets them, each mapped to its
# reason
DEFAULT_ALLOWED = {
    "ring.commutator_pair.rng": "tests pass a recording generator to count the pairs drawn",
}


def _functions(tree):
    """(qualified name, def node, implicit leading arguments) for each
    top-level function and each method of a top-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node, 0
        elif isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in method.decorator_list)
                    yield f"{node.name}.{method.name}", method, 0 if static else 1


def _defaulted(fn, implicit):
    """(name, call position or None) of each defaulted parameter of fn."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    for i in range(first, len(positional)):
        yield positional[i].arg, i - implicit
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _sets(call, name, position):
    """Whether call passes the parameter `name` at `position`."""
    if any(kw.arg in (None, name) for kw in call.keywords):
        return True
    return position is not None and (
        position < len(call.args) or any(isinstance(arg, ast.Starred) for arg in call.args))


def test_every_default_parameter_is_set_by_a_caller():
    # a default that no caller overrides is a knob nothing turns: it belongs
    # in the body as a constant, or in tests/ if only tests turn it
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    callers = modules + sorted((REPO / "demos").glob("*.py")) + [
        p for p in sorted((REPO / "perfbench").glob("*.py")) if not p.name.startswith("test_")]
    calls = {}
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                name = (node.func.id if isinstance(node.func, ast.Name)
                        else getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    unset = []
    for path in modules:
        for qualified, fn, implicit in _functions(ast.parse(path.read_text())):
            if fn.name == "__init__":
                continue
            for name, position in _defaulted(fn, implicit):
                key = f"{path.stem}.{qualified}.{name}"
                if (name.startswith("_") or key in DEFAULT_ALLOWED
                        or any(_sets(call, name, position) for call in calls.get(fn.name, []))):
                    continue
                unset.append(f"{path.name}:{fn.lineno} {key}")
    assert not unset, f"defaulted parameters no caller sets: {unset}"


def test_one_graph_operator():
    # every graph holds one CSR, and one body each runs, checks, densifies
    # and connects it; a subclass keeps a `matvec` entry of its own only so
    # that the benchmark's tracer can wrap it by class
    from altgen import graphs

    subclasses = graphs.SparseGraph.__subclasses__()
    assert {cls.__name__ for cls in subclasses} >= {"ActionGraph", "EdgeGraph",
                                                     "AxisBlockGraph"}
    found = []
    for cls in subclasses:
        if cls.__dict__.get("matvec") is not graphs.SparseGraph.matvec:
            found.append(f"{cls.__name__}.matvec")
        found += [f"{cls.__name__}.{name}" for name in ("edge_counts", "to_dense",
                                                        "is_connected")
                  if name in cls.__dict__]
    if hasattr(graphs, "ACTION_FORM_LIMIT"):
        found.append("graphs.ACTION_FORM_LIMIT")
    assert not found, f"a second graph operator form: {found}"
