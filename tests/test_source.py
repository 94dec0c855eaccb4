import ast
from pathlib import Path

import altgen


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so every check in the package
    # goes through errors.require instead
    found = []
    for path in sorted(Path(altgen.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in altgen: {found}"


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
