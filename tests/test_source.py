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
