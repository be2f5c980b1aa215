"""Source-level checks on the library itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "delsarte"


def test_no_bare_asserts_in_library():
    # `python -O` strips assert statements; invariants must raise
    # InternalAssertion instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found
