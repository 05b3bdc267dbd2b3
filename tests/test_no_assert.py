"""phimod's invariants raise typed exceptions: `python -O` strips `assert`."""

import ast
from pathlib import Path

import phimod


def test_no_assert_in_package():
    sources = sorted(Path(phimod.__file__).parent.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in phimod: {found}"
