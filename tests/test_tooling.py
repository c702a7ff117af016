import ast
from pathlib import Path

import isograss

SRC = Path(isograss.__file__).parent


def test_no_bare_asserts_in_package():
    # `python -O` strips assert statements, so package checks must raise
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []
