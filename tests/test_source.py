import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "uplane"


def test_no_assert_statement_in_src():
    # `python -O` strips assert statements; every check in the library raises instead
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
