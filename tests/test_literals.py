"""Every small tolerance in the library is a named constant.

A float literal at most ``SMALL`` in ``src`` must be the value of an
assignment to UPPER_CASE names (a leading underscore allowed), where a
one-line comment gives its reason.  Docstrings are strings, not floats, so
values quoted in them do not count.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
SMALL = 1e-6


def _constant_names(targets) -> bool:
    names = []
    for target in targets:
        names += target.elts if isinstance(target, ast.Tuple) else [target]
    return all(isinstance(n, ast.Name) and n.id.lstrip("_").isupper() for n in names)


def bare_small_literals(tree: ast.AST) -> list:
    """Line numbers of the small float literals outside a constant's value."""
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and _constant_names(node.targets) or (
                isinstance(node, ast.AnnAssign) and node.value is not None
                and _constant_names([node.target])):
            named |= {id(n) for n in ast.walk(node.value)}
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and type(node.value) is float
        and 0.0 < node.value <= SMALL and id(node) not in named
    ]


def test_small_float_literals_are_named_constants():
    found = {
        str(path.relative_to(SRC)): lines
        for path in sorted(SRC.rglob("*.py"))
        if (lines := bare_small_literals(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert found == {}


def test_the_walk_finds_a_bare_literal():
    tree = ast.parse(
        '"""1e-9 in a docstring"""\n'
        "_TOL, STEPS = 1e-9, 3\n"
        "def f(x, tol=1e-8):\n"
        "    return abs(x) < 1e-12 or x < 0.5\n"
    )
    assert bare_small_literals(tree) == [3, 4]
