"""No test module defines one class or function name twice in one scope.

A second `class TestX` or `def test_x` in the same scope silently replaces
the first, and pytest then never collects the first one's tests.  Every
module under tests/ and perfbench/test_perfbench.py is parsed with ast, and
each module, class and function body is checked for names it binds twice
by a class or function definition.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "tests").glob("*.py")) + [ROOT / "perfbench" / "test_perfbench.py"]
DEFINITIONS = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def shadowed(source: str) -> list[tuple[int, str]]:
    """(line, name) of every definition that rebinds a name defined earlier in its scope."""
    found = []
    for scope in ast.walk(ast.parse(source)):
        if isinstance(scope, (ast.Module, *DEFINITIONS)):
            seen = set()
            for node in scope.body:
                if isinstance(node, DEFINITIONS):
                    if node.name in seen:
                        found.append((node.lineno, node.name))
                    seen.add(node.name)
    return sorted(found)


def test_the_check_finds_a_shadowed_class_and_method():
    source = (
        "class TestA:\n    def test_x(self): pass\n    def test_x(self): pass\n"
        "class TestA:\n    pass\n"
        "def f():\n    def g(): pass\n    def g(): pass\n"
        "def h():\n    def g(): pass\n"
    )
    assert shadowed(source) == [(3, "test_x"), (4, "TestA"), (8, "g")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_name_is_defined_twice_in_one_scope(path):
    assert shadowed(path.read_text()) == []
