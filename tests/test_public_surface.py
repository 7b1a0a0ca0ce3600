"""The package exports no function that only tests reach.

Every function ``solenoidlab/__init__.py`` imports must be referenced in
code somewhere else that ships or is documented: in ``src/`` outside its own
``def``, in the README's library example, in ``tests/test_acceptance.py`` or
in ``bench/``.  A reference is an AST ``Name``, ``Attribute`` or import
alias; a mention in a docstring or a comment does not count.  Classes, the
result types, are exempt, and so are constants.
"""

import ast
import inspect
import re
from pathlib import Path

import solenoidlab

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "solenoidlab"


def _exported() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    names = [
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
    ]
    return [n for n in names if inspect.isfunction(getattr(solenoidlab, n))]


class _References(ast.NodeVisitor):
    """Names referenced in code, except inside the ``def`` of the same name."""

    def __init__(self):
        self.found: set[str] = set()
        self._defs: list[str] = []

    def _note(self, name: str) -> None:
        if name not in self._defs:
            self.found.add(name)

    def visit_FunctionDef(self, node):
        self._defs.append(node.name)
        self.generic_visit(node)
        self._defs.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Name(self, node):
        self._note(node.id)

    def visit_Attribute(self, node):
        self._note(node.attr)
        self.generic_visit(node)

    def visit_alias(self, node):
        self._note(node.name.rsplit(".", 1)[-1])
        if node.asname:
            self._note(node.asname)


def _library_example() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _referenced() -> set[str]:
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "__init__.py"]
    sources += [p.read_text(encoding="utf-8") for p in sorted((ROOT / "bench").glob("*.py"))]
    sources.append((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    sources.append(_library_example())
    refs = _References()
    for source in sources:
        refs.visit(ast.parse(source))
    return refs.found


def test_every_exported_function_is_reached_outside_the_tests():
    exported, referenced = _exported(), _referenced()
    assert exported
    assert [n for n in exported if n not in referenced] == []
