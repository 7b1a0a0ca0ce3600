"""README's library example runs, and every value it states in a trailing
comment is what the line gives."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_the_library_example_gives_its_commented_values():
    source = _library_example()
    stated = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        code, sep, comment = line.partition("#")
        if sep and code.strip():
            stated[lineno] = comment.strip()
    assert len(stated) == 3
    namespace = {}
    got = {}
    for node in ast.parse(source).body:
        if node.lineno in stated:
            expr = compile(ast.Expression(node.value), "README.md", "eval")
            got[node.lineno] = repr(eval(expr, namespace))
        else:
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), namespace)
    assert got == stated
