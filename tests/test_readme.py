"""The README's "Library at a glance" block runs and prints what it documents."""

import ast
import pathlib

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _glance_block():
    text = README.read_text()
    section = text[text.index("## Library at a glance"):]
    start = section.index("```python\n") + len("```python\n")
    return section[start:section.index("```", start)]


def _documented_value(lines, node):
    """The comment after an expression: on its last line, or alone on the next."""
    last = lines[node.end_lineno - 1]
    if "#" in last:
        return last.split("#", 1)[1].strip()
    return lines[node.end_lineno].strip().lstrip("#").strip()


def test_library_at_a_glance_block_gives_the_documented_results():
    source = _glance_block()
    lines = source.splitlines()
    namespace = {}
    checked = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README", "eval"), namespace)
            expected = _documented_value(lines, node)
            assert repr(value) == expected
            checked.append(expected)
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
    assert checked == ["2", "(1, 3, 3, 1)"]
