"""Source hygiene of the library, read from its syntax trees.

Every single-underscore function, class or method in `src/gradedhecke` is
used somewhere in `src` outside its own body, so a helper whose last caller
went away is noticed; and every name in each module's `__all__`, and in the
package's, resolves, so an export does not outlive its definition.
"""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gradedhecke"
FILES = sorted(SRC.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in FILES}


def _uses():
    """(file name, line) of every load of each name or attribute, by name."""
    out = {}
    for name, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used = node.id
            elif isinstance(node, ast.Attribute):
                used = node.attr
            else:
                continue
            out.setdefault(used, []).append((name, node.lineno))
    return out


USES = _uses()


def _private_definitions(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                and node.name.startswith("_") and not node.name.startswith("__"):
            yield node


@pytest.mark.parametrize("file_name", sorted(TREES))
def test_private_definitions_are_used_outside_their_own_body(file_name):
    unused = []
    for node in _private_definitions(TREES[file_name]):
        span = range(node.lineno, node.end_lineno + 1)
        if not any(where != file_name or line not in span
                   for where, line in USES.get(node.name, [])):
            unused.append(f"{node.name} (line {node.lineno})")
    assert not unused, f"{file_name}: unused private definitions {unused}"


@pytest.mark.parametrize("module_name", ["gradedhecke"] + [
    f"gradedhecke.{path.stem}" for path in FILES if path.stem != "__init__"])
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", []) if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names undefined {missing}"
