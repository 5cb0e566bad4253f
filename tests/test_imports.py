"""Every name a package module imports is used in that module."""

import ast
from pathlib import Path

import pytest

import anticanon

MODULES = sorted(Path(anticanon.__file__).parent.glob("*.py"))

# Imported for their side effect, not for a name.
SIDE_EFFECT_IMPORTS = {("__init__.py", "_numpy")}


def _imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere, including inside string annotations."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
            args = node.args
            annotations += [a.annotation for a in (*args.posonlyargs, *args.args,
                                                   *args.kwonlyargs, args.vararg,
                                                   args.kwarg) if a]
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    trees = [tree]
    for ann in annotations:
        for node in ast.walk(ann) if ann else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                trees.append(ast.parse(node.value, mode="eval"))
    return {node.id for t in trees for node in ast.walk(t)
            if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = _imported_names(tree) - _used_names(tree)
    unused -= {name for module, name in SIDE_EFFECT_IMPORTS if module == path.name}
    assert not unused, f"{path.name} imports {sorted(unused)} without using them"


def test_string_annotations_count_as_use():
    tree = ast.parse("from .fields import ProjectiveBasis\n"
                     "x: 'ProjectiveBasis | None' = None\n")
    assert _imported_names(tree) <= _used_names(tree)


def test_an_unused_import_is_found():
    tree = ast.parse("from dataclasses import dataclass, field as dataclass_field\n"
                     "@dataclass\nclass A:\n    x: int\n")
    assert _imported_names(tree) - _used_names(tree) == {"dataclass_field"}
