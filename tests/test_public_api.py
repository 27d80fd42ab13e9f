"""Each clocklab module's ``__all__`` matches its public definitions, and
something in the source, the tests or the benchmark refers to each of them."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import clocklab

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(clocklab.__path__, "clocklab.")
)


def test_modules_found():
    assert "clocklab.simulator" in MODULES and "clocklab.network" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_matches_public_definitions(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", None)
    assert exported is not None, f"{name} has no __all__"
    missing = [n for n in exported if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
    defined = [
        n for n, obj in vars(mod).items()
        if not n.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == name
    ]
    unlisted = sorted(set(defined) - set(exported))
    assert not unlisted, f"{name} defines public {unlisted} missing from __all__"


ROOT = Path(__file__).resolve().parent.parent
SOURCES = [
    path for part in ("src", "tests", "perfbench")
    for path in sorted((ROOT / part).rglob("*.py"))
]


def public_definitions(tree):
    """Public top-level defs and classes, and the public methods of those
    classes, as dotted names."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def references(tree):
    """Names used, imported or spelled as a string constant, leaving out
    the strings that list a module's ``__all__``."""
    listed = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                listed.update(id(c) for c in ast.walk(node.value))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in listed):
            yield node.value


def test_every_public_definition_is_referenced():
    assert any(p.parts[-2:] == ("perfbench", "tracing.py") for p in SOURCES)
    trees = {path: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    used = {name for tree in trees.values() for name in references(tree)}
    package = ROOT / "src" / "clocklab"
    unused = sorted(
        f"{path.stem}.{dotted}"
        for path, tree in trees.items() if path.parent == package
        for dotted, name in public_definitions(tree) if name not in used
    )
    assert not unused, f"public definitions nothing refers to: {unused}"
