"""Each clocklab module's ``__all__`` matches its public definitions,
something in the source, the tests or the benchmark refers to each of
them, some call there sets each of their defaulted parameters,
something there reads each field of their dataclasses, and no file in
the source or the tests imports a name it never uses."""

import ast
import importlib
import inspect
import math
import pkgutil
from collections import defaultdict
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


def unused_imports(tree, lines):
    """``(line, name)`` of each name that a module imports and never uses.

    A use is a load of the name anywhere in the module or its listing in
    ``__all__``.  ``__future__`` imports and import lines marked
    ``# noqa: F401`` are skipped.
    """
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if alias.name != "*" and "# noqa: F401" not in lines[alias.lineno - 1]:
                imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    """An import that nothing uses is dead code, and in the package's
    ``__init__`` it is a second import path for the name."""
    found = []
    for path in SOURCES:
        if path.relative_to(ROOT).parts[0] in ("src", "tests"):
            text = path.read_text()
            found += [f"{path.relative_to(ROOT)}:{line}: {name}" for line, name
                      in unused_imports(ast.parse(text, str(path)), text.splitlines())]
    assert not found, f"imported and never used: {found}"


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


def _decorators(node):
    """Names of ``node``'s decorators, call arguments dropped."""
    for d in node.decorator_list:
        d = d.func if isinstance(d, ast.Call) else d
        yield d.id if isinstance(d, ast.Name) else getattr(d, "attr", None)


def _init_fields(node):
    """The fields of a dataclass that its constructor takes, in order."""
    for item in node.body:
        if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
            continue
        value = item.value
        if (isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field"
                and any(k.arg == "init" and getattr(k.value, "value", None) is False
                        for k in value.keywords)):
            continue
        yield item


def _defaulted(fn, name, skip_first):
    """``(name, parameter, position, False)`` of each defaulted parameter
    of ``fn``; the position counts the arguments before it in a call and
    is None for a keyword-only parameter."""
    args = fn.args
    positional = (args.posonlyargs + args.args)[1 if skip_first else 0:]
    first_default = len(positional) - len(args.defaults)
    for pos, arg in enumerate(positional[first_default:], first_default):
        yield name, arg.arg, pos, False
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield name, arg.arg, None, False


def defaulted_parameters(tree):
    """``(called name, parameter, position, is_field)`` of each defaulted
    parameter of a public function, method or constructor, and of each
    defaulted public dataclass field, in one module.  Constructors and
    fields are called by their class's name."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield from _defaulted(node, node.name, skip_first=False)
        if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
            continue
        if "dataclass" in set(_decorators(node)):
            for pos, item in enumerate(_init_fields(node)):
                if item.value is not None and not item.target.id.startswith("_"):
                    yield node.name, item.target.id, pos, True
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and (
                    item.name == "__init__" or not item.name.startswith("_")):
                name = node.name if item.name == "__init__" else item.name
                static = "staticmethod" in set(_decorators(item))
                yield from _defaulted(item, name, skip_first=not static)


def call_settings(trees):
    """Per called name, the keywords its calls pass and the most
    positional arguments one call passes; a ``*`` or ``**`` argument
    sets every parameter.  ``dataclasses.replace`` calls are under
    ``"replace"``."""
    keywords, positional = defaultdict(set), defaultdict(int)
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            unpacked = (any(isinstance(a, ast.Starred) for a in node.args)
                        or any(k.arg is None for k in node.keywords))
            positional[name] = max(positional[name], math.inf if unpacked else len(node.args))
            keywords[name].update(k.arg for k in node.keywords if k.arg is not None)
    return keywords, positional


def test_every_defaulted_parameter_is_set_somewhere():
    """A default that no call in the source, the tests or the benchmark
    overrides is a setting with one value: make it a constant."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    keywords, positional = call_settings(trees.values())
    package = ROOT / "src" / "clocklab"
    unset = sorted(
        f"{path.stem}.{name}({param})"
        for path, tree in trees.items() if path.parent == package
        for name, param, pos, is_field in defaulted_parameters(tree)
        if not (param in keywords[name]
                or (pos is not None and positional[name] > pos)
                or (is_field and param in keywords["replace"]))
    )
    assert not unset, f"defaulted parameters no call sets: {unset}"


def dataclass_fields(tree):
    """``(class, field)`` of each field of a public dataclass."""
    for node in tree.body:
        if (isinstance(node, ast.ClassDef) and not node.name.startswith("_")
                and "dataclass" in set(_decorators(node))):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield node.name, item.target.id


def attribute_reads(tree):
    """Attribute names read, as ``x.name`` loads or as ``getattr(x, "name")``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
              and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)):
            yield node.args[1].value


def test_every_dataclass_field_is_read():
    """A field that nothing in the source, the tests or the benchmark
    reads carries a value to no one: drop it."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    read = {name for tree in trees.values() for name in attribute_reads(tree)}
    package = ROOT / "src" / "clocklab"
    unread = sorted(
        f"{path.stem}.{cls}.{name}"
        for path, tree in trees.items() if path.parent == package
        for cls, name in dataclass_fields(tree) if name not in read
    )
    assert not unread, f"dataclass fields nothing reads: {unread}"


def test_simulator_reads_no_filter_state_layout():
    """The layout of a filter state stays behind ``clocklab.network``:
    the simulator reads link moments, never ``x_hat`` or ``P``."""
    path = ROOT / "src" / "clocklab" / "simulator.py"
    reads = sorted(
        f"line {node.lineno}: .{node.attr}" for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in ("x_hat", "P")
    )
    assert not reads, f"simulator.py reads filter-state entries: {reads}"
