"""Every name a georay module imports is used in it, and is imported from
the module that defines it; every function, class and method the package
defines is named somewhere else in the package.

No linter runs on the package, so this reads each module's syntax tree
with ``ast``: a name bound by an import must appear somewhere in the
module as a name (``__init__.py`` only re-exports, and is skipped), and a
name imported ``from .mod`` must be defined at the top level of ``mod``,
not merely imported there, so that each shared rule has one owner.  A
definition that only the tests or the benchmark name belongs with them.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "georay"


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in used]


def test_no_unused_import():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(modules) > 5
    assert [bad for p in modules for bad in unused_imports(p)] == []


def top_level_names(path: Path) -> set[str]:
    """The names a module binds at top level other than by import."""
    names = set()
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def imports_not_from_owner(path: Path) -> list[str]:
    bad = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not (isinstance(node, ast.ImportFrom) and node.level == 1):
            continue
        for alias in node.names:
            if node.module is None:  # from . import module
                owned = (SRC / f"{alias.name}.py").exists()
            else:
                owned = alias.name in top_level_names(SRC / f"{node.module}.py")
            if not owned:
                bad.append(f"{path.name}:{node.lineno} {alias.name} from .{node.module or ''}")
    return bad


def test_imports_from_the_owner():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    assert [bad for p in modules for bad in imports_not_from_owner(p)] == []


def definitions(tree: ast.Module):
    """The top-level functions and classes of a module and the methods of
    its classes, except dunders and the checks registered by ``@_check``."""
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else []
        for d in [node, *members]:
            if not isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            registered = any(
                isinstance(dec, ast.Call) and getattr(dec.func, "id", None) == "_check"
                for dec in d.decorator_list
            )
            if not (d.name.startswith("__") and d.name.endswith("__")) and not registered:
                yield d


def mentions(node: ast.AST) -> list[str]:
    """Every name and attribute that ``node`` reads or binds, with repeats."""
    return [
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    ]


def test_no_dead_definition():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    everywhere = Counter(name for tree in trees.values() for name in mentions(tree))
    dead = [
        f"{path}:{d.lineno} {d.name}"
        for path, tree in trees.items()
        for d in definitions(tree)
        if everywhere[d.name] == Counter(mentions(d))[d.name]
    ]
    assert dead == []
