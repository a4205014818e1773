"""Every name a georay module imports is used in it.

No linter runs on the package, so this reads each module's syntax tree
with ``ast``: a name bound by an import must appear somewhere in the
module as a name.  ``__init__.py`` only re-exports, and is skipped.
"""

import ast
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
