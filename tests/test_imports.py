"""Every name imported in the package and its tests is used.

No linter ships with the test dependencies, so this scans the syntax
trees directly.  `from __future__` imports and the re-exports of the
package's `__init__.py` are exempt.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    paths = [p for p in sorted(ROOT.glob("src/qdgates/*.py")) + sorted(ROOT.glob("tests/*.py"))
             if p.name != "__init__.py"]
    assert len(paths) > 10
    assert [hit for p in paths for hit in unused_imports(p)] == []
