"""Every name imported in the package and its tests is used, and the CLI
does not import what it never runs.

No linter ships with the test dependencies, so this scans the syntax
trees directly.  `from __future__` imports and the re-exports of the
package's `__init__.py` are exempt.
"""
import ast
import os
import subprocess
import sys
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


def test_cli_and_calibration_leave_scipy_integrate_unloaded():
    # only the lab-frame `evolve` integrates, and no CLI mode calls it
    code = ("import sys, qdgates.cli, qdgates.calibration; "
            "print('scipy.integrate' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                            capture_output=True, text=True)
    assert result.stdout.strip() == "False"
