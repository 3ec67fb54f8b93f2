"""The README's code examples run against the current package, and the
names it cites exist."""
import contextlib
import functools
import importlib
import io
import pkgutil
import re
from pathlib import Path

import qdgates
from qdgates import config

ROOT = Path(__file__).resolve().parent.parent


def readme_block(heading: str) -> str:
    """The first ```python block under a `## heading` of the README."""
    text = (ROOT / "README.md").read_text()
    section = text.split(f"## {heading}\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, f"no python block under '## {heading}'"
    return match.group(1)


def test_library_use_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(readme_block("Library use"), "README.md", "exec"), {})
    p_up = float(out.getvalue())
    assert 0.0 <= p_up <= 1.0


def test_readme_names_resolve():
    # a backticked dotted name that starts with a package module or an
    # exported class must resolve by getattr, unless it is a config key;
    # one that starts with any other config section must be a config key
    modules = {m.name for m in pkgutil.iter_modules(qdgates.__path__)}
    classes = {name for name in dir(qdgates) if isinstance(getattr(qdgates, name), type)}
    sections = {key.split(".")[0] for key in config._KEYS}
    text = (ROOT / "README.md").read_text()
    attributes, keys, missing = set(), set(), []
    for name in sorted(set(re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", text))):
        head, *rest = name.split(".")
        if name in config._KEYS:
            keys.add(name)
        elif head in modules or head in classes:
            obj = (importlib.import_module(f"qdgates.{head}") if head in modules
                   else getattr(qdgates, head))
            try:
                functools.reduce(getattr, rest, obj)
                attributes.add(name)
            except AttributeError:
                missing.append(name)
        elif head in sections:
            missing.append(name)
    assert missing == []
    assert {"CollapseSet.matrices", "analysis.find_boundary",
            "device._spin_hamiltonian", "device.LAYOUTS"} <= attributes
    assert "noise.phonon_e_mode" in keys
