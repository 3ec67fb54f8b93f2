"""The README's code examples run against the current package."""
import contextlib
import io
import re
from pathlib import Path

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
