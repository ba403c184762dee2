"""Every ```python block of README.md runs as written.

Each block executes in a fresh namespace inside a temporary working
directory, so files a snippet writes stay out of the repository and a
stale import or renamed API fails here instead of in a reader's shell.
"""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[2] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                    flags=re.S | re.M)


def test_readme_has_python_snippets():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=lambda s: s.splitlines()[0])
def test_readme_snippet_runs(source, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    exec(compile(source, str(README), "exec"), {"__name__": "__readme__"})
