"""Every Python block of the README runs, and the README names the
snapshot version."""

from __future__ import annotations

import re
from pathlib import Path

from marline.model import SNAPSHOT_VERSION

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_python_block_of_the_readme_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})


def test_the_readme_names_the_snapshot_header_of_this_version():
    assert f"`marline-model {SNAPSHOT_VERSION}`" in README.read_text()
