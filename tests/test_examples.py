"""Every example script and every ``python`` block in README.md runs.

They import the public surface: a name dropped from it, or a module
deleted under an example, fails here.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

REPO = Path(__file__).resolve().parents[1]
README_BLOCKS = re.findall(r"```python\n(.*?)```", (REPO / "README.md").read_text(), re.S)
#: ``python`` argument lists, by what they run.
PROGRAMS = {
    **{
        f"examples/{path.name}": [str(path)]
        for path in sorted((REPO / "examples").glob("*.py"))
    },
    **{
        f"README.md python block {number}": ["-c", block]
        for number, block in enumerate(README_BLOCKS, 1)
    },
}


def test_the_readme_shows_python():
    assert README_BLOCKS, "README.md has no python blocks"


@pytest.mark.parametrize("program", PROGRAMS)
def test_it_runs(program, tmp_path):
    done = subprocess.run(
        [sys.executable, *PROGRAMS[program]],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])},
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
