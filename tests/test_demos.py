"""Smoke test: every narrative script in demos/, and the README's library
tour, runs to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS + [ROOT / "README.md"], ids=lambda p: p.name)
def test_demo_runs(script, tmp_path):
    if script.suffix == ".md":  # its ```python block
        (block,) = re.findall(r"```python\n(.*?)```", script.read_text(encoding="utf-8"), re.S)
        script = tmp_path / "readme_tour.py"
        script.write_text(block, encoding="utf-8")
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
