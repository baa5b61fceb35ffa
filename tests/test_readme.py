"""The README's library quick start runs and prints what its comments say."""

import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_quick_start_prints_documented_values():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", blocks[0]], capture_output=True, text=True,
                          env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.split()
    assert lines[:2] == ["[[1.]]", "[[1.]]"]
    assert len(lines) == 3 and lines[2].startswith("0.0100")
