"""The README's library quick start runs against the package as it is.

A public name that is renamed or deleted under the docs fails here.
"""

import re
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs():
    (block,) = re.findall(r"## Library quick start\n\n```python\n(.*?)```",
                          README.read_text(), flags=re.S)
    out = subprocess.run([sys.executable, "-c", block], check=True,
                         capture_output=True, text=True)
    # the norm, the induction's depth and resonances, and one moment
    assert len(out.stdout.splitlines()) == 3
