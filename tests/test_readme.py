"""The README's python blocks run as written against the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.DOTALL | re.MULTILINE)


def test_library_tour_runs(capsys):
    # the tour ends by printing a passing verify report, so the assert
    # also fails if no block was found
    for block in PYTHON_BLOCK.findall(README.read_text()):
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    assert "'passed': True" in capsys.readouterr().out
