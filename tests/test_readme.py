"""README's Python examples run, and print what their comments say.

Every ```python block of README.md is executed with stdout captured.
The printed lines must equal, in order, the ``# ...`` comments of the
block's ``print(...)`` lines.
"""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)
PRINT_COMMENT = re.compile(r"^\s*print\(.*\)\s*#\s?(.*?)\s*$", re.MULTILINE)


def test_readme_python_blocks_print_their_comments():
    blocks = BLOCK.findall(README.read_text(encoding="utf-8"))
    checked = 0
    for block in blocks:
        expected = PRINT_COMMENT.findall(block)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), {"__name__": "readme"})
        assert out.getvalue().splitlines() == expected
        checked += len(expected)
    assert blocks and checked, "README.md shows no printed output to check"
