"""The README's Library example runs and prints what its comments say."""

import re
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_prints_its_comments():
    [block] = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    expected = [line.split("#", 1)[1].strip() for line in block.splitlines()
                if line.startswith("print(")]
    out = StringIO()
    with redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert expected and out.getvalue().splitlines() == expected
