"""The README's library example runs as printed."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs():
    text = README.read_text()
    section = text[text.index("## Library use"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    deviation, holder = out.getvalue().splitlines()
    assert abs(float(deviation) - 1.0 / 36.0) <= 1e-12
    rhs, verdict = holder.split()
    assert abs(float(rhs) - 1.0 / 6.0) <= 1e-12
    assert verdict == "holds"
