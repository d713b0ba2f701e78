import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_the_values_its_comments_show():
    # each print's comment shows its values rounded, after "->" or "~"
    text = README.read_text()
    block = text.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    shown = [re.findall(r"(?:->|~)\s*(\d+\.\d+)", line.split("#", 1)[1])
             for line in block.splitlines() if line.startswith("print(")]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        exec(compile(block, str(README), "exec"), {})
    printed = buf.getvalue().splitlines()
    assert len(printed) == len(shown) == 4
    for line, nums in zip(printed, shown):
        values = [float(v) for v in line.split()]
        assert len(values) == len(nums) > 0, line
        for value, num in zip(values, nums):
            assert round(value, len(num.split(".")[1])) == float(num), (value, num)
