import contextlib
import io
import math
import re
from pathlib import Path

import numpy as np

from hypsmear.smear import chain
from hypsmear.volume import ideal_regular_volume

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


def test_vn_table_shows_the_values_vn_prints():
    table = README.read_text().split("| n | v_n |", 1)[1].split("\n\n", 1)[0]
    rows = re.findall(r"^\| (\d+) \| (\S+) \|$", table, re.M)
    assert [int(n) for n, _ in rows] == list(range(3, 11))
    for n, shown in rows:
        assert f"{ideal_regular_volume(int(n)).v_n:.12g}" == shown


def test_store_paragraph_shows_the_bytes_the_chain_counts():
    # a key row's columns, its hash-index entry and the worst case that the
    # memory check multiplies by two rows per sample
    text = " ".join(README.read_text().split())
    row = sum(np.dtype(dt).itemsize * math.prod(shape) for shape, dt in chain._COLUMNS.values())
    index = chain._INDEX_BYTES
    assert f"one row of numpy columns, {row} bytes" in text
    assert f"{index}-byte entry in the hash index" in text
    assert (f"its worst case, {chain._KEY_BYTES} bytes per row (the key's {row}, its "
            f"{index} in the index and {chain._KEY_BYTES - row - index} more") in text
