import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs():
    # the README's public-API example, run as written
    text = README.read_text()
    section = text[text.index("## Library sketch") :]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None
    exec(compile(block.group(1), f"{README}:Library sketch", "exec"), {})
