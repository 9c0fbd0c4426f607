"""README's Quick start runs, and prints the values its comments claim."""
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_quick_start_prints_the_values_in_its_comments(capsys):
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        block = re.search(r"```python\n(.*?)```", fh.read(), re.S).group(1)
    claimed = re.findall(r"print\(.*\)\s*# (\d\.\d+)", block)
    assert claimed == ["0.4552", "0.4552"]
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert [f"{float(v):.4f}" for v in printed] == claimed
