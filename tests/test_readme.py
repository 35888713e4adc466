"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_certifies_every_instant(capsys):
    # disk L4 x 2pi-torus over t in [0.05, 10]: 8 instants, each certified
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    exec(compile(block, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8
    assert [line.split()[-1] for line in lines] == ["True"] * 8
