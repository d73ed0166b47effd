"""The public surface: every exported name resolves, and the README's
library example runs as written."""

from __future__ import annotations

import re
from pathlib import Path

import qutritcodec

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    assert len(set(qutritcodec.__all__)) == len(qutritcodec.__all__)
    for name in qutritcodec.__all__:
        assert getattr(qutritcodec, name).__module__.startswith("qutritcodec."), name


def test_readme_library_example_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.count("\n") >= 2
