"""The public surface: the exported names are pinned and resolve, and the
README's library example runs as written."""

from __future__ import annotations

import re
from pathlib import Path

import qutritcodec

README = Path(__file__).resolve().parent.parent / "README.md"


PUBLIC = {
    "BlochAngles", "PureState", "fidelity", "make_qubit_state", "project",
    "sample_complete_measurement",
    "DecodeRecord", "EncodeRecord", "QubitPair", "decode", "decode_branch", "decode_levels",
    "encode", "encode_branch", "joint_state", "outcome_weights",
    "QuadratureSpec", "exact_report", "gain_report", "normalizers", "prior_theta",
    "TrialConfig", "TrialStats", "run_trials",
}


def test_the_public_surface_is_pinned():
    # a new export, test-only helpers included, needs a deliberate edit here
    assert set(qutritcodec.__all__) == PUBLIC


def test_every_exported_name_resolves():
    assert len(set(qutritcodec.__all__)) == len(qutritcodec.__all__)
    for name in qutritcodec.__all__:
        assert getattr(qutritcodec, name).__module__.startswith("qutritcodec."), name


def test_readme_library_example_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.count("\n") >= 2
