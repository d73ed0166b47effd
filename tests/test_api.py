"""The public surface: the exported names are pinned, resolve and are read
by the program itself, and the README's library and CLI examples run as
written."""

from __future__ import annotations

import ast
import inspect
import re
import shlex
from pathlib import Path

import pytest

import qutritcodec
import qutritcodec.report
from conftest import invoke

README = Path(__file__).resolve().parent.parent / "README.md"
PACKAGE = README.parent / "src" / "qutritcodec"


PUBLIC = {
    "BlochAngles", "PureState", "fidelity", "make_qubit_state",
    "sample_complete_measurement",
    "EncodeRecord", "decode", "decode_levels",
    "encode", "encode_branch", "joint_state",
    "QuadratureSpec", "exact_report", "gain_report", "prior_theta",
    "TrialStats", "run_trials",
}


def test_the_public_surface_is_pinned():
    # a new export, test-only helpers included, needs a deliberate edit here
    assert set(qutritcodec.__all__) == PUBLIC
    assert len(PUBLIC) == 17
    # folded into decode and EncodeRecord.weights
    assert not hasattr(qutritcodec.codec, "decode_branch")
    assert not hasattr(qutritcodec.codec, "outcome_weights")
    # a preparation is a plain pair of BlochAngles, and decode returns a plain
    # pair: the success probability and the qubit or None
    assert not hasattr(qutritcodec.codec, "QubitPair")
    assert not hasattr(qutritcodec.codec, "DecodeRecord")
    # commands pass plain values: run_trials' arguments and report.document's dict
    assert not hasattr(qutritcodec.montecarlo, "TrialConfig")
    assert not hasattr(qutritcodec.report, "ReportDocument")
    # the 12-dimensional test oracle keeps the only general projection
    assert not hasattr(qutritcodec.states, "project")


def test_the_numpy_layers_resolve_on_first_read():
    from qutritcodec import gain_report, run_trials

    assert gain_report is qutritcodec.bayes.gain_report
    assert run_trials is qutritcodec.montecarlo.run_trials
    with pytest.raises(AttributeError, match=r"^module 'qutritcodec' has no attribute 'nope'$"):
        qutritcodec.nope


def test_run_trials_takes_its_three_arguments():
    parameters = inspect.signature(qutritcodec.run_trials).parameters.values()
    assert [(p.name, p.kind, p.default) for p in parameters] == [
        ("trials", inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty),
        ("master_seed", inspect.Parameter.POSITIONAL_OR_KEYWORD, 0),
        ("target_policy", inspect.Parameter.POSITIONAL_OR_KEYWORD, "always-1"),
    ]


def test_every_exported_name_resolves():
    assert len(set(qutritcodec.__all__)) == len(qutritcodec.__all__)
    for name in qutritcodec.__all__:
        assert getattr(qutritcodec, name).__module__.startswith("qutritcodec."), name


def test_every_export_has_a_caller_in_the_program():
    # an export only the tests use belongs to the tests; a definition, an
    # import, a docstring or a comment is not a read
    modules = [path for path in PACKAGE.glob("*.py") if path.stem != "__init__"]
    assert modules
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    assert sorted(set(qutritcodec.__all__) - read) == []


def test_readme_library_example_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.count("\n") >= 2


def test_readme_cli_examples_run(tmp_path):
    (block,) = re.findall(r"```\n(qutritcodec .*?)```", README.read_text(), re.DOTALL)
    lines = block.splitlines()
    assert len(lines) == 5
    for line in lines:
        line = line.replace("[--out report.json]", f"--out {tmp_path / 'report.json'}")
        program, *args = shlex.split(line)
        assert program == "qutritcodec"
        result = invoke(args)
        assert result.exit_code == 0, (line, result.output)
    assert (tmp_path / "report.json").is_file()
