"""The public surface: the exported names are pinned, resolve and are read
by the program itself, and the README's library and CLI examples run as
written."""

from __future__ import annotations

import ast
import copy
import inspect
import math
import pickle
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


def _one_of_each_record_class() -> list:
    """A value of each of the five record classes, built as the program builds them."""
    pair = (qutritcodec.BlochAngles(1.2, 0.4), qutritcodec.BlochAngles(theta=2.0, phi=5.1))
    record = qutritcodec.encode(pair, 0.37)
    return [pair[0], record.qutrit, record, qutritcodec.QuadratureSpec(16),
            qutritcodec.run_trials(10)]


def test_the_record_classes_are_immutable():
    for value in _one_of_each_record_class():
        field = "amplitudes" if isinstance(value, qutritcodec.PureState) else value._fields[0]
        for name in (field, "extra"):
            with pytest.raises(AttributeError):
                setattr(value, name, 0)
            with pytest.raises(AttributeError):
                delattr(value, name)


def test_four_record_classes_are_tuples_and_the_state_is_not():
    angles, state, record, spec, stats = _one_of_each_record_class()
    theta, phi = angles
    assert angles == (theta, phi) and len(angles) == 2
    assert record == (record.outcome, record.weights, state, record.joint)
    assert spec == (16,) and stats[0] == stats.trials == 10
    # the two checked classes check again on `_replace`
    assert angles._replace(phi=-1.0).phi == pytest.approx(2 * math.pi - 1.0)
    with pytest.raises(ValueError, match="theta must lie in"):
        angles._replace(theta=4.0)
    with pytest.raises(ValueError, match="at least 16"):
        spec._replace(nodes_per_axis=8)
    assert qutritcodec.QuadratureSpec() == (256,)
    # a state compares and hashes by identity, as before
    twin = qutritcodec.PureState(state.amplitudes)
    assert state == state and state != twin and hash(state) != hash(twin)
    assert repr(state) == f"PureState(amplitudes={state.amplitudes!r})"
    for value in (angles, state, record, spec, stats):
        copied = pickle.loads(pickle.dumps(value))
        assert type(copied) is type(value) and repr(copied) == repr(value)
        assert repr(copy.deepcopy(value)) == repr(value)


def test_building_a_state_runs_its_checks_once(monkeypatch):
    checked = []
    original = qutritcodec.PureState.__post_init__

    def spy(self):
        checked.append(self)
        original(self)

    monkeypatch.setattr(qutritcodec.PureState, "__post_init__", spy)
    state = qutritcodec.PureState([0.6, 0.8j])
    assert checked == [state]
    assert state.amplitudes == (0.6 + 0j, 0.8j)
