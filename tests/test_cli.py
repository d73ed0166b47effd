"""End-to-end CLI behavior: commands, formats, exit codes, determinism."""

from __future__ import annotations

import contextlib
import csv
import decimal
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qutritcodec.bayes as bayes
import qutritcodec.cli as cli_module
import qutritcodec.codec as codec
import qutritcodec.montecarlo as montecarlo
import qutritcodec.report as report
from qutritcodec.cli import main
from qutritcodec.report import FORMATS, amplitude_pairs, round_sig
from qutritcodec.states import BlochAngles, PureState
from conftest import any_pairs, invoke, near_pole_pairs
from test_golden import CASES as GOLDEN_CASES
from test_golden import _args as _golden_args
from test_golden import _python

HALF_PI = repr(math.pi / 2)
PI = repr(math.pi)


class TestDemo:
    def test_degenerate_preparation_lists_branch_weights(self):
        result = invoke(["demo", "--seed", "1"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["command"] == "demo"
        probs = doc["trace"]["outcome_probabilities"]
        assert probs[0] == 0.0
        for p in probs[1:]:
            assert p == pytest.approx(1 / 3, abs=1e-9)

    def test_worked_preparation_trace(self):
        result = invoke(["demo", "--theta1", HALF_PI, "--theta2", PI, "--seed", "0"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        trace = doc["trace"]
        # seed 0 deterministically lands in the first branch here
        assert trace["outcome"] == 0
        flat = [a for pair in trace["qutrit_amplitudes"] for a in pair]
        assert flat == pytest.approx([0, 0, 0.707106781187, 0, 0.707106781187, 0], abs=1e-9)
        assert set(trace["decode"]) == {"target_1", "target_2"}

    def test_same_seed_is_byte_identical(self):
        args = ["demo", "--theta1", "0.7", "--phi1", "2.1", "--seed", "9"]
        first = invoke(args)
        second = invoke(args)
        assert first.output == second.output

    def test_invalid_angle_is_a_usage_error(self):
        # one test id over every trace command, qubit and kind of bad polar angle
        for command, option, value in itertools.product(
            ("demo", "encode", "decode"), ("--theta1", "--theta2"), ("-0.1", "4.0", "nan", "inf")
        ):
            extra = ["--outcome", "1", "--target", "1"] if command == "decode" else []
            result = invoke([command, option, value, *extra])
            assert result.exit_code == 2, (command, option, value, result.output)
            assert option in result.output


class TestEncode:
    def test_trace_fields(self):
        result = invoke(["encode", "--theta1", HALF_PI, "--theta2", PI, "--seed", "0"])
        assert result.exit_code == 0
        trace = json.loads(result.output)["trace"]
        assert trace["outcome"] in range(4)
        bits = trace["classical_bits"]
        assert trace["outcome"] == bits[0] + 2 * bits[1]
        assert len(trace["qutrit_amplitudes"]) == 3

    def test_seed_determinism(self):
        args = ["encode", "--theta1", "1.0", "--theta2", "2.0", "--seed", "4"]
        assert invoke(args).output == invoke(args).output


class TestDecode:
    def test_reconstruction_with_certain_success(self):
        result = invoke([
            "decode", "--theta1", HALF_PI, "--theta2", PI,
            "--outcome", "0", "--target", "1", "--seed", "0",
        ])
        assert result.exit_code == 0
        trace = json.loads(result.output)["trace"]
        assert trace["success"] is True
        assert trace["success_probability"] == pytest.approx(1.0, abs=1e-9)
        assert trace["fidelity"] == pytest.approx(1.0, abs=1e-12)
        assert trace["success_levels"] == [1, 2]
        assert trace["failure_level"] == 0

    def test_impossible_outcome_is_a_usage_error(self):
        result = invoke(["decode", "--outcome", "0", "--target", "1"])
        assert result.exit_code == 2
        assert "cannot occur" in result.output

    def test_requires_outcome_and_target(self):
        assert invoke(["decode", "--target", "1"]).exit_code == 2
        assert invoke(["decode", "--outcome", "1"]).exit_code == 2


def _angle_args(pair) -> list[str]:
    return [
        "--theta1", repr(pair[0].theta), "--phi1", repr(pair[0].phi),
        "--theta2", repr(pair[1].theta), "--phi2", repr(pair[1].phi),
    ]


@given(pair=any_pairs(), seed=st.integers(0, 2**64 - 1))
@settings(max_examples=60, deadline=None)
def test_demo_builds_the_register_state_once(pair, seed):
    calls = []
    build = codec.joint_state

    def counted(pair):
        calls.append(pair)
        return build(pair)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(codec, "joint_state", counted)
        result = invoke(["demo", *_angle_args(pair), "--seed", str(seed)])
    assert result.exit_code == 0, result.output
    assert calls == [pair]
    printed = json.loads(result.output)["trace"]["joint_amplitudes"]
    assert printed == [list(map(round_sig, a)) for a in amplitude_pairs(build(pair).amplitudes)]


class TestNearPolePreparations:
    @given(pair=near_pole_pairs(), seed=st.integers(0, 2**64 - 1))
    @settings(max_examples=40, deadline=None)
    def test_demo_and_encode_give_documents(self, pair, seed):
        for command in ("demo", "encode"):
            result = invoke([command, *_angle_args(pair), "--seed", str(seed)])
            assert result.exit_code == 0, result.output
            trace = json.loads(result.output)["trace"]
            assert sum(trace["outcome_probabilities"]) == pytest.approx(1, abs=1e-11)

    @given(
        pair=near_pole_pairs(),
        outcome=st.integers(0, 3),
        target=st.integers(1, 2),
        seed=st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_decode_gives_a_document_or_a_usage_error(self, pair, outcome, target, seed):
        result = invoke(["decode", *_angle_args(pair), "--outcome", str(outcome),
                         "--target", str(target), "--seed", str(seed)])
        if result.exit_code == 2:
            assert "cannot occur" in result.output
            return
        assert result.exit_code == 0, result.output
        trace = json.loads(result.output)["trace"]
        if trace["success"]:
            assert trace["fidelity"] >= 1 - 1e-11


@pytest.mark.parametrize("command", ["demo", "encode", "decode"])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("option", ["--phi1", "--phi2"])
def test_non_finite_phase_is_a_usage_error(command, value, option):
    extra = ["--outcome", "1", "--target", "1"] if command == "decode" else []
    result = invoke([command, option, value, *extra])
    assert result.exit_code == 2
    assert "must be finite" in result.output


_ANGLES_HELP = {f"--{name}": "default: 0.0" for name in ("theta1", "phi1", "theta2", "phi2")}
_DOCUMENT_HELP = {"--seed": "default: 0; 0<=x<=18446744073709551615",
                  "--format": "default: json", "--out": None}
_TRIALS_HELP = {"--trials": "default: 1000000; 1<=x<=10000000000"}
# each command's options and what its help shows in brackets after the option's text
HELP = {
    "demo": {**_ANGLES_HELP, **_DOCUMENT_HELP},
    "encode": {**_ANGLES_HELP, **_DOCUMENT_HELP},
    "decode": {**_ANGLES_HELP, "--outcome": "required; 0<=x<=3",
               "--target": "required; 1<=x<=2", **_DOCUMENT_HELP},
    "mc": {**_TRIALS_HELP, "--target-policy": "default: always-1", **_DOCUMENT_HELP},
    "verify": {"--nodes": "default: 256; 16<=x<=4096", **_TRIALS_HELP, **_DOCUMENT_HELP},
}


class TestTheCommandLine:
    @pytest.mark.parametrize("value", [["--phi1", "-1e-9"], ["--phi1=-1e-9"],
                                       ["--phi1", "-5e-324"]], ids=" ".join)
    def test_the_token_after_an_option_is_its_value(self, value):
        result = invoke(["demo", *value])
        assert result.exit_code == 0, result.output
        printed = json.loads(result.stdout)["params"]["phi1"]
        assert printed == round_sig(float(value[-1].removeprefix("--phi1=")))

    @pytest.mark.parametrize("args", [["demo", "--th", "1"], ["verify", "--tri", "5"]],
                             ids=" ".join)
    def test_an_abbreviated_option_is_a_usage_error(self, args):
        result = invoke(args)
        assert result.exit_code == 2 and result.stdout == "" and result.exception is None
        assert result.stderr.startswith(f"Usage: qutritcodec {args[0]} [OPTIONS]\n")
        assert result.stderr.endswith(f"Error: unrecognized arguments: {' '.join(args[1:])}\n")

    def test_a_bare_command_line_shows_the_commands(self):
        result = invoke([])
        assert result.exit_code == 2 and result.stdout == ""
        usage, *_, error = result.stderr.splitlines()
        assert usage == "Usage: qutritcodec [-h] {demo,encode,decode,mc,verify} ..."
        assert error.startswith("Error: ")

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_lists_the_commands(self, flag):
        result = invoke([flag])
        assert result.exit_code == 0 and result.stderr == "" and result.exception is None
        for command in HELP:
            assert re.search(rf"^    {command} +\S", result.stdout, re.MULTILINE), command

    @pytest.mark.parametrize("command", HELP)
    def test_help_names_every_option_with_its_default(self, command):
        result = invoke([command, "--help"])
        assert result.exit_code == 0 and result.stderr == "" and result.exception is None
        text = " ".join(result.stdout.split())
        assert set(re.findall(r"--[\w-]+", text)) == {"--help", *HELP[command]}
        for option, shown in HELP[command].items():
            tail = "" if shown is None else rf"[^[]*\[{re.escape(shown)}\]"
            assert re.search(rf"{option} \S+ {tail}", text), (option, shown)


def _parsed(parser, args: list[str]):
    """What `parser` makes of `args`: its options and extras, or its exit
    status, stdout and stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            namespace, extra = parser.parse_known_args(cli_module._glued(args))
    except SystemExit as end:
        return end.code, stdout.getvalue(), stderr.getvalue()
    return vars(namespace), extra


# an unknown option, a missing required option, a value out of range, help,
# and a command after `--`, which no command's parser takes
_ERROR_LINES = [["demo", "--bogus", "1"], ["decode", "--target", "1"], ["demo", "--seed", "-1"],
                ["demo", "-h"], ["--", "demo", "--seed", "0"]]


@pytest.mark.parametrize("args", [*map(_golden_args, GOLDEN_CASES), *_ERROR_LINES], ids=" ".join)
def test_a_command_parser_parses_its_line_as_the_whole_parser_does(args):
    whole = _parsed(cli_module._PARSER, args)
    if args[0] in cli_module._COMMANDS.choices:
        own = _parsed(cli_module._COMMANDS.choices[args[0]], args[1:])
        if isinstance(own[0], dict):
            own[0]["command"] = args[0]
        assert own == whole
    if args in _ERROR_LINES:
        result = invoke(args)
        assert result.exception is None
        if isinstance(whole[0], dict):  # extras, which the command refuses
            assert whole[1] == ["--bogus", "1"]
            assert result.exit_code == 2 and result.stdout == ""
            assert result.stderr.endswith("Error: unrecognized arguments: --bogus 1\n")
        else:
            assert (result.exit_code, result.stdout, result.stderr) == whole


def _inexact(value, path: str = "doc"):
    """The places in a document that hold anything but an exact str, int,
    float, bool, None, list or str-keyed dict."""
    kind = type(value)
    if kind is dict:
        for key, item in value.items():
            if type(key) is not str:
                yield f"{path}: key {key!r}"
            yield from _inexact(item, f"{path}.{key}")
    elif kind is list:
        for index, item in enumerate(value):
            yield from _inexact(item, f"{path}[{index}]")
    elif kind not in (str, int, float, bool, type(None)):
        yield f"{path}: {kind.__name__}"


def test_inexact_finds_every_other_type():
    doc = {"a": [np.float64(1.0), (1,)], 2: {"b": True, "c": np.int64(1)}, "d": [None, "x", 1.5]}
    assert [*_inexact(doc)] == [
        "doc.a[0]: float64", "doc.a[1]: tuple", "doc: key 2", "doc.2.c: int64"]


def test_documents_hold_exact_types_only(monkeypatch):
    # anything else would print through json.dumps, not the emitter's own walk
    documents = {}

    def render(doc, fmt):
        documents[" ".join(args)] = doc
        return report.render(doc, fmt)

    monkeypatch.setattr(cli_module, "render", render)
    for path in GOLDEN_CASES:
        if path.suffix == ".json":
            args = _golden_args(path)
            assert invoke(args).exit_code == 0, args
    commands = {doc["command"] for doc in documents.values()}
    assert commands == {"demo", "encode", "decode", "mc", "verify"}
    traces = [doc["trace"] for line, doc in documents.items() if "--theta1 1e-9" in line]
    assert len(traces) == 3  # near both poles: demo, encode and decode
    decodes = [doc["trace"] for doc in documents.values() if doc["command"] == "decode"]
    assert any("collapsed_level" in trace for trace in decodes)  # a failed decode
    for line, doc in documents.items():
        assert [*_inexact(doc)] == [], line


_ANY_FLOAT = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, math.pi, 1e300, -1e300]),
)


@given(q=st.sampled_from([1, 2]), theta=_ANY_FLOAT, phi=_ANY_FLOAT)
@settings(max_examples=400, deadline=None)
def test_an_angle_is_accepted_exactly_when_bloch_angles_accepts_it(q, theta, phi):
    args = ["encode", f"--theta{q}", repr(theta), f"--phi{q}", repr(phi)]
    result = invoke(args)
    try:
        BlochAngles(theta, phi)
    except ValueError:
        assert result.exit_code == 2, result.output
    else:
        assert result.exit_code == 0, result.output


class TestMc:
    def test_zero_trials_is_a_usage_error(self):
        result = invoke(["mc", "--trials", "0"])
        assert result.exit_code == 2

    def test_small_batch_rows_and_determinism(self):
        args = ["mc", "--trials", "50000", "--seed", "0"]
        first = invoke(args)
        assert first.exit_code == 0
        doc = json.loads(first.output)
        names = [row["name"] for row in doc["rows"]]
        assert names == ["mc_success_rate", *(f"mc_outcome_freq_{j}" for j in range(4))]
        assert doc["overall_pass"] is True
        assert invoke(args).output == first.output

    def test_policy_flag(self):
        result = invoke(["mc", "--trials", "20000", "--target-policy", "random"])
        assert result.exit_code == 0

    def test_failing_row_exits_one(self, monkeypatch):
        true_exact_report = bayes.exact_report

        def skewed(outcome=0, target=1):
            scalars = true_exact_report(outcome, target)
            return {**scalars, "success_probability_j0_target1": 0.5}

        monkeypatch.setattr(bayes, "exact_report", skewed)
        result = invoke(["mc", "--trials", "20000"])
        assert result.exit_code == 1
        doc = json.loads(result.output)
        assert doc["overall_pass"] is False
        assert [row["name"] for row in doc["rows"] if not row["pass"]] == ["mc_success_rate"]

    @pytest.mark.parametrize("command", ["mc", "verify"])
    def test_trials_are_capped_at_ten_to_the_ten(self, monkeypatch, command):
        stats = montecarlo.TrialStats(10**10, (0, 0, 0, 0), 0)
        monkeypatch.setattr(montecarlo, "run_trials", lambda *args: stats)
        # accepted: the stub's batch has no success, so a row fails
        assert invoke([command, "--trials", str(10**10)]).exit_code == 1
        result = invoke([command, "--trials", str(10**10 + 1)])
        assert result.exit_code == 2
        assert "Invalid value for '--trials'" in result.output

    def test_has_no_nodes_option(self):
        result = invoke(["mc", "--nodes", "64"])
        assert result.exit_code == 2
        assert result.stdout == "" and result.exception is None
        assert "Error: unrecognized arguments: --nodes" in result.stderr
        assert not hasattr(bayes, "normalizers")

    def test_runs_no_quadrature(self):
        bayes._gauss_legendre.cache_clear()
        assert invoke(["mc", "--trials", "1000"]).exit_code == 0
        assert bayes._gauss_legendre.cache_info().currsize == 0

    @pytest.mark.parametrize("command", ["mc", "verify"])
    def test_references_are_the_closed_forms(self, monkeypatch, command):
        # normalizers skewed in the gain report would show in any reference
        # taken from it
        true_gain_report = bayes.gain_report

        def skewed(quad, outcome=0, target=1):
            report = true_gain_report(quad, outcome, target)
            return {
                name: value + 1e-3 if name.startswith(("outcome_prior", "success_prob")) else value
                for name, value in report.items()
            }

        monkeypatch.setattr(bayes, "gain_report", skewed)
        result = invoke([command, "--trials", "1000"])
        # the skew fails verify's own success_probability rows
        assert result.exit_code == (1 if command == "verify" else 0)
        exact = bayes.exact_report()
        expected = {
            "mc_success_rate": exact["success_probability_j0_target1"],
            **{f"mc_outcome_freq_{j}": exact[f"outcome_prior_{j}"] for j in range(4)},
        }
        rows = json.loads(result.output)["rows"]
        references = {row["name"]: row["reference"] for row in rows if row["source"] == "mc"}
        assert references == {name: round_sig(value) for name, value in expected.items()}


def skew_encoding_gain(monkeypatch, delta: float) -> None:
    """Make the CLI's gain report return an encoding gain off by `delta`."""
    true_gain_report = bayes.gain_report

    def skewed(quad, outcome=0, target=1):
        report = true_gain_report(quad, outcome, target)
        return {**report, "encoding_gain": report["encoding_gain"] + delta}

    monkeypatch.setattr(bayes, "gain_report", skewed)


@pytest.fixture(scope="module")
def verify_result():
    return invoke(["verify", "--nodes", "64", "--trials", "50000", "--seed", "0"])


def test_exact_rows_hold_at_every_node_count():
    # every odd n runs the middle-root branch of the node generator
    cases = [(n, j, a) for n in range(bayes.MIN_NODES, 301) for j in range(4) for a in (1, 2)]
    cases += [(n, 0, 1) for n in (512, 1024, 2048, 4096)]
    bounds = {}
    for n in dict.fromkeys(n for n, _, _ in cases):
        rows = cli_module._verify_rows(bayes.exact_report(), bayes.exact_report(), n)
        bounds[n] = {row["name"].removeprefix("exact_"): row["tolerance"]
                     for row in rows if row["name"].startswith("exact_")}
    margins = []
    for n, outcome, target in cases:
        report = bayes.gain_report(bayes.QuadratureSpec(n), outcome, target)
        exact = bayes.exact_report(outcome, target)
        margins += [(bound / max(abs(report[name] - exact[name]), 1e-300), n, outcome, target)
                    for name, bound in bounds[n].items()]
    margin, n, outcome, target = min(margins)
    print(f"smallest exact-row margin {margin:.1f} at n={n}, outcome {outcome}, target {target}")
    assert all(len(names) == 12 for names in bounds.values())
    # the bound follows the quadrature error's n^-6 law from 1e-7 at 16
    # nodes down to the identity floor, which it reaches at 110 nodes
    assert bounds[bayes.MIN_NODES]["encoding_gain"] == cli_module.EXACT_TOL == 1e-7
    assert bounds[109]["encoding_gain"] > bounds[110]["encoding_gain"] == cli_module.IDENTITY_TOL
    assert margin >= 5.0


def test_zero_reference_rows_print_zero_at_every_node_count():
    # the cancellation's residue depends on the grid and the BLAS kernel
    exact = bayes.exact_report()
    printed = {
        (n, row["name"]): row["computed"]
        for n in range(bayes.MIN_NODES, 301)
        for row in cli_module._verify_rows(bayes.gain_report(bayes.QuadratureSpec(n)), exact, n)
        if row["source"] == "identity" and row["reference"] == 0.0
    }
    assert len(printed) == 301 - bayes.MIN_NODES
    assert {key: value for key, value in printed.items() if value != 0.0} == {}


class TestVerify:
    def test_exit_code_and_overall_pass(self, verify_result):
        assert verify_result.exit_code == 0
        doc = json.loads(verify_result.output)
        assert doc["overall_pass"] is True

    def test_row_inventory(self, verify_result):
        doc = json.loads(verify_result.output)
        names = [row["name"] for row in doc["rows"]]
        assert sum(n.startswith("success_probability_j") for n in names) == 8
        for expected in (
            "encoding_gain",
            "marginal_encoding_gain_q1",
            "marginal_encoding_gain_q2",
            "decode_gain_q1",
            "decode_gain_q2",
            "success_total_q2",
            "failure_gain_q1",
            "failure_gain_q2",
            "decode_cancels_encoding_q1",
            "success_total_q2_vs_direct",
            "failure_total_q1_vs_direct",
            "failure_total_q2_vs_direct",
            "outcome_prior_sum",
            "scalar_min_success_fidelity",
            "mc_success_rate",
        ):
            assert expected in names
        assert {n for n in names if n.startswith("exact_")} == {
            "exact_outcome_prior_0",
            "exact_outcome_prior_1",
            "exact_outcome_prior_2",
            "exact_outcome_prior_3",
            "exact_encoding_gain",
            "exact_marginal_encoding_gain_q1",
            "exact_marginal_encoding_gain_q2",
            "exact_decode_gain_q1",
            "exact_decode_gain_q2",
            "exact_failure_gain_q1",
            "exact_failure_gain_q2",
            "exact_direct_gain",
        }

    def test_sources_are_tagged(self, verify_result):
        doc = json.loads(verify_result.output)
        sources = {row["name"]: row["source"] for row in doc["rows"]}
        assert sources["encoding_gain"] == "paper"
        assert sources["outcome_prior_sum"] == "identity"
        assert sources["exact_encoding_gain"] == "identity"
        assert sources["mc_success_rate"] == "mc"

    def test_row_pass_flags_match_the_numbers(self, verify_result):
        for row in json.loads(verify_result.output)["rows"]:
            assert row["pass"] == (
                abs(row["computed"] - row["reference"]) <= row["tolerance"]
            )

    def test_failing_row_exits_one(self, monkeypatch, tmp_path):
        skew_encoding_gain(monkeypatch, 0.01)
        args = ["verify", "--nodes", "64", "--trials", "1000"]
        path = tmp_path / "doc.json"
        # the failing document goes to stdout or to --out, and exits 1 either way
        for out_args in ([], ["--out", str(path)]):
            result = invoke([*args, *out_args])
            assert result.exit_code == 1
            doc = json.loads(path.read_text() if out_args else result.output)
            assert doc["overall_pass"] is False
            failing = {row["name"] for row in doc["rows"] if not row["pass"]}
            assert {"encoding_gain", "exact_encoding_gain"} <= failing
        assert result.output == ""

    def test_a_skew_within_the_quoted_precision_fails_the_exact_row(self, monkeypatch):
        # inside the paper row's 5e-5, outside the exact row's 2.4e-11 at 64 nodes
        skew_encoding_gain(monkeypatch, 2.5e-7)
        result = invoke(["verify", "--nodes", "64", "--trials", "1000"])
        assert result.exit_code == 1
        doc = json.loads(result.output)
        assert doc["overall_pass"] is False
        failing = [row["name"] for row in doc["rows"] if not row["pass"]]
        assert failing == ["exact_encoding_gain"]

    def test_paper_rows_hold_to_half_a_unit_in_the_last_quoted_place(self, verify_result):
        rows = {row["name"]: row for row in json.loads(verify_result.output)["rows"]}
        paper = {name for name, row in rows.items() if row["source"] == "paper"}
        assert paper == {*cli_module.SUCCESS_ROWS, *cli_module.QUOTED_GAINS}
        for name, text in cli_module.QUOTED_GAINS.items():
            half_unit = decimal.Decimal(5).scaleb(decimal.Decimal(text).as_tuple().exponent - 1)
            assert rows[name]["reference"] == float(text)
            assert rows[name]["tolerance"] == float(half_unit)
        assert rows["encoding_gain"]["tolerance"] == 5e-5
        assert rows["success_total_q2"]["tolerance"] == 5e-4
        # the paper's 2/3 is exact
        assert {rows[name]["tolerance"] for name in cli_module.SUCCESS_ROWS} == {1e-12}

    def test_a_skew_beyond_the_quoted_precision_fails_the_paper_row(self, monkeypatch):
        # the encoding gain is 0.0735363, 3.6e-5 from the quoted 0.0735, so
        # 2e-5 more leaves the half unit of its fourth decimal, 5e-5
        skew_encoding_gain(monkeypatch, 2e-5)
        result = invoke(["verify", "--nodes", "64", "--trials", "1000"])
        assert result.exit_code == 1
        failing = [row["name"] for row in json.loads(result.output)["rows"] if not row["pass"]]
        assert failing == ["encoding_gain", "exact_encoding_gain"]

    def test_a_quadrature_regression_fails_the_exact_rows(self, monkeypatch):
        # without Newton steps the 256-node outcome priors err by 1.03e-10,
        # which a flat 1e-7 bound on the exact rows let pass
        bayes._gauss_legendre.cache_clear()  # the rule is cached per node count
        monkeypatch.setattr(bayes, "_NEWTON_STEPS", 0)
        try:
            result = invoke(["verify", "--nodes", "256", "--trials", "64"])
        finally:
            bayes._gauss_legendre.cache_clear()
        assert result.exit_code == 1
        failing = [row["name"] for row in json.loads(result.output)["rows"] if not row["pass"]]
        assert any(name.startswith("exact_") for name in failing), failing

    def test_rejects_too_few_nodes(self):
        assert invoke(["verify", "--nodes", "8"]).exit_code == 2

    @pytest.mark.parametrize("command", ["verify"])
    def test_rejects_too_many_nodes(self, command):
        # refused by the option before any array is allocated
        result = invoke([command, "--nodes", "4097", "--trials", "1"])
        assert result.exit_code == 2
        assert "4097" in result.output

    @pytest.mark.parametrize("nodes", [*range(16, 25), 32, 100, 300, 1000])
    def test_exact_rows_pass_at_every_resolution(self, nodes):
        # the worst quadrature error, 1.2e-8 at 16 nodes, is under the bound
        # 1e-7 x (16 / nodes)^6, and under its 1e-12 floor from 110 nodes on
        result = invoke(["verify", "--nodes", str(nodes), "--trials", "1"])
        exact = [
            row for row in json.loads(result.output)["rows"]
            if row["name"].startswith("exact_")
        ]
        assert len(exact) == 12
        assert all(row["pass"] for row in exact), exact

    # each mutant reads one decoded qubit wrong: a conjugate, the two levels
    # swapped by a reversed intact block, or a sign flipped on |1>
    @pytest.mark.parametrize("mutant", ["conjugate", "reversed block", "sign flip"])
    def test_the_scalar_fidelity_row_catches_a_wrong_decode(self, monkeypatch, mutant):
        decode, intact_block = codec.decode, codec.intact_block

        def mutated_decode(*args):
            p_success, qubit = decode(*args)
            zero, one = qubit.amplitudes
            if mutant == "conjugate":
                return p_success, PureState([zero.conjugate(), one.conjugate()])
            return p_success, PureState([zero, -one])

        if mutant == "reversed block":
            monkeypatch.setattr(codec, "intact_block", lambda *args: intact_block(*args)[::-1])
        else:
            monkeypatch.setattr(codec, "decode", mutated_decode)
        result = invoke(["verify", "--trials", "64"])
        assert result.exit_code == 1
        rows = json.loads(result.output)["rows"]
        assert [row["name"] for row in rows if not row["pass"]] == ["scalar_min_success_fidelity"]

    # the Monte Carlo row this one replaced read target 1 alone: a decode
    # wrong on any single (outcome, target) pair must show here
    @pytest.mark.parametrize("outcome, target", [(j, a) for j in range(4) for a in (1, 2)])
    def test_the_scalar_fidelity_row_catches_a_swapped_decode_level(
        self, monkeypatch, outcome, target
    ):
        assert cli_module._scalar_min_success_fidelity() >= 1 - 1e-12
        intact_block = codec.intact_block

        def swapped(j, a):
            block = intact_block(j, a)
            return block[::-1] if (j, a) == (outcome, target) else block

        monkeypatch.setattr(codec, "intact_block", swapped)
        assert cli_module._scalar_min_success_fidelity() < 1 - 1e-12

    def test_the_scalar_rows_preparation_is_generic(self):
        # no register weight at 0 or 1, so every branch and block is
        # populated, and no azimuth at a multiple of pi/2, so a conjugate or
        # a sign flip changes the decoded qubit
        weights = np.abs(codec.joint_state(cli_module.SCALAR_PAIR).amplitudes) ** 2
        assert np.all((weights > 1e-3) & (weights < 1 - 1e-3))
        for qubit in cli_module.SCALAR_PAIR:
            quarter_turns = qubit.phi / (math.pi / 2)
            assert abs(quarter_turns - round(quarter_turns)) > 0.1

    # one trial may fail to decode or succeed; its row set is the default's
    # and its rows still pass. Scanning seeds up from 0, seed 0 is the first
    # whose one trial fails and seed 1 the first whose trial succeeds
    @pytest.mark.parametrize("command", ["mc", "verify"])
    @pytest.mark.parametrize("seed, rate", [(0, 0.0), (1, 1.0)], ids=["fails", "succeeds"])
    def test_a_single_trial_batch(self, command, seed, rate):
        result = invoke([command, "--trials", "1", "--seed", str(seed)])
        assert result.exit_code == 0
        rows = {row["name"]: row for row in json.loads(result.output)["rows"]}
        assert rows["mc_success_rate"]["computed"] == rate
        frequencies = [rows[f"mc_outcome_freq_{j}"]["computed"] for j in range(4)]
        assert sorted(frequencies) == [0.0, 0.0, 0.0, 1.0]
        assert all(row["pass"] for row in rows.values())


@pytest.fixture(scope="module")
def default_row_names() -> dict[str, list[str]]:
    """Each command's row names at its default --trials, --nodes and --seed."""
    names = {}
    for command in ("mc", "verify"):
        result = invoke([command])
        assert result.exit_code == 0
        names[command] = [row["name"] for row in json.loads(result.output)["rows"]]
    return names


@pytest.mark.parametrize("args", [
    *(["mc", "--target-policy", policy] for policy in montecarlo.TARGET_POLICIES), ["verify"],
], ids=" ".join)
def test_row_names_do_not_depend_on_the_batch(default_row_names, args):
    # one or two trials may all fail to decode, or all succeed; 64 trials may
    # miss a statistical band by chance, and the command then rightly exits 1
    for trials in (1, 2, 64):
        for seed in range(24):
            result = invoke([*args, "--trials", str(trials), "--seed", str(seed)])
            assert result.output, (trials, seed)
            doc = json.loads(result.output)
            names = [row["name"] for row in doc["rows"]]
            assert names == default_row_names[args[0]], (trials, seed)
            assert result.exit_code == (0 if doc["overall_pass"] else 1), (trials, seed)


class TestFormatsAndOutput:
    def test_csv_rows(self):
        result = invoke(["mc", "--trials", "5000", "--format", "csv"])
        lines = result.output.strip().split("\n")
        assert lines[0] == "name,computed,reference,tolerance,source,pass"
        assert len(lines) == 1 + 5  # rate + four frequencies

    def test_markdown_smoke(self):
        result = invoke(["encode", "--theta1", "1.0", "--format", "md"])
        assert result.output.startswith("# encode")

    @pytest.mark.parametrize("command", [
        ["verify", "--trials", "10"], ["mc", "--trials", "10", "--format", "csv"], ["encode"],
    ])
    def test_out_into_a_missing_directory_is_a_usage_error(self, tmp_path, command):
        # both are found before the command runs; a path that ends in a
        # separator names the directory itself
        for out, reason in ((tmp_path / "nodir" / "x.json", "No such file or directory"),
                            (f"{tmp_path / 'nodir'}{os.sep}", "No such file or directory")):
            result = invoke([*command, "--out", str(out)])
            assert result.exit_code == 2, result.output
            assert f"Invalid value for '--out': cannot write {out}: {reason}" in result.output

    def test_out_that_fails_at_the_write_is_a_usage_error(self):
        # the sink passes the check before the work; the write itself fails
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        result = invoke(["encode", "--out", "/dev/full"])
        assert result.exit_code == 2, result.output
        reason = "No space left on device"
        assert f"Invalid value for '--out': cannot write /dev/full: {reason}" in result.output

    def test_printed_outcome_probabilities_are_the_sampled_weights(self, monkeypatch):
        sampled = []

        def spy(weights, u):
            sampled.append([round_sig(weight) for weight in weights])
            return sample(weights, u)

        sample = cli_module.codec.sample_complete_measurement
        monkeypatch.setattr(cli_module.codec, "sample_complete_measurement", spy)
        for command in ("demo", "encode"):
            for seed in range(5):
                args = [command, "--theta1", "1.3", "--phi2", "0.2", "--theta2", "0.4",
                        "--seed", str(seed)]
                trace = json.loads(invoke(args).output)["trace"]
                assert trace["outcome_probabilities"] == sampled.pop()

    def test_out_writes_a_file(self, tmp_path):
        path = tmp_path / "doc.json"
        result = invoke(["encode", "--theta1", "1.0", "--out", str(path)])
        assert result.exit_code == 0
        assert result.output == ""
        doc = json.loads(path.read_text())
        assert doc["command"] == "encode"

    def test_numbers_are_printed_with_twelve_significant_digits(self):
        result = invoke(["encode", "--theta1", "1.0", "--theta2", "0.5", "--seed", "2"])
        trace = json.loads(result.output)["trace"]
        for probability in trace["outcome_probabilities"]:
            assert probability == float(f"{probability:.12g}")


def _closed_pipe():
    read_fd, write_fd = os.pipe()
    os.close(read_fd)
    return open(write_fd, "w")


def _full_device():
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    return open("/dev/full", "w")


def _closed_descriptor():
    # no stream at all: with descriptor 1 closed, Python sets sys.stdout to None
    return contextlib.nullcontext()


def _open_fd_count() -> int | None:
    """The number of this process's open descriptors, where /proc lists them."""
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


UNWRITABLE = {"/dev/full": (_full_device, "No space left on device"),
              "closed pipe": (_closed_pipe, "Broken pipe"),
              "closed descriptor": (_closed_descriptor, "Bad file descriptor")}
COMMANDS = [["demo"], ["mc", "--trials", "1000"], ["verify", "--trials", "1"]]


@pytest.mark.parametrize("sink", UNWRITABLE)
@pytest.mark.parametrize("command", COMMANDS, ids=lambda args: args[0])
def test_unwritable_stdout_exits_2_with_a_message(monkeypatch, capsys, sink, command):
    # closing the sink flushes the text its buffer still holds, which must not fail again
    opener, reason = UNWRITABLE[sink]
    open_fds = _open_fd_count()
    with opener() as stdout, monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", stdout)
        with pytest.raises(SystemExit) as exited:
            main(command)
    assert exited.value.code == 2
    assert capsys.readouterr().err == f"Error: cannot write to stdout: {reason}\n"
    # the null device that took the sink's place is closed with the sink
    assert _open_fd_count() == open_fds


@pytest.mark.parametrize("sink", UNWRITABLE)
@pytest.mark.parametrize("command", COMMANDS, ids=lambda args: args[0])
def test_the_console_command_exits_2_when_stdout_fails(sink, command):
    opener, reason = UNWRITABLE[sink]
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    with opener() as stdout:
        result = subprocess.run(
            [sys.executable, "-m", "qutritcodec", *command], stdout=stdout,
            stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": path}, timeout=120,
            # no sink would inherit this process's stdout: close it instead
            preexec_fn=(lambda: os.close(1)) if stdout is None else None,
        )
    assert result.returncode == 2
    assert result.stderr == f"Error: cannot write to stdout: {reason}\n".encode()


# the command line after -c runs as `python -m qutritcodec` would run it,
# and at exit stderr's last line tells whether numpy was imported
_NUMPY_AT_EXIT = (
    "import atexit, runpy, sys\n"
    "atexit.register(lambda: print('numpy' in sys.modules, file=sys.stderr))\n"
    "runpy.run_module('qutritcodec', run_name='__main__')\n"
)


@pytest.mark.parametrize("args, code, numpy_loaded", [
    (["demo", "--theta1", "1.2", "--phi2", "5.1", "--seed", str(2**64 - 1)], 0, False),
    (["encode", "--seed", "7"], 0, False),
    (["decode", "--theta1", HALF_PI, "--outcome", "1", "--target", "1"], 0, False),
    (["--help"], 0, False),
    (["mc", "--help"], 0, False),
    (["verify", "--nodes", "8"], 2, False),
    (["demo", "--theta1", "nan"], 2, False),
    # the check sees numpy where a command does import it
    (["mc", "--trials", "10"], 0, True),
], ids=lambda value: " ".join(value) if isinstance(value, list) else None)
def test_only_mc_and_verify_import_numpy(args, code, numpy_loaded):
    result = _python(["-c", _NUMPY_AT_EXIT, *args])
    assert result.returncode == code, result.stderr.decode()
    assert result.stderr.splitlines()[-1] == str(numpy_loaded).encode()


def test_importing_the_package_leaves_numpy_unloaded():
    result = _python(["-c", "import sys, qutritcodec; print('numpy' in sys.modules)"])
    assert result.stdout == b"False\n", result.stderr.decode()


@pytest.mark.parametrize("args, code", [
    (["demo", "--seed", "3"], 0), (["--help"], 0), (["verify", "--tri", "5"], 2),
], ids=lambda value: " ".join(value) if isinstance(value, list) else None)
def test_no_command_imports_click(args, code):
    result = _python(["-c", _NUMPY_AT_EXIT.replace("'numpy'", "'click'"), *args])
    assert result.returncode == code, result.stderr.decode()
    assert result.stderr.splitlines()[-1] == b"False"


def test_importing_the_cli_leaves_click_unloaded():
    result = _python(["-c", "import sys, qutritcodec.cli; print('click' in sys.modules)"])
    assert result.stdout == b"False\n", result.stderr.decode()


# dataclasses imports inspect, which imports ast, dis and tokenize: about 7 ms
# of a fresh launch
_HEAVY_AT_EXIT = _NUMPY_AT_EXIT.replace(
    "'numpy' in sys.modules", "'dataclasses' in sys.modules, 'inspect' in sys.modules")


@pytest.mark.parametrize("args, code, inspect_loaded", [
    (["demo", "--seed", "3"], 0, False),
    (["encode", "--seed", "7"], 0, False),
    (["decode", "--outcome", "1", "--target", "1"], 0, False),
    (["--help"], 0, False),
    (["verify", "--tri", "5"], 2, False),
    # numpy imports inspect itself
    (["mc", "--trials", "10"], 0, None),
    (["verify", "--nodes", "16", "--trials", "10"], 0, None),
], ids=lambda value: " ".join(value) if isinstance(value, list) else None)
def test_no_command_imports_dataclasses(args, code, inspect_loaded):
    result = _python(["-c", _HEAVY_AT_EXIT, *args])
    assert result.returncode == code, result.stderr.decode()
    dataclasses_at_exit, inspect_at_exit = result.stderr.splitlines()[-1].split()
    assert dataclasses_at_exit == b"False"
    if inspect_loaded is not None:
        assert inspect_at_exit == str(inspect_loaded).encode()


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    code = "import sys, qutritcodec.cli; print('dataclasses' in sys.modules, 'inspect' in sys.modules)"
    result = _python(["-c", code])
    assert result.stdout == b"False False\n", result.stderr.decode()


@pytest.mark.parametrize("command", ["mc", "verify"])
def test_an_interrupt_exits_130_with_one_error_line(monkeypatch, capsys, command):
    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(montecarlo, "run_trials", interrupted)
    result = invoke([command, "--trials", "10"])
    assert (result.exit_code, result.exception) == (130, None)
    assert (result.stdout, result.stderr) == ("", "Error: interrupted\n")
    with pytest.raises(SystemExit) as end:
        main([command, "--trials", "10"])
    assert end.value.code == 130
    assert capsys.readouterr() == ("", "Error: interrupted\n")


# none of seed 158's first five trials decodes, so the success-rate row fails;
# scanning seeds up from 0, 158 is the first of which that holds
_FAILING = ["--trials", "5", "--seed", "158"]


FIVE_COMMANDS = [["demo"], ["encode"], ["decode", "--outcome", "1", "--target", "1"],
                 ["mc", "--trials", "1000"], ["verify", "--trials", "64"]]


@pytest.mark.parametrize("sink", ["closed descriptor", "missing directory", "file as directory",
                                  "missing directory/", "file as directory/", "directory/",
                                  "directory", "read-only file", "empty"])
@pytest.mark.parametrize("command", FIVE_COMMANDS, ids=lambda args: args[0])
def test_no_work_runs_for_an_unwritable_sink(monkeypatch, capsys, tmp_path, sink, command):
    def work(*args, **kwargs):
        raise AssertionError("the command ran before its sink was checked")

    for module, name in ((montecarlo, "run_trials"), (bayes, "gain_report"),
                         (codec, "encode"), (codec, "encode_branch")):
        monkeypatch.setattr(module, name, work)
    regular = tmp_path / "file"
    regular.write_text("kept")
    if sink == "closed descriptor":
        monkeypatch.setattr(sys, "stdout", None)
        expected = "Error: cannot write to stdout: Bad file descriptor"
    else:
        out, reason = {
            "missing directory": (tmp_path / "nodir" / "x.json", "No such file or directory"),
            "file as directory": (regular / "x.json", "Not a directory"),
            # a trailing separator names the directory itself
            "missing directory/": (f"{tmp_path / 'nodir'}{os.sep}", "No such file or directory"),
            "file as directory/": (f"{regular}{os.sep}", "Not a directory"),
            "directory/": (f"{tmp_path}{os.sep}", "Is a directory"),
            "directory": (tmp_path, "Is a directory"),
            "read-only file": (regular, "Permission denied"),
            "empty": ("", "No such file or directory"),
        }[sink]
        command = [*command, "--out", str(out)]
        expected = f"Error: Invalid value for '--out': cannot write {out}: {reason}"
    if sink == "read-only file":
        regular.chmod(0o444)
        if os.access(regular, os.W_OK):  # root may write it anyway: answer as for anyone else
            monkeypatch.setattr(os, "access", lambda path, mode: False)
    with pytest.raises(SystemExit) as exited:
        main(command)
    assert exited.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == expected
    # the check creates, truncates and writes nothing
    assert sorted(tmp_path.iterdir()) == [regular] and regular.read_text() == "kept"


@pytest.mark.parametrize("command, code", [
    *((args, None) for args in FIVE_COMMANDS),
    (["verify", *_FAILING], 1),
])
def test_a_command_returns_none_or_its_failing_exit_code(capsys, command, code):
    # bench/run.py reads `main(args, standalone_mode=False) or 0` as the exit code
    assert main(command, standalone_mode=False) == code
    assert json.loads(capsys.readouterr().out)["command"] == command[0]


TRACE_COMMANDS = ("demo", "encode", "decode")
_SEEDS = st.one_of(
    st.sampled_from([-1, 0, montecarlo.MAX_SEED, montecarlo.MAX_SEED + 1]),
    st.integers(0, montecarlo.MAX_SEED),
)
# at most 10^4 trials run; the cap and one past it are only parsed
_TRIALS = st.one_of(
    st.sampled_from([-1, 0, 1, 10**4, cli_module.MAX_TRIALS + 1]), st.integers(1, 10**4)
)
# no 4096-node report runs: 4097 is refused before any array is allocated
_NODES = st.one_of(st.integers(bayes.MIN_NODES - 1, 64), st.just(4097))
# valid angles as often as invalid ones, so that most drawn lines run
_ANGLES = st.one_of(
    st.floats(0.0, math.pi),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 2.0**-1022, math.pi, -5e-324, math.pi + 4e-16]),
    _ANY_FLOAT,
)


@st.composite
def command_lines(draw):
    """A command line over every command and option, each drawn from values
    at and past its bounds or left out, and whether an option alone makes
    it a usage error."""
    command = draw(st.sampled_from([*TRACE_COMMANDS, "mc", "verify"]))
    args, invalid = [command], False

    # a left-out --nodes or --trials would run its default, not a drawn size
    def option(name, values, valid, required=False, omittable=True):
        nonlocal invalid
        present = not omittable or draw(st.sampled_from([True, True, True, False]))
        value = draw(values) if present else None
        if value is None:
            invalid |= required
        else:
            args.extend([name, str(value)])
            invalid |= not valid(value)
        return value

    if command in TRACE_COMMANDS:
        for q in (1, 2):
            theta = option(f"--theta{q}", _ANGLES, lambda value: True)
            phi = option(f"--phi{q}", _ANGLES, lambda value: True)
            try:
                BlochAngles(0.0 if theta is None else theta, 0.0 if phi is None else phi)
            except ValueError:
                invalid = True
    if command == "decode":
        option("--outcome", st.integers(-1, 4), lambda j: 0 <= j <= 3, required=True)
        option("--target", st.integers(0, 3), lambda a: 1 <= a <= 2, required=True)
    if command == "verify":
        option("--nodes", _NODES, lambda n: bayes.MIN_NODES <= n <= 4096, omittable=False)
    if command in ("mc", "verify"):
        option("--trials", _TRIALS, lambda n: 1 <= n <= cli_module.MAX_TRIALS, omittable=False)
    if command == "mc":
        option("--target-policy", st.sampled_from([*montecarlo.TARGET_POLICIES, "both"]),
               lambda policy: policy in montecarlo.TARGET_POLICIES)
    option("--seed", _SEEDS, lambda seed: 0 <= seed <= montecarlo.MAX_SEED)
    fmt = option("--format", st.sampled_from([*FORMATS, "xml"]), lambda fmt: fmt in FORMATS)
    return args, fmt or "json", invalid


def _document_rows(text: str, fmt: str, command: str) -> list[tuple[str, bool]] | None:
    """The (name, pass) pairs of a whole rows document, or None for a whole
    trace document; fails on anything else."""
    if fmt == "json":
        doc = json.loads(text)
        assert doc["command"] == command
        if "trace" in doc:
            return None
        rows = [(row["name"], row["pass"]) for row in doc["rows"]]
        assert doc["overall_pass"] is all(passed for _, passed in rows)
        return rows
    if fmt == "csv":
        header, *cells = csv.reader(io.StringIO(text))
    else:
        lines = text.splitlines()
        assert lines[:2] == [f"# {command}", ""]
        table = [line[2:-2].split(" | ") for line in lines[2:] if line.startswith("| ")]
        header, rule, *cells = table
        assert rule == ["---"] * len(header)
    assert cells and all(len(cell) == len(header) for cell in cells)
    if header == ["key", "value"]:
        assert fmt == "csv" or lines[-1].startswith("| ")
        return None
    assert header == ["name", "computed", "reference", "tolerance", "source", "pass"]
    rows = [(cell[0], {"true": True, "false": False}[cell[-1]]) for cell in cells]
    if fmt == "md":
        assert lines[-2:] == ["", f"overall pass: {str(all(p for _, p in rows)).lower()}"]
    return rows


@given(line=command_lines(), sink=st.sampled_from([None, "file", "directory", "missing"]))
@example(line=(["mc", *_FAILING], "json", False), sink=None)
@example(line=(["mc", *_FAILING, "--format", "csv"], "csv", False), sink=None)
@example(line=(["verify", "--nodes", "16", *_FAILING, "--format", "md"], "md", False), sink="file")
@settings(max_examples=300, deadline=None)
def test_every_command_line_gives_a_document_or_a_usage_error(line, sink):
    args, fmt, invalid = line
    command = args[0]
    with tempfile.TemporaryDirectory() as scratch:
        out = {None: None, "file": Path(scratch) / "doc", "directory": Path(scratch),
               "missing": Path(scratch) / "missing" / "doc"}[sink]
        if out is not None:
            args = [*args, "--out", str(out)]
        result = invoke(args)
        written = out.read_text() if sink == "file" and out.exists() else None
    # no traceback, and no SystemExit out of main(args, standalone_mode=False)
    assert result.exception is None, result.output
    assert result.exit_code in (0, 1, 2), result.output
    if invalid or sink in ("directory", "missing"):
        assert result.exit_code == 2, result.output
    elif command in ("demo", "encode"):
        assert result.exit_code == 0, result.output
    if result.exit_code == 2:
        assert result.stdout == "" and written is None
        assert "Usage:" in result.stderr and "Error:" in result.stderr
        if not invalid and sink not in ("directory", "missing"):
            assert command == "decode" and "cannot occur" in result.stderr
        return
    assert result.stderr == ""
    text = result.stdout if sink is None else written
    assert sink is None or result.stdout == ""
    rows = _document_rows(text, fmt, command)
    assert (rows is None) == (command in TRACE_COMMANDS)
    if rows is None:
        return
    # a full document: every row a passing run would print
    names = [name for name, _ in rows]
    mc_rows = ["mc_success_rate", *(f"mc_outcome_freq_{j}" for j in range(4))]
    identities = [name for name, *_ in cli_module.IDENTITY_ROWS]
    leading = [*cli_module.SUCCESS_ROWS, *cli_module.QUOTED_GAINS, *identities]
    expected = mc_rows if command == "mc" else leading
    assert names[: len(expected)] == expected
    assert names[-len(mc_rows):] == mc_rows
    assert result.exit_code == (0 if all(passed for _, passed in rows) else 1)
