"""End-to-end CLI behavior: commands, formats, exit codes, determinism."""

from __future__ import annotations

import itertools
import json
import math

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import qutritcodec.bayes as bayes
import qutritcodec.cli as cli_module
import qutritcodec.codec as codec
from qutritcodec.cli import main
from qutritcodec.report import amplitude_pairs, round_sig
from qutritcodec.states import BlochAngles
from conftest import any_pairs, near_pole_pairs

HALF_PI = repr(math.pi / 2)
PI = repr(math.pi)


@pytest.fixture
def runner() -> CliRunner:
    return CliRunner()


class TestDemo:
    def test_degenerate_preparation_lists_branch_weights(self, runner):
        result = runner.invoke(main, ["demo", "--seed", "1"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["command"] == "demo"
        probs = doc["trace"]["outcome_probabilities"]
        assert probs[0] == 0.0
        for p in probs[1:]:
            assert p == pytest.approx(1 / 3, abs=1e-9)

    def test_worked_preparation_trace(self, runner):
        result = runner.invoke(
            main,
            ["demo", "--theta1", HALF_PI, "--theta2", PI, "--seed", "0"],
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        trace = doc["trace"]
        # seed 0 deterministically lands in the first branch here
        assert trace["outcome"] == 0
        flat = [a for pair in trace["qutrit_amplitudes"] for a in pair]
        assert flat == pytest.approx([0, 0, 0.707106781187, 0, 0.707106781187, 0], abs=1e-9)
        assert set(trace["decode"]) == {"target_1", "target_2"}

    def test_same_seed_is_byte_identical(self, runner):
        args = ["demo", "--theta1", "0.7", "--phi1", "2.1", "--seed", "9"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.output == second.output

    def test_invalid_angle_is_a_usage_error(self, runner):
        # one test id over every trace command, qubit and kind of bad polar angle
        for command, option, value in itertools.product(
            ("demo", "encode", "decode"), ("--theta1", "--theta2"), ("-0.1", "4.0", "nan", "inf")
        ):
            extra = ["--outcome", "1", "--target", "1"] if command == "decode" else []
            result = runner.invoke(main, [command, option, value, *extra])
            assert result.exit_code == 2, (command, option, value, result.output)
            assert option in result.output


class TestEncode:
    def test_trace_fields(self, runner):
        result = runner.invoke(
            main, ["encode", "--theta1", HALF_PI, "--theta2", PI, "--seed", "0"]
        )
        assert result.exit_code == 0
        trace = json.loads(result.output)["trace"]
        assert trace["outcome"] in range(4)
        bits = trace["classical_bits"]
        assert trace["outcome"] == bits[0] + 2 * bits[1]
        assert len(trace["qutrit_amplitudes"]) == 3

    def test_seed_determinism(self, runner):
        args = ["encode", "--theta1", "1.0", "--theta2", "2.0", "--seed", "4"]
        assert runner.invoke(main, args).output == runner.invoke(main, args).output


class TestDecode:
    def test_reconstruction_with_certain_success(self, runner):
        result = runner.invoke(
            main,
            [
                "decode", "--theta1", HALF_PI, "--theta2", PI,
                "--outcome", "0", "--target", "1", "--seed", "0",
            ],
        )
        assert result.exit_code == 0
        trace = json.loads(result.output)["trace"]
        assert trace["success"] is True
        assert trace["success_probability"] == pytest.approx(1.0, abs=1e-9)
        assert trace["fidelity"] == pytest.approx(1.0, abs=1e-12)
        assert trace["success_levels"] == [1, 2]
        assert trace["failure_level"] == 0

    def test_impossible_outcome_is_a_usage_error(self, runner):
        result = runner.invoke(
            main, ["decode", "--outcome", "0", "--target", "1"]
        )
        assert result.exit_code == 2
        assert "cannot occur" in result.output

    def test_requires_outcome_and_target(self, runner):
        assert runner.invoke(main, ["decode", "--target", "1"]).exit_code == 2
        assert runner.invoke(main, ["decode", "--outcome", "1"]).exit_code == 2


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
        result = CliRunner().invoke(main, ["demo", *_angle_args(pair), "--seed", str(seed)])
    assert result.exit_code == 0, result.output
    assert calls == [pair]
    printed = json.loads(result.output)["trace"]["joint_amplitudes"]
    assert printed == [list(map(round_sig, a)) for a in amplitude_pairs(build(pair).amplitudes)]


class TestNearPolePreparations:
    @given(pair=near_pole_pairs(), seed=st.integers(0, 2**64 - 1))
    @settings(max_examples=40, deadline=None)
    def test_demo_and_encode_give_documents(self, pair, seed):
        for command in ("demo", "encode"):
            result = CliRunner().invoke(
                main, [command, *_angle_args(pair), "--seed", str(seed)]
            )
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
        result = CliRunner().invoke(
            main,
            ["decode", *_angle_args(pair), "--outcome", str(outcome),
             "--target", str(target), "--seed", str(seed)],
        )
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
def test_non_finite_phase_is_a_usage_error(runner, command, value, option):
    extra = ["--outcome", "1", "--target", "1"] if command == "decode" else []
    result = runner.invoke(main, [command, option, value, *extra])
    assert result.exit_code == 2
    assert "must be finite" in result.output


_ANY_FLOAT = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, math.pi, 1e300, -1e300]),
)


@given(q=st.sampled_from([1, 2]), theta=_ANY_FLOAT, phi=_ANY_FLOAT)
@settings(max_examples=400, deadline=None)
def test_an_angle_is_accepted_exactly_when_bloch_angles_accepts_it(q, theta, phi):
    args = ["encode", f"--theta{q}", repr(theta), f"--phi{q}", repr(phi)]
    result = CliRunner().invoke(main, args)
    try:
        BlochAngles(theta, phi)
    except ValueError:
        assert result.exit_code == 2, result.output
    else:
        assert result.exit_code == 0, result.output


class TestMc:
    def test_zero_trials_is_a_usage_error(self, runner):
        result = runner.invoke(main, ["mc", "--trials", "0"])
        assert result.exit_code == 2

    def test_small_batch_rows_and_determinism(self, runner):
        args = ["mc", "--trials", "50000", "--seed", "0"]
        first = runner.invoke(main, args)
        assert first.exit_code == 0
        doc = json.loads(first.output)
        names = [row["name"] for row in doc["rows"]]
        assert "mc_success_rate" in names
        assert sum(name.startswith("mc_outcome_freq_") for name in names) == 4
        assert "mc_min_success_fidelity" in names
        assert doc["overall_pass"] is True
        assert runner.invoke(main, args).output == first.output

    def test_policy_flag(self, runner):
        result = runner.invoke(
            main,
            ["mc", "--trials", "20000", "--target-policy", "random"],
        )
        assert result.exit_code == 0

    def test_failing_row_exits_one(self, runner, monkeypatch):
        true_exact_report = bayes.exact_report

        def skewed(outcome=0, target=1):
            scalars = true_exact_report(outcome, target)
            return {**scalars, "success_probability_j0_target1": 0.5}

        monkeypatch.setattr(cli_module.bayes, "exact_report", skewed)
        result = runner.invoke(main, ["mc", "--trials", "20000"])
        assert result.exit_code == 1
        doc = json.loads(result.output)
        assert doc["overall_pass"] is False
        assert [row["name"] for row in doc["rows"] if not row["pass"]] == ["mc_success_rate"]

    def test_has_no_nodes_option(self, runner):
        result = runner.invoke(main, ["mc", "--nodes", "64"])
        assert result.exit_code == 2
        assert "No such option" in result.output and "--nodes" in result.output
        assert isinstance(result.exception, SystemExit)
        assert not hasattr(bayes, "normalizers")

    def test_runs_no_quadrature(self, runner):
        bayes._gauss_legendre.cache_clear()
        assert runner.invoke(main, ["mc", "--trials", "1000"]).exit_code == 0
        assert bayes._gauss_legendre.cache_info().currsize == 0

    @pytest.mark.parametrize("command", ["mc", "verify"])
    def test_references_are_the_closed_forms(self, runner, monkeypatch, command):
        # normalizers skewed in the gain report would show in any reference
        # taken from it
        true_gain_report = bayes.gain_report

        def skewed(quad, outcome=0, target=1):
            report = true_gain_report(quad, outcome, target)
            return {
                name: value + 1e-3 if name.startswith(("outcome_prior", "success_prob")) else value
                for name, value in report.items()
            }

        monkeypatch.setattr(cli_module.bayes, "gain_report", skewed)
        result = runner.invoke(main, [command, "--trials", "1000"])
        # the skew fails verify's own success_probability rows
        assert result.exit_code == (1 if command == "verify" else 0)
        exact = bayes.exact_report()
        expected = {
            "mc_success_rate": exact["success_probability_j0_target1"],
            **{f"mc_outcome_freq_{j}": exact[f"outcome_prior_{j}"] for j in range(4)},
            "mc_min_success_fidelity": 1.0,
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

    monkeypatch.setattr(cli_module.bayes, "gain_report", skewed)


@pytest.fixture(scope="module")
def verify_result():
    return CliRunner().invoke(
        main, ["verify", "--nodes", "64", "--trials", "50000", "--seed", "0"]
    )


def test_exact_rows_hold_at_every_node_count():
    # every odd n runs the middle-root branch of the node generator
    names = [
        row["name"].removeprefix("exact_")
        for row in cli_module._verify_rows(bayes.exact_report())
        if row["name"].startswith("exact_")
    ]
    cases = [(n, j, a) for n in range(bayes.MIN_NODES, 301) for j in range(4) for a in (1, 2)]
    cases += [(n, 0, 1) for n in (512, 1024, 2048, 4096)]
    margins = []
    for n, outcome, target in cases:
        report = bayes.gain_report(bayes.QuadratureSpec(n), outcome, target)
        exact = bayes.exact_report(outcome, target)
        worst = max(abs(report[name] - exact[name]) for name in names)
        margins.append((cli_module.EXACT_TOL / max(worst, 1e-300), n, outcome, target))
    margin, n, outcome, target = min(margins)
    print(f"smallest exact-row margin {margin:.1f} at n={n}, outcome {outcome}, target {target}")
    assert len(names) == 12
    assert margin >= 5.0


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
            "mc_success_rate",
            "mc_min_success_fidelity",
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

    def test_failing_row_exits_one(self, runner, monkeypatch, tmp_path):
        skew_encoding_gain(monkeypatch, 0.01)
        args = ["verify", "--nodes", "64", "--trials", "1000"]
        path = tmp_path / "doc.json"
        # the failing document goes to stdout or to --out, and exits 1 either way
        for out_args in ([], ["--out", str(path)]):
            result = runner.invoke(main, [*args, *out_args])
            assert result.exit_code == 1
            doc = json.loads(path.read_text() if out_args else result.output)
            assert doc["overall_pass"] is False
            failing = {row["name"] for row in doc["rows"] if not row["pass"]}
            assert {"encoding_gain", "exact_encoding_gain"} <= failing
        assert result.output == ""

    def test_a_skew_within_the_quoted_precision_fails_the_exact_row(
        self, runner, monkeypatch
    ):
        # inside the paper row's 5e-4, outside the exact row's 1e-7
        skew_encoding_gain(monkeypatch, 2.5e-7)
        result = runner.invoke(main, ["verify", "--nodes", "64", "--trials", "1000"])
        assert result.exit_code == 1
        doc = json.loads(result.output)
        assert doc["overall_pass"] is False
        failing = [row["name"] for row in doc["rows"] if not row["pass"]]
        assert failing == ["exact_encoding_gain"]

    def test_rejects_too_few_nodes(self, runner):
        assert runner.invoke(main, ["verify", "--nodes", "8"]).exit_code == 2

    @pytest.mark.parametrize("command", ["verify"])
    def test_rejects_too_many_nodes(self, runner, command):
        # refused by the option before any array is allocated
        result = runner.invoke(main, [command, "--nodes", "4097", "--trials", "1"])
        assert result.exit_code == 2
        assert "4097" in result.output

    @pytest.mark.parametrize("nodes", [*range(16, 25), 32, 100, 300, 1000])
    def test_exact_rows_pass_at_every_resolution(self, runner, nodes):
        # the worst quadrature error, 1.2e-8 at 16 nodes, is under the 1e-7 bound
        result = runner.invoke(main, ["verify", "--nodes", str(nodes), "--trials", "1"])
        exact = [
            row for row in json.loads(result.output)["rows"]
            if row["name"].startswith("exact_")
        ]
        assert len(exact) == 12
        assert all(row["pass"] for row in exact), exact

    @pytest.mark.parametrize("command", ["mc", "verify"])
    def test_no_fidelity_row_when_no_trial_succeeds(self, runner, command):
        # the single trial of seed 5 fails to decode
        result = runner.invoke(main, [command, "--trials", "1", "--seed", "5"])
        assert result.exit_code == 0
        rows = {row["name"]: row for row in json.loads(result.output)["rows"]}
        assert rows["mc_success_rate"]["computed"] == 0.0
        assert "mc_min_success_fidelity" not in rows

    @pytest.mark.parametrize("command", ["mc", "verify"])
    def test_fidelity_row_when_the_only_trial_succeeds(self, runner, command):
        # the single trial of seed 0 decodes, so its block's one success is
        # also its minimum
        result = runner.invoke(main, [command, "--trials", "1", "--seed", "0"])
        assert result.exit_code == 0
        rows = {row["name"]: row for row in json.loads(result.output)["rows"]}
        assert rows["mc_success_rate"]["computed"] == 1.0
        assert rows["mc_min_success_fidelity"]["pass"]


class TestFormatsAndOutput:
    def test_csv_rows(self, runner):
        result = runner.invoke(
            main,
            ["mc", "--trials", "5000", "--format", "csv"],
        )
        lines = result.output.strip().split("\n")
        assert lines[0] == "name,computed,reference,tolerance,source,pass"
        assert len(lines) == 1 + 6  # rate + four frequencies + min fidelity

    def test_markdown_smoke(self, runner):
        result = runner.invoke(
            main, ["encode", "--theta1", "1.0", "--format", "md"]
        )
        assert result.output.startswith("# encode")

    @pytest.mark.parametrize("command", [
        ["verify", "--trials", "10"], ["mc", "--trials", "10", "--format", "csv"], ["encode"],
    ])
    def test_out_into_a_missing_directory_is_a_usage_error(self, runner, tmp_path, command):
        result = runner.invoke(main, [*command, "--out", str(tmp_path / "nodir" / "x.json")])
        assert result.exit_code == 2, result.output
        assert "Invalid value for '--out'" in result.output
        assert "No such file or directory" in result.output

    def test_printed_outcome_probabilities_are_the_sampled_weights(self, runner, monkeypatch):
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
                trace = json.loads(runner.invoke(main, args).output)["trace"]
                assert trace["outcome_probabilities"] == sampled.pop()

    def test_out_writes_a_file(self, runner, tmp_path):
        path = tmp_path / "doc.json"
        result = runner.invoke(
            main,
            ["encode", "--theta1", "1.0", "--out", str(path)],
        )
        assert result.exit_code == 0
        assert result.output == ""
        doc = json.loads(path.read_text())
        assert doc["command"] == "encode"

    def test_numbers_are_printed_with_twelve_significant_digits(self, runner):
        result = runner.invoke(
            main, ["encode", "--theta1", "1.0", "--theta2", "0.5", "--seed", "2"]
        )
        trace = json.loads(result.output)["trace"]
        for probability in trace["outcome_probabilities"]:
            assert probability == float(f"{probability:.12g}")
