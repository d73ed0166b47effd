"""Command-line front end: protocol traces, Monte Carlo batches, verification.

Exit codes: 0 when every check passes (or a trace command completes),
1 when a verification row fails, 2 for usage or validation errors.
"""

from __future__ import annotations

import math
import sys
from typing import Any

import click
import numpy as np

from . import bayes, codec, montecarlo, states
from .report import (
    FORMATS,
    ReportDocument,
    VerifyRow,
    amplitude_pairs,
    make_row,
    render,
)

# Reference constants quoted at their source precision, with the matching
# comparison tolerances.
SUCCESS_PROBABILITY_REF = 2.0 / 3.0
ENCODING_GAIN_REF = 0.0735
MARGINAL_ENCODING_GAIN_REF = 0.027
DECODE_GAIN_Q1_REF = -0.027
DECODE_GAIN_Q2_REF = 0.252
FAILURE_GAIN_REF = 0.252
TOTAL_GAIN_Q2_REF = 0.279

SUCCESS_PROBABILITY_TOL = 1e-9
QUOTED_GAIN_TOL = 5e-4
TOTAL_GAIN_TOL = 1e-3
IDENTITY_TOL = 1e-9
# Quadrature against the closed forms of bayes.exact_report; the worst error
# at the smallest accepted --nodes (16) is 1.2e-8.
EXACT_TOL = 1e-7
OUTCOME_SUM_TOL = 1e-12
MC_RATE_SIGMAS = 3.0
MC_HISTOGRAM_SIGMAS = 3.5


def _validate_theta(ctx, param, value):
    if not 0.0 <= value <= math.pi:
        raise click.BadParameter(f"{param.name} must lie in [0, pi], got {value}")
    return value


def _validate_phi(ctx, param, value):
    if not math.isfinite(value):
        raise click.BadParameter(f"{param.name} must be finite, got {value}")
    return value


def _angle_options(fn):
    for name, callback in (
        ("--phi2", _validate_phi),
        ("--theta2", _validate_theta),
        ("--phi1", _validate_phi),
        ("--theta1", _validate_theta),
    ):
        fn = click.option(
            name,
            type=float,
            default=0.0,
            show_default=True,
            callback=callback,
            help=f"{name.lstrip('-')} of the preparation, in radians.",
        )(fn)
    return fn


def _seed_option(fn):
    return click.option(
        "--seed",
        type=click.IntRange(0, 2**64 - 1),
        default=0,
        show_default=True,
        help="Master seed of the counter-based random stream.",
    )(fn)


def _nodes_option(fn):
    # capped because the gain report allocates n x n arrays
    return click.option(
        "--nodes", type=click.IntRange(16, 4096), default=256, show_default=True,
        help="Quadrature nodes per axis for the reference values.",
    )(fn)


def _output_options(fn):
    fn = click.option(
        "--out",
        type=click.Path(dir_okay=False, writable=True),
        default=None,
        help="Write the document to this path instead of stdout.",
    )(fn)
    fn = click.option(
        "--format",
        "fmt",
        type=click.Choice(FORMATS),
        default="json",
        show_default=True,
        help="Document format (JSON is normative).",
    )(fn)
    return fn


def _emit(document: ReportDocument, fmt: str, out: str | None) -> None:
    text = render(document, fmt)
    if out is None:
        click.echo(text, nl=False)
    else:
        with open(out, "w") as handle:
            handle.write(text)


def _pair(theta1, phi1, theta2, phi2) -> codec.QubitPair:
    return codec.QubitPair(
        q1=states.BlochAngles(theta=theta1, phi=phi1),
        q2=states.BlochAngles(theta=theta2, phi=phi2),
    )


def _uniform_stream(seed: int):
    return np.random.Generator(np.random.Philox(key=seed))


@click.group()
def main() -> None:
    """Simulate the two-qubit-to-qutrit codec and verify its statistics."""


@main.command()
@_angle_options
@_seed_option
@_output_options
def demo(theta1, phi1, theta2, phi2, seed, fmt, out) -> None:
    """Narrate one full encode/decode run for a fixed preparation."""
    pair = _pair(theta1, phi1, theta2, phi2)
    joint = codec.joint_state(pair)
    branch_probabilities = [
        codec.encode_branch(pair, j)[0] for j in range(4)
    ]
    stream = _uniform_stream(seed)
    record = codec.encode(pair, float(stream.random()))

    decodes: dict[str, Any] = {}
    for target in (1, 2):
        success_proj, failure_proj = codec.decode_projectors(record.outcome, target)
        p_success, _, _ = codec.decode_branch(record.qutrit, record.outcome, target)
        result = codec.decode(
            record.qutrit, record.outcome, target, float(stream.random())
        )
        entry: dict[str, Any] = {
            "success_levels": sorted(success_proj.indices),
            "failure_level": min(failure_proj.indices),
            "success_probability": p_success,
            "success": result.success,
        }
        if result.success:
            entry["reconstructed_amplitudes"] = amplitude_pairs(
                result.reconstructed.amplitudes
            )
            original = states.make_qubit_state(pair.q1 if target == 1 else pair.q2)
            entry["fidelity"] = states.fidelity(result.reconstructed, original)
        else:
            entry["collapsed_level"] = result.failure_level
        decodes[f"target_{target}"] = entry

    trace = {
        "joint_amplitudes": amplitude_pairs(joint.amplitudes),
        "outcome_probabilities": branch_probabilities,
        "outcome": record.outcome,
        "classical_bits": list(record.classical_bits),
        "outcome_probability": record.probability,
        "qutrit_amplitudes": amplitude_pairs(record.qutrit.amplitudes),
        "decode": decodes,
    }
    document = ReportDocument(
        command="demo",
        params={
            "theta1": theta1, "phi1": phi1, "theta2": theta2, "phi2": phi2,
            "seed": seed,
        },
        trace=trace,
    )
    _emit(document, fmt, out)


@main.command()
@_angle_options
@_seed_option
@_output_options
def encode(theta1, phi1, theta2, phi2, seed, fmt, out) -> None:
    """Encode a preparation, sampling the measurement outcome from the seed."""
    pair = _pair(theta1, phi1, theta2, phi2)
    branch_probabilities = [codec.encode_branch(pair, j)[0] for j in range(4)]
    record = codec.encode(pair, float(_uniform_stream(seed).random()))
    trace = {
        "outcome_probabilities": branch_probabilities,
        "outcome": record.outcome,
        "classical_bits": list(record.classical_bits),
        "outcome_probability": record.probability,
        "qutrit_amplitudes": amplitude_pairs(record.qutrit.amplitudes),
    }
    document = ReportDocument(
        command="encode",
        params={
            "theta1": theta1, "phi1": phi1, "theta2": theta2, "phi2": phi2,
            "seed": seed,
        },
        trace=trace,
    )
    _emit(document, fmt, out)


@main.command()
@_angle_options
@click.option(
    "--outcome", type=click.IntRange(0, 3), required=True,
    help="Recorded encoding outcome (the two classical bits).",
)
@click.option(
    "--target", type=click.IntRange(1, 2), required=True,
    help="Which qubit to reconstruct.",
)
@_seed_option
@_output_options
def decode(theta1, phi1, theta2, phi2, outcome, target, seed, fmt, out) -> None:
    """Decode one qubit from the qutrit of a given preparation and outcome."""
    pair = _pair(theta1, phi1, theta2, phi2)
    probability, qutrit = codec.encode_branch(pair, outcome)
    if qutrit is None:
        raise click.UsageError(
            f"outcome {outcome} cannot occur for this preparation"
        )
    p_success, _, _ = codec.decode_branch(qutrit, outcome, target)
    record = codec.decode(qutrit, outcome, target, float(_uniform_stream(seed).random()))
    success_proj, failure_proj = codec.decode_projectors(outcome, target)
    trace: dict[str, Any] = {
        "outcome_probability": probability,
        "qutrit_amplitudes": amplitude_pairs(qutrit.amplitudes),
        "success_levels": sorted(success_proj.indices),
        "failure_level": min(failure_proj.indices),
        "success_probability": p_success,
        "success": record.success,
    }
    if record.success:
        trace["reconstructed_amplitudes"] = amplitude_pairs(
            record.reconstructed.amplitudes
        )
        original = states.make_qubit_state(pair.q1 if target == 1 else pair.q2)
        trace["fidelity"] = states.fidelity(record.reconstructed, original)
    else:
        trace["collapsed_level"] = record.failure_level
    document = ReportDocument(
        command="decode",
        params={
            "theta1": theta1, "phi1": phi1, "theta2": theta2, "phi2": phi2,
            "outcome": outcome, "target": target, "seed": seed,
        },
        trace=trace,
    )
    _emit(document, fmt, out)


def _mc_rows(
    stats: montecarlo.TrialStats, quad: bayes.QuadratureSpec
) -> list[VerifyRow]:
    rows = []
    rate_reference = bayes.average_success_probability(0, 1, quad)
    rate_sigma = math.sqrt(
        rate_reference * (1.0 - rate_reference) / stats.trials
    )
    rows.append(
        make_row(
            "mc_success_rate",
            stats.mean_success_rate,
            rate_reference,
            MC_RATE_SIGMAS * rate_sigma,
            "mc",
        )
    )
    for j in range(4):
        reference = bayes.outcome_prior(j, quad)
        sigma = math.sqrt(reference * (1.0 - reference) / stats.trials)
        rows.append(
            make_row(
                f"mc_outcome_freq_{j}",
                stats.outcome_counts[j] / stats.trials,
                reference,
                MC_HISTOGRAM_SIGMAS * sigma,
                "mc",
            )
        )
    # with no successful trial there is no reconstruction to check
    if stats.min_success_fidelity is not None:
        rows.append(make_row("mc_min_success_fidelity", stats.min_success_fidelity,
                             1.0, 1e-12, "mc"))
    return rows


@main.command()
@click.option(
    "--trials", type=click.IntRange(min=1), default=1_000_000, show_default=True,
    help="Number of Monte Carlo trials.",
)
@_seed_option
@click.option(
    "--target-policy", type=click.Choice(montecarlo.TARGET_POLICIES),
    default="always-1", show_default=True,
    help="Which qubit each trial decodes.",
)
@_nodes_option
@_output_options
@click.pass_context
def mc(ctx, trials, seed, target_policy, nodes, fmt, out) -> None:
    """Run seeded Monte Carlo trials and compare with the quadrature values."""
    config = montecarlo.TrialConfig(
        trials=trials, master_seed=seed, target_policy=target_policy
    )
    stats = montecarlo.run_trials(config)
    quad = bayes.QuadratureSpec(nodes_per_axis=nodes)
    document = ReportDocument(
        command="mc",
        params={
            "trials": trials, "seed": seed, "target_policy": target_policy,
            "nodes": nodes,
        },
        rows=tuple(_mc_rows(stats, quad)),
    )
    _emit(document, fmt, out)
    ctx.exit(0 if document.overall_pass else 1)


def _verify_rows(report: bayes.GainReport) -> list[VerifyRow]:
    rows = []
    for j in range(4):
        for a in (1, 2):
            rows.append(
                make_row(
                    f"success_probability_j{j}_target{a}",
                    report.success_probability[j][a - 1],
                    SUCCESS_PROBABILITY_REF,
                    SUCCESS_PROBABILITY_TOL,
                    "paper",
                )
            )
    rows.append(
        make_row("encoding_gain", report.encoding_gain, ENCODING_GAIN_REF,
                 QUOTED_GAIN_TOL, "paper")
    )
    for a in (1, 2):
        rows.append(
            make_row(
                f"marginal_encoding_gain_q{a}",
                report.marginal_encoding_gain[a - 1],
                MARGINAL_ENCODING_GAIN_REF,
                QUOTED_GAIN_TOL,
                "paper",
            )
        )
    rows.append(
        make_row("decode_gain_q1", report.decode_gain[0], DECODE_GAIN_Q1_REF,
                 QUOTED_GAIN_TOL, "paper")
    )
    rows.append(
        make_row("decode_gain_q2", report.decode_gain[1], DECODE_GAIN_Q2_REF,
                 QUOTED_GAIN_TOL, "paper")
    )
    rows.append(
        make_row("success_total_q2", report.success_total[1], TOTAL_GAIN_Q2_REF,
                 TOTAL_GAIN_TOL, "paper")
    )
    for a in (1, 2):
        rows.append(
            make_row(
                f"failure_gain_q{a}",
                report.failure_gain[a - 1],
                FAILURE_GAIN_REF,
                QUOTED_GAIN_TOL,
                "paper",
            )
        )
    rows.append(
        make_row("decode_cancels_encoding_q1", report.success_total[0], 0.0,
                 IDENTITY_TOL, "identity")
    )
    rows.append(
        make_row("success_total_q2_vs_direct", report.success_total[1],
                 report.direct_gain, IDENTITY_TOL, "identity")
    )
    for a in (1, 2):
        rows.append(
            make_row(
                f"failure_total_q{a}_vs_direct",
                report.failure_total[a - 1],
                report.direct_gain,
                IDENTITY_TOL,
                "identity",
            )
        )
    rows.append(
        make_row("outcome_prior_sum", sum(report.outcome_prior), 1.0,
                 OUTCOME_SUM_TOL, "identity")
    )
    # every gain and outcome prior against its closed form; the totals and
    # success probabilities are pinned by the rows above
    computed = bayes.report_scalars(report)
    for name, exact in bayes.exact_report().items():
        if "total" not in name and not name.startswith("success_probability"):
            rows.append(
                make_row(f"exact_{name}", computed[name], exact, EXACT_TOL, "identity")
            )
    return rows


@main.command()
@_nodes_option
@click.option(
    "--trials", type=click.IntRange(min=1), default=1_000_000, show_default=True,
    help="Monte Carlo trials for the statistical rows.",
)
@_seed_option
@_output_options
@click.pass_context
def verify(ctx, nodes, trials, seed, fmt, out) -> None:
    """Recompute every reference constant and emit a pass/fail table."""
    quad = bayes.QuadratureSpec(nodes_per_axis=nodes)
    params = {"nodes": nodes, "trials": trials, "seed": seed}
    rows = _verify_rows(bayes.gain_report(quad))
    stats = montecarlo.run_trials(
        montecarlo.TrialConfig(trials=trials, master_seed=seed, target_policy="always-1")
    )
    rows.extend(_mc_rows(stats, quad))
    document = ReportDocument(command="verify", params=params, rows=tuple(rows))
    _emit(document, fmt, out)
    ctx.exit(0 if document.overall_pass else 1)


if __name__ == "__main__":
    main()
