"""Command-line front end: protocol traces, Monte Carlo batches, verification.

Exit codes: 0 when every check passes (or a trace command completes),
1 when a verification row fails, 2 for usage or validation errors. The
status of a written document is decided only in `_emit`.
"""

from __future__ import annotations

import functools
import math
from typing import Any

import click

from . import bayes, codec, montecarlo, states
from .report import FORMATS, amplitude_pairs, document, make_row, render

QUOTED_GAIN_TOL = 5e-4
IDENTITY_TOL = 1e-9
# Quadrature against the closed forms of bayes.exact_report; the worst error
# at the smallest accepted --nodes (16) is 1.2e-8.
EXACT_TOL = 1e-7
MC_RATE_SIGMAS = 3.0
MC_HISTOGRAM_SIGMAS = 3.5

# One verify row per entry: (name, report scalar, reference, tolerance,
# source). A reference given as a string is another report scalar. The paper
# rows quote the paper's constants at their published precision.
VERIFY_ROWS = (
    *(
        (f"success_probability_j{j}_target{a}", f"success_probability_j{j}_target{a}",
         2.0 / 3.0, 1e-9, "paper")
        for j in range(4)
        for a in (1, 2)
    ),
    ("encoding_gain", "encoding_gain", 0.0735, QUOTED_GAIN_TOL, "paper"),
    ("marginal_encoding_gain_q1", "marginal_encoding_gain_q1", 0.027, QUOTED_GAIN_TOL, "paper"),
    ("marginal_encoding_gain_q2", "marginal_encoding_gain_q2", 0.027, QUOTED_GAIN_TOL, "paper"),
    ("decode_gain_q1", "decode_gain_q1", -0.027, QUOTED_GAIN_TOL, "paper"),
    ("decode_gain_q2", "decode_gain_q2", 0.252, QUOTED_GAIN_TOL, "paper"),
    ("success_total_q2", "success_total_q2", 0.279, 1e-3, "paper"),
    ("failure_gain_q1", "failure_gain_q1", 0.252, QUOTED_GAIN_TOL, "paper"),
    ("failure_gain_q2", "failure_gain_q2", 0.252, QUOTED_GAIN_TOL, "paper"),
    ("decode_cancels_encoding_q1", "success_total_q1", 0.0, IDENTITY_TOL, "identity"),
    ("success_total_q2_vs_direct", "success_total_q2", "direct_gain", IDENTITY_TOL, "identity"),
    ("failure_total_q1_vs_direct", "failure_total_q1", "direct_gain", IDENTITY_TOL, "identity"),
    ("failure_total_q2_vs_direct", "failure_total_q2", "direct_gain", IDENTITY_TOL, "identity"),
    ("outcome_prior_sum", "outcome_prior_sum", 1.0, 1e-12, "identity"),
)


def _preparation_options(fn):
    """The four angle options, turned into the command's `pair` and `params`.

    `states.BlochAngles` alone decides which angles are valid; its
    `ValueError` becomes a usage error naming the qubit's options. `params`
    holds the angles as given, before `phi` is reduced modulo 2 pi.
    """

    @functools.wraps(fn)
    def command(theta1, phi1, theta2, phi2, **kwargs):
        qubits = []
        for q, theta, phi in ((1, theta1, phi1), (2, theta2, phi2)):
            try:
                qubits.append(states.BlochAngles(theta=theta, phi=phi))
            except ValueError as error:
                raise click.BadParameter(str(error), param_hint=f"'--theta{q}/--phi{q}'")
        params = {"theta1": theta1, "phi1": phi1, "theta2": theta2, "phi2": phi2}
        return fn(pair=tuple(qubits), params=params, **kwargs)

    for name in ("phi2", "theta2", "phi1", "theta1"):
        command = click.option(
            f"--{name}", type=float, default=0.0, show_default=True,
            help=f"{name} of the preparation, in radians.",
        )(command)
    return command


def _seed_option(fn):
    return click.option(
        "--seed",
        type=click.IntRange(0, montecarlo.MAX_SEED),
        default=0,
        show_default=True,
        help="Master seed of the counter-based random stream.",
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


def _emit(doc: dict[str, Any], fmt: str, out: str | None) -> None:
    """Write the document, then exit 1 if it holds a failing row."""
    text = render(doc, fmt)
    if out is None:
        click.echo(text, nl=False)
    else:
        try:
            with open(out, "w") as handle:
                handle.write(text)
        except OSError as error:
            message = f"cannot write {out}: {error.strerror}"
            raise click.BadParameter(message, param_hint="'--out'")
    if doc.get("overall_pass") is False:
        raise click.exceptions.Exit(1)


@click.group()
def main() -> None:
    """Simulate the two-qubit-to-qutrit codec and verify its statistics."""


def _encode_trace(record: codec.EncodeRecord) -> dict[str, Any]:
    return {
        "outcome_probabilities": list(record.weights),
        "outcome": record.outcome,
        "classical_bits": list(record.classical_bits),
        "outcome_probability": record.probability,
        "qutrit_amplitudes": amplitude_pairs(record.qutrit.amplitudes),
    }


def _decode_entry(
    pair: tuple[states.BlochAngles, states.BlochAngles],
    qutrit: states.PureState, outcome: int, target: int, u: float,
) -> dict[str, Any]:
    success_levels, failure_level = codec.decode_levels(outcome, target)
    p_success, reconstructed = codec.decode(qutrit, outcome, target, u)
    entry: dict[str, Any] = {
        "success_levels": sorted(success_levels),
        "failure_level": failure_level,
        "success_probability": p_success,
        "success": reconstructed is not None,
    }
    if reconstructed is not None:
        entry["reconstructed_amplitudes"] = amplitude_pairs(reconstructed.amplitudes)
        original = states.make_qubit_state(pair[target - 1])
        entry["fidelity"] = states.fidelity(reconstructed, original)
    else:
        entry["collapsed_level"] = failure_level
    return entry


@main.command()
@_preparation_options
@_seed_option
@_output_options
def demo(pair, params, seed, fmt, out) -> None:
    """Narrate one full encode/decode run for a fixed preparation."""
    stream = montecarlo._philox(seed, 0)
    record = codec.encode(pair, float(stream.random()))
    trace = {
        "joint_amplitudes": amplitude_pairs(record.joint.amplitudes),
        **_encode_trace(record),
        "decode": {
            f"target_{target}": _decode_entry(
                pair, record.qutrit, record.outcome, target, float(stream.random())
            )
            for target in (1, 2)
        },
    }
    _emit(document("demo", {**params, "seed": seed}, trace=trace), fmt, out)


@main.command()
@_preparation_options
@_seed_option
@_output_options
def encode(pair, params, seed, fmt, out) -> None:
    """Encode a preparation, sampling the measurement outcome from the seed."""
    record = codec.encode(pair, float(montecarlo._philox(seed, 0).random()))
    _emit(document("encode", {**params, "seed": seed}, trace=_encode_trace(record)), fmt, out)


@main.command()
@_preparation_options
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
def decode(pair, params, outcome, target, seed, fmt, out) -> None:
    """Decode one qubit from the qutrit of a given preparation and outcome."""
    probability, qutrit = codec.encode_branch(pair, outcome)
    if qutrit is None:
        raise click.UsageError(
            f"outcome {outcome} cannot occur for this preparation"
        )
    u = float(montecarlo._philox(seed, 0).random())
    trace = {
        "outcome_probability": probability,
        "qutrit_amplitudes": amplitude_pairs(qutrit.amplitudes),
        **_decode_entry(pair, qutrit, outcome, target, u),
    }
    params = {**params, "outcome": outcome, "target": target, "seed": seed}
    _emit(document("decode", params, trace=trace), fmt, out)


def _mc_rows(stats: montecarlo.TrialStats) -> list[dict[str, Any]]:
    """Rows of a batch against the closed-form outcome priors and success
    probability of `bayes.exact_report`, with binomial bands."""

    def band(reference: float, sigmas: float) -> float:
        return sigmas * math.sqrt(reference * (1.0 - reference) / stats.trials)

    scalars = bayes.exact_report()
    rate = scalars["success_probability_j0_target1"]
    rows = [make_row("mc_success_rate", stats.mean_success_rate, rate,
                     band(rate, MC_RATE_SIGMAS), "mc")]
    for j in range(4):
        reference = scalars[f"outcome_prior_{j}"]
        rows.append(make_row(f"mc_outcome_freq_{j}", stats.outcome_counts[j] / stats.trials,
                             reference, band(reference, MC_HISTOGRAM_SIGMAS), "mc"))
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
@_output_options
def mc(trials, seed, target_policy, fmt, out) -> None:
    """Run seeded Monte Carlo trials and compare with the closed forms."""
    rows = _mc_rows(montecarlo.run_trials(trials, seed, target_policy))
    params = {"trials": trials, "seed": seed, "target_policy": target_policy}
    _emit(document("mc", params, rows=rows), fmt, out)


def _verify_rows(report: dict[str, float]) -> list[dict[str, Any]]:
    prior_sum = sum(report[f"outcome_prior_{j}"] for j in range(4))
    scalars = {**report, "outcome_prior_sum": prior_sum}
    rows = [
        make_row(name, scalars[scalar],
                 scalars[reference] if isinstance(reference, str) else reference,
                 tolerance, source)
        for name, scalar, reference, tolerance, source in VERIFY_ROWS
    ]
    # every gain and outcome prior against its closed form; the totals and
    # success probabilities are pinned by the rows above
    for name, exact in bayes.exact_report().items():
        if "total" not in name and not name.startswith("success_probability"):
            rows.append(make_row(f"exact_{name}", scalars[name], exact, EXACT_TOL, "identity"))
    return rows


@main.command()
# the cap bounds the run time, which grows as n^2 (node generation and the
# report's encode-posterior strips, each ~0.2 s at 4096); memory grows only as n
@click.option(
    "--nodes", type=click.IntRange(bayes.MIN_NODES, 4096), default=256, show_default=True,
    help="Quadrature nodes per axis of the gain report that the rows check.",
)
@click.option(
    "--trials", type=click.IntRange(min=1), default=1_000_000, show_default=True,
    help="Monte Carlo trials for the statistical rows.",
)
@_seed_option
@_output_options
def verify(nodes, trials, seed, fmt, out) -> None:
    """Recompute every reference constant and emit a pass/fail table."""
    params = {"nodes": nodes, "trials": trials, "seed": seed}
    report = bayes.gain_report(bayes.QuadratureSpec(nodes_per_axis=nodes))
    rows = _verify_rows(report)
    rows.extend(_mc_rows(montecarlo.run_trials(trials, seed, "always-1")))
    _emit(document("verify", params, rows=rows), fmt, out)


if __name__ == "__main__":
    main()
