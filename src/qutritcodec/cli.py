"""Command-line front end: protocol traces, Monte Carlo batches, verification.

Exit codes: 0 when every check passes (or a trace command completes),
1 when a verification row fails, 2 for usage or validation errors and for a
document that stdout or `--out` cannot take, 3 when the forked half of a
split Monte Carlo batch fails (no document is written then). Each command
body returns its document: a closed stdout or a missing `--out` directory
is found before the body runs, and the status of a written document is
decided in `_emit`.
"""

from __future__ import annotations

import errno
import functools
import math
import os
import sys
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
# 10^10 trials take about 13 minutes (0.75 s per 10^7 on two cores)
MAX_TRIALS = 10**10

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


class _UnwritableStdout(click.ClickException):
    exit_code = 2


class _WorkerFailed(click.ClickException):
    exit_code = 3


def _emit(doc: dict[str, Any], fmt: str, out: str | None) -> None:
    """Write the document, then exit 1 if it holds a failing row; exit 2 if
    it cannot be written."""
    text = render(doc, fmt)
    if out is None:
        try:
            click.echo(text, nl=False)
        except OSError as error:  # a full device, a pipe its reader closed
            # stdout still buffers the text, and the interpreter would fail
            # again flushing it at exit: point it at the null device
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
            raise _UnwritableStdout(f"cannot write to stdout: {error.strerror}")
    else:
        try:
            with open(out, "w") as handle:
                handle.write(text)
        except OSError as error:
            raise _unwritable_out(out, error)
    if doc.get("overall_pass") is False:
        raise click.exceptions.Exit(1)


def _unwritable_out(out: str, error: OSError) -> click.BadParameter:
    return click.BadParameter(f"cannot write {out}: {error.strerror}", param_hint="'--out'")


def _document_options(fn):
    """`--seed`, `--format` and `--out` around a body that returns its
    document: the sink is checked before the body runs, `_emit` writes after."""

    @functools.wraps(fn)
    def command(fmt, out, **kwargs):
        if out is None and sys.stdout is None:  # descriptor 1 was closed at startup
            raise _UnwritableStdout(f"cannot write to stdout: {os.strerror(errno.EBADF)}")
        if out is not None:  # a missing directory or a file in its place fails now
            try:  # ("d/" names d itself); permissions and the rest fail at the write
                os.stat(os.path.join(os.path.dirname(out) or os.curdir, ""))
            except OSError as error:
                if error.errno in (errno.ENOENT, errno.ENOTDIR):
                    raise _unwritable_out(out, error)
        _emit(fn(**kwargs), fmt, out)

    command = click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None,
                           help="Write the document to this path instead of stdout.")(command)
    command = click.option("--format", "fmt", type=click.Choice(FORMATS), default="json",
                           show_default=True, help="Document format (JSON is normative).")(command)
    return click.option("--seed", type=click.IntRange(0, montecarlo.MAX_SEED), default=0,
                        show_default=True,
                        help="Master seed of the counter-based random stream.")(command)


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
@_document_options
def demo(pair, params, seed) -> dict[str, Any]:
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
    return document("demo", {**params, "seed": seed}, trace=trace)


@main.command()
@_preparation_options
@_document_options
def encode(pair, params, seed) -> dict[str, Any]:
    """Encode a preparation, sampling the measurement outcome from the seed."""
    record = codec.encode(pair, float(montecarlo._philox(seed, 0).random()))
    return document("encode", {**params, "seed": seed}, trace=_encode_trace(record))


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
@_document_options
def decode(pair, params, outcome, target, seed) -> dict[str, Any]:
    """Decode one qubit from the qutrit of a given preparation and outcome."""
    probability, qutrit = codec.encode_branch(pair, outcome)
    if qutrit is None:
        raise click.UsageError(f"outcome {outcome} cannot occur for this preparation")
    u = float(montecarlo._philox(seed, 0).random())
    trace = {
        "outcome_probability": probability,
        "qutrit_amplitudes": amplitude_pairs(qutrit.amplitudes),
        **_decode_entry(pair, qutrit, outcome, target, u),
    }
    params = {**params, "outcome": outcome, "target": target, "seed": seed}
    return document("decode", params, trace=trace)


def _mc_rows(trials: int, seed: int, target_policy: str) -> list[dict[str, Any]]:
    """Rows of a batch against the closed-form outcome priors and success
    probability of `bayes.exact_report`, with binomial bands."""
    try:
        stats = montecarlo.run_trials(trials, seed, target_policy)
    except montecarlo.WorkerError as error:
        raise _WorkerFailed(str(error))

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
    "--trials", type=click.IntRange(1, MAX_TRIALS), default=1_000_000, show_default=True,
    help="Number of Monte Carlo trials.",
)
@click.option(
    "--target-policy", type=click.Choice(montecarlo.TARGET_POLICIES),
    default="always-1", show_default=True,
    help="Which qubit each trial decodes.",
)
@_document_options
def mc(trials, target_policy, seed) -> dict[str, Any]:
    """Run seeded Monte Carlo trials and compare with the closed forms."""
    params = {"trials": trials, "seed": seed, "target_policy": target_policy}
    return document("mc", params, rows=_mc_rows(trials, seed, target_policy))


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
# the cap bounds the run time, which grows as n^2 (node generation ~0.15 s and
# the report's encode-posterior strips ~0.08 s at 4096); memory grows only as n
@click.option(
    "--nodes", type=click.IntRange(bayes.MIN_NODES, 4096), default=256, show_default=True,
    help="Quadrature nodes per axis of the gain report that the rows check.",
)
@click.option(
    "--trials", type=click.IntRange(1, MAX_TRIALS), default=1_000_000, show_default=True,
    help="Monte Carlo trials for the statistical rows.",
)
@_document_options
def verify(nodes, trials, seed) -> dict[str, Any]:
    """Recompute every reference constant and emit a pass/fail table."""
    params = {"nodes": nodes, "trials": trials, "seed": seed}
    rows = _verify_rows(bayes.gain_report(bayes.QuadratureSpec(nodes_per_axis=nodes)))
    rows.extend(_mc_rows(trials, seed, "always-1"))
    return document("verify", params, rows=rows)
