"""Command-line front end: protocol traces, Monte Carlo batches, verification.

Exit codes: 0 when every check passes (or a trace command completes),
1 when a verification row fails, 2 for usage or validation errors and for a
document that stdout or `--out` cannot take, 130 after an interrupt
(Ctrl-C). Each command body returns its document: a closed stdout, or an
empty `--out` or one that names a directory, a read-only file or a path in
a missing directory, is found before the body runs, and `_emit` writes the
document and gives its status.

One `argparse` parser, a subparser per command, is built on import, so a
run only parses, and a line that starts with a command is parsed by that
command's subparser alone. The token after an option is always its value
(`--phi1 -1e-9` is an angle), and no option may be abbreviated.

Only `mc` and `verify` import `bayes` and `montecarlo`, and numpy with them;
the option limits and the trace commands' uniforms come from `stream`, so the
trace commands, `--help` and usage errors run without numpy.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import re
import sys
from typing import Any

from . import codec, states, stream
from .report import FORMATS, amplitude_pairs, document, make_row, render

# exact identities and closed forms, whose residues are at most 4.4e-16
IDENTITY_TOL = 1e-12
# the exact rows' bound at the smallest --nodes; the quadrature error, 1.2e-8
# there, falls faster than nodes^-6 (3.3e-16 at 256)
EXACT_TOL = 1e-7
MC_RATE_SIGMAS = 3.0
MC_HISTOGRAM_SIGMAS = 3.5
# 10^10 trials take about 11 minutes (10^8 took 5.1-7.4 s on two cores)
MAX_TRIALS = 10**10

# verify's leading rows: the paper's exact 2/3, then its gains as it prints
# them, each to half a unit in its last quoted place, then the identities as
# (name, report scalar, reference), where a string names another scalar
SUCCESS_ROWS = tuple(f"success_probability_j{j}_target{a}" for j in range(4) for a in (1, 2))
QUOTED_GAINS = {
    "encoding_gain": "0.0735", "marginal_encoding_gain_q1": "0.027",
    "marginal_encoding_gain_q2": "0.027", "decode_gain_q1": "-0.027",
    "decode_gain_q2": "0.252", "success_total_q2": "0.279",
    "failure_gain_q1": "0.252", "failure_gain_q2": "0.252",
}
IDENTITY_ROWS = (
    ("decode_cancels_encoding_q1", "success_total_q1", 0.0),
    ("success_total_q2_vs_direct", "success_total_q2", "direct_gain"),
    ("failure_total_q1_vs_direct", "failure_total_q1", "direct_gain"),
    ("failure_total_q2_vs_direct", "failure_total_q2", "direct_gain"),
    ("outcome_prior_sum", "outcome_prior_sum", 1.0),
)


class _UsageError(Exception):
    """A command line the program refuses: exit 2 under the command's usage."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        """Exit 2 after a `Usage:` and an `Error:` line on stderr."""
        message = re.sub(r"^argument (\S+): ", r"Invalid value for '\1': ", message)
        usage = self.format_usage().removeprefix("usage: ")
        self.exit(2, f"Usage: {usage}Try '{self.prog} --help' for help.\n\nError: {message}\n")


# every option takes a value, which `_glued` joins to it
_OPTIONS: set[str] = set()


def _option(parser: _Parser, name: str, help: str, low=None, high=None, **kwargs) -> None:
    """Add option `name`; its help shows that it is required or its default,
    and the range low..high of an integer option."""
    shown = ["required"] if kwargs.get("required") else []
    if kwargs.get("default") is not None:
        shown.append("default: %(default)s")
    if low is not None:
        def integer(text: str) -> int:
            value = int(text)
            if not low <= value <= high:
                raise argparse.ArgumentTypeError(f"{value} is not in the range {low}<=x<={high}.")
            return value

        kwargs["type"] = integer
        shown.append(f"{low}<=x<={high}")
    parser.add_argument(name, help=f"{help} [{'; '.join(shown)}]" if shown else help, **kwargs)
    _OPTIONS.add(name)


def _glued(args: list[str]) -> list[str]:
    """`args` with each option joined to the token after it (`--phi1=-1e-9`),
    so that token is the value whatever it looks like: argparse would take
    `-1e-9` or `-inf` for an option."""
    glued, tokens = [], iter(args)
    for token in tokens:
        value = next(tokens, None) if token in _OPTIONS else None
        glued.append(token if value is None else f"{token}={value}")
    return glued


_PARSER = _Parser(
    prog="qutritcodec", allow_abbrev=False,
    description="Simulate the two-qubit-to-qutrit codec and verify its statistics.",
)
_COMMANDS = _PARSER.add_subparsers(dest="command", required=True)


def _command(*options: dict[str, Any], angles: bool = False):
    """Make the decorated body a command: the four angles if `angles`, then
    `options`, then `--seed`, `--format` and `--out`."""

    def register(body):
        parser = _COMMANDS.add_parser(
            body.__name__, help=body.__doc__, description=body.__doc__,
            usage="%(prog)s [OPTIONS]", allow_abbrev=False,
        )
        for name in ("theta1", "phi1", "theta2", "phi2") if angles else ():
            _option(parser, f"--{name}", f"{name} of the preparation, in radians.",
                    type=float, default=0.0)
        for option in options:
            _option(parser, **option)
        _option(parser, "--seed", "Master seed of the counter-based random stream.",
                low=0, high=stream.MAX_SEED, default=0)
        _option(parser, "--format", "Document format (JSON is normative).",
                choices=FORMATS, default="json")
        _option(parser, "--out", "Write the document to this path instead of stdout.")
        parser.set_defaults(parser=parser, body=body, angles=angles)
        return body

    return register


def _preparation(theta1, phi1, theta2, phi2, **options) -> dict[str, Any]:
    """The options with the four angles turned into the command's `pair` and
    `params`. `states.BlochAngles` alone decides which angles are valid; its
    `ValueError` becomes a usage error naming the qubit's options. `params`
    holds the angles as given, before `phi` is reduced modulo 2 pi."""
    qubits = []
    for q, theta, phi in ((1, theta1, phi1), (2, theta2, phi2)):
        try:
            qubits.append(states.BlochAngles(theta=theta, phi=phi))
        except ValueError as error:
            raise _UsageError(f"Invalid value for '--theta{q}/--phi{q}': {error}")
    params = {"theta1": theta1, "phi1": phi1, "theta2": theta2, "phi2": phi2}
    return {**options, "pair": tuple(qubits), "params": params}


def _unwritable_out(out: str, reason: str) -> _UsageError:
    return _UsageError(f"Invalid value for '--out': cannot write {out}: {reason}")


def _check_sink(out: str | None) -> None:
    """Exit 2 before any work if the document has nowhere to go: descriptor
    1 closed, or an `--out` that is empty, in a missing directory or under a
    regular file ("d/" names d itself), or naming a directory or a read-only
    file. A full device, a closed pipe and the rest fail at the write."""
    if out is None:
        if sys.stdout is None:  # descriptor 1 was closed at startup
            _PARSER.exit(2, f"Error: cannot write to stdout: {os.strerror(errno.EBADF)}\n")
        return
    if not out:  # open("") fails as a missing file does
        raise _unwritable_out(out, os.strerror(errno.ENOENT))
    try:
        os.stat(os.path.join(os.path.dirname(out) or os.curdir, ""))
    except OSError as error:
        if error.errno in (errno.ENOENT, errno.ENOTDIR):
            raise _unwritable_out(out, error.strerror)
    if os.path.isdir(out):
        raise _unwritable_out(out, os.strerror(errno.EISDIR))
    if os.path.exists(out) and not os.access(out, os.W_OK):
        raise _unwritable_out(out, os.strerror(errno.EACCES))


def _emit(doc: dict[str, Any], fmt: str, out: str | None) -> int:
    """Write the document; its status is 1 if it holds a failing row. A
    document that cannot be written exits 2."""
    text = render(doc, fmt)
    if out is None:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as error:  # a full device, a pipe its reader closed
            # stdout still buffers the text, and the interpreter would fail
            # again flushing it at exit: point it at the null device
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
            _PARSER.exit(2, f"Error: cannot write to stdout: {error.strerror}\n")
    else:
        try:
            with open(out, "w") as handle:
                handle.write(text)
        except OSError as error:
            raise _unwritable_out(out, error.strerror)
    return 1 if doc.get("overall_pass") is False else 0


def _run(args: list[str]) -> int:
    """Parse one command line, check its angles and its sink, then run the
    body and write its document."""
    command = _COMMANDS.choices.get(args[0]) if args else None
    namespace, extra = (command or _PARSER).parse_known_args(_glued(args[1:] if command else args))
    options = vars(namespace)
    options.pop("command", None)
    parser, body, angles, fmt, out = map(options.pop, ("parser", "body", "angles", "format", "out"))
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        if angles:
            options = _preparation(**options)
        _check_sink(out)
        return _emit(body(**options), fmt, out)
    except _UsageError as error:
        parser.error(str(error))


def main(args: list[str] | None = None, standalone_mode: bool = True) -> int | None:
    """Run one command line, `sys.argv[1:]` when `args` is None, and exit
    with its status; with `standalone_mode=False`, return the status instead,
    None for 0. Errors go to stderr either way."""
    try:
        status = _run(sys.argv[1:] if args is None else list(args))
    except SystemExit as end:  # argparse's exit, which every error goes through
        status = end.code
    except KeyboardInterrupt:  # `run_trials` has killed and reaped any child
        print("Error: interrupted", file=sys.stderr)
        status = 130
    if standalone_mode:
        sys.exit(status)
    return status or None


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


@_command(angles=True)
def demo(pair, params, seed) -> dict[str, Any]:
    """Narrate one full encode/decode run for a fixed preparation."""
    u_encode, *u_decode = stream.uniforms(seed, 3)
    record = codec.encode(pair, u_encode)
    trace = {
        "joint_amplitudes": amplitude_pairs(record.joint.amplitudes),
        **_encode_trace(record),
        "decode": {
            f"target_{target}": _decode_entry(pair, record.qutrit, record.outcome, target, u)
            for target, u in zip((1, 2), u_decode)
        },
    }
    return document("demo", {**params, "seed": seed}, trace=trace)


@_command(angles=True)
def encode(pair, params, seed) -> dict[str, Any]:
    """Encode a preparation, sampling the measurement outcome from the seed."""
    record = codec.encode(pair, stream.uniforms(seed, 1)[0])
    return document("encode", {**params, "seed": seed}, trace=_encode_trace(record))


@_command(
    dict(name="--outcome", low=0, high=3, required=True,
         help="Recorded encoding outcome (the two classical bits)."),
    dict(name="--target", low=1, high=2, required=True, help="Which qubit to reconstruct."),
    angles=True,
)
def decode(pair, params, outcome, target, seed) -> dict[str, Any]:
    """Decode one qubit from the qutrit of a given preparation and outcome."""
    probability, qutrit = codec.encode_branch(pair, outcome)
    if qutrit is None:
        raise _UsageError(f"outcome {outcome} cannot occur for this preparation")
    u = stream.uniforms(seed, 1)[0]
    trace = {
        "outcome_probability": probability,
        "qutrit_amplitudes": amplitude_pairs(qutrit.amplitudes),
        **_decode_entry(pair, qutrit, outcome, target, u),
    }
    params = {**params, "outcome": outcome, "target": target, "seed": seed}
    return document("decode", params, trace=trace)


def _mc_rows(
    trials: int, seed: int, target_policy: str, exact: dict[str, float]
) -> list[dict[str, Any]]:
    """Rows of a batch against the closed-form outcome priors and success
    probability of `bayes.exact_report`, with binomial bands."""
    from . import montecarlo

    stats = montecarlo.run_trials(trials, seed, target_policy)

    def band(reference: float, sigmas: float) -> float:
        return sigmas * math.sqrt(reference * (1.0 - reference) / stats.trials)

    rate = exact["success_probability_j0_target1"]
    rows = [make_row("mc_success_rate", stats.mean_success_rate, rate,
                     band(rate, MC_RATE_SIGMAS), "mc")]
    for j in range(4):
        reference = exact[f"outcome_prior_{j}"]
        rows.append(make_row(f"mc_outcome_freq_{j}", stats.outcome_counts[j] / stats.trials,
                             reference, band(reference, MC_HISTOGRAM_SIGMAS), "mc"))
    return rows


@_command(
    dict(name="--trials", low=1, high=MAX_TRIALS, default=1_000_000,
         help="Number of Monte Carlo trials."),
    dict(name="--target-policy", choices=stream.TARGET_POLICIES, default="always-1",
         help="Which qubit each trial decodes."),
)
def mc(trials, target_policy, seed) -> dict[str, Any]:
    """Run seeded Monte Carlo trials and compare with the closed forms."""
    from . import bayes

    params = {"trials": trials, "seed": seed, "target_policy": target_policy}
    return document("mc", params, rows=_mc_rows(trials, seed, target_policy, bayes.exact_report()))


def _verify_rows(
    report: dict[str, float], exact: dict[str, float], nodes: int
) -> list[dict[str, Any]]:
    prior_sum = sum(report[f"outcome_prior_{j}"] for j in range(4))
    scalars = {**report, "outcome_prior_sum": prior_sum}
    rows = [make_row(name, scalars[name], 2 / 3, IDENTITY_TOL, "paper") for name in SUCCESS_ROWS]
    for name, text in QUOTED_GAINS.items():
        half_unit = 0.5 * 10.0 ** -len(text.partition(".")[2])
        rows.append(make_row(name, scalars[name], float(text), half_unit, "paper"))
    for name, scalar, reference in IDENTITY_ROWS:
        reference = scalars[reference] if isinstance(reference, str) else reference
        rows.append(make_row(name, scalars[scalar], reference, IDENTITY_TOL, "identity"))
    # each gain and outcome prior against its closed form, at a bound that follows
    # the quadrature error down to IDENTITY_TOL; the rows above pin the rest
    tolerance = max(IDENTITY_TOL, EXACT_TOL * (stream.MIN_NODES / nodes) ** 6)
    for name, value in exact.items():
        if "total" not in name and not name.startswith("success_probability"):
            rows.append(make_row(f"exact_{name}", scalars[name], value, tolerance, "identity"))
    return rows


# every |c_k|^2 in (0, 1) and both azimuths off multiples of pi/2, so a
# decode that conjugates, swaps or flips the sign of an amplitude loses fidelity
SCALAR_PAIR = (states.BlochAngles(1.0, 0.5), states.BlochAngles(2.0, 4.0))


def _scalar_min_success_fidelity() -> float:
    """The least fidelity of the scalar codec's decodes of `SCALAR_PAIR`, over
    every outcome and target, each forced to succeed by u = 0."""
    originals = [states.make_qubit_state(qubit) for qubit in SCALAR_PAIR]
    qutrits = [codec.encode_branch(SCALAR_PAIR, j)[1] for j in range(4)]
    return min(
        states.fidelity(codec.decode(qutrits[j], j, target, 0.0)[1], originals[target - 1])
        for j in range(4)
        for target in (1, 2)
    )


# the cap on --nodes bounds the run time of node generation, which grows as
# n^2 (~0.12 s at 4096); the gain report and memory grow only as n
@_command(
    dict(name="--nodes", low=stream.MIN_NODES, high=4096, default=256,
         help="Quadrature nodes per axis of the gain report that the rows check."),
    dict(name="--trials", low=1, high=MAX_TRIALS, default=1_000_000,
         help="Monte Carlo trials for the statistical rows."),
)
def verify(nodes, trials, seed) -> dict[str, Any]:
    """Recompute every reference constant and emit a pass/fail table."""
    from . import bayes

    exact = bayes.exact_report()
    params = {"nodes": nodes, "trials": trials, "seed": seed}
    rows = _verify_rows(bayes.gain_report(bayes.QuadratureSpec(nodes)), exact, nodes)
    rows.append(make_row("scalar_min_success_fidelity", _scalar_min_success_fidelity(),
                         1.0, IDENTITY_TOL, "identity"))
    rows.extend(_mc_rows(trials, seed, "always-1", exact))
    return document("verify", params, rows=rows)
