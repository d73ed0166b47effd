"""The benchmark's workloads: seeded inputs and the check of every output.

An op is one call of the `qutritcodec` CLI, given as its argument list. Op
i of a workload is a pure function of (workload, seed, i), so any run that
reaches op i sees the same input, whatever its length or tracing.

No op of a workload fails at the seed commit: the benchmark's result counts
failed ops, and two runs of the same code must agree on that count. The two
known defects are measured instead on fixed probe inputs (`PROBES`), whose
failures are the same on every run.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

# Allowed for rounding: every float in a document carries 12 significant
# digits, so each printed value may be off by half a unit in its 12th digit.
SIG_DIGITS = 12
PROBABILITY_SUM_TOL = 1e-12
FIDELITY_TOL = 1e-12
# 5 * 10**5 trials (~0.3 s) rather than the 10**7 of a full `mc` run, so that
# a host-speed reference brackets each op closely and a run holds ~90 ops
MC_TRIALS = 500_000
# verify ops run this many Monte Carlo trials: enough that no op meets the
# vacuous-row defect (all trials fail with probability 3**-64), few enough
# that Monte Carlo stays under 1% of an op
VERIFY_TRIALS = 64
# a statistical row may miss its 3 or 3.5 sigma band by chance, and the
# program then rightly reports overall_pass false; an op fails the check only
# when such a row misses by more than this many times its tolerance (6 and 7
# sigma), which chance does not produce once in 10**8 ops
STATISTICAL_SLACK = 2.0
# op i of seed s uses CLI seed s * SEED_STRIDE + i, so seeds give disjoint ranges
SEED_STRIDE = 1_000_000
# the probes: CLI seeds 0..VERIFY_PROBES-1 of `verify --trials 1`, and
# NEAR_POLE_PROBES demo preparations with both qubits 1e-9..1e-5 rad from a pole
VERIFY_PROBES = 24
NEAR_POLE_PROBES = 64


@dataclass(frozen=True)
class Outcome:
    """How one op ended: `failed` counts against ok_frac; `wrong` means the
    program reported success for an output that fails its check."""

    failed: bool
    wrong: bool = False
    reason: str = ""


@dataclass(frozen=True)
class Workload:
    """One workload; why each exists is recorded in BENCHMARK.json and README.md."""

    name: str
    args: Callable[[int, int], list[str]]
    warmup_args: Callable[[int], list[str]]
    check: Callable[[int, str], Outcome]
    digest_ops: int  # ops in the digest every run covers, traced or not
    traced_op_s: float  # nominal untraced + traced cost of one op; sizes traced runs and blocks
    trials_per_op: int


def _half_unit(value: float) -> float:
    """Largest rounding error of `value` printed to SIG_DIGITS digits."""
    if value == 0.0:
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(value))) - SIG_DIGITS + 1)


def check_rows(exit_code: int, text: str, trials: int) -> Outcome:
    """Check a verify or mc document: it parses, its outcome counts sum to
    the trial count, its exit code agrees with overall_pass, every exact row
    passes, and every statistical row is within STATISTICAL_SLACK times its
    tolerance."""
    try:
        document = json.loads(text)
        rows = {row["name"]: row for row in document["rows"]}
        passed = document["overall_pass"]
        frequencies = [rows[f"mc_outcome_freq_{j}"]["computed"] for j in range(4)]
    except (ValueError, KeyError, TypeError) as error:
        return Outcome(failed=True, wrong=exit_code == 0, reason=f"unparsable: {error!r}")
    counts = [f * trials for f in frequencies]
    if any(abs(c - round(c)) > 1e-3 for c in counts) or sum(map(round, counts)) != trials:
        return Outcome(failed=True, wrong=True, reason="mc outcome counts do not sum to trials")
    if passed is not (exit_code == 0) or passed is not all(row["pass"] for row in rows.values()):
        return Outcome(failed=True, wrong=True, reason=f"exit {exit_code} with overall_pass {passed}")
    missed = sorted(
        name
        for name, row in rows.items()
        if not row["pass"]
        and (
            row["source"] != "mc"
            or abs(row["computed"] - row["reference"]) > STATISTICAL_SLACK * row["tolerance"]
        )
    )
    if missed:
        return Outcome(failed=True, reason="rows failed: " + ",".join(missed))
    return Outcome(failed=False)


def check_demo(exit_code: int, text: str) -> Outcome:
    try:
        trace = json.loads(text)["trace"]
        probabilities = trace["outcome_probabilities"]
        decodes = [trace["decode"][f"target_{a}"] for a in (1, 2)]
    except (ValueError, KeyError, TypeError) as error:
        return Outcome(failed=True, wrong=exit_code == 0, reason=f"unparsable: {error!r}")
    if exit_code != 0:
        return Outcome(failed=True, wrong=True, reason=f"exit {exit_code} with a document")
    slack = PROBABILITY_SUM_TOL + sum(_half_unit(p) for p in probabilities)
    if len(probabilities) != 4 or abs(sum(probabilities) - 1.0) > slack:
        return Outcome(failed=True, wrong=True, reason="outcome probabilities do not sum to 1")
    for entry in decodes:
        if entry["success"] and entry["fidelity"] < 1.0 - FIDELITY_TOL - _half_unit(1.0):
            return Outcome(failed=True, wrong=True, reason="decode fidelity below 1 - 1e-12")
    return Outcome(failed=False)


def verify_args(seed: int, i: int) -> list[str]:
    return ["verify", "--trials", str(VERIFY_TRIALS), "--seed", str(seed * SEED_STRIDE + i)]


def mc_args(seed: int, i: int) -> list[str]:
    return [
        "mc", "--trials", str(MC_TRIALS), "--target-policy", "random",
        "--seed", str(seed * SEED_STRIDE + i),
    ]


def mc_warmup_args(seed: int) -> list[str]:
    # one Philox chunk runs every code path of a full op at 1/4 of its cost
    return ["mc", "--trials", str(1 << 17), "--target-policy", "random", "--seed", str(seed)]


def _polar(rng: random.Random, near_pole: bool) -> float:
    if near_pole:
        distance = 10.0 ** rng.uniform(-9.0, -5.0)
        return distance if rng.random() < 0.5 else math.pi - distance
    return math.acos(1.0 - 2.0 * rng.random())


def _preparation(rng: random.Random, near_pole: bool) -> list[str]:
    args = ["demo"]
    for qubit in ("1", "2"):
        args += ["--theta" + qubit, repr(_polar(rng, near_pole))]
        args += ["--phi" + qubit, repr(rng.uniform(0.0, 2.0 * math.pi))]
    return args + ["--seed", str(rng.randrange(2**32))]


def demo_args(seed: int, i: int) -> list[str]:
    """A preparation drawn uniformly over the Bloch sphere of each qubit."""
    return _preparation(random.Random(f"codec-roundtrip:{seed}:{i}"), near_pole=False)


def near_pole_args(i: int) -> list[str]:
    """A preparation with both qubits 1e-9..1e-5 rad from a pole."""
    return _preparation(random.Random(f"near-pole:{i}"), near_pole=True)


@dataclass(frozen=True)
class Probe:
    """Fixed inputs that meet a known defect, the same for every run and seed.

    `failed_frac` is the share of them that fail `check`, so that a fix shows
    as a drop to 0 and a regression as a rise.
    """

    name: str
    inputs: tuple[tuple[str, ...], ...]
    check: Callable[[int, str], Outcome]

    def args(self, seed: int, i: int) -> list[str]:
        return list(self.inputs[i])


PROBES = (
    Probe(
        name="verify_trials1",
        inputs=tuple(("verify", "--trials", "1", "--seed", str(s)) for s in range(VERIFY_PROBES)),
        check=functools.partial(check_rows, trials=1),
    ),
    Probe(
        name="near_pole_demo",
        inputs=tuple(tuple(near_pole_args(i)) for i in range(NEAR_POLE_PROBES)),
        check=check_demo,
    ),
)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="verify-quadrature",
            args=verify_args,
            warmup_args=lambda seed: verify_args(seed, 0),
            check=functools.partial(check_rows, trials=VERIFY_TRIALS),
            digest_ops=4,
            traced_op_s=0.5,
            trials_per_op=VERIFY_TRIALS,
        ),
        Workload(
            name="mc-stream",
            args=mc_args,
            warmup_args=mc_warmup_args,
            check=functools.partial(check_rows, trials=MC_TRIALS),
            digest_ops=1,
            traced_op_s=0.65,
            trials_per_op=MC_TRIALS,
        ),
        Workload(
            name="codec-roundtrip",
            args=demo_args,
            warmup_args=lambda seed: demo_args(seed, 0),
            check=check_demo,
            digest_ops=64,
            traced_op_s=0.005,
            trials_per_op=0,
        ),
    )
}
