"""Reproducible Monte Carlo verification of the full encode/decode loop.

Randomness comes from a counter-based Philox generator keyed by the master
seed. Trial t owns the two counter blocks 2t and 2t+1, i.e. the fixed
8-uniform slice [8t, 8t+8) of the stream, so any chunked or parallel
execution reproduces the same trials bit for bit. Slot layout per trial:

    0, 1  polar/azimuth uniforms for qubit 1
    2, 3  polar/azimuth uniforms for qubit 2
    4     encoding outcome sample
    5     target choice (consumed only by the random policy)
    6     decode success/failure sample
    7     reserved (keeps trials aligned to whole Philox blocks)

The per-trial mathematics below is a vectorized transcription of the
scalar codec operations; the test suite checks the two paths trial by
trial against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codec import intact_block
from .states import BlochAngles

UNIFORMS_PER_TRIAL = 8
_BLOCKS_PER_TRIAL = UNIFORMS_PER_TRIAL // 4  # Philox yields 4 values per block

TARGET_POLICIES = ("always-1", "always-2", "alternate", "random")

_MAX_SEED = 2**64 - 1


@dataclass(frozen=True)
class TrialConfig:
    """How many trials to run, from which seed, decoding which qubit."""

    trials: int
    master_seed: int = 0
    target_policy: str = "always-1"

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        if not 0 <= self.master_seed <= _MAX_SEED:
            raise ValueError(f"master_seed must be a 64-bit integer, got {self.master_seed}")
        if self.target_policy not in TARGET_POLICIES:
            raise ValueError(
                f"target_policy must be one of {TARGET_POLICIES}, got {self.target_policy!r}"
            )


@dataclass(frozen=True)
class TrialStats:
    """Aggregated counters and fidelity extremes of one batch of trials."""

    trials: int
    outcome_counts: tuple[int, int, int, int]
    success_count: int
    failure_count: int
    min_success_fidelity: float | None
    mean_success_rate: float
    standard_error: float


def sample_bloch(u1: float, u2: float) -> BlochAngles:
    """Angles of a uniformly random qubit by inverse CDF.

    theta = arccos(1 - 2 u1) realizes the (1/2) sin(theta) polar density
    exactly and branch-free; phi is uniform on [0, 2 pi).
    """
    return BlochAngles(theta=math.acos(1.0 - 2.0 * u1), phi=2.0 * math.pi * u2)


def trial_uniforms(master_seed: int, start: int, count: int) -> np.ndarray:
    """Uniform slab for trials [start, start + count), one row per trial.

    Row t - start holds trial t's 8-uniform stream, addressed directly by
    the Philox counter, so slabs taken at different offsets tile the same
    global sequence.
    """
    bit_generator = np.random.Philox(
        key=master_seed, counter=[_BLOCKS_PER_TRIAL * start, 0, 0, 0]
    )
    return np.random.Generator(bit_generator).random((count, UNIFORMS_PER_TRIAL))


def _targets(policy: str, start: int, count: int, u_target: np.ndarray) -> np.ndarray:
    if policy == "always-1":
        return np.ones(count, dtype=np.int64)
    if policy == "always-2":
        return np.full(count, 2, dtype=np.int64)
    if policy == "alternate":
        return 1 + (start + np.arange(count, dtype=np.int64)) % 2
    return np.where(u_target < 0.5, 1, 2)


# intact register-index blocks as an array lookup: [outcome, target - 1].
# Blocks are ascending pairs whose members differ only in the target bit,
# so the first entry always carries target bit 0 (checked by the tests).
_INTACT = np.array(
    [[intact_block(j, a) for a in (1, 2)] for j in range(4)], dtype=np.int64
)


def _run_chunk(u: np.ndarray, start: int, policy: str):
    """Vectorized encode/decode for one slab of trial uniforms."""
    count = u.shape[0]
    theta1 = np.arccos(1.0 - 2.0 * u[:, 0])
    phi1 = 2.0 * np.pi * u[:, 1]
    theta2 = np.arccos(1.0 - 2.0 * u[:, 2])
    phi2 = 2.0 * np.pi * u[:, 3]

    qubit1 = np.stack(
        [np.cos(theta1 / 2), np.exp(1j * phi1) * np.sin(theta1 / 2)], axis=1
    )
    qubit2 = np.stack(
        [np.cos(theta2 / 2), np.exp(1j * phi2) * np.sin(theta2 / 2)], axis=1
    )
    register = np.empty((count, 4), dtype=np.complex128)
    for k in range(4):
        register[:, k] = qubit1[:, k & 1] * qubit2[:, (k >> 1) & 1]

    weights = np.abs(register) ** 2
    probabilities = (1.0 - weights) / 3.0
    cumulative = np.cumsum(probabilities, axis=1)
    u_encode = u[:, 4]
    outcome = (cumulative > u_encode[:, None]).argmax(axis=1)
    # rounding can leave the cumulative total just below u; those trials
    # take the last outcome, mirroring the scalar sampler's fallback
    outcome = np.where(cumulative[:, 3] > u_encode, outcome, 3)

    target = _targets(policy, start, count, u[:, 5])

    rows = np.arange(count)
    block = _INTACT[outcome, target - 1]  # (count, 2) register indices
    block_weight = weights[rows, block[:, 0]] + weights[rows, block[:, 1]]
    # the three surviving weights, not 1 - |c_j|^2, which loses every digit
    # near a pole; the third survivor differs from j only in the target's
    # bit, 1 << (target - 1), which equals the target for targets 1 and 2
    survivor_weight = block_weight + weights[rows, outcome ^ target]
    p_success = block_weight / survivor_weight
    success = u[:, 6] < p_success

    # Reconstructed qubit on success: the intact block's amplitudes share
    # the other qubit's factor, so after normalization they reproduce the
    # target qubit exactly; compute the fidelity honestly anyway.
    amp_low = register[rows, block[:, 0]]
    amp_high = register[rows, block[:, 1]]
    norm = np.sqrt(np.abs(amp_low) ** 2 + np.abs(amp_high) ** 2)
    safe_norm = np.where(norm > 0.0, norm, 1.0)
    target_state = np.where((target == 1)[:, None], qubit1, qubit2)
    overlap = (
        np.conj(target_state[:, 0]) * amp_low
        + np.conj(target_state[:, 1]) * amp_high
    ) / safe_norm
    fidelity = np.abs(overlap) ** 2

    counts = np.bincount(outcome, minlength=4)
    success_fidelities = fidelity[success]
    return counts, int(success.sum()), success_fidelities


def run_trials(config: TrialConfig, chunk_size: int = 1 << 17) -> TrialStats:
    """Run the configured trials and aggregate deterministic statistics.

    Chunks are processed in ascending trial order and every reduction
    (counts, minima, numpy pairwise sums) is order-fixed, so the result is
    identical for any chunk size and across reruns.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    counts = np.zeros(4, dtype=np.int64)
    success_count = 0
    min_fidelity: float | None = None
    for start in range(0, config.trials, chunk_size):
        count = min(chunk_size, config.trials - start)
        u = trial_uniforms(config.master_seed, start, count)
        chunk_counts, chunk_success, success_fidelities = _run_chunk(
            u, start, config.target_policy
        )
        counts += chunk_counts
        success_count += chunk_success
        if success_fidelities.size:
            chunk_min = float(success_fidelities.min())
            min_fidelity = (
                chunk_min if min_fidelity is None else min(min_fidelity, chunk_min)
            )
    rate = success_count / config.trials
    return TrialStats(
        trials=config.trials,
        outcome_counts=tuple(int(c) for c in counts),
        success_count=success_count,
        failure_count=config.trials - success_count,
        min_success_fidelity=min_fidelity,
        mean_success_rate=rate,
        standard_error=math.sqrt(rate * (1.0 - rate) / config.trials),
    )
