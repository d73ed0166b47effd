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

Statistics use only real products of the exact per-qubit weights 1 - u
and u; fidelity goes through the decode level map, apart from the
intact-block table that decides success.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codec import carried_index, decode_levels, intact_block
from .states import BlochAngles

UNIFORMS_PER_TRIAL = 8
_BLOCKS_PER_TRIAL = UNIFORMS_PER_TRIAL // 4  # Philox yields 4 values per block

TARGET_POLICIES = ("always-1", "always-2", "alternate", "random")

_MAX_SEED = 2**64 - 1
# trials per kernel call: 64 KiB float arrays, below glibc's smallest mmap
# threshold, are reused from the heap and stay in cache, not faulted in anew
_KERNEL_TRIALS = 1 << 13


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

    sin^2(theta/2) = u1 gives the (1/2) sin(theta) polar density, and the
    half-angle arctangent keeps it to rounding at both poles; phi = 2 pi u2.
    """
    half = math.atan2(math.sqrt(u1), math.sqrt(1.0 - u1))
    return BlochAngles(theta=2.0 * half, phi=2.0 * math.pi * u2)


def trial_uniforms(master_seed: int, start: int, count: int) -> np.ndarray:
    """Uniform slab for trials [start, start + count), one row per trial.

    Row t - start holds trial t's 8-uniform stream, addressed directly by
    the Philox counter, so slabs taken at different offsets tile the same
    global sequence.
    """
    return _philox(master_seed, start).random((count, UNIFORMS_PER_TRIAL))


def _philox(master_seed: int, start: int) -> np.random.Generator:
    """Generator positioned at trial `start`'s first counter block.

    Every trial takes whole Philox blocks, so consecutive draws continue at
    the next trial's counter and fill consecutive slabs.
    """
    bit_generator = np.random.Philox(
        key=master_seed, counter=[_BLOCKS_PER_TRIAL * start, 0, 0, 0]
    )
    return np.random.Generator(bit_generator)


def _targets(policy: str, start: int, count: int, u_target: np.ndarray) -> np.ndarray:
    if policy == "always-1":
        return np.ones(count, dtype=np.int64)
    if policy == "always-2":
        return np.full(count, 2, dtype=np.int64)
    if policy == "alternate":
        return 1 + (start + np.arange(count, dtype=np.int64)) % 2
    return np.where(u_target < 0.5, 1, 2)


def _decoded_indices(outcome: int, target: int) -> list[int]:
    """Register indices that decode_branch reads as logical |0> and |1>."""
    return [carried_index(level, outcome) for level in decode_levels(outcome, target)[0]]


# [outcome, target - 1] -> a pair of register indices: the intact block,
# whose weight decides success, and the decode level map (logical |0>, |1>)
_INTACT, _LEVELS = (
    np.array([[pair(j, a) for a in (1, 2)] for j in range(4)], dtype=np.int64)
    for pair in (intact_block, _decoded_indices)
)


def _run_chunk(u: np.ndarray, start: int, policy: str):
    """Vectorized encode/decode for one slab of trial uniforms."""
    count = u.shape[0]
    factors = np.empty((2, 2, count))  # [qubit - 1, bit]: (1 - u, u)
    factors[:, 1] = u[:, 0:3:2].T
    np.subtract(1.0, factors[:, 1], out=factors[:, 0])
    # |c_k|^2 for k = b1 + 2*b2, laid out [b2, b1]
    weights = factors[1][:, None] * factors[0]
    # each outcome's survivors as a sum of nonnegative terms: its partner in
    # the same qubit-2 pair plus the other pair
    survivors = (weights[:, ::-1] + weights.sum(axis=1)[::-1, None]).reshape(4, count)

    cumulative = survivors[:3] / 3.0
    cumulative[1] += cumulative[0]
    cumulative[2] += cumulative[1]
    # the first outcome whose cumulative weight exceeds u; an outcome with
    # no surviving weight adds nothing to the cumulative and is never chosen
    outcome = np.count_nonzero(cumulative <= u[:, 4], axis=0)

    target = _targets(policy, start, count, u[:, 5])

    # a table's [outcome, target - 1] is row `key` of its (8, 2) reshape;
    # register index k of trial t sits at k * count + t in weights and survivors
    key = 2 * outcome + target - 1
    rows = np.arange(count)
    flat_w = weights.ravel()
    lo, hi = np.take(_INTACT.reshape(8, 2), key, axis=0).T * count + rows
    block_weight = flat_w[lo] + flat_w[hi]
    success = u[:, 6] < block_weight / survivors.ravel()[outcome * count + rows]

    # Fidelity with the target qubit, in closed form on the amplitudes that
    # the decode level map puts on logical |0> and |1>
    won = np.flatnonzero(success)
    lo, hi = np.take(_LEVELS.reshape(8, 2), key[won], axis=0).T
    w_lo, w_hi = flat_w[lo * count + won], flat_w[hi * count + won]
    slot = UNIFORMS_PER_TRIAL * won
    polar_slot = slot + 2 * target[won] - 2  # the target's azimuth follows
    polar, azimuth, turns1, turns2 = (
        u.ravel()[at] for at in (polar_slot, polar_slot + 1, slot + 1, slot + 3)
    )
    # register index k = b1 + 2*b2 carries the phase turns1 * b1 + turns2 * b2
    delta = turns1 * ((hi & 1) - (lo & 1)) + turns2 * ((hi >> 1) - (lo >> 1)) - azimuth
    cross = np.sqrt((1.0 - polar) * polar * w_lo * w_hi) * np.cos(2.0 * np.pi * delta)
    fidelity = ((1.0 - polar) * w_lo + polar * w_hi + 2.0 * cross) / (w_lo + w_hi)

    counts = np.bincount(outcome, minlength=4)
    return counts, won.size, fidelity


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
    block_minima = []  # of the fidelities of successful trials
    generator = _philox(config.master_seed, 0)
    # one slab for every chunk, so its pages are faulted in once per call
    slab = np.empty((min(chunk_size, config.trials), UNIFORMS_PER_TRIAL))
    for start in range(0, config.trials, chunk_size):
        count = min(chunk_size, config.trials - start)
        u = generator.random(out=slab[:count])
        for offset in range(0, count, _KERNEL_TRIALS):
            block_counts, block_success, success_fidelities = _run_chunk(
                u[offset : offset + _KERNEL_TRIALS], start + offset, config.target_policy
            )
            counts += block_counts
            success_count += block_success
            if success_fidelities.size:
                block_minima.append(float(success_fidelities.min()))
    rate = success_count / config.trials
    return TrialStats(
        trials=config.trials,
        outcome_counts=tuple(int(c) for c in counts),
        success_count=success_count,
        failure_count=config.trials - success_count,
        min_success_fidelity=min(block_minima) if block_minima else None,
        mean_success_rate=rate,
        standard_error=math.sqrt(rate * (1.0 - rate) / config.trials),
    )
