"""Reproducible Monte Carlo verification of the full encode/decode loop.

Randomness comes from a counter-based Philox generator keyed by the master
seed. Trial t owns the two counter blocks 2t and 2t+1, i.e. the fixed
8-uniform slice [8t, 8t+8) of the stream, so any split of the trial range
reproduces the same trials bit for bit. `run_trials` relies on that to run
the upper half of a large batch in a forked child, which writes its record
into a page shared with the parent. `_merged` sums two records' counts and
keeps the exact minimum, per block and per half alike. Slot layout per trial:

    0, 1  polar/azimuth uniforms for qubit 1
    2, 3  polar/azimuth uniforms for qubit 2
    4     encoding outcome sample
    5     target choice (consumed only by the random policy)
    6     decode success/failure sample
    7     reserved (keeps trials aligned to whole Philox blocks)

Statistics use only real products of the exact per-qubit weights 1 - u
and u. One table of intact blocks both decides success and, target bit 0
first, names the register indices that a successful decode reads as
logical |0> and |1>; the two differ only in the target's bit, so the
fidelity needs no azimuth uniform, though every trial still draws both.
"""

from __future__ import annotations

import math
import mmap
import operator
import os
import struct
import threading
from dataclasses import dataclass

import numpy as np

from .codec import intact_block

UNIFORMS_PER_TRIAL = 8
_BLOCKS_PER_TRIAL = UNIFORMS_PER_TRIAL // 4  # Philox yields 4 values per block

TARGET_POLICIES = ("always-1", "always-2", "alternate", "random")

MAX_SEED = 2**64 - 1
# trials per kernel call: 64 KiB float arrays, below glibc's smallest mmap
# threshold, are reused from the heap and stay in cache, not faulted in anew
_KERNEL_TRIALS = 1 << 13
# batches of this many blocks or more are split over two processes: below
# 2^18 trials, fork and waitpid (about 2.5 ms in a 50 MB process) eat the gain
_SPLIT_BLOCKS = 32
# the forked half's record in the shared page: outcome counts, successes, least fidelity
_RECORD = struct.Struct("<5qd")


@dataclass(frozen=True)
class TrialStats:
    """Aggregated counters and fidelity extremes of one batch of trials."""

    trials: int
    outcome_counts: tuple[int, int, int, int]
    success_count: int
    min_success_fidelity: float | None

    @property
    def mean_success_rate(self) -> float:
        return self.success_count / self.trials


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


# [outcome, target - 1] -> the intact block, whose weight decides success and
# whose indices, target bit 0 first, a successful decode reads as logical |0>, |1>
_INTACT = np.array([[intact_block(j, a) for a in (1, 2)] for j in range(4)], dtype=np.int64)


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
    # the first outcome whose cumulative weight exceeds u is the count of those
    # at or below u; an outcome with no surviving weight is never chosen
    outcome = np.add(cumulative[0] <= u[:, 4], cumulative[1] <= u[:, 4], dtype=np.intp)
    outcome += cumulative[2] <= u[:, 4]

    target = _targets(policy, start, count, u[:, 5])

    # a table's [outcome, target - 1] is row `key` of its (8, 2) reshape;
    # register index k of trial t sits at k * count + t in weights and survivors
    key = 2 * outcome + target - 1
    rows = np.arange(count)
    flat_w = weights.ravel()
    lo, hi = np.take(_INTACT.reshape(8, 2), key, axis=0).T
    w_lo, w_hi = flat_w[lo * count + rows], flat_w[hi * count + rows]
    block_weight = w_lo + w_hi
    success = u[:, 6] < block_weight / survivors.ravel()[outcome * count + rows]

    # Fidelity with the target qubit, in closed form on the weights the intact
    # block puts on logical |0> and |1>; they differ only in the target's bit,
    # so the decoded relative phase, the target's azimuth minus itself, is 0.0
    won = np.flatnonzero(success)
    w_lo, w_hi = w_lo[won], w_hi[won]
    polar = u.ravel()[UNIFORMS_PER_TRIAL * won + 2 * target[won] - 2]  # slot 0 or 2
    cross = np.sqrt((1.0 - polar) * polar * w_lo * w_hi)
    fidelity = ((1.0 - polar) * w_lo + polar * w_hi + 2.0 * cross) / block_weight[won]

    counts = np.bincount(outcome, minlength=4)
    return counts, won.size, fidelity


def _merged(a: tuple, b: tuple) -> tuple:
    """One record of two, exact under any split: counts summed, least fidelity kept."""
    return (*(x + y for x, y in zip(a[:5], b[:5])), min(a[5], b[5]))


def _run_range(master_seed: int, policy: str, begin: int, end: int) -> tuple:
    """Trials [begin, end) in ascending blocks, as one record: the four
    outcome counts, the success count and the least fidelity of a successful
    trial (inf when none succeeds)."""
    record = (0, 0, 0, 0, 0, math.inf)
    generator = _philox(master_seed, begin)
    # one slab for every block, so its pages are faulted in once per call
    slab = np.empty((min(_KERNEL_TRIALS, end - begin), UNIFORMS_PER_TRIAL))
    for start in range(begin, end, _KERNEL_TRIALS):
        u = generator.random(out=slab[: min(_KERNEL_TRIALS, end - start)])
        counts, successes, fidelity = _run_chunk(u, start, policy)
        block = (*counts.tolist(), successes, float(fidelity.min(initial=math.inf)))
        record = _merged(record, block)
    return record


class WorkerError(RuntimeError):
    """The forked half of a split batch did not write its record."""


def _run_split(master_seed: int, policy: str, mid: int, end: int) -> tuple:
    """Trials [mid, end) in a forked child and [0, mid) here, merged. The child
    is always reaped, killed first if this half raises, and read only if it exits 0."""
    with mmap.mmap(-1, _RECORD.size) as page:  # anonymous, shared with the child
        try:
            pid = os.fork()
        except OSError:  # no process to spare: both halves run here
            return _run_range(master_seed, policy, 0, end)
        if pid == 0:
            status = 1
            try:
                _RECORD.pack_into(page, 0, *_run_range(master_seed, policy, mid, end))
                status = 0
            finally:
                os._exit(status)
        try:
            head = _run_range(master_seed, policy, 0, mid)
        except BaseException:
            import signal  # only a failed half needs it

            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if code != 0:
            raise WorkerError(f"Monte Carlo worker process exited with status {code}")
        return _merged(head, _RECORD.unpack_from(page))


def run_trials(trials: int, master_seed: int = 0, target_policy: str = "always-1") -> TrialStats:
    """Run `trials` trials from `master_seed`, each decoding the qubit that
    `target_policy` names, and aggregate deterministic statistics.

    A batch of at least `_SPLIT_BLOCKS` blocks runs its upper half, from a
    block boundary near the middle, in one forked child process, so that it
    uses two cores; a smaller batch, a platform without `os.fork`, a process
    allowed one CPU and a process with other Python threads stay serial.
    Each half processes its blocks in ascending order and every reduction
    (counts, minima, numpy pairwise sums within a block) is order-fixed, so
    the result is identical for any block size, any split and across reruns.
    Raises `WorkerError` if the child fails.
    """
    if operator.index(trials) < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if not 0 <= operator.index(master_seed) <= MAX_SEED:
        raise ValueError(f"master_seed must be a 64-bit integer, got {master_seed}")
    if target_policy not in TARGET_POLICIES:
        raise ValueError(f"target_policy must be one of {TARGET_POLICIES}, got {target_policy!r}")
    if (
        trials < _SPLIT_BLOCKS * _KERNEL_TRIALS
        or not hasattr(os, "fork")
        # on one allowed CPU the halves take turns: 0.724 s split against 0.704 s
        # serial for 4 x 10^6 trials on a 2-vCPU host
        or hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) < 2
        # a forked child holds only the calling thread; another thread's
        # locks would stay held in it for good. Python threads are the only
        # ones to count: numpy's OpenBLAS stops its helper thread before a
        # fork (2 OS threads to 1 across os.fork() with numpy 2.4.6)
        or threading.active_count() > 1
    ):
        record = _run_range(master_seed, target_policy, 0, trials)
    else:
        blocks = -(-trials // _KERNEL_TRIALS)
        record = _run_split(master_seed, target_policy, blocks // 2 * _KERNEL_TRIALS, trials)
    *counts, success_count, min_fidelity = record
    return TrialStats(
        trials=trials,
        outcome_counts=tuple(counts),
        success_count=success_count,
        min_success_fidelity=None if min_fidelity == math.inf else min_fidelity,
    )
