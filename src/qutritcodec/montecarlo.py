"""Reproducible Monte Carlo verification of the full encode/decode loop.

Randomness comes from a counter-based Philox generator keyed by the master
seed. Trial t owns the two counter blocks 2t and 2t+1, i.e. the fixed
8-uniform slice [8t, 8t+8) of the stream, so any split of the trial range
reproduces the same trials bit for bit. `run_trials` relies on that to run
the upper half of a large batch in a forked child, which writes its record
into a page shared with the parent. A record is five integer counts, summed
per block and per half alike. Slot layout per trial:

    0, 1  polar/azimuth uniforms for qubit 1
    2, 3  polar/azimuth uniforms for qubit 2
    4     encoding outcome sample
    5     target choice (consumed only by the random policy)
    6     decode success/failure sample
    7     reserved (keeps trials aligned to whole Philox blocks)

The kernel only counts: outcomes and successes, from real products of the
exact per-qubit weights 1 - u and u, so it never reads an azimuth uniform,
though every trial still draws both. Whether a successful decode
reconstructs the qubit is checked on the scalar codec (`verify`'s
`scalar_min_success_fidelity` row), not here.
"""

from __future__ import annotations

import mmap
import operator
import os
import struct
import threading
from typing import NamedTuple

import numpy as np

from .codec import intact_block
from .stream import MAX_SEED, TARGET_POLICIES

UNIFORMS_PER_TRIAL = 8
_BLOCKS_PER_TRIAL = UNIFORMS_PER_TRIAL // 4  # Philox yields 4 values per block

# trials per kernel call: its arrays stay few enough KiB that glibc reuses
# them from the heap, in cache. At 2^13 the ~1.5 MB freed at each return was
# trimmed and faulted in anew: 11343 page faults per 2.5 x 10^5 trials, not
# 168, and 35 ms, not 23 (2-vCPU Xeon, glibc 2.36, numpy 2.4.6)
_KERNEL_TRIALS = 1 << 11
# batches of this many blocks or more are split over two processes: below
# 2^18 trials, fork and waitpid (about 2.5 ms in a 50 MB process) eat the gain
_SPLIT_BLOCKS = 128
# the forked half's record in the shared page: the four outcome counts, then successes
_RECORD = struct.Struct("<5q")


class TrialStats(NamedTuple):
    """Aggregated counters of one batch of trials."""

    trials: int
    outcome_counts: tuple[int, int, int, int]
    success_count: int

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


# [outcome, target - 1] -> the intact block, whose weight decides success; the
# kernel only sums its two weights, so unlike `codec.decode_levels` it needs no order
_INTACT = np.array([[intact_block(j, a) for a in (1, 2)] for j in range(4)], dtype=np.int64)


def _run_chunk(u: np.ndarray, start: int, policy: str) -> np.ndarray:
    """Vectorized encode/decode for one slab of trial uniforms: the four
    outcome counts, then the success count, as one int64 array."""
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
    block_weight = flat_w[lo * count + rows] + flat_w[hi * count + rows]
    success = u[:, 6] < block_weight / survivors.ravel()[outcome * count + rows]

    return np.append(np.bincount(outcome, minlength=4), np.count_nonzero(success))


def _run_range(master_seed: int, policy: str, begin: int, end: int) -> np.ndarray:
    """Trials [begin, end) in ascending blocks, as one record: the four
    outcome counts, then the success count."""
    record = np.zeros(5, dtype=np.int64)
    generator = _philox(master_seed, begin)
    # one slab for every block, so its pages are faulted in once per call
    slab = np.empty((min(_KERNEL_TRIALS, end - begin), UNIFORMS_PER_TRIAL))
    for start in range(begin, end, _KERNEL_TRIALS):
        u = generator.random(out=slab[: min(_KERNEL_TRIALS, end - start)])
        record += _run_chunk(u, start, policy)
    return record


def _run_split(master_seed: int, policy: str, mid: int, end: int) -> np.ndarray:
    """Trials [mid, end) in a forked child and [0, mid) here, merged. The child
    is always reaped, killed first if this half or the wait raises, and read
    only if it exits 0; a half it does not deliver runs here, as when the fork fails."""
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
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        except BaseException:  # this half failed, or an interrupt cut the wait short
            import signal  # only a failed half or wait needs it

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        tail = _RECORD.unpack_from(page) if code == 0 else _run_range(master_seed, policy, mid, end)
        return head + tail


def run_trials(trials: int, master_seed: int = 0, target_policy: str = "always-1") -> TrialStats:
    """Run `trials` trials from `master_seed`, each decoding the qubit that
    `target_policy` names, and aggregate deterministic statistics.

    A batch of at least `_SPLIT_BLOCKS` blocks runs its upper half, from a
    block boundary near the middle, in one forked child process, so that it
    uses two cores; a smaller batch, a platform without `os.fork`, a process
    allowed one CPU and a process with other Python threads stay serial.
    Each half processes its blocks in ascending order and every reduction
    (integer counts, numpy pairwise sums within a block) is order-fixed, so
    the result is identical for any block size, any split and across reruns.
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
    *counts, success_count = record.tolist()
    return TrialStats(trials, tuple(counts), success_count)
