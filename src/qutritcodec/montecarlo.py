"""Reproducible Monte Carlo verification of the full encode/decode loop.

Randomness comes from a counter-based Philox4x64-10 generator keyed by the
master seed, read as raw 64-bit words (Salmon et al., SC'11). Trial t owns
one counter block, `stream._block(t + 1, seed)` (the counter is incremented
before each block), i.e. the words [4t, 4t+4) of the stream, so any split of
the trial range reproduces the same trials bit for bit. `run_trials` relies
on that to run the upper half of a large batch in a forked child, which
writes its record into a page shared with the parent. A record is five
integer counts, summed per block and per half alike. Words per trial:

    0  polar uniform of qubit 1
    1  polar uniform of qubit 2
    2  encoding outcome sample
    3  decode success/failure sample

A word w gives the uniform (w >> 11) * 2**-53, as `stream.uniforms` does.
The `random` policy decodes qubit 1 + (w & 1) of the decode word, a bit that
its uniform drops. The kernel only counts: outcomes and successes, from real
products of the exact per-qubit weights 1 - u and u, so no azimuth is drawn.
Whether a successful decode reconstructs the qubit is checked on the scalar
codec (`verify`'s `scalar_min_success_fidelity` row), not here.
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

WORDS_PER_TRIAL = 4  # one Philox4x64 block

# trials per kernel call: its arrays stay few enough KiB that glibc reuses
# them from the heap, in cache. Larger blocks free more at each return, and
# glibc trims it and faults it in anew: serial 10^6 trials took 102 minor
# faults at 2^11, 28678 at 2^12 and 32635 at 2^13 (2-vCPU Xeon, glibc 2.36,
# numpy 2.4.6)
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


def _philox(master_seed: int, start: int) -> np.random.Philox:
    """Philox whose next block is trial `start`'s; each trial takes one whole
    block, so consecutive draws continue at the next trial's words."""
    return np.random.Philox(key=master_seed, counter=[start, 0, 0, 0])


def _targets(policy: str, start: int, decode_words: np.ndarray) -> np.ndarray:
    """The qubit each trial from `start` on decodes, as int64."""
    count = decode_words.shape[0]
    if policy == "always-1":
        return np.ones(count, dtype=np.int64)
    if policy == "always-2":
        return np.full(count, 2, dtype=np.int64)
    if policy == "alternate":
        return 1 + (start + np.arange(count, dtype=np.int64)) % 2
    return 1 + (decode_words & 1).astype(np.int64)  # a bit the decode uniform drops


# [outcome, target - 1] -> the intact block, whose weight decides success; the
# kernel only sums its two weights, so unlike `codec.decode_levels` it needs no order
_INTACT = np.array([[intact_block(j, a) for a in (1, 2)] for j in range(4)], dtype=np.int64)


def _run_chunk(u: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Vectorized encode/decode for one block of trials, given each trial's
    four uniforms and the qubit it decodes: the four outcome counts, then
    the success count, as one int64 array."""
    count = u.shape[0]
    factors = np.empty((2, 2, count))  # [qubit - 1, bit]: (1 - u, u)
    factors[:, 1] = u[:, :2].T
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
    outcome = np.add(cumulative[0] <= u[:, 2], cumulative[1] <= u[:, 2], dtype=np.intp)
    outcome += cumulative[2] <= u[:, 2]

    # a table's [outcome, target - 1] is row `key` of its (8, 2) reshape;
    # register index k of trial t sits at k * count + t in weights and survivors
    key = 2 * outcome + target - 1
    rows = np.arange(count)
    flat_w = weights.ravel()
    lo, hi = np.take(_INTACT.reshape(8, 2), key, axis=0).T
    block_weight = flat_w[lo * count + rows] + flat_w[hi * count + rows]
    success = u[:, 3] < block_weight / survivors.ravel()[outcome * count + rows]

    return np.append(np.bincount(outcome, minlength=4), np.count_nonzero(success))


def _run_range(master_seed: int, policy: str, begin: int, end: int) -> np.ndarray:
    """Trials [begin, end) in ascending blocks, as one record: the four
    outcome counts, then the success count."""
    record = np.zeros(5, dtype=np.int64)
    bit_generator = _philox(master_seed, begin)
    for start in range(begin, end, _KERNEL_TRIALS):
        words = bit_generator.random_raw((min(_KERNEL_TRIALS, end - start), WORDS_PER_TRIAL))
        u = (words >> 11) * 2.0**-53  # as `stream.uniforms` converts
        record += _run_chunk(u, _targets(policy, start, words[:, 3]))
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
