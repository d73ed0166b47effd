"""Seeded Monte Carlo harness: stream addressing, determinism, statistics."""

from __future__ import annotations

import math
import mmap
import os
import signal
import sys
import threading
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qutritcodec import TrialStats, decode, encode, run_trials
from qutritcodec.codec import decode_levels, intact_block, qubit_bit, survivors
from qutritcodec import montecarlo, stream
from qutritcodec.montecarlo import WORDS_PER_TRIAL, _philox, _run_chunk
from conftest import intact_pair, invoke, sample_bloch, unit_interval
from test_golden import CASES, _assert_pinned, _printed


class TestSampleBloch:
    def test_inverse_cdf_endpoints(self):
        assert sample_bloch(0.0, 0.0).theta == 0.0
        assert sample_bloch(0.5, 0.0).theta == pytest.approx(math.pi / 2, abs=1e-15)

    def test_phase_is_scaled_uniform(self):
        assert sample_bloch(0.0, 0.25).phi == pytest.approx(math.pi / 2, abs=1e-15)

    def test_polar_mean_on_a_stratified_grid(self):
        grid = (np.arange(10_000) + 0.5) / 10_000
        mean_cos = np.mean([math.cos(sample_bloch(float(u), 0.0).theta) for u in grid])
        assert abs(mean_cos) <= 2e-3
        # the kernel weighs qubits by sin^2(theta/2) = u exactly; the sampler
        # keeps that identity to a few ulps, also at the smallest uniforms
        for u in [*grid[::1009], *(k * 2.0**-53 for k in range(1, 65)), 1e-13]:
            half = sample_bloch(float(u), 0.0).theta / 2
            assert math.sin(half) ** 2 == pytest.approx(u, rel=4 * sys.float_info.epsilon, abs=0)


class TestTrialWords:
    def test_offset_ranges_tile_the_stream(self):
        whole = _philox(123, 0).random_raw((1000, WORDS_PER_TRIAL))
        parts = np.vstack(
            [_philox(123, start).random_raw((250, WORDS_PER_TRIAL)) for start in (0, 250, 500, 750)]
        )
        np.testing.assert_array_equal(whole, parts)

    @pytest.mark.parametrize("seed", [0, 123, 2**64 - 1])
    def test_trial_words_are_the_plain_python_blocks(self, seed):
        # trial t reads block t + 1: the counter is incremented before each block
        for start in (0, 1, 2047, 2048):
            words = _philox(seed, start).random_raw((2, WORDS_PER_TRIAL)).tolist()
            assert words == [list(stream._block(start + t + 1, seed)) for t in (0, 1)]

    def test_seed_changes_the_stream(self):
        assert not np.array_equal(_philox(0, 0).random_raw(4), _philox(1, 0).random_raw(4))

    def test_one_bit_generator_draws_consecutive_blocks(self):
        # run_trials draws every block of a range from one bit generator
        for seed in (0, 123, 2**64 - 1):
            bit_generator = _philox(seed, 0)
            start = 0
            for count in (300, 7, 300, 61):
                words = bit_generator.random_raw((count, WORDS_PER_TRIAL))
                expected = _philox(seed, start).random_raw((count, WORDS_PER_TRIAL))
                np.testing.assert_array_equal(words, expected)
                start += count


class TestDeterminism:
    def test_reruns_are_bit_identical(self):
        config = dict(trials=20_000, master_seed=99, target_policy="random")
        assert run_trials(**config) == run_trials(**config)

    def test_chunk_size_does_not_matter(self, monkeypatch):
        # every block size here ends the 20000 trials in a short block
        stats = run_trials(20_000, master_seed=5, target_policy="alternate")
        for kernel_trials in (999, 4096):
            monkeypatch.setattr(montecarlo, "_KERNEL_TRIALS", kernel_trials)
            assert run_trials(20_000, master_seed=5, target_policy="alternate") == stats

    def test_single_trial(self):
        stats = run_trials(1, master_seed=0)
        assert stats == run_trials(1, master_seed=0)
        assert sum(stats.outcome_counts) == 1
        assert stats.success_count in (0, 1)


def scalar_trials(seed: int, policy: str, begin: int, end: int) -> list[int]:
    """Trials [begin, end) rebuilt from the plain-Python Philox blocks through
    the scalar codec, as a record: the four outcome counts, then successes."""
    record = [0, 0, 0, 0, 0]
    for t in range(begin, end):
        words = stream._block(t + 1, seed)
        polar1, polar2, u_encode, u_decode = ((word >> 11) * 2.0**-53 for word in words)
        # no azimuth is drawn, and none changes a count
        pair = sample_bloch(polar1, 0.0), sample_bloch(polar2, 0.0)
        encoded = encode(pair, u_encode)
        record[encoded.outcome] += 1
        target = {
            "always-1": 1,
            "always-2": 2,
            "alternate": 1 + t % 2,
            "random": 1 + (words[3] & 1),
        }[policy]
        _, reconstructed = decode(encoded.qutrit, encoded.outcome, target, u_decode)
        record[4] += reconstructed is not None
    return record


class TestAgainstScalarPipeline:
    @pytest.mark.parametrize(
        "trials, seed, policy",
        [
            *(pytest.param(200, 31415, policy, id=policy)
              for policy in ("always-1", "always-2", "alternate", "random")),
            pytest.param(1, 0, "always-1", id="one-trial"),
        ],
    )
    def test_vectorized_trials_match_scalar_codec(self, trials, seed, policy):
        record = scalar_trials(seed, policy, 0, trials)
        assert run_trials(trials, seed, policy) == TrialStats(trials, tuple(record[:4]), record[4])

    @pytest.mark.parametrize("policy", montecarlo.TARGET_POLICIES)
    def test_a_range_across_a_block_boundary_matches_scalar_codec(self, monkeypatch, policy):
        # an odd start, so that `alternate` begins at qubit 2, and blocks of
        # 64 trials, so that the range's second block starts at trial 1065
        monkeypatch.setattr(montecarlo, "_KERNEL_TRIALS", 64)
        record = montecarlo._run_range(2**64 - 1, policy, 1001, 1101)
        assert record.tolist() == scalar_trials(2**64 - 1, policy, 1001, 1101)


def exact_weights(polar1: float, polar2: float) -> list[Fraction]:
    """|c_k|^2 as exact rationals of the kernel's two polar uniforms."""
    qubit1 = (1 - Fraction(polar1), Fraction(polar1))
    qubit2 = (1 - Fraction(polar2), Fraction(polar2))
    return [qubit1[k & 1] * qubit2[k >> 1] for k in range(4)]


# the stream's uniforms are multiples of 2**-53, so register weights
# never fall below the normal range, where products would lose digits
generated_uniform = st.integers(0, 2**53 - 1).map(lambda k: k * 2.0**-53)
_ULPS = st.integers(1, 64).map(lambda k: k * 2.0**-53)
# polar uniforms at and near both poles: 0, the extreme doubles k * 2**-53
# and 1 - k * 2**-53, and log-uniform distances from either pole
near_pole_uniform = st.one_of(
    st.just(0.0),
    _ULPS,
    _ULPS.map(lambda x: 1.0 - x),
    st.floats(-19.0, -5.0).map(lambda e: 10.0**e),
    st.floats(-15.0, -5.0).map(lambda e: 1.0 - 10.0**e),
)


@given(
    polar1=near_pole_uniform,
    polar2=st.one_of(near_pole_uniform, generated_uniform),
    # 0 selects the lowest-index outcome with nonzero weight, which near a
    # pole is the branch whose survivors are all tiny
    u_encode=st.one_of(st.just(0.0), unit_interval),
    target=st.sampled_from([1, 2]),
    below=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_kernel_decodes_near_pole_trials_like_the_closed_form(
    polar1, polar2, u_encode, target, below
):
    # the kernel takes uniforms, so inputs off the 2**-53 grid reach it unchanged
    u = np.array([[polar1, polar2, u_encode, 0.0]])
    targets = np.array([target])
    (outcome,) = np.flatnonzero(_run_chunk(u, targets)[:4])
    weights = exact_weights(polar1, polar2)
    survivors = sum(weights[k] for k in range(4) if k != outcome)
    # sampling from the survivors' weights never realizes an empty branch
    assert survivors > 0
    p_success = float(sum(weights[k] for k in intact_block(outcome, target)) / survivors)

    # decode just below or just above the closed-form success probability
    above = p_success * (1 + 1e-9)
    u[0, 3] = p_success * (1 - 1e-9) if below or above >= 1.0 else above
    assert _run_chunk(u, targets)[4] == (u[0, 3] < p_success)


def kernel_weights(u: np.ndarray):
    """The kernel's register weights, survivor sums and cumulative outcome
    weights of a block of trial uniforms, as it computes them."""
    count = u.shape[0]
    factors = np.empty((2, 2, count))
    factors[:, 1] = u[:, :2].T
    np.subtract(1.0, factors[:, 1], out=factors[:, 0])
    weights = factors[1][:, None] * factors[0]
    survivors = (weights[:, ::-1] + weights.sum(axis=1)[::-1, None]).reshape(4, count)
    cumulative = survivors[:3] / 3.0
    cumulative[1] += cumulative[0]
    cumulative[2] += cumulative[1]
    return weights, survivors, cumulative


def reference_chunk(u: np.ndarray, target: np.ndarray) -> list[int]:
    """Reference kernel: outcomes counted with `count_nonzero`, and each
    trial's intact block found from the codec's `intact_block`."""
    count = u.shape[0]
    weights, survivors, cumulative = kernel_weights(u)
    outcome = np.count_nonzero(cumulative <= u[:, 2], axis=0)
    flat_w, flat_s = weights.ravel(), survivors.ravel()
    successes = 0
    for t in range(count):
        lo, hi = intact_block(int(outcome[t]), int(target[t]))
        block_weight = flat_w[lo * count + t] + flat_w[hi * count + t]
        successes += bool(u[t, 3] < block_weight / flat_s[outcome[t] * count + t])
    return [*np.bincount(outcome, minlength=4).tolist(), successes]


@pytest.mark.parametrize("policy", montecarlo.TARGET_POLICIES)
@pytest.mark.parametrize("seed", [0, 1, 5, 20260, 2**64 - 1])
def test_the_kernel_counts_like_the_reference(seed, policy):
    # a block of 8192 trials, a short one at an odd start, one of one trial,
    # and one whose encoding uniforms tie with a cumulative weight
    blocks = ((0, 8192, False), (8191, 999, False), (3, 1, False), (5, 999, True))
    for start, trials, ties in blocks:
        words = _philox(seed, start).random_raw((trials, WORDS_PER_TRIAL))
        u = (words >> 11) * 2.0**-53
        if ties:
            u[:, 2] = kernel_weights(u)[2][np.arange(trials) % 3, np.arange(trials)]
        target = montecarlo._targets(policy, start, words[:, 3])
        record = _run_chunk(u, target)
        assert record.dtype == np.int64
        assert record.tolist() == reference_chunk(u, target)


def test_an_intact_pair_differs_in_the_target_bit_alone():
    # so a successful decode reads the target's two amplitudes from one block
    for outcome in range(4):
        for target in (1, 2):
            low, high = intact_block(outcome, target)
            assert low ^ high == 1 << (target - 1)


def on_two_cpus(monkeypatch) -> None:
    """Let run_trials see two CPUs, however many this process may use."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def count_forks(monkeypatch) -> list[float]:
    """The times at which run_trials forks from now on, on two CPUs."""
    on_two_cpus(monkeypatch)
    calls = []
    fork = os.fork

    def counted_fork():
        calls.append(time.perf_counter())
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    return calls


def split_small_batches(monkeypatch) -> None:
    """Split every batch of 2 blocks of 999 trials or more, on two CPUs."""
    on_two_cpus(monkeypatch)
    monkeypatch.setattr(montecarlo, "_KERNEL_TRIALS", 999)
    monkeypatch.setattr(montecarlo, "_SPLIT_BLOCKS", 2)


@pytest.fixture
def forks(monkeypatch) -> list[float]:
    split_small_batches(monkeypatch)
    return count_forks(monkeypatch)


def assert_no_child_is_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSplitBatches:
    # 1998 trials are two whole blocks, 2997 three, and 4000 end in a block
    # of 4; the child runs blocks [1, 2), [1, 3) and [2, 5)
    @pytest.mark.parametrize("trials", [1998, 2997, 4000])
    @pytest.mark.parametrize("policy", montecarlo.TARGET_POLICIES)
    def test_the_split_gives_the_serial_stats(self, monkeypatch, policy, trials):
        serial = run_trials(trials, 11, policy)
        split_small_batches(monkeypatch)
        forks = count_forks(monkeypatch)
        ranges = parent_ranges(monkeypatch)
        assert run_trials(trials, 11, policy) == serial
        assert len(forks) == 1
        # the parent reads the child's half and runs only its own
        assert ranges == [(0, {1998: 999, 2997: 999, 4000: 1998}[trials])]
        assert_no_child_is_left()

    def test_forks_only_from_2_to_the_18_trials(self, monkeypatch):
        forks = count_forks(monkeypatch)
        # the halves' work is not what this counts
        monkeypatch.setattr(montecarlo, "_run_range", lambda *args: np.zeros(5, dtype=np.int64))
        run_trials(2**18 - 1)
        assert forks == []
        run_trials(2**18)
        assert len(forks) == 1
        assert_no_child_is_left()

    @pytest.mark.parametrize("path", [p for p in CASES if p.stem.split("_")[0] in ("mc", "verify")],
                             ids=lambda p: p.name)
    def test_golden_documents_are_unchanged_when_split(self, monkeypatch, forks, path):
        # 256-trial blocks split verify's 1000 trials too
        monkeypatch.setattr(montecarlo, "_KERNEL_TRIALS", 256)
        _assert_pinned(path, _printed(path))
        assert len(forks) == 1

    # either half may have no success, or carry counts past 2^32
    @pytest.mark.parametrize("head, tail", [
        ([1, 2, 3, 4, 5], [10, 20, 30, 40, 50]),
        ([0, 0, 0, 0, 0], [10, 20, 30, 40, 50]),
        ([1, 2, 3, 4, 5], [0, 0, 0, 0, 0]),
        ([1, 0, 0, 0, 0], [0, 0, 0, 1, 0]),
        ([2**33, 2**34, 2**35, 2**36, 2**37], [7, 2**34, 9, 2**36, 2**33]),
    ])
    def test_the_halves_records_are_summed(self, monkeypatch, forks, head, tail):
        def record(master_seed, policy, begin, end):
            return np.array(head if begin == 0 else tail, dtype=np.int64)

        monkeypatch.setattr(montecarlo, "_run_range", record)
        total = [h + t for h, t in zip(head, tail)]
        stats = run_trials(4000)
        assert stats == TrialStats(4000, tuple(total[:4]), total[4])
        assert all(type(count) is int for count in (*stats.outcome_counts, stats.success_count))
        assert len(forks) == 1

    def test_a_call_from_another_thread_stays_serial(self, forks):
        results = []
        worker = threading.Thread(target=lambda: results.append(run_trials(4000, 3, "random")))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert forks == []
        assert results == [run_trials(4000, 3, "random")]
        assert len(forks) == 1

    def test_stays_serial_without_fork(self, monkeypatch):
        serial = run_trials(4000, 3, "random")
        monkeypatch.delattr(os, "fork")
        split_small_batches(monkeypatch)
        assert run_trials(4000, 3, "random") == serial

    def test_stays_serial_on_one_cpu(self, monkeypatch):
        serial = run_trials(4000, 3, "random")
        split_small_batches(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)

        def fork():
            raise AssertionError("a batch forked with one CPU to run on")

        monkeypatch.setattr(os, "fork", fork)
        assert run_trials(4000, 3, "random") == serial

    def test_a_failed_fork_runs_both_halves_here(self, monkeypatch):
        serial = run_trials(4000, 3, "random")
        split_small_batches(monkeypatch)

        def failed_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", failed_fork)
        open_fds = os.listdir("/dev/fd")
        assert run_trials(4000, 3, "random") == serial
        assert os.listdir("/dev/fd") == open_fds

    def test_the_fork_does_not_warn(self, monkeypatch, forks):
        # from Python 3.12 a fork in a process with another OS thread emits a
        # DeprecationWarning, which an error filter cannot turn into a failure
        # (the interpreter clears the error); recorded, it can fail this test.
        # Older versions do not warn, so count the parent's OS threads where
        # that check runs, right after the fork returns
        threads = []
        fork = os.fork

        def counted_fork():
            pid = fork()
            if pid and os.path.isdir("/proc/self/task"):
                threads.append(len(os.listdir("/proc/self/task")))
            return pid

        monkeypatch.setattr(os, "fork", counted_fork)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_trials(4000, 3, "random")
        assert len(forks) == 1
        assert [w for w in caught if issubclass(w.category, DeprecationWarning)] == []
        if os.path.isdir("/proc/self/task"):
            assert threads == [1]


@pytest.fixture(scope="module")
def serial_batch() -> TrialStats:
    """run_trials(4000, 3, "random") in one process: a module fixture is set
    up before any test's monkeypatching, so this batch never splits."""
    return run_trials(4000, 3, "random")


def parent_ranges(monkeypatch, in_child=lambda: None) -> list[tuple[int, int]]:
    """The trial ranges this process runs from now on; a forked child calls
    `in_child` before it runs its own."""
    run_range, parent, ranges = montecarlo._run_range, os.getpid(), []

    def spied(master_seed, policy, begin, end):
        if os.getpid() != parent:
            in_child()
        ranges.append((begin, end))
        return run_range(master_seed, policy, begin, end)

    monkeypatch.setattr(montecarlo, "_run_range", spied)
    return ranges


def kill_the_child() -> None:
    os.kill(os.getpid(), signal.SIGKILL)


class TestFailingHalves:
    # the forks fixture splits 4000 trials at 1998; a child that does not exit
    # 0 leaves its half to the parent, as a failed fork leaves both
    def test_the_parent_runs_the_half_of_a_child_killed_by_a_signal(
        self, monkeypatch, forks, serial_batch
    ):
        ranges = parent_ranges(monkeypatch, kill_the_child)
        assert run_trials(4000, 3, "random") == serial_batch
        assert ranges == [(0, 1998), (1998, 4000)]
        assert len(forks) == 1
        assert_no_child_is_left()

    def test_the_parent_runs_the_half_of_a_child_exiting_non_zero(
        self, monkeypatch, forks, serial_batch
    ):
        exit_ = os._exit
        monkeypatch.setattr(os, "_exit", lambda status: exit_(7))
        ranges = parent_ranges(monkeypatch)
        # the record is in the page, but only the exit status says so
        assert run_trials(4000, 3, "random") == serial_batch
        assert ranges == [(0, 1998), (1998, 4000)]
        assert len(forks) == 1
        assert_no_child_is_left()

    def test_a_fault_in_both_halves_raises_in_the_parent(self, monkeypatch, forks):
        run_range = montecarlo._run_range

        def faulty(master_seed, policy, begin, end):
            if begin > 0:
                raise MemoryError
            return run_range(master_seed, policy, begin, end)

        # the child fails, and so does the parent running the child's half
        monkeypatch.setattr(montecarlo, "_run_range", faulty)
        with pytest.raises(MemoryError):
            run_trials(4000, 3, "random")
        assert len(forks) == 1
        assert_no_child_is_left()

    def test_an_interrupted_parent_kills_and_reaps_its_child(self, monkeypatch, forks):
        def stuck_child(master_seed, policy, begin, end):
            if begin > 0:
                time.sleep(60)
            raise KeyboardInterrupt

        monkeypatch.setattr(montecarlo, "_run_range", stuck_child)
        with pytest.raises(KeyboardInterrupt):
            run_trials(4000, 3, "random")
        # the child was killed, not waited for
        assert time.perf_counter() - forks[0] < 30
        assert_no_child_is_left()

    def test_an_interrupt_while_waiting_kills_and_reaps_the_child(self, monkeypatch, forks):
        run_range, waitpid = montecarlo._run_range, os.waitpid
        waits = []

        def stuck_child(master_seed, policy, begin, end):
            if begin > 0:
                time.sleep(60)
            return run_range(master_seed, policy, begin, end)

        def interrupted_wait(pid, options):
            # Ctrl-C reaches the parent alone, while it waits for the child
            waits.append(options)
            if len(waits) == 1:
                raise KeyboardInterrupt
            return waitpid(pid, options)

        monkeypatch.setattr(montecarlo, "_run_range", stuck_child)
        monkeypatch.setattr(os, "waitpid", interrupted_wait)
        with pytest.raises(KeyboardInterrupt):
            run_trials(4000, 3, "random")
        assert waits == [0, 0]
        assert time.perf_counter() - forks[0] < 30
        assert_no_child_is_left()

    # the name is older than the fallback, when the CLI ended here with no
    # document; it now prints the unsplit run's document and exits 0
    @pytest.mark.parametrize("command", ["mc", "verify"])
    def test_the_cli_exits_3_with_no_document(self, monkeypatch, command):
        args = [command, "--trials", "4000"]
        unsplit = invoke(args)
        split_small_batches(monkeypatch)
        forks = count_forks(monkeypatch)
        parent_ranges(monkeypatch, kill_the_child)
        result = invoke(args)
        assert (result.exit_code, result.stdout, result.stderr) == (0, unsplit.stdout, "")
        assert len(forks) == 1
        assert_no_child_is_left()


class _Exited(Exception):
    """Stands in for the child's os._exit."""


def test_the_child_branch_sends_the_upper_half_and_exits_0(monkeypatch):
    # the child's lines, run in this process where a line tracer sees them
    pages = []

    class KeptPage(mmap.mmap):
        def __exit__(self, *exc_info):
            pages.append(self[:])
            return super().__exit__(*exc_info)

    def exit_(status):
        raise _Exited(status)

    monkeypatch.setattr(mmap, "mmap", KeptPage)
    monkeypatch.setattr(os, "fork", lambda: 0)
    monkeypatch.setattr(os, "_exit", exit_)
    split_small_batches(monkeypatch)
    with pytest.raises(_Exited) as exited:
        run_trials(4000, 3, "random")
    (page,) = pages
    assert exited.value.args == (0,)
    assert montecarlo._RECORD.unpack(page) == tuple(montecarlo._run_range(3, "random", 1998, 4000))


# run_trials(10**6) counts, which the scalar codec also gave when fed every
# trial from the plain-Python Philox blocks as `scalar_trials` feeds it;
# outcome counts do not depend on the target, success counts do
PINNED_OUTCOMES = {
    0: (250510, 250240, 249337, 249913),
    20260: (250543, 248919, 250649, 249889),
}
PINNED_SUCCESSES = {
    (0, "always-1"): 666373,
    (0, "always-2"): 665838,
    (0, "alternate"): 666196,
    (0, "random"): 666617,
    (20260, "always-1"): 666172,
    (20260, "always-2"): 666936,
    (20260, "alternate"): 666371,
    (20260, "random"): 666938,
}


@pytest.fixture(
    scope="module", params=sorted(PINNED_SUCCESSES), ids=lambda key: "%s-%s" % key
)
def pinned_batch(request) -> tuple[int, str, TrialStats]:
    seed, policy = request.param
    return seed, policy, run_trials(10**6, seed, policy)


def test_counts_are_pinned_for_a_given_seed(pinned_batch):
    seed, policy, stats = pinned_batch
    assert stats.outcome_counts == PINNED_OUTCOMES[seed]
    assert stats.success_count == PINNED_SUCCESSES[seed, policy]


@pytest.fixture(scope="module")
def stats() -> TrialStats:
    return run_trials(100_000, master_seed=0)


class TestStatistics:
    def test_counts_are_consistent(self, stats):
        assert sum(stats.outcome_counts) == stats.trials
        assert 0 <= stats.success_count <= stats.trials
        assert stats.mean_success_rate == stats.success_count / stats.trials

    def test_success_rate_within_three_sigma(self, stats):
        sigma = math.sqrt((2 / 3) * (1 / 3) / stats.trials)
        assert abs(stats.mean_success_rate - 2 / 3) <= 3 * sigma

    def test_outcome_histogram_is_uniform(self, stats):
        sigma = math.sqrt(0.25 * 0.75 / stats.trials)
        for count in stats.outcome_counts:
            assert abs(count / stats.trials - 0.25) <= 3.5 * sigma

    @pytest.mark.parametrize("policy", ["always-2", "alternate", "random"])
    def test_other_policies_also_succeed_at_two_thirds(self, policy):
        stats = run_trials(50_000, master_seed=0, target_policy=policy)
        sigma = math.sqrt((2 / 3) * (1 / 3) / stats.trials)
        assert abs(stats.mean_success_rate - 2 / 3) <= 3 * sigma


class TestConfigValidation:
    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError, match="trials must be at least 1"):
            run_trials(trials=0)

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="target_policy must be one of"):
            run_trials(trials=1, target_policy="both")

    def test_rejects_oversized_seed(self):
        with pytest.raises(ValueError, match="master_seed must be a 64-bit integer"):
            run_trials(trials=1, master_seed=2**64)

    def test_rejects_a_fractional_seed(self):
        with pytest.raises(TypeError):
            run_trials(trials=1, master_seed=1.5)

    def test_rejects_fractional_trials(self):
        with pytest.raises(TypeError):
            run_trials(trials=2.5)


def test_intact_block_rows_put_the_low_target_bit_first():
    for outcome in range(4):
        for target in (1, 2):
            block = intact_block(outcome, target)
            assert qubit_bit(block[0], target) == 0
            assert qubit_bit(block[1], target) == 1
            assert block == intact_pair(outcome, target)


def test_codec_levels_and_the_kernel_table_read_one_relabeling_map():
    for outcome in range(4):
        for target in (1, 2):
            kept = survivors(outcome)
            success_levels, failure_level = decode_levels(outcome, target)
            block = list(intact_block(outcome, target))
            assert [kept[level] for level in success_levels] == block
            assert kept[failure_level] == outcome ^ (1 << (target - 1))
            assert montecarlo._INTACT[outcome, target - 1].tolist() == block


def test_the_third_survivor_differs_from_the_outcome_in_the_target_bit():
    # for target 1 this is the kernel's survivor sum: the partner j ^ 1 plus
    # the other qubit-2 pair
    for outcome in range(4):
        for target in (1, 2):
            kept = {outcome ^ target, *intact_block(outcome, target)}
            assert kept == set(range(4)) - {outcome}
