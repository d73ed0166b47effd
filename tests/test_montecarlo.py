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
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from qutritcodec import (
    TrialStats,
    decode,
    encode,
    fidelity,
    make_qubit_state,
    run_trials,
)
from qutritcodec.codec import decode_levels, intact_block, qubit_bit, survivors
from qutritcodec import montecarlo
from qutritcodec.cli import main
from qutritcodec.montecarlo import UNIFORMS_PER_TRIAL, WorkerError, _philox, _run_chunk
from conftest import intact_pair, sample_bloch, unit_interval
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


class TestTrialUniforms:
    def test_offset_slabs_tile_the_stream(self):
        whole = _philox(123, 0).random((1000, UNIFORMS_PER_TRIAL))
        parts = np.vstack(
            [_philox(123, start).random((250, UNIFORMS_PER_TRIAL)) for start in (0, 250, 500, 750)]
        )
        np.testing.assert_array_equal(whole, parts)

    def test_rows_are_per_trial_streams(self):
        row = _philox(7, 41).random(UNIFORMS_PER_TRIAL)
        np.testing.assert_array_equal(row, _philox(7, 40).random((2, UNIFORMS_PER_TRIAL))[1])

    def test_seed_changes_the_stream(self):
        assert not np.array_equal(_philox(0, 0).random(4), _philox(1, 0).random(4))

    def test_one_generator_fills_consecutive_slabs_into_one_buffer(self):
        # run_trials draws every block from one generator into one buffer
        for seed in (0, 123, 2**64 - 1):
            generator = _philox(seed, 0)
            slab = np.empty((300, UNIFORMS_PER_TRIAL))
            start = 0
            for count in (300, 7, 300, 61):
                u = generator.random(out=slab[:count])
                expected = _philox(seed, start).random((count, UNIFORMS_PER_TRIAL))
                np.testing.assert_array_equal(u, expected)
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


class TestAgainstScalarPipeline:
    # seed 0's single trial succeeds: a block whose only success is its
    # minimum still reaches min_success_fidelity
    @pytest.mark.parametrize(
        "trials, seed, policy",
        [
            *(pytest.param(200, 31415, policy, id=policy)
              for policy in ("always-1", "always-2", "alternate", "random")),
            pytest.param(1, 0, "always-1", id="one-trial"),
        ],
    )
    def test_vectorized_trials_match_scalar_codec(self, trials, seed, policy):
        stats = run_trials(trials, seed, policy)

        u = _philox(seed, 0).random((trials, UNIFORMS_PER_TRIAL))
        counts = [0, 0, 0, 0]
        successes = 0
        min_fidelity = None
        for t in range(trials):
            pair = sample_bloch(u[t, 0], u[t, 1]), sample_bloch(u[t, 2], u[t, 3])
            record = encode(pair, u[t, 4])
            counts[record.outcome] += 1
            if policy == "always-1":
                target = 1
            elif policy == "always-2":
                target = 2
            elif policy == "alternate":
                target = 1 + t % 2
            else:
                target = 1 if u[t, 5] < 0.5 else 2
            _, reconstructed = decode(record.qutrit, record.outcome, target, u[t, 6])
            if reconstructed is not None:
                successes += 1
                value = fidelity(reconstructed, make_qubit_state(pair[target - 1]))
                min_fidelity = value if min_fidelity is None else min(min_fidelity, value)

        assert stats.outcome_counts == tuple(counts)
        assert stats.success_count == successes
        if min_fidelity is None:
            assert stats.min_success_fidelity is None
        else:
            assert stats.min_success_fidelity == pytest.approx(min_fidelity, abs=1e-12)


def exact_weights(polar1: float, polar2: float) -> list[Fraction]:
    """|c_k|^2 as exact rationals of the kernel's two polar uniforms."""
    qubit1 = (1 - Fraction(polar1), Fraction(polar1))
    qubit2 = (1 - Fraction(polar2), Fraction(polar2))
    return [qubit1[k & 1] * qubit2[k >> 1] for k in range(4)]


# the generator's uniforms are multiples of 2**-53, so register weights
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
    phases=st.tuples(unit_interval, unit_interval),
    # 0 selects the lowest-index outcome with nonzero weight, which near a
    # pole is the branch whose survivors are all tiny
    u_encode=st.one_of(st.just(0.0), unit_interval),
    u_target=unit_interval,
    below=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_kernel_decodes_near_pole_trials_like_the_closed_form(
    polar1, polar2, phases, u_encode, u_target, below
):
    u = np.array([[polar1, phases[0], polar2, phases[1], u_encode, u_target, 0.0, 0.0]])
    (outcome,) = np.flatnonzero(_run_chunk(u, 0, "random")[0])
    target = 1 if u_target < 0.5 else 2
    weights = exact_weights(polar1, polar2)
    survivors = sum(weights[k] for k in range(4) if k != outcome)
    # sampling from the survivors' weights never realizes an empty branch
    assert survivors > 0
    p_success = float(sum(weights[k] for k in intact_block(outcome, target)) / survivors)

    # decode just below or just above the closed-form success probability
    above = p_success * (1 + 1e-9)
    u[0, 6] = p_success * (1 - 1e-9) if below or above >= 1.0 else above
    _, successes, fidelities = _run_chunk(u, 0, "random")
    assert successes == (u[0, 6] < p_success)
    assert np.all(fidelities >= 1 - 1e-12)


@pytest.mark.parametrize("outcome, target", [(j, a) for j in range(4) for a in (1, 2)])
def test_fidelity_row_catches_a_swapped_decode_level(monkeypatch, outcome, target):
    config = (20_000, 0, f"always-{target}")
    assert run_trials(*config).min_success_fidelity >= 1 - 1e-12
    swapped = montecarlo._INTACT.copy()
    swapped[outcome, target - 1] = swapped[outcome, target - 1, ::-1]
    monkeypatch.setattr(montecarlo, "_INTACT", swapped)
    assert run_trials(*config).min_success_fidelity < 1 - 1e-12


def kernel_weights(u: np.ndarray):
    """The kernel's register weights, survivor sums and cumulative outcome
    weights of a slab, as it computes them."""
    count = u.shape[0]
    factors = np.empty((2, 2, count))
    factors[:, 1] = u[:, 0:3:2].T
    np.subtract(1.0, factors[:, 1], out=factors[:, 0])
    weights = factors[1][:, None] * factors[0]
    survivors = (weights[:, ::-1] + weights.sum(axis=1)[::-1, None]).reshape(4, count)
    cumulative = survivors[:3] / 3.0
    cumulative[1] += cumulative[0]
    cumulative[2] += cumulative[1]
    return weights, survivors, cumulative


def full_phase_chunk(u: np.ndarray, start: int, policy: str):
    """Reference kernel with the full phase formula: outcomes counted with
    `count_nonzero`, weights gathered again for the successful trials, and
    the cosine of the decoded relative phase."""
    count = u.shape[0]
    weights, survivors, cumulative = kernel_weights(u)
    outcome = np.count_nonzero(cumulative <= u[:, 4], axis=0)
    target = montecarlo._targets(policy, start, count, u[:, 5])
    rows = np.arange(count)
    flat_w = weights.ravel()
    lo, hi = np.take(montecarlo._INTACT.reshape(8, 2), 2 * outcome + target - 1, axis=0).T
    block_weight = flat_w[lo * count + rows] + flat_w[hi * count + rows]
    success = u[:, 6] < block_weight / survivors.ravel()[outcome * count + rows]

    won = np.flatnonzero(success)
    lo, hi = lo[won], hi[won]
    w_lo, w_hi = flat_w[lo * count + won], flat_w[hi * count + won]
    slot = UNIFORMS_PER_TRIAL * won
    polar_slot = slot + 2 * target[won] - 2
    polar, azimuth, turns1, turns2 = (
        u.ravel()[at] for at in (polar_slot, polar_slot + 1, slot + 1, slot + 3)
    )
    # register index k carries the phase turns1 * b1(k) + turns2 * b2(k)
    delta = turns1 * (qubit_bit(hi, 1) - qubit_bit(lo, 1))
    delta += turns2 * (qubit_bit(hi, 2) - qubit_bit(lo, 2))
    delta -= azimuth
    cross = np.sqrt((1.0 - polar) * polar * w_lo * w_hi) * np.cos(2.0 * np.pi * delta)
    fidelity = ((1.0 - polar) * w_lo + polar * w_hi + 2.0 * cross) / (w_lo + w_hi)
    return np.bincount(outcome, minlength=4), won.size, fidelity


@pytest.mark.parametrize("policy", montecarlo.TARGET_POLICIES)
@pytest.mark.parametrize("seed", [0, 1, 5, 20260, 2**64 - 1])
def test_the_kernel_gives_the_full_phase_formulas_bits(seed, policy):
    # slabs of a whole block, of a short one at an odd start and of one
    # trial, and one whose encoding uniforms tie with a cumulative weight
    slabs = ((0, 8192, False), (8191, 999, False), (3, 1, False), (5, 999, True))
    for start, trials, ties in slabs:
        u = _philox(seed, start).random((trials, UNIFORMS_PER_TRIAL))
        if ties:
            u[:, 4] = kernel_weights(u)[2][np.arange(trials) % 3, np.arange(trials)]
        counts, successes, fidelities = _run_chunk(u, start, policy)
        expected_counts, expected_successes, expected = full_phase_chunk(u, start, policy)
        assert counts.tolist() == expected_counts.tolist()
        assert successes == expected_successes
        assert fidelities.dtype == expected.dtype
        assert fidelities.tobytes() == expected.tobytes()


def test_an_intact_pair_differs_in_the_target_bit_alone():
    # so the decoded relative phase is the target's azimuth minus itself: 0.0
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
        assert run_trials(trials, 11, policy) == serial
        assert len(forks) == 1
        assert_no_child_is_left()

    def test_forks_only_from_2_to_the_18_trials(self, monkeypatch):
        forks = count_forks(monkeypatch)
        # the halves' work is not what this counts
        monkeypatch.setattr(montecarlo, "_run_range", lambda *args: (0, 0, 0, 0, 0, math.inf))
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

    @pytest.mark.parametrize("head_min, tail_min, merged_min", [
        (0.5, 0.25, 0.25), (0.25, 0.5, 0.25), (math.inf, 0.5, 0.5), (0.5, math.inf, 0.5),
        (math.inf, math.inf, None),
    ])
    def test_the_halves_records_are_merged(self, monkeypatch, forks, head_min, tail_min, merged_min):
        def record(master_seed, policy, begin, end):
            if begin == 0:
                return (1, 2, 3, 4, 5, head_min)
            return (10, 20, 30, 40, 50, tail_min)

        monkeypatch.setattr(montecarlo, "_run_range", record)
        assert run_trials(4000) == TrialStats(4000, (11, 22, 33, 44), 55, merged_min)
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

    def test_the_fork_does_not_warn(self, forks):
        # from Python 3.12 a fork in a process with another OS thread emits a
        # DeprecationWarning, which an error filter cannot turn into a failure
        # (the interpreter clears the error); recorded, it can fail this test
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_trials(4000, 3, "random")
        assert len(forks) == 1
        assert [w for w in caught if issubclass(w.category, DeprecationWarning)] == []


def fail_in_child(monkeypatch):
    """Make the upper half raise; only the forked child runs it."""
    run_range = montecarlo._run_range

    def faulty(master_seed, policy, begin, end):
        if begin > 0:
            raise MemoryError
        return run_range(master_seed, policy, begin, end)

    monkeypatch.setattr(montecarlo, "_run_range", faulty)


class TestFailingHalves:
    def test_a_failing_child_raises_with_its_exit_status(self, monkeypatch, forks):
        fail_in_child(monkeypatch)
        with pytest.raises(WorkerError, match="exited with status 1$"):
            run_trials(4000, 3, "random")
        assert forks
        assert_no_child_is_left()

    def test_a_child_killed_by_a_signal_raises(self, monkeypatch, forks):
        run_range = montecarlo._run_range

        def killed(master_seed, policy, begin, end):
            if begin > 0:
                os.kill(os.getpid(), signal.SIGKILL)
            return run_range(master_seed, policy, begin, end)

        monkeypatch.setattr(montecarlo, "_run_range", killed)
        with pytest.raises(WorkerError, match="exited with status -9$"):
            run_trials(4000, 3, "random")
        assert forks
        assert_no_child_is_left()

    def test_a_child_exiting_non_zero_after_its_record_raises(self, monkeypatch, forks):
        exit_ = os._exit
        monkeypatch.setattr(os, "_exit", lambda status: exit_(7))
        # the record is in the page, but only the exit status says so
        with pytest.raises(WorkerError, match="exited with status 7$"):
            run_trials(4000, 3, "random")
        assert forks
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

    @pytest.mark.parametrize("command", ["mc", "verify"])
    def test_the_cli_exits_3_with_no_document(self, monkeypatch, forks, command):
        fail_in_child(monkeypatch)
        result = CliRunner().invoke(main, [command, "--trials", "4000"])
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr.startswith("Error: Monte Carlo worker process exited with status 1")
        assert result.stderr.count("\n") == 1
        assert forks
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
    assert montecarlo._RECORD.unpack(page) == montecarlo._run_range(3, "random", 1998, 4000)


# run_trials(10**6) counts recorded with a complex-amplitude kernel that
# built every trial's register state; outcome counts do not depend on the
# target, success counts do
PINNED_OUTCOMES = {
    0: (249088, 251049, 249952, 249911),
    20260: (249578, 250372, 250163, 249887),
}
PINNED_SUCCESSES = {
    (0, "always-1"): 666293,
    (0, "always-2"): 665966,
    (0, "alternate"): 665904,
    (0, "random"): 666271,
    (20260, "always-1"): 666825,
    (20260, "always-2"): 667014,
    (20260, "alternate"): 666648,
    (20260, "random"): 667024,
}


# each pinned batch runs once and serves both pin tables
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


# float.hex of run_trials(10**6).min_success_fidelity, recorded with the
# kernel that still computed the decoded phase and its cosine
PINNED_MIN_FIDELITIES = {
    (0, "always-1"): "0x1.ffffffffffffep-1",
    (0, "always-2"): "0x1.ffffffffffffdp-1",
    (0, "alternate"): "0x1.ffffffffffffep-1",
    (0, "random"): "0x1.ffffffffffffep-1",
    (20260, "always-1"): "0x1.ffffffffffffdp-1",
    (20260, "always-2"): "0x1.ffffffffffffdp-1",
    (20260, "alternate"): "0x1.ffffffffffffdp-1",
    (20260, "random"): "0x1.ffffffffffffdp-1",
}


def test_min_fidelity_is_pinned_for_a_given_seed(pinned_batch):
    # the batches come from the success table's keys
    assert PINNED_MIN_FIDELITIES.keys() == PINNED_SUCCESSES.keys()
    seed, policy, stats = pinned_batch
    assert type(stats.min_success_fidelity) is float
    assert float.hex(stats.min_success_fidelity) == PINNED_MIN_FIDELITIES[seed, policy]


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

    def test_every_success_is_a_faithful_reconstruction(self, stats):
        assert stats.min_success_fidelity >= 1 - 1e-12

    @pytest.mark.parametrize("policy", ["always-2", "alternate", "random"])
    def test_other_policies_also_succeed_at_two_thirds(self, policy):
        stats = run_trials(50_000, master_seed=0, target_policy=policy)
        sigma = math.sqrt((2 / 3) * (1 / 3) / stats.trials)
        assert abs(stats.mean_success_rate - 2 / 3) <= 3 * sigma
        assert stats.min_success_fidelity >= 1 - 1e-12


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
