"""Seeded Monte Carlo harness: stream addressing, determinism, statistics."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qutritcodec import (
    TrialConfig,
    TrialStats,
    conditional_success_probability,
    decode,
    encode,
    encode_branch,
    fidelity,
    make_qubit_state,
    run_trials,
    sample_bloch,
)
from qutritcodec.codec import QubitPair, intact_block, qubit_bit
from qutritcodec.montecarlo import UNIFORMS_PER_TRIAL, _run_chunk, trial_uniforms
from qutritcodec.states import NULL_BRANCH_EPS
from conftest import near_pole_theta, unit_interval


class TestSampleBloch:
    def test_inverse_cdf_endpoints(self):
        assert sample_bloch(0.0, 0.0).theta == 0.0
        assert sample_bloch(0.5, 0.0).theta == pytest.approx(math.pi / 2, abs=1e-15)

    def test_phase_is_scaled_uniform(self):
        assert sample_bloch(0.0, 0.25).phi == pytest.approx(math.pi / 2, abs=1e-15)

    def test_polar_mean_on_a_stratified_grid(self):
        grid = (np.arange(1_000_000) + 0.5) / 1_000_000
        mean_cos = np.mean(np.cos(np.arccos(1 - 2 * grid)))
        assert abs(mean_cos) <= 2e-3
        # the vectorized formula is the scalar sampler's formula
        for u in grid[::100_003]:
            assert sample_bloch(float(u), 0.0).theta == pytest.approx(
                math.acos(1 - 2 * u), abs=0
            )


class TestTrialUniforms:
    def test_offset_slabs_tile_the_stream(self):
        whole = trial_uniforms(123, 0, 1000)
        parts = np.vstack(
            [trial_uniforms(123, start, 250) for start in (0, 250, 500, 750)]
        )
        np.testing.assert_array_equal(whole, parts)

    def test_rows_are_per_trial_streams(self):
        assert trial_uniforms(7, 41, 1).shape == (1, UNIFORMS_PER_TRIAL)
        np.testing.assert_array_equal(
            trial_uniforms(7, 41, 1)[0], trial_uniforms(7, 40, 2)[1]
        )

    def test_seed_changes_the_stream(self):
        assert not np.array_equal(trial_uniforms(0, 0, 4), trial_uniforms(1, 0, 4))


class TestDeterminism:
    def test_reruns_are_bit_identical(self):
        config = TrialConfig(trials=20_000, master_seed=99, target_policy="random")
        assert run_trials(config) == run_trials(config)

    def test_chunk_size_does_not_matter(self):
        config = TrialConfig(trials=10_000, master_seed=5, target_policy="alternate")
        assert run_trials(config, chunk_size=999) == run_trials(config, chunk_size=4096)

    def test_single_trial(self):
        config = TrialConfig(trials=1, master_seed=0)
        stats = run_trials(config)
        assert stats == run_trials(config)
        assert sum(stats.outcome_counts) == 1
        assert stats.success_count + stats.failure_count == 1


class TestAgainstScalarPipeline:
    @pytest.mark.parametrize("policy", ["always-1", "always-2", "alternate", "random"])
    def test_vectorized_trials_match_scalar_codec(self, policy):
        trials = 200
        seed = 31415
        stats = run_trials(TrialConfig(trials, seed, policy))

        u = trial_uniforms(seed, 0, trials)
        counts = [0, 0, 0, 0]
        successes = 0
        min_fidelity = None
        for t in range(trials):
            pair = QubitPair(
                q1=sample_bloch(u[t, 0], u[t, 1]), q2=sample_bloch(u[t, 2], u[t, 3])
            )
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
            result = decode(record.qutrit, record.outcome, target, u[t, 6])
            if result.success:
                successes += 1
                original = make_qubit_state(pair.q1 if target == 1 else pair.q2)
                value = fidelity(result.reconstructed, original)
                min_fidelity = value if min_fidelity is None else min(min_fidelity, value)

        assert stats.outcome_counts == tuple(counts)
        assert stats.success_count == successes
        if min_fidelity is None:
            assert stats.min_success_fidelity is None
        else:
            assert stats.min_success_fidelity == pytest.approx(min_fidelity, abs=1e-12)


@given(
    theta1=near_pole_theta(),
    theta2=st.one_of(near_pole_theta(), st.floats(0.0, math.pi)),
    phases=st.tuples(unit_interval, unit_interval),
    # 0 selects the lowest-index outcome with nonzero weight, which near a
    # pole is the branch whose survivors are all tiny
    u_encode=st.one_of(st.just(0.0), unit_interval),
    u_target=unit_interval,
    below=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_kernel_decodes_near_pole_trials_like_the_closed_form(
    theta1, theta2, phases, u_encode, u_target, below
):
    u = np.array([[
        math.sin(theta1 / 2) ** 2, phases[0], math.sin(theta2 / 2) ** 2, phases[1],
        u_encode, u_target, 0.0, 0.0,
    ]])
    (outcome,) = np.flatnonzero(_run_chunk(u, 0, "random")[0])
    target = 1 if u_target < 0.5 else 2
    pair = QubitPair(q1=sample_bloch(u[0, 0], u[0, 1]), q2=sample_bloch(u[0, 2], u[0, 3]))
    # the kernel samples from 1 - |c_j|^2 and may realize a branch whose
    # survivors sum to rounding noise; the scalar codec calls it impossible
    assume(encode_branch(pair, int(outcome))[0] > NULL_BRANCH_EPS)
    p_success = conditional_success_probability(pair, int(outcome), target)

    # decode just below or just above the closed-form success probability
    above = p_success * (1 + 1e-9)
    u[0, 6] = p_success * (1 - 1e-9) if below or above >= 1.0 else above
    _, successes, fidelities = _run_chunk(u, 0, "random")
    assert successes == (u[0, 6] < p_success)
    assert np.all(fidelities >= 1 - 1e-12)


@pytest.fixture(scope="module")
def stats() -> TrialStats:
    return run_trials(TrialConfig(trials=100_000, master_seed=0))


class TestStatistics:
    def test_counts_are_consistent(self, stats):
        assert sum(stats.outcome_counts) == stats.trials
        assert stats.success_count + stats.failure_count == stats.trials
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
        stats = run_trials(TrialConfig(trials=50_000, master_seed=0, target_policy=policy))
        sigma = math.sqrt((2 / 3) * (1 / 3) / stats.trials)
        assert abs(stats.mean_success_rate - 2 / 3) <= 3 * sigma
        assert stats.min_success_fidelity >= 1 - 1e-12


class TestConfigValidation:
    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            TrialConfig(trials=0)

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            TrialConfig(trials=1, target_policy="both")

    def test_rejects_oversized_seed(self):
        with pytest.raises(ValueError):
            TrialConfig(trials=1, master_seed=2**64)


def test_intact_block_rows_put_the_low_target_bit_first():
    for outcome in range(4):
        for target in (1, 2):
            block = intact_block(outcome, target)
            assert qubit_bit(block[0], target) == 0
            assert qubit_bit(block[1], target) == 1


def test_the_third_survivor_differs_from_the_outcome_in_the_target_bit():
    # the kernel relies on this to find the survivor outside the intact block
    for outcome in range(4):
        for target in (1, 2):
            kept = {outcome ^ target, *intact_block(outcome, target)}
            assert kept == set(range(4)) - {outcome}
