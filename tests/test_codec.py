"""The encode/decode protocol: branches, decode levels, sampling, round
trips, and the 12-dimensional oracle the closed forms are checked against."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qutritcodec import (
    BlochAngles,
    PureState,
    decode,
    decode_levels,
    encode,
    encode_branch,
    fidelity,
    joint_state,
    make_qubit_state,
)
from qutritcodec import codec
from qutritcodec.states import NULL_BRANCH_EPS
from conftest import (
    RELABEL,
    ancilla,
    any_pairs,
    conditional_success_probability,
    encoding_indices,
    near_pole_pairs,
    phase_aligned_max_diff,
    pipeline_encode,
    pipeline_weights,
    project,
    random_pair,
    register,
    unit_interval,
    unit_states,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)
INV_SQRT3 = 1.0 / math.sqrt(3.0)


def pair_of(theta1, phi1, theta2, phi2) -> tuple[BlochAngles, BlochAngles]:
    return BlochAngles(theta=theta1, phi=phi1), BlochAngles(theta=theta2, phi=phi2)


class TestJointState:
    def test_both_at_zero(self):
        amps = joint_state(pair_of(0, 0, 0, 0)).amplitudes
        np.testing.assert_allclose(amps, [1, 0, 0, 0], atol=1e-15)

    def test_first_flipped_keeps_its_phase(self):
        phi1 = 1.1
        amps = joint_state(pair_of(math.pi, phi1, 0, 0)).amplitudes
        expected = np.array([0, np.exp(1j * phi1), 0, 0])
        np.testing.assert_allclose(amps, expected, atol=1e-15)

    def test_two_equators(self):
        amps = joint_state(pair_of(math.pi / 2, 0, math.pi / 2, 0)).amplitudes
        np.testing.assert_allclose(amps, np.full(4, 0.5), atol=1e-15)

    def test_matches_tensor_product_ordering(self, rng):
        # qubit 1 owns the low register bit, so it is the fast tensor factor
        for _ in range(20):
            pair = random_pair(rng)
            np.testing.assert_allclose(joint_state(pair).amplitudes, register(pair), atol=1e-15)

    @given(st.one_of(any_pairs(), near_pole_pairs()))
    def test_amplitude_bytes_are_the_qubits_scalar_products(self, pair):
        # np.kron's vectorized products round differently from these in some
        # last bits, which would move printed documents
        a1, a2 = (make_qubit_state(q).amplitudes for q in pair)
        products = np.array([a1[0] * a2[0], a1[1] * a2[0], a1[0] * a2[1], a1[1] * a2[1]])
        assert np.asarray(joint_state(pair).amplitudes).tobytes() == products.tobytes()
        for q, amplitudes in zip(pair, (a1, a2)):
            half = 0.5 * q.theta
            formula = np.array([math.cos(half), cmath.exp(1j * q.phi) * math.sin(half)])
            assert np.asarray(amplitudes).tobytes() == formula.tobytes()


class TestAncilla:
    def test_uniform_levels(self):
        np.testing.assert_allclose(ancilla(), np.full(3, INV_SQRT3))

    def test_unit_norm(self):
        assert np.sum(np.abs(ancilla()) ** 2) == pytest.approx(1, abs=1e-15)

    def test_level_weight(self):
        probability, _ = project(PureState(ancilla()), [0])
        assert probability == pytest.approx(1 / 3, abs=1e-15)


class TestEncodingProjectors:
    def test_first_outcome_indices(self):
        assert set(encoding_indices(0)) == {1, 6, 11}

    def test_last_outcome_indices(self):
        assert set(encoding_indices(3)) == {0, 5, 10}

    def test_family_partitions_all_indices(self):
        indices = [k for j in range(4) for k in encoding_indices(j)]
        assert sorted(indices) == list(range(12))

    def test_out_of_range(self):
        pair = pair_of(1.0, 0, 2.0, 0)
        calls = (
            lambda: encode_branch(pair, 4),
            lambda: decode_levels(4, 1),
            lambda: codec.intact_block(4, 1),
            lambda: codec.intact_block(-1, 2),
        )
        for call in calls:
            with pytest.raises(ValueError, match="outcome"):
                call()


class TestRelabelUnitary:
    @pytest.mark.parametrize(
        "level,register,expected_register",
        [(0, 2, 2), (1, 0, 3), (2, 3, 1)],
    )
    def test_images(self, level, register, expected_register):
        assert RELABEL[4 * level + register] == 4 * level + expected_register

    def test_is_a_permutation_of_twelve(self):
        assert sorted(RELABEL) == list(range(12))


class TestEncodeBranch:
    def test_impossible_branch(self):
        probability, qutrit = encode_branch(pair_of(0, 0, 0, 0), 0)
        assert probability == 0.0
        assert qutrit is None

    def test_guaranteed_third_weight(self):
        probability, qutrit = encode_branch(pair_of(0, 0, 0, 0), 3)
        assert probability == pytest.approx(1 / 3, abs=1e-15)
        np.testing.assert_allclose(qutrit.amplitudes, [1, 0, 0], atol=1e-15)

    def test_worked_branch(self):
        probability, qutrit = encode_branch(pair_of(math.pi / 2, 0, math.pi, 0), 0)
        assert probability == pytest.approx(1 / 3, abs=1e-15)
        np.testing.assert_allclose(
            qutrit.amplitudes, [0, INV_SQRT2, INV_SQRT2], atol=1e-15
        )

    def test_probabilities_sum_to_one(self, rng):
        for _ in range(50):
            pair = random_pair(rng)
            total = sum(encode_branch(pair, j)[0] for j in range(4))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_matches_explicit_pipeline(self, rng):
        checked = 0
        while checked < 1000:
            pair = random_pair(rng)
            for j in range(4):
                probability, qutrit = encode_branch(pair, j)
                pipeline_probability, pipeline_qutrit = pipeline_encode(pair, j)
                assert probability == pytest.approx(pipeline_probability, abs=1e-12)
                if probability <= 1e-6:
                    continue
                assert phase_aligned_max_diff(qutrit, pipeline_qutrit) <= 1e-12
                checked += 1

    def test_qutrit_is_the_relabeled_survivor(self, rng):
        # level i of the qutrit must carry register amplitude (i + j + 1) mod 4
        for _ in range(20):
            pair = random_pair(rng)
            c = joint_state(pair).amplitudes
            for j in range(4):
                probability, qutrit = encode_branch(pair, j)
                if qutrit is None:
                    continue
                survivors = np.array([c[(i + j + 1) % 4] for i in range(3)])
                survivors /= np.linalg.norm(survivors)
                np.testing.assert_allclose(
                    qutrit.amplitudes, survivors, atol=1e-12
                )


class TestEncode:
    def test_forced_outcome_when_first_branch_is_null(self):
        record = encode(pair_of(0, 0, 0, 0), u=0.5)
        assert record.outcome == 2
        assert record.classical_bits == (0, 1)

    def test_lowest_grid_point(self):
        record = encode(pair_of(math.pi, 0, math.pi, 0), u=0.0)
        assert record.outcome == 0

    def test_uniform_outcome_distribution(self):
        record = encode(pair_of(math.pi / 2, 0, math.pi / 2, 0), u=0.7)
        assert record.outcome == 2
        assert record.probability == pytest.approx(0.25, abs=1e-12)

    def test_record_is_complete(self, rng):
        pair = random_pair(rng)
        record = encode(pair, u=float(rng.random()))
        assert record.qutrit.dim == 3
        assert 0 <= record.outcome <= 3
        bits = record.classical_bits
        assert record.outcome == bits[0] + 2 * bits[1]
        # the register state the outcome was sampled from, not a rebuilt copy
        np.testing.assert_array_equal(record.joint.amplitudes, joint_state(pair).amplitudes)


_angles = st.builds(
    BlochAngles,
    theta=st.one_of(st.floats(0.0, math.pi), st.sampled_from([0.0, math.pi / 2, math.pi])),
    phi=st.floats(0.0, 2 * math.pi, exclude_max=True),
)


@given(pair=st.one_of(st.tuples(_angles, _angles), near_pole_pairs()),
       u=unit_interval)
@settings(max_examples=300, deadline=None)
def test_encode_samples_the_outcome_of_the_12_dim_pipeline(pair, u):
    # the closed-form weights and the 12-dim Born weights differ by rounding,
    # so the outcomes may differ within an ulp of a cumulative boundary
    cumulative = np.cumsum(pipeline_weights(pair))
    assume(np.min(np.abs(cumulative - u)) > 1e-12)
    assert encode(pair, u).outcome == np.searchsorted(cumulative, u, side="right")


def test_encode_samples_the_weights_it_reports(rng, monkeypatch):
    sampled = []

    def spy(weights, u):
        sampled.append(tuple(weights))
        return sample(weights, u)

    sample = codec.sample_complete_measurement
    monkeypatch.setattr(codec, "sample_complete_measurement", spy)
    for _ in range(50):
        pair = random_pair(rng)
        record = encode(pair, float(rng.random()))
        weights = tuple(encode_branch(pair, j)[0] for j in range(4))
        assert sampled.pop() == weights
        assert record.weights == weights
        assert record.probability == weights[record.outcome]


class TestDecodeProjectors:
    @pytest.mark.parametrize(
        "outcome,target,success_levels,failure_level",
        [
            (0, 1, (1, 2), 0),
            (0, 2, (0, 2), 1),
            (3, 1, (0, 1), 2),
            (1, 2, (2, 0), 1),  # logical |0> sits on the higher level
        ],
    )
    def test_worked_cases(self, outcome, target, success_levels, failure_level):
        assert decode_levels(outcome, target) == (success_levels, failure_level)

    def test_every_pair_partitions_the_qutrit(self):
        for outcome in range(4):
            for target in (1, 2):
                (low, high), failure = decode_levels(outcome, target)
                assert sorted([low, high, failure]) == [0, 1, 2]
                # logical |0> is the level whose register index has target bit 0
                index = [(level + outcome + 1) % 4 for level in (low, high)]
                assert [(k >> (target - 1)) & 1 for k in index] == [0, 1]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            decode_levels(5, 1)
        with pytest.raises(ValueError):
            decode_levels(0, 3)

    def test_rules_compute_from_plain_ints(self):
        for one in (np.int64(1), True):
            for indices in (codec.survivors(one), codec.intact_block(one, one)):
                assert all(type(k) is int for k in indices)
            assert codec.survivors(one) == codec.survivors(1)


class TestDecodeBranch:
    # the success branch of a decode, read at u = 0 where any branch with
    # more than null weight succeeds
    def test_certain_success_recovers_first_qubit(self):
        qutrit = PureState(np.array([0, INV_SQRT2, INV_SQRT2]))
        p_success, reconstructed = decode(qutrit, 0, 1, 0.0)
        assert p_success == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(reconstructed.amplitudes, [INV_SQRT2, INV_SQRT2], atol=1e-15)

    def test_certain_failure(self):
        # outcome 3 leaves qubit 2's intact block on levels 0 and 2
        assert decode(PureState(np.array([0.0, 1.0, 0.0])), 3, 2, 0.0) == (0.0, None)
        assert decode_levels(3, 2)[1] == 1

    def test_uniform_qutrit_gives_two_thirds(self):
        p_success, _ = decode(PureState(np.full(3, INV_SQRT3)), 0, 1, 0.0)
        assert p_success == pytest.approx(2 / 3, abs=1e-15)


class TestDecode:
    def test_success_for_any_u_when_certain(self):
        qutrit = PureState(np.array([0, INV_SQRT2, INV_SQRT2]))
        for u in (0.0, 0.5, 0.999999):
            _, reconstructed = decode(qutrit, 0, 1, u)
            assert reconstructed is not None

    def test_failure_when_impossible(self):
        qutrit = PureState(np.array([1.0, 0.0, 0.0]))
        assert decode(qutrit, 0, 1, 0.0) == (0.0, None)
        assert decode_levels(0, 1)[1] == 0

    def test_cumulative_rule_on_the_boundary(self):
        p_success, reconstructed = decode(PureState(np.full(3, INV_SQRT3)), 0, 1, 0.9)
        assert reconstructed is None
        assert p_success == pytest.approx(2 / 3, abs=1e-15)

    def test_u_out_of_range(self):
        qutrit = PureState(np.full(3, INV_SQRT3))
        for u in (1.0, -1e-300, math.nan, math.inf):
            with pytest.raises(ValueError, match=r"u must lie in \[0, 1\)"):
                decode(qutrit, 0, 1, u)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_rejects_a_state_that_is_not_a_qutrit(self, dim):
        with pytest.raises(ValueError, match=f"got a {dim}-level state"):
            decode(PureState(np.eye(dim)[0]), 0, 1, 0.5)

    def test_both_targets_from_one_record(self, rng):
        # decoding takes only the stored qutrit, outcome, and target
        pair = random_pair(rng)
        record = encode(pair, u=float(rng.random()))
        for target in (1, 2):
            _, reconstructed = decode(record.qutrit, record.outcome, target, 0.0)
            if reconstructed is not None:
                original = make_qubit_state(pair[target - 1])
                assert fidelity(reconstructed, original) >= 1 - 1e-12


@given(unit_states(dims=(3,)), st.integers(0, 3), st.sampled_from((1, 2)), unit_interval)
@settings(max_examples=300, deadline=None)
def test_decode_is_the_two_outcome_measurement(qutrit, outcome, target, u):
    p_success, reconstructed = decode(qutrit, outcome, target, u)
    success_levels, _ = decode_levels(outcome, target)
    kept = np.asarray(qutrit.amplitudes)[list(success_levels)]
    assert p_success == pytest.approx(np.vdot(kept, kept).real, abs=1e-15)
    realizable = p_success > NULL_BRANCH_EPS
    assert (reconstructed is not None) == (realizable and u < p_success)
    if reconstructed is not None:
        np.testing.assert_allclose(
            reconstructed.amplitudes, kept / np.linalg.norm(kept), atol=1e-15, rtol=0
        )
    if p_success < 1.0:
        # the rule is strict: u equal to the success probability fails
        assert decode(qutrit, outcome, target, p_success)[1] is None


@given(unit_states(dims=(3,)))
@settings(max_examples=300, deadline=None)
def test_decode_is_project_bit_for_bit(qutrit):
    # the oracle's projection onto the success levels gives decode's bytes
    largest_u = math.nextafter(1.0, 0.0)
    for outcome in range(4):
        for target in (1, 2):
            levels, _ = decode_levels(outcome, target)
            probability, collapsed = project(qutrit, levels)
            below = min(max(math.nextafter(probability, 0.0), 0.0), largest_u)
            for u in (below, min(probability, largest_u)):
                p_success, reconstructed = decode(qutrit, outcome, target, u)
                assert p_success == probability
                if u < probability and collapsed is not None:
                    expected = np.asarray(collapsed.amplitudes)[list(levels)]
                    assert np.asarray(reconstructed.amplitudes).tobytes() == expected.tobytes()
                else:
                    assert reconstructed is None


class TestConditionalSuccess:
    def test_worked_value(self):
        value = conditional_success_probability(
            pair_of(math.pi / 2, 0, math.pi / 2, 0), 0, 1
        )
        assert value == pytest.approx(2 / 3, abs=1e-15)

    def test_certain_branch(self):
        value = conditional_success_probability(pair_of(1.234, 0, math.pi, 0), 0, 1)
        assert value == pytest.approx(1.0, abs=1e-15)

    def test_degenerate_preparation(self):
        with pytest.raises(ValueError, match="cannot occur"):
            conditional_success_probability(pair_of(0, 0, 0, 0), 0, 1)

    def test_agrees_with_decode(self, rng):
        for _ in range(200):
            pair = random_pair(rng)
            for j in range(4):
                probability, qutrit = encode_branch(pair, j)
                if probability <= 1e-6:
                    continue
                for target in (1, 2):
                    closed = conditional_success_probability(pair, j, target)
                    sampled, _ = decode(qutrit, j, target, 0.0)
                    assert closed == pytest.approx(sampled, abs=1e-12)


def test_round_trip_reconstructs_the_chosen_qubit(rng):
    collected = 0
    while collected < 1000:
        pair = random_pair(rng)
        j = int(rng.integers(4))
        target = int(rng.integers(1, 3))
        probability, qutrit = encode_branch(pair, j)
        if probability <= 1e-6:
            continue
        p_success, reconstructed = decode(qutrit, j, target, 0.0)
        if p_success <= 1e-6:
            continue
        assert fidelity(reconstructed, make_qubit_state(pair[target - 1])) >= 1 - 1e-12
        collected += 1


@given(near_pole_pairs(), unit_interval, unit_interval)
@settings(max_examples=200, deadline=None)
def test_near_pole_preparations_encode_and_decode_exactly(pair, u_encode, u_decode):
    # |c_j| is within rounding of 1 for one branch here, so its weight must
    # come from the surviving amplitudes, not from 1 - |c_j|^2
    for j in range(4):
        probability, qutrit = encode_branch(pair, j)
        expected_probability, expected = pipeline_encode(pair, j)
        assert probability == pytest.approx(expected_probability, rel=1e-12, abs=0)
        if qutrit is None or expected is None:
            assert probability <= 2 * NULL_BRANCH_EPS
            continue
        assert phase_aligned_max_diff(qutrit, expected) <= 1e-12
        for target in (1, 2):
            p_success, _ = decode(qutrit, j, target, 0.0)
            closed = conditional_success_probability(pair, j, target)
            assert closed == pytest.approx(p_success, abs=1e-12)

    record = encode(pair, u_encode)
    for target in (1, 2):
        _, reconstructed = decode(record.qutrit, record.outcome, target, u_decode)
        if reconstructed is not None:
            assert fidelity(reconstructed, make_qubit_state(pair[target - 1])) >= 1 - 1e-12


@given(any_pairs())
@settings(max_examples=300, deadline=None)
def test_two_thirds_holds_for_every_preparation(pair):
    # sum_j P(j) P(success | j, a) is the four intact blocks' weights over 3;
    # each is the other qubit's weight at one bit value, and each bit value
    # occurs for two outcomes, so the sum is 2/3 for any angles, not only on
    # average over the prior
    branches = [encode_branch(pair, j) for j in range(4)]
    for target in (1, 2):
        total = sum(
            probability * decode(qutrit, j, target, 0.0)[0]
            for j, (probability, qutrit) in enumerate(branches)
            if qutrit is not None
        )
        assert abs(total - 2 / 3) <= 2e-15


@given(unit_states(dims=(4,)))
@settings(max_examples=300, deadline=None)
def test_an_entangled_register_decodes_to_the_targets_reduced_state(register_state):
    # beyond the paper, whose qubits are in a product state: on any register
    # state the oracle's encoding followed by `decode` still succeeds with
    # probability 2/3, and the decoded qubits, weighted by the probability of
    # their branch and normalized, average to the target's reduced state
    c = np.array(register_state.amplitudes).reshape(2, 2)  # [b2, b1]
    reduced = {1: c.T @ c.conj(), 2: c @ c.conj().T}
    for target in (1, 2):
        total, mixture = 0.0, np.zeros((2, 2), dtype=complex)
        for j in range(4):
            probability, qutrit = pipeline_encode(register_state, j)
            if qutrit is None:
                continue
            p_success, qubit = decode(qutrit, j, target, 0.0)
            total += probability * p_success
            if qubit is not None:
                v = np.array(qubit.amplitudes)
                mixture += probability * p_success * np.outer(v, v.conj())
        assert abs(total - 2 / 3) <= 1e-12
        np.testing.assert_allclose(mixture / np.trace(mixture).real, reduced[target],
                                   rtol=0, atol=1e-12)
