"""Statevector primitives: construction, measurement, overlap; and the
tensor layout, projection and permutation of the 12-dimensional test
oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qutritcodec import (
    BlochAngles,
    PureState,
    fidelity,
    make_qubit_state,
    sample_complete_measurement,
)
from conftest import ancilla, encoding_indices, permute, project, unit_states

INV_SQRT2 = 1.0 / math.sqrt(2.0)
INV_SQRT3 = 1.0 / math.sqrt(3.0)


class TestConstruction:
    def test_rejects_non_unit_norm(self):
        with pytest.raises(ValueError, match="unit norm"):
            PureState(np.array([1.0, 1.0]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            PureState(np.array([np.nan, 0.0]))

    @pytest.mark.parametrize(
        "bad",
        [complex(0.0, math.nan), complex(0.0, math.inf), complex(math.inf, math.inf)],
        ids=["nan-imaginary-part", "inf-imaginary-part", "complex-infinity"],
    )
    def test_rejects_a_non_finite_part(self, bad):
        # the real parts alone would pass the finiteness check
        with pytest.raises(ValueError, match="must all be finite"):
            PureState(np.array([1.0, bad]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="nonempty one-dimensional"):
            PureState(np.array([]))

    def test_rejects_a_matrix(self):
        with pytest.raises(ValueError, match="nonempty one-dimensional"):
            PureState(np.eye(2))

    def test_rejects_the_zero_vector_as_not_unit_norm(self):
        with pytest.raises(ValueError, match="unit norm, got squared norm 0.0"):
            PureState(np.zeros(3))

    def test_amplitudes_are_frozen(self):
        state = PureState(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0

    def test_bloch_angles_reduce_phi(self):
        angles = BlochAngles(theta=0.5, phi=-1.0)
        assert angles.phi == pytest.approx(2 * math.pi - 1.0)

    def test_bloch_angles_reject_bad_theta(self):
        with pytest.raises(ValueError):
            BlochAngles(theta=math.pi + 0.1)
        with pytest.raises(ValueError):
            BlochAngles(theta=-0.1)

    def test_projector_validation(self):
        state = PureState(np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="nonempty subset"):
            project(state, ())
        with pytest.raises(ValueError, match="nonempty subset"):
            project(state, {3})
        with pytest.raises(ValueError, match="nonempty subset"):
            project(state, [-1])

    def test_projector_levels_must_be_integers(self):
        with pytest.raises(TypeError):
            project(PureState(np.array([1.0, 0.0, 0.0])), [1.7])

    def test_permutation_validation(self):
        with pytest.raises(ValueError, match="bijection"):
            permute(np.array([1.0, 0.0, 0.0]), (0, 0, 1))


class TestMakeQubitState:
    def test_north_pole_for_any_phase(self):
        for phi in (0.0, 1.3, 5.9):
            state = make_qubit_state(BlochAngles(theta=0.0, phi=phi))
            np.testing.assert_allclose(state.amplitudes, [1.0, 0.0], atol=1e-15)

    def test_south_pole(self):
        state = make_qubit_state(BlochAngles(theta=math.pi, phi=0.0))
        np.testing.assert_allclose(state.amplitudes, [0.0, 1.0], atol=1e-15)

    def test_equator_with_quarter_phase(self):
        state = make_qubit_state(BlochAngles(theta=math.pi / 2, phi=math.pi / 2))
        np.testing.assert_allclose(
            state.amplitudes, [INV_SQRT2, 1j * INV_SQRT2], atol=1e-15
        )


class TestTensorProduct:
    # the oracle's joint states are np.kron products, slow factor first
    def test_basis_times_basis(self):
        np.testing.assert_array_equal(np.kron([1.0, 0.0], [1.0, 0.0]), [1.0, 0.0, 0.0, 0.0])

    def test_slow_first_index_rule(self):
        combined = np.kron(ancilla(), [0.0, 1.0, 0.0, 0.0])
        expected = np.zeros(12)
        expected[[1, 5, 9]] = INV_SQRT3
        np.testing.assert_allclose(combined, expected, atol=1e-15)

    def test_plus_times_plus(self):
        plus = np.array([INV_SQRT2, INV_SQRT2])
        np.testing.assert_allclose(np.kron(plus, plus), np.full(4, 0.5), atol=1e-15)

    def test_factor_probabilities_survive_the_product(self, rng):
        # Born weight of one factor's index range equals that factor's weight.
        for _ in range(25):
            a = _random_state(rng, 3)
            b = _random_state(rng, 4)
            combined = PureState(np.kron(a.amplitudes, b.amplitudes))
            for p in range(a.dim):
                probability, _ = project(combined, range(4 * p, 4 * p + 4))
                assert probability == pytest.approx(
                    abs(a.amplitudes[p]) ** 2, abs=1e-12
                )


class TestProject:
    def test_eigenstate(self):
        state = PureState(np.array([1.0, 0.0, 0.0]))
        probability, collapsed = project(state, [0])
        assert probability == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(collapsed.amplitudes, state.amplitudes)

    def test_orthogonal_branch_is_absent(self):
        state = PureState(np.array([1.0, 0.0, 0.0]))
        probability, collapsed = project(state, {1, 2})
        assert probability == 0.0
        assert collapsed is None

    def test_half_weight_collapse(self):
        state = PureState(np.full(4, 0.5))
        probability, collapsed = project(state, (2, 1, 2))
        assert probability == pytest.approx(0.5, abs=1e-15)
        np.testing.assert_allclose(
            collapsed.amplitudes, [0.0, INV_SQRT2, INV_SQRT2, 0.0], atol=1e-15
        )

    def test_dimension_mismatch(self):
        # a level of a larger space
        state = PureState(np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match=r"subset of 0\.\.1"):
            project(state, [0, 2])


class TestSampling:
    def test_cumulative_rule_skips_null_branch(self):
        assert sample_complete_measurement([0.0, 1 / 3, 1 / 3, 1 / 3], 0.5) == 2
        # a weight at or below NULL_BRANCH_EPS is never realized, even at u = 0
        assert sample_complete_measurement([1e-15, 0.5, 0.5 - 1e-15, 0.0], 0.0) == 1

    def test_deterministic_branch(self):
        for u in (0.0, 0.3, 0.999999):
            assert sample_complete_measurement([1.0, 0.0, 0.0, 0.0], u) == 0

    def test_top_of_the_grid(self):
        assert sample_complete_measurement([0.25] * 4, 0.99) == 3
        # rounding leaves the total below u: the last realizable outcome
        assert sample_complete_measurement([0.5, 0.5 - 1e-11, 0.0], 1.0 - 1e-12) == 1

    @pytest.mark.parametrize(
        "weights",
        [(math.nan, 0.5, 0.5, 0.0), (math.nan,) * 4, (1.5, -0.5, 0.0, 0.0)],
        ids=["one-nan", "all-nan", "negative"],
    )
    def test_invalid_weights_rejected(self, weights):
        with pytest.raises(ValueError, match="nonnegative"):
            sample_complete_measurement(weights, 0.5)

    def test_incomplete_family_rejected(self):
        with pytest.raises(ValueError, match="not complete"):
            sample_complete_measurement([0.5, 0.25], 0.5)

    def test_u_out_of_range(self):
        for u in (1.0, -1e-300, math.nan):
            with pytest.raises(ValueError, match="u must lie"):
                sample_complete_measurement([0.5, 0.5], u)

    def test_grid_sweep_reproduces_born_weights(self):
        # Outcome as a function of u is a step function at the cumulative
        # Born weights; sampling it on a deterministic uniform grid must
        # recover each weight to the grid resolution.
        state = PureState(np.sqrt(np.array([0.0, 0.2, 0.3, 0.5])))
        probabilities = np.array([project(state, [k])[0] for k in range(4)])
        cumulative = np.cumsum(probabilities)

        grid = (np.arange(1_000_000) + 0.5) / 1_000_000
        outcomes = np.searchsorted(cumulative, grid, side="right")
        counts = np.bincount(outcomes, minlength=4)
        np.testing.assert_allclose(counts / 1e6, probabilities, atol=2e-6)

        # the searchsorted oracle matches the sampler itself
        for u in grid[::997]:
            outcome = sample_complete_measurement(list(probabilities), float(u))
            assert outcome == np.searchsorted(cumulative, u, side="right")


class TestOverlap:
    def test_self_fidelity(self):
        state = PureState(np.array([0.6, 0.8j]))
        assert fidelity(state, state) == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal(self):
        a = PureState(np.array([1.0, 0.0]))
        b = PureState(np.array([0.0, 1.0]))
        assert fidelity(a, b) == 0.0

    def test_half_overlap(self):
        a = PureState(np.array([1.0, 0.0]))
        b = PureState(np.array([INV_SQRT2, INV_SQRT2]))
        assert fidelity(a, b) == pytest.approx(0.5, abs=1e-15)

    def test_global_phase_equality(self):
        a = PureState(np.array([INV_SQRT2, 1j * INV_SQRT2]))
        assert fidelity(a, PureState(np.exp(1j * np.pi / 3) * a.amplitudes)) >= 1 - 1e-12
        assert fidelity(a, PureState(np.array([-1j * INV_SQRT2, INV_SQRT2]))) >= 1 - 1e-12
        assert fidelity(PureState(np.array([1.0, 0.0])), PureState(np.array([0.0, 1.0]))) < 1 - 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch in fidelity: 2 vs 3"):
            fidelity(PureState(np.array([1.0, 0.0])), PureState(np.array([1.0, 0, 0])))


class TestPermutation:
    def test_identity(self):
        amplitudes = np.array([0.6, 0.8])
        np.testing.assert_array_equal(permute(amplitudes, (0, 1)), amplitudes)

    def test_swap(self):
        np.testing.assert_array_equal(permute(np.array([0.6, 0.8]), (1, 0)), [0.8, 0.6])

    def test_cycle(self):
        moved = permute(np.array([0.6, 0.8j, 0.0]), (1, 2, 0))
        np.testing.assert_array_equal(moved, [0.0, 0.6, 0.8j])


def _random_state(rng: np.random.Generator, dim: int) -> PureState:
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState(vec / np.linalg.norm(vec))


def test_encoding_family_is_complete_on_random_states(rng):
    family = [encoding_indices(j) for j in range(4)]
    for _ in range(50):
        state = _random_state(rng, 12)
        total = sum(project(state, indices)[0] for indices in family)
        assert total == pytest.approx(1.0, abs=1e-12)


@given(unit_states(), st.data())
@settings(max_examples=60, deadline=None)
def test_project_is_idempotent(state, data):
    subset = data.draw(
        st.sets(st.integers(0, state.dim - 1), min_size=1, max_size=state.dim)
    )
    probability, collapsed = project(state, subset)
    if collapsed is None:
        assert probability <= 1e-15
        return
    probability_again, collapsed_again = project(collapsed, subset)
    assert abs(probability_again - 1.0) <= 1e-12
    np.testing.assert_allclose(
        collapsed_again.amplitudes, collapsed.amplitudes, atol=1e-12, rtol=0
    )


@given(unit_states(dims=(4,)), unit_states(dims=(4,)), st.permutations(list(range(4))))
@settings(max_examples=60, deadline=None)
def test_permutation_preserves_amplitudes_and_fidelity(a, b, image):
    moved_a = PureState(permute(a.amplitudes, image))
    moved_b = PureState(permute(b.amplitudes, image))
    # amplitudes are relocated, never altered
    assert sorted(map(abs, moved_a.amplitudes)) == sorted(map(abs, a.amplitudes))
    assert abs(fidelity(moved_a, moved_b) - fidelity(a, b)) <= 1e-15
