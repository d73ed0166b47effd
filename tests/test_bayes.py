"""Quadrature building blocks, entropies, and the information-gain report."""

from __future__ import annotations

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qutritcodec.bayes as bayes
from qutritcodec import (
    BlochAngles,
    QuadratureSpec,
    QubitPair,
    direct_measurement_gain,
    exact_report,
    gain_report,
    joint_state,
    normalizers,
    outcome_weights,
    prior_theta,
    report_scalars,
)
from qutritcodec.codec import intact_block, qubit_bit
from conftest import likelihood, random_pair, reference_report_scalars

QUAD = QuadratureSpec(nodes_per_axis=64)
GRID = np.linspace(0.0, math.pi, 32)


def integral_2d(pdf, quad=QUAD) -> float:
    x, w = quad.nodes()
    return float(np.einsum("i,j,ij->", w, w, pdf(x[:, None], x[None, :])))


def pair_at(theta1: float, theta2: float) -> QubitPair:
    return QubitPair(BlochAngles(theta1, 1.0), BlochAngles(theta2, 2.0))


def entropy(values, quad=QUAD) -> float:
    return bayes._entropy(np.asarray(values), quad.nodes()[1])


# Every posterior of the protocol is the prior times the weight of some kept
# register indices: an outcome keeps its survivors, a successful decode the
# intact block and a failed one the remaining survivor.
def failure_kept(outcome, target):
    return set(bayes._survivors(outcome)) - set(intact_block(outcome, target))


def posterior(kept, t1, t2, quad=QUAD):
    """Joint posterior from the per-bit densities and masses of the report."""
    d1, d2 = bayes._bit_densities(t1), bayes._bit_densities(t2)
    weight = sum(d1[qubit_bit(k, 1)] * d2[qubit_bit(k, 2)] for k in kept)
    return weight / bayes._kept_mass(kept, bayes._bit_masses(quad))


def marginal(kept, qubit, theta, quad=QUAD):
    """The report's separable marginal of the same posterior."""
    densities = bayes._bit_densities(theta)
    return bayes._kept_marginal(kept, qubit, densities, bayes._bit_masses(quad))


class TestPrior:
    def test_endpoint_and_midpoint_values(self):
        assert prior_theta(np.array([0.0]))[0] == 0.0
        assert prior_theta(np.array([math.pi / 2]))[0] == pytest.approx(0.5)

    def test_normalization(self):
        x, w = QUAD.nodes()
        assert float(np.sum(w * prior_theta(x))) == pytest.approx(1.0, abs=1e-12)


class TestOutcomeLikelihood:
    # the brute-force oracle's likelihood, checked against the codec's weights
    def test_impossible_result(self):
        assert likelihood(0, 0.0, 0.0) == 0.0
        assert outcome_weights(pair_at(0.0, 0.0))[0] == 0.0

    def test_closed_form_for_first_outcome(self):
        t1, t2 = np.meshgrid(GRID, GRID, indexing="ij")
        expected = (1 - np.cos(t1 / 2) ** 2 * np.cos(t2 / 2) ** 2) / 3
        np.testing.assert_allclose(likelihood(0, t1, t2), expected, atol=1e-15)

    def test_vanishes_where_the_branch_is_certainly_other(self):
        assert likelihood(2, 0.0, math.pi) == pytest.approx(0.0, abs=1e-30)
        assert outcome_weights(pair_at(0.0, math.pi))[2] == pytest.approx(0.0, abs=1e-30)

    def test_likelihoods_sum_to_one(self):
        t1, t2 = np.meshgrid(GRID, GRID, indexing="ij")
        total = sum(likelihood(j, t1, t2) for j in range(4))
        np.testing.assert_allclose(total, np.ones_like(t1), atol=1e-15)

    def test_matches_register_amplitudes(self, rng):
        for _ in range(20):
            pair = random_pair(rng)
            c = joint_state(pair).amplitudes
            weights = outcome_weights(pair)
            for j in range(4):
                expected = (1 - abs(c[j]) ** 2) / 3
                got = likelihood(j, pair.q1.theta, pair.q2.theta)
                assert got == pytest.approx(expected, abs=1e-12)
                assert weights[j] == pytest.approx(expected, abs=1e-12)

    def test_invalid_outcome(self):
        with pytest.raises(ValueError):
            likelihood(4, 0.0, 0.0)


class TestOutcomePrior:
    def test_uniform_quarter(self):
        for prior in normalizers(QUAD)[0]:
            assert prior == pytest.approx(0.25, abs=1e-12)

    def test_sums_to_one(self):
        assert sum(normalizers(QUAD)[0]) == pytest.approx(1.0, abs=1e-12)

    def test_node_count_independence(self):
        coarse = normalizers(QuadratureSpec(64))[0]
        fine = normalizers(QuadratureSpec(256))[0]
        assert coarse == pytest.approx(fine, abs=1e-12)


class TestEncodePosterior:
    def test_closed_form_on_a_grid(self):
        t1, t2 = np.meshgrid(GRID, GRID, indexing="ij")
        expected = (
            (1 - np.cos(t1 / 2) ** 2 * np.cos(t2 / 2) ** 2)
            / 3 * np.sin(t1) * np.sin(t2)
        )
        np.testing.assert_allclose(
            posterior(bayes._survivors(0), t1, t2), expected, atol=1e-12
        )

    def test_vanishes_at_the_origin(self):
        assert posterior(bayes._survivors(0), 0.0, 0.0)[0] == 0.0

    def test_reflection_symmetry_between_first_and_last_outcome(self):
        t1, t2 = np.meshgrid(GRID, GRID, indexing="ij")
        np.testing.assert_allclose(
            posterior(bayes._survivors(3), t1, t2),
            posterior(bayes._survivors(0), math.pi - t1, math.pi - t2),
            atol=1e-12,
        )

    def test_normalization(self):
        for j in range(4):
            density = lambda t1, t2: posterior(bayes._survivors(j), t1, t2)  # noqa: E731
            assert integral_2d(density) == pytest.approx(1.0, abs=1e-9)


class TestDecodePosteriors:
    def test_success_joint_matches_the_product_form(self):
        t1, t2 = np.meshgrid(GRID[1:-1], GRID[1:-1], indexing="ij")
        expected = 0.5 * np.sin(t1) * np.sin(t2 / 2) ** 2 * np.sin(t2)
        np.testing.assert_allclose(posterior(intact_block(0, 1), t1, t2), expected, atol=1e-9)

    def test_success_marginals(self):
        x, _ = QUAD.nodes()
        kept = intact_block(0, 1)
        np.testing.assert_allclose(marginal(kept, 1, x), 0.5 * np.sin(x), atol=1e-9)
        np.testing.assert_allclose(
            marginal(kept, 2, x), np.sin(x / 2) ** 2 * np.sin(x), atol=1e-9
        )

    def test_failure_joint_closed_form(self):
        t1, t2 = np.meshgrid(GRID[1:-1], GRID[1:-1], indexing="ij")
        expected = (
            np.sin(t1 / 2) ** 2 * np.cos(t2 / 2) ** 2 * np.sin(t1) * np.sin(t2)
        )
        np.testing.assert_allclose(posterior(failure_kept(0, 1), t1, t2), expected, atol=1e-9)

    def test_failure_weight_is_one_third(self):
        weight = 1.0 - normalizers(QUAD)[1][0][0]
        assert weight == pytest.approx(1 / 3, abs=1e-9)

    def test_failure_density_factorizes(self):
        kept = failure_kept(0, 1)
        inner = GRID[1:-1]
        t1, t2 = np.meshgrid(inner, inner, indexing="ij")
        product = marginal(kept, 1, inner)[:, None] * marginal(kept, 2, inner)[None, :]
        np.testing.assert_allclose(posterior(kept, t1, t2), product, atol=1e-9)

    def test_failure_vanishes_on_the_first_axis(self):
        values = posterior(failure_kept(0, 1), np.zeros(5), np.linspace(0.1, 3.0, 5))
        np.testing.assert_allclose(values, 0.0, atol=1e-15)

    def test_normalization(self):
        for kept in (intact_block(0, 1), failure_kept(0, 1)):
            density = lambda t1, t2: posterior(kept, t1, t2)  # noqa: E731
            assert integral_2d(density) == pytest.approx(1.0, abs=1e-9)


class TestEntropy:
    def test_uniform_density(self):
        uniform = np.full(64, 1 / math.pi)
        assert entropy(uniform) == pytest.approx(math.log2(math.pi), abs=1e-12)

    def test_prior_entropy_is_stable_under_node_doubling(self):
        coarse, fine = (
            entropy(prior_theta(quad.nodes()[0]), quad)
            for quad in (QuadratureSpec(256), QuadratureSpec(512))
        )
        assert abs(coarse - fine) <= 1e-9

    def test_product_density_entropy_is_additive(self):
        prior = prior_theta(QUAD.nodes()[0])
        assert entropy(prior[:, None] * prior[None, :]) == pytest.approx(
            2 * entropy(prior), abs=1e-9
        )

    def test_negative_density_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            entropy(np.sin(QUAD.nodes()[0]) - 0.5)


class TestAverageSuccess:
    def test_two_thirds_for_the_worked_case(self):
        assert normalizers(QUAD)[1][0][0] == pytest.approx(2 / 3, abs=1e-9)

    def test_two_thirds_for_every_outcome_and_target(self):
        for per_target in normalizers(QUAD)[1]:
            assert per_target == pytest.approx((2 / 3, 2 / 3), abs=1e-9)


@pytest.fixture(scope="module")
def report():
    return gain_report(QuadratureSpec(128))


class TestGainReport:
    def test_published_constants(self, report):
        assert report.encoding_gain == pytest.approx(0.0735, abs=5e-4)
        for a in (0, 1):
            assert report.marginal_encoding_gain[a] == pytest.approx(0.027, abs=5e-4)
            assert report.failure_gain[a] == pytest.approx(0.252, abs=5e-4)
        assert report.decode_gain[0] == pytest.approx(-0.027, abs=5e-4)
        assert report.decode_gain[1] == pytest.approx(0.252, abs=5e-4)
        assert report.success_total[1] == pytest.approx(0.279, abs=1e-3)

    def test_identities(self, report):
        assert report.success_total[0] == pytest.approx(0.0, abs=1e-9)
        assert report.success_total[1] == pytest.approx(report.direct_gain, abs=1e-9)
        for a in (0, 1):
            assert report.failure_total[a] == pytest.approx(
                report.direct_gain, abs=1e-9
            )
        assert sum(report.outcome_prior) == pytest.approx(1.0, abs=1e-12)

    def test_marginal_gains_agree_with_each_other(self, report):
        assert report.marginal_encoding_gain[0] == pytest.approx(
            report.marginal_encoding_gain[1], abs=1e-9
        )

    def test_joint_gain_exceeds_the_marginal_sum(self, report):
        assert report.encoding_gain - sum(report.marginal_encoding_gain) > 0.015

    def test_direct_gain_matches_helper(self, report):
        assert direct_measurement_gain(QuadratureSpec(128)) == pytest.approx(
            report.direct_gain, abs=1e-15
        )

    def test_scalars_are_independent_of_the_outcome(self, report):
        base = report_scalars(report)
        for j in (1, 2, 3):
            other = report_scalars(
                gain_report(QuadratureSpec(128), outcome=j)
            )
            for name in base:
                assert other[name] == pytest.approx(base[name], abs=1e-9), name

    def test_swapping_the_decode_target_swaps_the_per_qubit_gains(self, report):
        swapped = gain_report(QuadratureSpec(128), outcome=0, target=2)
        assert swapped.decode_gain[0] == pytest.approx(report.decode_gain[1], abs=1e-9)
        assert swapped.decode_gain[1] == pytest.approx(report.decode_gain[0], abs=1e-9)
        for a in (0, 1):
            assert swapped.failure_gain[a] == pytest.approx(
                report.failure_gain[a], abs=1e-9
            )


class TestQuadratureSpec:
    def test_quadrature_spec_floor(self):
        with pytest.raises(ValueError):
            QuadratureSpec(nodes_per_axis=8)


def test_a_report_builds_one_grid_array():
    # the encode posterior is the only n x n array; _plogp's output for its
    # entropy is the only other one alive at the same time
    quad = QuadratureSpec(512)
    gain_report(quad)  # fills the node cache
    tracemalloc.start()
    try:
        gain_report(quad)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 512**2 * np.dtype(float).itemsize


@pytest.mark.parametrize(
    "nodes, outcome, target",
    [(nodes, j, a) for nodes in (64, 256) for j in range(4) for a in (1, 2)]
    + [(512, 0, 1)],
)
def test_report_matches_brute_force_quadrature(nodes, outcome, target):
    quad = QuadratureSpec(nodes)
    computed = report_scalars(gain_report(quad, outcome, target))
    reference = reference_report_scalars(quad, outcome, target)
    assert computed.keys() == reference.keys()
    for name, value in reference.items():
        assert abs(computed[name] - value) <= 1e-13, name


@pytest.mark.parametrize("outcome", range(4))
@pytest.mark.parametrize("target", (1, 2))
def test_posterior_marginals_match_quadrature_of_the_joint(outcome, target):
    x, w = QUAD.nodes()
    for kept in (intact_block(outcome, target), failure_kept(outcome, target)):
        joint = posterior(kept, x[:, None], x[None, :])
        for axis, reference in ((1, joint @ w), (2, w @ joint)):
            np.testing.assert_allclose(marginal(kept, axis, x), reference, rtol=0, atol=1e-13)


def _mpmath_reference() -> tuple[dict, dict[str, float]]:
    # tests/reference_gains.json is written by scripts/reference_gains.py
    reference = json.loads(
        (Path(__file__).parent / "reference_gains.json").read_text()
    )
    return reference, {name: float(v) for name, v in reference["values"].items()}


def test_report_matches_the_mpmath_reference_values():
    reference, values = _mpmath_reference()
    quad = QuadratureSpec(256)
    # p log p of the prior has x log x ends, which Gauss-Legendre resolves
    # only to 8e-10 at 256 nodes; that error cancels in every gain
    h_prior = entropy(prior_theta(quad.nodes()[0]), quad)
    assert abs(h_prior - values.pop("h_prior")) <= 1e-9
    computed = report_scalars(
        gain_report(quad, reference["outcome"], reference["target"])
    )
    assert len(values) == 8
    for name, value in values.items():
        assert abs(computed[name] - value) <= 1e-12, name


def test_exact_report_matches_the_mpmath_reference_values():
    reference, values = _mpmath_reference()
    del values["h_prior"]  # not a report scalar
    exact = exact_report(reference["outcome"], reference["target"])
    assert len(values) == 8
    for name, value in values.items():
        assert abs(exact[name] - value) <= 1e-15, name


@pytest.mark.parametrize("outcome", range(4))
@pytest.mark.parametrize("target", (1, 2))
def test_exact_report_matches_the_quadrature_report(outcome, target):
    computed = report_scalars(gain_report(QUAD, outcome, target))
    exact = exact_report(outcome, target)
    assert exact.keys() == computed.keys()
    for name, value in exact.items():
        assert abs(computed[name] - value) <= 1e-12, name


def test_exact_report_validates_its_arguments():
    with pytest.raises(ValueError):
        exact_report(outcome=4)
    with pytest.raises(ValueError):
        exact_report(target=3)


def test_node_doubling_check_is_gone():
    with pytest.raises(TypeError, match="exact_report"):
        gain_report(QUAD, check_convergence=True)
