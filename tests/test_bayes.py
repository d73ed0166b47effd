"""Quadrature densities, entropies, and the information-gain report."""

from __future__ import annotations

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qutritcodec.bayes as bayes
from qutritcodec import (
    Density1D,
    Density2D,
    QuadratureSpec,
    average_success_probability,
    decode_posterior_failure,
    decode_posterior_success,
    direct_measurement_gain,
    encode_posterior,
    entropy_bits,
    exact_report,
    gain_report,
    joint_state,
    outcome_likelihood,
    outcome_prior,
    prior_theta,
    report_scalars,
)
from conftest import random_pair, reference_report_scalars

QUAD = QuadratureSpec(nodes_per_axis=64)
GRID = np.linspace(0.0, math.pi, 32)


def integral_1d(density: Density1D, quad=QUAD) -> float:
    x, w = quad.nodes()
    return float(np.sum(w * density.pdf(x)))


def integral_2d(density: Density2D, quad=QUAD) -> float:
    x, w = quad.nodes()
    return float(np.einsum("i,j,ij->", w, w, density.pdf(x[:, None], x[None, :])))


class TestPrior:
    def test_endpoint_and_midpoint_values(self):
        prior = prior_theta()
        assert prior.pdf(np.array([0.0]))[0] == 0.0
        assert prior.pdf(np.array([math.pi / 2]))[0] == pytest.approx(0.5)

    def test_normalization(self):
        assert integral_1d(prior_theta()) == pytest.approx(1.0, abs=1e-12)


class TestOutcomeLikelihood:
    def test_impossible_result(self):
        assert outcome_likelihood(0, 0.0, 0.0) == 0.0

    def test_closed_form_for_first_outcome(self):
        t1, t2 = np.meshgrid(GRID, GRID, indexing="ij")
        expected = (1 - np.cos(t1 / 2) ** 2 * np.cos(t2 / 2) ** 2) / 3
        np.testing.assert_allclose(
            outcome_likelihood(0, t1, t2), expected, atol=1e-15
        )

    def test_vanishes_where_the_branch_is_certainly_other(self):
        assert outcome_likelihood(2, 0.0, math.pi) == pytest.approx(0.0, abs=1e-30)

    def test_likelihoods_sum_to_one(self):
        t1, t2 = np.meshgrid(GRID, GRID, indexing="ij")
        total = sum(outcome_likelihood(j, t1, t2) for j in range(4))
        np.testing.assert_allclose(total, np.ones_like(t1), atol=1e-15)

    def test_matches_register_amplitudes(self, rng):
        for _ in range(20):
            pair = random_pair(rng)
            c = joint_state(pair).amplitudes
            for j in range(4):
                expected = (1 - abs(c[j]) ** 2) / 3
                got = outcome_likelihood(j, pair.q1.theta, pair.q2.theta)
                assert got == pytest.approx(expected, abs=1e-12)

    def test_invalid_outcome(self):
        with pytest.raises(ValueError):
            outcome_likelihood(4, 0.0, 0.0)


class TestOutcomePrior:
    def test_uniform_quarter(self):
        for j in range(4):
            assert outcome_prior(j, QUAD) == pytest.approx(0.25, abs=1e-12)

    def test_sums_to_one(self):
        total = sum(outcome_prior(j, QUAD) for j in range(4))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_node_count_independence(self):
        coarse = outcome_prior(0, QuadratureSpec(64))
        fine = outcome_prior(0, QuadratureSpec(256))
        assert coarse == pytest.approx(fine, abs=1e-12)


class TestEncodePosterior:
    def test_closed_form_on_a_grid(self):
        posterior = encode_posterior(0, QUAD)
        t1, t2 = np.meshgrid(GRID, GRID, indexing="ij")
        expected = (
            (1 - np.cos(t1 / 2) ** 2 * np.cos(t2 / 2) ** 2)
            / 3 * np.sin(t1) * np.sin(t2)
        )
        np.testing.assert_allclose(posterior.pdf(t1, t2), expected, atol=1e-12)

    def test_vanishes_at_the_origin(self):
        posterior = encode_posterior(0, QUAD)
        assert posterior.pdf(np.array([0.0]), np.array([0.0]))[0] == 0.0

    def test_reflection_symmetry_between_first_and_last_outcome(self):
        post0 = encode_posterior(0, QUAD)
        post3 = encode_posterior(3, QUAD)
        t1, t2 = np.meshgrid(GRID, GRID, indexing="ij")
        np.testing.assert_allclose(
            post3.pdf(t1, t2),
            post0.pdf(math.pi - t1, math.pi - t2),
            atol=1e-12,
        )

    def test_normalization(self):
        for j in range(4):
            assert integral_2d(encode_posterior(j, QUAD)) == pytest.approx(
                1.0, abs=1e-9
            )


class TestDecodePosteriors:
    def test_success_joint_matches_the_product_form(self):
        success = decode_posterior_success(0, 1, QUAD)
        t1, t2 = np.meshgrid(GRID[1:-1], GRID[1:-1], indexing="ij")
        expected = 0.5 * np.sin(t1) * np.sin(t2 / 2) ** 2 * np.sin(t2)
        np.testing.assert_allclose(success.joint.pdf(t1, t2), expected, atol=1e-9)

    def test_success_marginals(self):
        success = decode_posterior_success(0, 1, QUAD)
        x, _ = QUAD.nodes()
        np.testing.assert_allclose(
            success.marginal_q1.pdf(x), 0.5 * np.sin(x), atol=1e-9
        )
        np.testing.assert_allclose(
            success.marginal_q2.pdf(x), np.sin(x / 2) ** 2 * np.sin(x), atol=1e-9
        )

    def test_failure_joint_closed_form(self):
        failure = decode_posterior_failure(0, 1, QUAD)
        t1, t2 = np.meshgrid(GRID[1:-1], GRID[1:-1], indexing="ij")
        expected = (
            np.sin(t1 / 2) ** 2 * np.cos(t2 / 2) ** 2 * np.sin(t1) * np.sin(t2)
        )
        np.testing.assert_allclose(failure.joint.pdf(t1, t2), expected, atol=1e-9)

    def test_failure_weight_is_one_third(self):
        weight = 1.0 - average_success_probability(0, 1, QUAD)
        assert weight == pytest.approx(1 / 3, abs=1e-9)

    def test_failure_density_factorizes(self):
        failure = decode_posterior_failure(0, 1, QUAD)
        inner = GRID[1:-1]
        t1, t2 = np.meshgrid(inner, inner, indexing="ij")
        product = failure.marginal_q1.pdf(inner)[:, None] * (
            failure.marginal_q2.pdf(inner)[None, :]
        )
        np.testing.assert_allclose(failure.joint.pdf(t1, t2), product, atol=1e-9)

    def test_failure_vanishes_on_the_first_axis(self):
        failure = decode_posterior_failure(0, 1, QUAD)
        values = failure.joint.pdf(np.zeros(5), np.linspace(0.1, 3.0, 5))
        np.testing.assert_allclose(values, 0.0, atol=1e-15)

    def test_normalization(self):
        assert integral_2d(decode_posterior_success(0, 1, QUAD).joint) == pytest.approx(
            1.0, abs=1e-9
        )
        assert integral_2d(decode_posterior_failure(0, 1, QUAD).joint) == pytest.approx(
            1.0, abs=1e-9
        )


class TestEntropy:
    def test_uniform_density(self):
        uniform = Density1D(pdf=lambda theta: np.full_like(theta, 1 / math.pi))
        assert entropy_bits(uniform, QUAD) == pytest.approx(
            math.log2(math.pi), abs=1e-12
        )

    def test_prior_entropy_is_stable_under_node_doubling(self):
        coarse = entropy_bits(prior_theta(), QuadratureSpec(256))
        fine = entropy_bits(prior_theta(), QuadratureSpec(512))
        assert abs(coarse - fine) <= 1e-9

    def test_product_density_entropy_is_additive(self):
        prior = prior_theta()
        product = Density2D(pdf=lambda t1, t2: prior.pdf(t1) * prior.pdf(t2))
        assert entropy_bits(product, QUAD) == pytest.approx(
            2 * entropy_bits(prior, QUAD), abs=1e-9
        )

    def test_negative_density_rejected(self):
        bad = Density1D(pdf=lambda theta: np.sin(theta) - 0.5)
        with pytest.raises(ValueError, match="negative"):
            entropy_bits(bad, QUAD)


class TestAverageSuccess:
    def test_two_thirds_for_the_worked_case(self):
        assert average_success_probability(0, 1, QUAD) == pytest.approx(
            2 / 3, abs=1e-9
        )

    def test_two_thirds_for_every_outcome_and_target(self):
        for j in range(4):
            for a in (1, 2):
                assert average_success_probability(j, a, QUAD) == pytest.approx(
                    2 / 3, abs=1e-9
                )


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
    x, _ = QUAD.nodes()
    for posterior in (
        decode_posterior_success(outcome, target, QUAD),
        decode_posterior_failure(outcome, target, QUAD),
    ):
        for axis, marginal in ((1, posterior.marginal_q1), (2, posterior.marginal_q2)):
            reference = bayes.marginal_density(posterior.joint, QUAD, axis).pdf(x)
            np.testing.assert_allclose(marginal.pdf(x), reference, rtol=0, atol=1e-13)


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
    assert abs(entropy_bits(prior_theta(), quad) - values.pop("h_prior")) <= 1e-9
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
