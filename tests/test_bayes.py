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
    exact_report,
    gain_report,
    joint_state,
    normalizers,
    outcome_weights,
    prior_theta,
)
from qutritcodec.codec import intact_block, qubit_bit, survivors
from conftest import (
    likelihood, random_pair, reference_gauss_legendre, reference_report_scalars,
)

QUAD = QuadratureSpec(nodes_per_axis=64)
GRID = np.linspace(0.0, math.pi, 32)


def integral_2d(pdf, quad=QUAD) -> float:
    x, w = quad.nodes()
    return float(np.einsum("i,j,ij->", w, w, pdf(x[:, None], x[None, :])))


def pair_at(theta1: float, theta2: float) -> QubitPair:
    return QubitPair(BlochAngles(theta1, 1.0), BlochAngles(theta2, 2.0))


def entropy(values, quad=QUAD) -> float:
    return float(bayes._entropy(np.asarray(values), quad.nodes()[1]))


def bit_masses(quad=QUAD):
    x, w = quad.nodes()
    return bayes._bit_masses(w, bayes._bit_densities(x))


# Every posterior of the protocol is the prior times the weight of some kept
# register indices: an outcome keeps its survivors, a successful decode the
# intact block and a failed one the remaining survivor.
def failure_kept(outcome, target):
    return set(survivors(outcome)) - set(intact_block(outcome, target))


def posterior(kept, t1, t2, quad=QUAD):
    """Joint posterior from the per-bit densities and masses of the report."""
    d1, d2 = bayes._bit_densities(t1), bayes._bit_densities(t2)
    weight = sum(d1[qubit_bit(k, 1)] * d2[qubit_bit(k, 2)] for k in kept)
    return weight / bayes._kept_mass(kept, bit_masses(quad))


def marginal(kept, qubit, theta, quad=QUAD):
    """The report's separable marginal of the same posterior."""
    densities = bayes._bit_densities(theta)
    return bayes._kept_marginal(kept, qubit, densities, bit_masses(quad))


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
        for j in range(4):
            assert normalizers(QUAD)[f"outcome_prior_{j}"] == pytest.approx(0.25, abs=1e-12)

    def test_sums_to_one(self):
        priors = normalizers(QUAD)
        assert sum(priors[f"outcome_prior_{j}"] for j in range(4)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_node_count_independence(self):
        coarse = normalizers(QuadratureSpec(64))
        fine = normalizers(QuadratureSpec(256))
        for j in range(4):
            name = f"outcome_prior_{j}"
            assert coarse[name] == pytest.approx(fine[name], abs=1e-12)


class TestEncodePosterior:
    def test_closed_form_on_a_grid(self):
        t1, t2 = np.meshgrid(GRID, GRID, indexing="ij")
        expected = (
            (1 - np.cos(t1 / 2) ** 2 * np.cos(t2 / 2) ** 2)
            / 3 * np.sin(t1) * np.sin(t2)
        )
        np.testing.assert_allclose(
            posterior(survivors(0), t1, t2), expected, atol=1e-12
        )

    def test_vanishes_at_the_origin(self):
        assert posterior(survivors(0), 0.0, 0.0)[0] == 0.0

    def test_reflection_symmetry_between_first_and_last_outcome(self):
        t1, t2 = np.meshgrid(GRID, GRID, indexing="ij")
        np.testing.assert_allclose(
            posterior(survivors(3), t1, t2),
            posterior(survivors(0), math.pi - t1, math.pi - t2),
            atol=1e-12,
        )

    def test_normalization(self):
        for j in range(4):
            density = lambda t1, t2: posterior(survivors(j), t1, t2)  # noqa: E731
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
        weight = 1.0 - normalizers(QUAD)["success_probability_j0_target1"]
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
        x, w = QUAD.nodes()
        prior = prior_theta(x)
        joint = bayes._joint_entropy(prior[:, None], prior[None, :], 1.0, w)
        assert joint == pytest.approx(2 * entropy(prior), abs=1e-9)

    def test_entropies_of_stacked_rows_are_the_rows_entropies(self):
        rows = np.stack([prior_theta(QUAD.nodes()[0]), np.full(64, 1 / math.pi)])
        assert bayes._entropy(rows, QUAD.nodes()[1]).tolist() == [entropy(r) for r in rows]

    def test_negative_density_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            entropy(np.sin(QUAD.nodes()[0]) - 0.5)


class TestAverageSuccess:
    def test_two_thirds_for_the_worked_case(self):
        assert normalizers(QUAD)["success_probability_j0_target1"] == pytest.approx(
            2 / 3, abs=1e-9
        )

    def test_two_thirds_for_every_outcome_and_target(self):
        scalars = normalizers(QUAD)
        for j in range(4):
            per_target = [scalars[f"success_probability_j{j}_target{a}"] for a in (1, 2)]
            assert per_target == pytest.approx((2 / 3, 2 / 3), abs=1e-9)


@pytest.fixture(scope="module")
def report():
    return gain_report(QuadratureSpec(128))


class TestGainReport:
    def test_published_constants(self, report):
        assert report["encoding_gain"] == pytest.approx(0.0735, abs=5e-4)
        for a in (1, 2):
            assert report[f"marginal_encoding_gain_q{a}"] == pytest.approx(0.027, abs=5e-4)
            assert report[f"failure_gain_q{a}"] == pytest.approx(0.252, abs=5e-4)
        assert report["decode_gain_q1"] == pytest.approx(-0.027, abs=5e-4)
        assert report["decode_gain_q2"] == pytest.approx(0.252, abs=5e-4)
        assert report["success_total_q2"] == pytest.approx(0.279, abs=1e-3)

    def test_identities(self, report):
        assert report["success_total_q1"] == pytest.approx(0.0, abs=1e-9)
        assert report["success_total_q2"] == pytest.approx(report["direct_gain"], abs=1e-9)
        for a in (1, 2):
            assert report[f"failure_total_q{a}"] == pytest.approx(
                report["direct_gain"], abs=1e-9
            )
        priors = [report[f"outcome_prior_{j}"] for j in range(4)]
        assert sum(priors) == pytest.approx(1.0, abs=1e-12)

    def test_marginal_gains_agree_with_each_other(self, report):
        assert report["marginal_encoding_gain_q1"] == pytest.approx(
            report["marginal_encoding_gain_q2"], abs=1e-9
        )

    def test_joint_gain_exceeds_the_marginal_sum(self, report):
        marginal_sum = report["marginal_encoding_gain_q1"] + report["marginal_encoding_gain_q2"]
        assert report["encoding_gain"] - marginal_sum > 0.015

    def test_direct_gain_matches_helper(self, report):
        assert report["direct_gain"] == pytest.approx(1 - 1 / (2 * math.log(2)), abs=1e-12)

    def test_scalars_are_independent_of_the_outcome(self, report):
        for j in (1, 2, 3):
            other = gain_report(QuadratureSpec(128), outcome=j)
            for name in report:
                assert other[name] == pytest.approx(report[name], abs=1e-9), name

    def test_swapping_the_decode_target_swaps_the_per_qubit_gains(self, report):
        swapped = gain_report(QuadratureSpec(128), outcome=0, target=2)
        assert swapped["decode_gain_q1"] == pytest.approx(report["decode_gain_q2"], abs=1e-9)
        assert swapped["decode_gain_q2"] == pytest.approx(report["decode_gain_q1"], abs=1e-9)
        for a in (1, 2):
            assert swapped[f"failure_gain_q{a}"] == pytest.approx(
                report[f"failure_gain_q{a}"], abs=1e-9
            )


class TestQuadratureSpec:
    def test_quadrature_spec_floor(self):
        with pytest.raises(ValueError):
            QuadratureSpec(nodes_per_axis=8)


RULE_SIZES = (16, 17, 64, 100, 255, 256, 1024)


class TestGaussLegendreRule:
    @pytest.mark.parametrize("n", RULE_SIZES)
    def test_nodes_match_leggauss(self, n):
        x, _ = np.polynomial.legendre.leggauss(n)
        nodes, _ = bayes._gauss_legendre(n)
        np.testing.assert_allclose(nodes, 0.5 * math.pi * (x + 1.0), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n", RULE_SIZES)
    def test_weights_match_the_extended_precision_rule(self, n):
        # leggauss is no reference for the weights: near the ends of [-1, 1]
        # its weights err by up to 1.2e-9 (relative) at 1024 nodes
        if np.finfo(np.longdouble).eps > 1e-18:
            pytest.skip("long double is no wider than double on this platform")
        _, reference = reference_gauss_legendre(n)
        _, weights = bayes._gauss_legendre(n)
        np.testing.assert_allclose(
            weights, 0.5 * math.pi * reference.astype(float), rtol=1e-13, atol=0
        )

    @pytest.mark.parametrize("n", (*RULE_SIZES, 4096))
    def test_symmetric_about_the_midpoint_with_weights_summing_to_pi(self, n):
        nodes, weights = bayes._gauss_legendre(n)
        assert np.all(np.diff(nodes) > 0.0)
        assert np.array_equal(weights, weights[::-1])
        assert np.max(np.abs(nodes + nodes[::-1] - math.pi)) <= 2 * np.spacing(math.pi)
        assert abs(float(np.sum(weights)) - math.pi) <= 1e-14

    @pytest.mark.parametrize("n", (16, 64))
    def test_even_powers_integrate_exactly_up_to_degree_2n_minus_1(self, n):
        nodes, weights = bayes._gauss_legendre(n)
        y = nodes / (0.5 * math.pi) - 1.0  # back on [-1, 1]
        for k in range(n):
            exact = math.pi / (2 * k + 1)
            assert abs(float(np.sum(weights * y ** (2 * k))) / exact - 1.0) <= 1e-14, k


@pytest.mark.parametrize("nodes", (16, 100, 256, 300, 1024))  # 300: a ragged last strip
@pytest.mark.parametrize("outcome", range(4))
def test_strip_entropy_equals_the_whole_grid_entropy(nodes, outcome):
    x, w = QuadratureSpec(nodes).nodes()
    densities = bayes._bit_densities(x)
    mask = np.ones((2, 2))
    mask[qubit_bit(outcome, 1), qubit_bit(outcome, 2)] = 0.0
    mass = bayes._kept_mass(survivors(outcome), bayes._bit_masses(w, densities))
    joint = densities.T @ mask @ densities
    joint /= mass
    whole = float(-np.einsum("i,j,ij->", w, w, bayes._plogp(joint)))
    assert bayes._joint_entropy(densities.T @ mask, densities, mass, w) == whole


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_warm_report_allocates_no_grid_array():
    # strips of at most 64 KiB take the place of the n x n encode posterior
    quad = QuadratureSpec(512)
    gain_report(quad)  # fills the node cache
    peak = _traced_peak(lambda: gain_report(quad))
    assert peak < 0.25 * 512**2 * np.dtype(float).itemsize


def test_a_cold_report_at_the_largest_cli_nodes_stays_small():
    # node generation included: the rule holds O(n) arrays, not leggauss's n x n
    bayes._gauss_legendre.cache_clear()
    peak = _traced_peak(lambda: gain_report(QuadratureSpec(4096)))
    assert peak < 16 * 2**20


@pytest.mark.parametrize(
    "nodes, outcome, target",
    [(nodes, j, a) for nodes in (64, 256) for j in range(4) for a in (1, 2)]
    + [(512, 0, 1)],
)
def test_report_matches_brute_force_quadrature(nodes, outcome, target):
    quad = QuadratureSpec(nodes)
    computed = gain_report(quad, outcome, target)
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
    computed = gain_report(quad, reference["outcome"], reference["target"])
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
    computed = gain_report(QUAD, outcome, target)
    exact = exact_report(outcome, target)
    assert exact.keys() == computed.keys()
    for name, value in exact.items():
        assert abs(computed[name] - value) <= 1e-12, name


def test_every_report_shares_the_scalar_names_and_their_order():
    names = list(gain_report(QUAD))
    assert list(exact_report()) == names
    assert list(reference_report_scalars(QUAD, 0, 1)) == names


def test_normalizers_are_the_first_twelve_report_scalars():
    first = dict(list(gain_report(QUAD).items())[:12])
    assert normalizers(QUAD) == first
    assert list(normalizers(QUAD)) == list(first)


def test_exact_report_validates_its_arguments():
    with pytest.raises(ValueError):
        exact_report(outcome=4)
    with pytest.raises(ValueError):
        exact_report(target=3)
    for bad_target in (3, 0):
        with pytest.raises(ValueError):
            gain_report(QuadratureSpec(16), 0, bad_target)


def test_node_doubling_check_is_gone():
    with pytest.raises(TypeError, match="exact_report"):
        gain_report(QUAD, check_convergence=True)
