"""Quadrature building blocks, entropies, and the information-gain report."""

from __future__ import annotations

import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import qutritcodec.bayes as bayes
from qutritcodec import (
    BlochAngles,
    QuadratureSpec,
    decode_levels,
    encode,
    exact_report,
    gain_report,
    joint_state,
    prior_theta,
)
from qutritcodec import codec
from conftest import (
    likelihood, random_pair, reference_gauss_legendre, reference_report_scalars,
)

QUAD = QuadratureSpec(nodes_per_axis=64)
GRID = np.linspace(0.0, math.pi, 32)


def integral_2d(pdf, quad=QUAD) -> float:
    x, w = quad.nodes()
    return float(np.einsum("i,j,ij->", w, w, pdf(x[:, None], x[None, :])))


def pair_at(theta1: float, theta2: float) -> tuple[BlochAngles, BlochAngles]:
    return BlochAngles(theta1, 1.0), BlochAngles(theta2, 2.0)


def entropy(values, quad=QUAD) -> float:
    return float(bayes._entropy(np.asarray(values), quad.nodes()[1]))


def bit_masses(quad=QUAD):
    x, w = quad.nodes()
    return np.sum(w * bayes._bit_densities(x), axis=1)


# Every posterior of the protocol is the prior times the weight of some kept
# register indices, one 2 x 2 mask over (b1, b2) in the report's table: an
# outcome keeps its survivors, a successful decode the intact block and a
# failed one the remaining survivor; reading qubit 1 keeps its bit's indices.
def masks(outcome=0, target=1):
    return bayes._MASKS[outcome, target - 1]


def posterior(mask, t1, t2, quad=QUAD):
    """Joint posterior from the per-bit densities and masses of the report."""
    d1, d2 = bayes._bit_densities(t1), bayes._bit_densities(t2)
    weight = sum(mask[b1, b2] * d1[b1] * d2[b2] for b1 in (0, 1) for b2 in (0, 1))
    m = bit_masses(quad)
    return weight / (m @ mask @ m)


def zero_safe_plogp(values):
    """p log2 p with 0 log 0 = 0, taking no log of zero."""
    positive = values > 0.0
    return np.where(positive, values * np.log2(np.where(positive, values, 1.0)), 0.0)


def marginal(mask, qubit, theta, quad=QUAD):
    """The report's separable marginal of the same posterior, at any angles."""
    _, marginals = bayes._marginals(mask[None], bit_masses(quad), bayes._bit_densities(theta))
    return marginals[qubit - 1]


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
        assert encode(pair_at(0.0, 0.0), 0.0).weights[0] == 0.0

    def test_closed_form_for_first_outcome(self):
        t1, t2 = np.meshgrid(GRID, GRID, indexing="ij")
        expected = (1 - np.cos(t1 / 2) ** 2 * np.cos(t2 / 2) ** 2) / 3
        np.testing.assert_allclose(likelihood(0, t1, t2), expected, atol=1e-15)

    def test_vanishes_where_the_branch_is_certainly_other(self):
        assert likelihood(2, 0.0, math.pi) == pytest.approx(0.0, abs=1e-30)
        assert encode(pair_at(0.0, math.pi), 0.0).weights[2] == pytest.approx(0.0, abs=1e-30)

    def test_likelihoods_sum_to_one(self):
        t1, t2 = np.meshgrid(GRID, GRID, indexing="ij")
        total = sum(likelihood(j, t1, t2) for j in range(4))
        np.testing.assert_allclose(total, np.ones_like(t1), atol=1e-15)

    def test_matches_register_amplitudes(self, rng):
        for _ in range(20):
            pair = random_pair(rng)
            c = joint_state(pair).amplitudes
            weights = encode(pair, 0.0).weights
            for j in range(4):
                expected = (1 - abs(c[j]) ** 2) / 3
                got = likelihood(j, pair[0].theta, pair[1].theta)
                assert got == pytest.approx(expected, abs=1e-12)
                assert weights[j] == pytest.approx(expected, abs=1e-12)

    def test_invalid_outcome(self):
        with pytest.raises(ValueError):
            likelihood(4, 0.0, 0.0)


class TestOutcomePrior:
    def test_uniform_quarter(self):
        for j in range(4):
            assert gain_report(QUAD)[f"outcome_prior_{j}"] == pytest.approx(0.25, abs=1e-12)

    def test_sums_to_one(self):
        priors = gain_report(QUAD)
        assert sum(priors[f"outcome_prior_{j}"] for j in range(4)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_node_count_independence(self):
        coarse = gain_report(QuadratureSpec(64))
        fine = gain_report(QuadratureSpec(256))
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
            posterior(masks()[bayes._ENCODE], t1, t2), expected, atol=1e-12
        )

    def test_vanishes_at_the_origin(self):
        assert posterior(masks()[bayes._ENCODE], 0.0, 0.0)[0] == 0.0

    def test_reflection_symmetry_between_first_and_last_outcome(self):
        t1, t2 = np.meshgrid(GRID, GRID, indexing="ij")
        np.testing.assert_allclose(
            posterior(masks(3)[bayes._ENCODE], t1, t2),
            posterior(masks(0)[bayes._ENCODE], math.pi - t1, math.pi - t2),
            atol=1e-12,
        )

    def test_normalization(self):
        for j in range(4):
            density = lambda t1, t2: posterior(masks(j)[bayes._ENCODE], t1, t2)  # noqa: E731
            assert integral_2d(density) == pytest.approx(1.0, abs=1e-9)


class TestDecodePosteriors:
    def test_success_joint_matches_the_product_form(self):
        t1, t2 = np.meshgrid(GRID[1:-1], GRID[1:-1], indexing="ij")
        expected = 0.5 * np.sin(t1) * np.sin(t2 / 2) ** 2 * np.sin(t2)
        np.testing.assert_allclose(posterior(masks()[bayes._SUCCESS], t1, t2), expected, atol=1e-9)

    def test_success_marginals(self):
        x, _ = QUAD.nodes()
        kept = masks()[bayes._SUCCESS]
        np.testing.assert_allclose(marginal(kept, 1, x), 0.5 * np.sin(x), atol=1e-9)
        np.testing.assert_allclose(
            marginal(kept, 2, x), np.sin(x / 2) ** 2 * np.sin(x), atol=1e-9
        )

    def test_failure_joint_closed_form(self):
        t1, t2 = np.meshgrid(GRID[1:-1], GRID[1:-1], indexing="ij")
        expected = (
            np.sin(t1 / 2) ** 2 * np.cos(t2 / 2) ** 2 * np.sin(t1) * np.sin(t2)
        )
        np.testing.assert_allclose(posterior(masks()[bayes._FAILURE], t1, t2), expected, atol=1e-9)

    def test_failure_weight_is_one_third(self):
        weight = 1.0 - gain_report(QUAD)["success_probability_j0_target1"]
        assert weight == pytest.approx(1 / 3, abs=1e-9)

    def test_failure_density_factorizes(self):
        kept = masks()[bayes._FAILURE]
        inner = GRID[1:-1]
        t1, t2 = np.meshgrid(inner, inner, indexing="ij")
        product = marginal(kept, 1, inner)[:, None] * marginal(kept, 2, inner)[None, :]
        np.testing.assert_allclose(posterior(kept, t1, t2), product, atol=1e-9)

    def test_failure_vanishes_on_the_first_axis(self):
        values = posterior(masks()[bayes._FAILURE], np.zeros(5), np.linspace(0.1, 3.0, 5))
        np.testing.assert_allclose(values, 0.0, atol=1e-15)

    def test_normalization(self):
        for kept in masks()[[bayes._SUCCESS, bayes._FAILURE]]:
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

    def test_negative_joint_density_rejected(self):
        x, w = QUAD.nodes()
        with pytest.raises(ValueError, match="negative"):
            bayes._joint_entropy((np.sin(x) - 0.5)[:, None], prior_theta(x)[None, :], 1.0, w)

    def test_zeros_contribute_exactly_nothing(self):
        x, w = QUAD.nodes()
        holed = np.where(np.arange(len(x)) % 3 == 0, 0.0, prior_theta(x))
        # two rank terms, of which the second is zero: p has zero rows and columns
        left = np.stack([holed, np.zeros_like(x)], axis=1)
        right = np.stack([holed, prior_theta(x)])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert bayes._entropy(holed, w) == -np.sum(w * zero_safe_plogp(holed))
            p = left @ right
            reference = -np.sum(w * np.einsum("ij,j->i", zero_safe_plogp(p), w))
            assert bayes._joint_entropy(left, right, 1.0, w) == reference

    def test_subnormal_density_has_a_finite_entropy(self):
        x, w = QUAD.nodes()
        tiny = prior_theta(x)
        tiny[::2] = (5e-324, 1e-310, 2.2e-308, 0.0) * (len(x) // 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert np.all(np.isfinite(bayes._plogp(tiny)))
            assert math.isfinite(entropy(tiny))
            assert math.isfinite(bayes._joint_entropy(tiny[:, None], tiny[None, :], 1.0, w))


class TestAverageSuccess:
    def test_two_thirds_for_the_worked_case(self):
        assert gain_report(QUAD)["success_probability_j0_target1"] == pytest.approx(
            2 / 3, abs=1e-9
        )

    def test_two_thirds_for_every_outcome_and_target(self):
        scalars = gain_report(QUAD)
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

    def test_rejects_fractional_nodes(self):
        with pytest.raises(TypeError):
            QuadratureSpec(20.5)


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


# 300: a ragged last strip; 4096: strips of two rows
@pytest.mark.parametrize("nodes", (16, 100, 256, 300, 1024, 4096))
@pytest.mark.parametrize("outcome", range(4))
def test_strip_entropy_equals_the_whole_grid_entropy(nodes, outcome):
    x, w = QuadratureSpec(nodes).nodes()
    densities = bayes._bit_densities(x)
    mask = masks(outcome)[bayes._ENCODE]
    m = np.sum(w * densities, axis=1)
    mass = m @ mask @ m
    left = densities.T @ mask
    # the strips' arithmetic on the whole n x n grid at once
    row_sums = np.einsum("ij,j->i", bayes._plogp((left / mass) @ densities), w)
    assert bayes._joint_entropy(left, densities, mass, w) == -float(np.sum(w * row_sums))


@pytest.mark.parametrize("outcome", range(4))
@pytest.mark.parametrize("target", (1, 2))
def test_kept_set_table_identities(outcome, target):
    table = masks(outcome, target)
    assert not table.flags.writeable
    prior, encode, success, failure, read_0, read_1 = table
    assert np.array_equal(success + failure, encode)
    assert not np.any(success * failure)
    assert np.array_equal(sum(masks(j, target)[bayes._ENCODE] for j in range(4)), 3 * prior)
    assert np.array_equal(read_0 + read_1, prior)
    for nodes in (16, 64, 256):
        x, w = QuadratureSpec(nodes).nodes()
        _, marginals = bayes._marginals(table, bit_masses(QuadratureSpec(nodes)),
                                        bayes._bit_densities(x))
        assert marginals.shape == (12, nodes)
        assert np.max(np.abs(marginals @ w - 1.0)) <= 1e-14


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


def test_joint_entropy_at_the_largest_cli_nodes_allocates_no_grid_array():
    # the whole 4096 x 4096 posterior would take 128 MiB
    x, w = QuadratureSpec(4096).nodes()
    densities = bayes._bit_densities(x)
    left = densities.T @ masks()[bayes._ENCODE]
    peak = _traced_peak(lambda: bayes._joint_entropy(left, densities, 1.0, w))
    assert peak < 2**20


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
    for kept in masks(outcome, target):
        joint = posterior(kept, x[:, None], x[None, :])
        for axis, reference in ((1, joint @ w), (2, w @ joint)):
            np.testing.assert_allclose(marginal(kept, axis, x), reference, rtol=0, atol=1e-13)


def _mpmath_reference() -> tuple[float, list[tuple[int, int, dict[str, float]]]]:
    # tests/reference_gains.json is written by scripts/reference_gains.py
    reference = json.loads(
        (Path(__file__).parent / "reference_gains.json").read_text()
    )
    reports = [
        (report["outcome"], report["target"],
         {name: float(v) for name, v in report["values"].items()})
        for report in reference["reports"]
    ]
    assert [(outcome, target) for outcome, target, _ in reports] == [(0, 1), (0, 2)]
    return float(reference["h_prior"]), reports


def test_report_matches_the_mpmath_reference_values():
    h_prior_reference, reports = _mpmath_reference()
    quad = QuadratureSpec(256)
    # p log p of the prior has x log x ends, which Gauss-Legendre resolves
    # only to 8e-10 at 256 nodes; that error cancels in every gain
    h_prior = entropy(prior_theta(quad.nodes()[0]), quad)
    assert abs(h_prior - h_prior_reference) <= 1e-9
    for outcome, target, values in reports:
        computed = gain_report(quad, outcome, target)
        assert len(values) == 8
        for name, value in values.items():
            assert abs(computed[name] - value) <= 1e-12, (target, name)


def test_exact_report_matches_the_mpmath_reference_values():
    for outcome, target, values in _mpmath_reference()[1]:
        exact = exact_report(outcome, target)
        assert len(values) == 8
        for name, value in values.items():
            assert abs(exact[name] - value) <= 1e-15, (target, name)


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


def test_exact_report_validates_its_arguments():
    with pytest.raises(ValueError):
        exact_report(outcome=4)
    with pytest.raises(ValueError):
        exact_report(target=3)
    for bad_target in (3, 0):
        with pytest.raises(ValueError):
            gain_report(QuadratureSpec(16), 0, bad_target)


def test_floats_raise_before_and_after_a_valid_call_and_int_likes_read_as_ints():
    # 1.0 == 1 with the same hash: guards against a cache added later that,
    # once called at (1, 1), would answer (1.0, 1) without running the checks
    quad = QuadratureSpec(16)
    calls = (
        decode_levels, codec.intact_block, lambda j, a: gain_report(quad, j, a), exact_report
    )
    for warm in (False, True):
        for call in calls:
            if warm:
                call(1, 1)
            for outcome, target in ((1.0, 1), (1, 1.0)):
                with pytest.raises(TypeError):
                    call(outcome, target)
    for call in calls:
        for one in (np.int64(1), True):
            assert call(one, one) == call(1, 1)


def test_node_doubling_check_is_gone():
    with pytest.raises(TypeError, match="exact_report"):
        gain_report(QUAD, check_convergence=True)
