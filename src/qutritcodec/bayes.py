"""Bayesian information-gain accounting over the preparation angles.

Random preparations put independent priors (1/2) sin(theta) on each qubit's
polar angle; every likelihood that appears in the protocol is independent
of the azimuthal phases, so the whole analysis lives on [0, pi]^2. All
integrals use a fixed tensor-product Gauss-Legendre rule, which keeps every
reported scalar deterministic, and entropies are differential entropies in
bits with the 0 * log 0 = 0 convention at density zeros. `exact_report`
gives every scalar in closed form, which bounds the quadrature error.

Every posterior is the prior times the register weight sum_k |c_k|^2 of
some kept indices, and each |c_k|^2 is a product of per-qubit factors
cos^2(theta/2) or sin^2(theta/2). With the per-bit densities
d[bit](theta) = (bit factor) * prior(theta), such a posterior is a sum of
products d[b1(k)](theta1) d[b2(k)](theta2), so its normalizer (outcome
priors, average success probabilities) and both of its marginals are 1-D
sums. A gain report therefore builds a single n x n array, the encode
posterior d.T @ K @ d for the 2 x 2 mask K of surviving indices, whose
joint entropy is the only quantity that does not separate.

Gain conventions: the "encoding gain" compares the joint prior with the
posterior after observing an encoding outcome; marginal gains do the same
per qubit. Decode and failure gains fix one decoded qubit (the reported
pair indexes the qubit whose state is being tracked, not the decode
target) and compare the encode posterior with the posterior after a
successful or failed decoding.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .codec import _check_outcome, _check_target, intact_block, qubit_bit


@dataclass(frozen=True)
class QuadratureSpec:
    """Tensor-product Gauss-Legendre rule on [0, pi] per axis."""

    nodes_per_axis: int = 256

    def __post_init__(self) -> None:
        if self.nodes_per_axis < 16:
            raise ValueError(
                f"nodes_per_axis must be at least 16, got {self.nodes_per_axis}"
            )

    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights on [0, pi]; arrays are cached and read-only."""
        return _gauss_legendre(self.nodes_per_axis)


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    nodes = 0.5 * math.pi * (x + 1.0)
    weights = 0.5 * math.pi * w
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def prior_theta(theta) -> np.ndarray:
    """Polar-angle density (1/2) sin(theta) of a uniformly random qubit."""
    return 0.5 * np.sin(theta)


def _bit_weight(bit: int, theta: np.ndarray) -> np.ndarray:
    """Squared amplitude of one qubit's basis component at the given angle."""
    half = 0.5 * np.asarray(theta, dtype=float)
    return np.cos(half) ** 2 if bit == 0 else np.sin(half) ** 2


def _bit_densities(theta) -> np.ndarray:
    """Rows d[bit] = (squared amplitude of bit) * prior at the given angles."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    prior = prior_theta(theta)
    return np.stack([_bit_weight(bit, theta) * prior for bit in (0, 1)])


def _bit_masses(quad: QuadratureSpec) -> tuple[float, float]:
    """Prior mass of cos^2(theta/2) and sin^2(theta/2), as 1-D sums."""
    x, w = quad.nodes()
    return tuple(float(np.sum(w * density)) for density in _bit_densities(x))


def _kept_mass(kept, bit_mass) -> float:
    """Prior mass of sum_{k in kept} |c_k|^2, a sum of products of bit masses."""
    return sum(bit_mass[qubit_bit(k, 1)] * bit_mass[qubit_bit(k, 2)] for k in kept)


def _kept_marginal(kept, qubit: int, densities: np.ndarray, bit_mass) -> np.ndarray:
    """`qubit` marginal of the prior times the kept weight, normalized.

    Integrating the other qubit out of d[b1(k)] d[b2(k)] leaves that
    qubit's bit mass, so the marginal is sum_k d[b_qubit(k)] * mass[b_other(k)]
    over the kept mass; `densities` may be taken at any angles.
    """
    other = 3 - qubit
    marginal = sum(
        densities[qubit_bit(k, qubit)] * bit_mass[qubit_bit(k, other)] for k in kept
    )
    return marginal / _kept_mass(kept, bit_mass)


def _survivors(outcome: int) -> tuple[int, ...]:
    """Register indices that outcome j leaves on the qutrit."""
    _check_outcome(outcome)
    return tuple(k for k in range(4) if k != outcome)


def normalizers(quad: QuadratureSpec) -> tuple[tuple, tuple]:
    """Outcome priors [j] and average success probabilities [j][target - 1].

    Outcome j has likelihood (1 - |c_j|^2) / 3, the survivors' weight over
    3, and given j decoding succeeds with the intact block's share of the
    survivors' weight, so both are ratios of kept masses.
    """
    bit_mass = _bit_masses(quad)
    survivor_mass = [_kept_mass(_survivors(j), bit_mass) for j in range(4)]
    priors = tuple(mass / 3.0 for mass in survivor_mass)
    success = tuple(
        tuple(
            _kept_mass(intact_block(j, a), bit_mass) / survivor_mass[j]
            for a in (1, 2)
        )
        for j in range(4)
    )
    return priors, success


def _plogp(values: np.ndarray) -> np.ndarray:
    if np.any(values < 0.0):
        raise ValueError("density is negative at a quadrature node")
    out = np.zeros_like(values)
    np.log2(values, out=out, where=values > 0.0)
    return np.multiply(values, out, out=out)


def _entropy(values: np.ndarray, w: np.ndarray) -> float:
    """-sum w p log2 p over the nodes, or over the tensor grid for 2-D values."""
    if values.ndim == 1:
        return float(-np.sum(w * _plogp(values)))
    # einsum reduces with numpy's pairwise summation in a fixed order, so
    # the result does not depend on any parallel execution of the caller.
    return float(-np.einsum("i,j,ij->", w, w, _plogp(values)))


def direct_measurement_gain(quad: QuadratureSpec) -> float:
    """Expected entropy drop from a plain basis measurement of one qubit.

    The outcome probabilities are cos^2(theta/2) and sin^2(theta/2); the
    gain is the prior entropy minus the outcome-averaged posterior entropy.
    """
    x, w = quad.nodes()
    joint_zero, joint_one = _bit_densities(x)
    p_zero = float(np.sum(w * joint_zero))
    h_after = p_zero * _entropy(joint_zero / p_zero, w) + (1.0 - p_zero) * _entropy(
        joint_one / (1.0 - p_zero), w
    )
    return _entropy(prior_theta(x), w) - h_after


@dataclass(frozen=True)
class GainReport:
    """Every scalar of the information-gain accounting at one resolution.

    Per-qubit tuples are indexed (qubit 1, qubit 2). Decode and failure
    gains use the convention of outcome 0 with qubit 1 as the decode
    target; the symmetry across outcomes and targets is a tested property
    rather than an input here.
    """

    nodes_per_axis: int
    outcome_prior: tuple[float, float, float, float]
    success_probability: tuple[tuple[float, float], ...]  # [outcome][target - 1]
    encoding_gain: float
    marginal_encoding_gain: tuple[float, float]
    decode_gain: tuple[float, float]
    failure_gain: tuple[float, float]
    direct_gain: float
    success_total: tuple[float, float]
    failure_total: tuple[float, float]


def report_scalars(report: GainReport) -> dict[str, float]:
    """Flatten a gain report into named scalars (used by checks and the CLI)."""
    scalars: dict[str, float] = {}
    for j in range(4):
        scalars[f"outcome_prior_{j}"] = report.outcome_prior[j]
    for j in range(4):
        for a in (1, 2):
            scalars[f"success_probability_j{j}_target{a}"] = (
                report.success_probability[j][a - 1]
            )
    scalars["encoding_gain"] = report.encoding_gain
    for a in (1, 2):
        scalars[f"marginal_encoding_gain_q{a}"] = report.marginal_encoding_gain[a - 1]
        scalars[f"decode_gain_q{a}"] = report.decode_gain[a - 1]
        scalars[f"failure_gain_q{a}"] = report.failure_gain[a - 1]
        scalars[f"success_total_q{a}"] = report.success_total[a - 1]
        scalars[f"failure_total_q{a}"] = report.failure_total[a - 1]
    scalars["direct_gain"] = report.direct_gain
    return scalars


def gain_report(
    quad: QuadratureSpec,
    outcome: int = 0,
    target: int = 1,
    *,
    check_convergence: bool = False,
) -> GainReport:
    """Compute every gain scalar at the given resolution.

    The report is not checked here: `verify` compares it with
    `exact_report`, whose closed forms bound the quadrature error.
    """
    # accepted only while bench/run.py passes check_convergence=False
    if check_convergence:
        raise TypeError("node doubling is gone; compare with exact_report()")
    x, w = quad.nodes()
    densities = _bit_densities(x)
    bit_mass = _bit_masses(quad)
    outcome_priors, success = normalizers(quad)
    survivors = _survivors(outcome)
    block = intact_block(outcome, target)

    def marginal_entropies(kept) -> tuple[float, float]:
        return tuple(
            _entropy(_kept_marginal(kept, a, densities, bit_mass), w) for a in (1, 2)
        )

    # The encode posterior's joint entropy is the one scalar that does not
    # separate; it is the report's only n x n array.
    mask = np.ones((2, 2))  # [b1, b2]: every index survives but the outcome
    mask[qubit_bit(outcome, 1), qubit_bit(outcome, 2)] = 0.0
    posterior = densities.T @ mask @ densities
    posterior /= _kept_mass(survivors, bit_mass)
    h_prior = _entropy(prior_theta(x), w)
    encoding_gain = 2.0 * h_prior - _entropy(posterior, w)

    h_posterior = marginal_entropies(survivors)
    h_success = marginal_entropies(block)
    h_failure = marginal_entropies(set(survivors) - set(block))
    marginal_encoding = tuple(h_prior - h for h in h_posterior)
    decode_gain = tuple(h - h_s for h, h_s in zip(h_posterior, h_success))
    failure_gain = tuple(h - h_f for h, h_f in zip(h_posterior, h_failure))
    return GainReport(
        nodes_per_axis=quad.nodes_per_axis,
        outcome_prior=outcome_priors,
        success_probability=success,
        encoding_gain=encoding_gain,
        marginal_encoding_gain=marginal_encoding,
        decode_gain=decode_gain,
        failure_gain=failure_gain,
        direct_gain=direct_measurement_gain(quad),
        success_total=tuple(m + d for m, d in zip(marginal_encoding, decode_gain)),
        failure_total=tuple(m + f for m, f in zip(marginal_encoding, failure_gain)),
    )


def exact_report(outcome: int = 0, target: int = 1) -> dict[str, float]:
    """The scalars of `report_scalars` in closed form, in bits.

    In x = cos(theta) every posterior's ratio to the uniform prior is linear
    in each x, so each entropy is elementary (the encode joint's needs
    int_0^1 ln(1 - a) / a da = -pi^2 / 6). Encoding tells each qubit
    m = (4/3) ln(4/3) - (1/3) ln(2/3) - 1/2 nats; a successful decode takes
    it back from the target and tells the other qubit ln 2 - 1/2 - m, as a
    failed one tells both. The outcome does not matter.
    """
    _check_outcome(outcome)
    _check_target(target)
    ln2 = math.log(2.0)
    m = 4.0 / 3.0 * math.log(4.0 / 3.0) - math.log(2.0 / 3.0) / 3.0 - 0.5
    marginal = m / ln2
    informative = (ln2 - 0.5 - m) / ln2
    decode = tuple(-marginal if a == target else informative for a in (1, 2))
    direct = 1.0 - 0.5 / ln2
    return report_scalars(
        GainReport(
            nodes_per_axis=0,  # no quadrature
            outcome_prior=(0.25,) * 4,
            success_probability=((2.0 / 3.0,) * 2,) * 4,
            encoding_gain=(math.pi**2 / 9.0 - 4.0 / 3.0 + math.log(4.0 / 3.0)) / ln2,
            marginal_encoding_gain=(marginal, marginal),
            decode_gain=decode,
            failure_gain=(informative, informative),
            direct_gain=direct,
            success_total=tuple(marginal + d for d in decode),
            failure_total=(marginal + informative,) * 2,
        )
    )
