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
sums. The one quantity that does not separate is the joint entropy of the
encode posterior (d.T @ K) @ d / M for the 2 x 2 mask K of surviving
indices and kept mass M; a gain report forms that rank-2 posterior a strip
of rows at a time, so it allocates no n x n array.

Gain conventions: the "encoding gain" compares the joint prior with the
posterior after observing an encoding outcome; marginal gains do the same
per qubit. Decode and failure gains fix one decoded qubit (a per-qubit
name such as `decode_gain_q2` names the qubit whose state is being
tracked, not the decode target) and compare the encode posterior with the
posterior after a successful or failed decoding.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .codec import (
    _check_outcome, _check_target, decode_levels, intact_block, qubit_bit, survivors,
)

MIN_NODES = 16


@dataclass(frozen=True)
class QuadratureSpec:
    """Tensor-product Gauss-Legendre rule on [0, pi] per axis."""

    nodes_per_axis: int = 256

    def __post_init__(self) -> None:
        if self.nodes_per_axis < MIN_NODES:
            raise ValueError(
                f"nodes_per_axis must be at least {MIN_NODES}, got {self.nodes_per_axis}"
            )

    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights on [0, pi]; arrays are cached and read-only."""
        return _gauss_legendre(self.nodes_per_axis)


# Newton steps from Tricomi's guesses before the last evaluation; two bring
# every root of P_n, 16 <= n <= 4096, within 2e-14 of its limit.
_NEWTON_STEPS = 2


def _legendre(n: int, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n and P_n' at x = 1 - u by the three-term recurrence, vectorized.

    The recurrence runs in Reinsch's form on u and the difference
    P_k - P_{k-1}, which keeps P_n accurate to a few ulps next to x = 1,
    where the plain form loses digits to cancellation.
    """
    x = 1.0 - u
    p = x.copy()
    step = -u  # P_1 - P_0
    for k in range(1, n):
        step = (k * step - (2 * k + 1) * u * p) / (k + 1)
        p += step
    # p - step is P_{n-1}, and x^2 - 1 = u (u - 2)
    return p, n * (x * p - (p - step)) / (u * (u - 2.0))


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, pi] in O(n^2) time and O(n)
    memory; arrays are read-only.

    Newton's method on Tricomi's asymptotic guesses finds the roots x of
    P_n in [0, 1) as u = 1 - x, which keeps the nodes next to 0 to full
    relative precision; the other half are their mirror images (Hale &
    Townsend, SIAM J. Sci. Comput. 35, 2013). The last evaluation gives the
    weight 2 / ((1 - x^2) P_n'(x)^2), corrected to first order for the
    last, sub-ulp Newton step: near x = 1 the weight changes on the scale
    of u, so its value at the rounded root would lose up to n^2 ulps.
    """
    theta = math.pi * (4.0 * np.arange(1, (n + 1) // 2 + 1) - 1.0) / (4 * n + 2)
    u = 1.0 - np.cos(theta) * (
        1.0 - (n - 1) / (8.0 * n**3) - (39.0 - 28.0 / np.sin(theta) ** 2) / (384.0 * n**4)
    )
    for _ in range(_NEWTON_STEPS):
        p, dp = _legendre(n, u)
        u += p / dp
    p, dp = _legendre(n, u)
    newton = p / dp
    one_minus_x2 = u * (2.0 - u)
    w = 2.0 / (one_minus_x2 * dp**2) * (1.0 + 2.0 * (1.0 - u) * newton / one_minus_x2)
    u += newton
    if n % 2:
        u[-1] = 1.0  # the middle root, which the mirror image must not repeat
    nodes = 0.5 * math.pi * np.concatenate([u, (2.0 - u)[::-1][n % 2:]])
    w = np.concatenate([w, w[::-1][n % 2:]])
    # the weights err by a few ulps; rescaling them to their exact total of
    # 2 takes out the part of that error that biases every integral alike
    weights = 0.5 * math.pi * (w * (2.0 / np.sum(w)))
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


def _bit_masses(w: np.ndarray, densities: np.ndarray) -> tuple[float, float]:
    """Prior mass of cos^2(theta/2) and sin^2(theta/2), as 1-D sums of the
    per-bit densities at the nodes with weights `w`."""
    return tuple(float(np.sum(w * density)) for density in densities)


def _kept_mass(kept, bit_mass) -> float:
    """Prior mass of sum_{k in kept} |c_k|^2, a sum of products of bit masses.

    Kept masses and marginals sum in ascending index order, so the report
    does not depend on the order in which `kept` lists its indices.
    """
    return sum(bit_mass[qubit_bit(k, 1)] * bit_mass[qubit_bit(k, 2)] for k in sorted(kept))


def _kept_marginal(kept, qubit: int, densities: np.ndarray, bit_mass) -> np.ndarray:
    """`qubit` marginal of the prior times the kept weight, normalized.

    Integrating the other qubit out of d[b1(k)] d[b2(k)] leaves that
    qubit's bit mass, so the marginal is sum_k d[b_qubit(k)] * mass[b_other(k)]
    over the kept mass; `densities` may be taken at any angles.
    """
    other = 3 - qubit
    marginal = sum(
        densities[qubit_bit(k, qubit)] * bit_mass[qubit_bit(k, other)] for k in sorted(kept)
    )
    return marginal / _kept_mass(kept, bit_mass)


def normalizers(quad: QuadratureSpec) -> dict[str, float]:
    """Outcome priors `outcome_prior_{j}` and average success probabilities
    `success_probability_j{j}_target{a}`, by name.

    Outcome j has likelihood (1 - |c_j|^2) / 3, the survivors' weight over
    3, and given j decoding succeeds with the intact block's share of the
    survivors' weight, so both are ratios of kept masses.
    """
    x, w = quad.nodes()
    return _normalizers(_bit_masses(w, _bit_densities(x)))


def _normalizers(bit_mass) -> dict[str, float]:
    """`normalizers` from the two bit masses."""
    survivor_mass = [_kept_mass(survivors(j), bit_mass) for j in range(4)]
    scalars = {f"outcome_prior_{j}": mass / 3.0 for j, mass in enumerate(survivor_mass)}
    for j, a in itertools.product(range(4), (1, 2)):
        block_mass = _kept_mass(intact_block(j, a), bit_mass)
        scalars[f"success_probability_j{j}_target{a}"] = block_mass / survivor_mass[j]
    return scalars


# Bytes per strip of the encode posterior. A strip this small is served from
# the heap and reused, where a whole n x n array would be mapped and
# faulted in afresh on every report.
_STRIP_BYTES = 64 * 1024


def _plogp(values: np.ndarray) -> np.ndarray:
    if np.any(values < 0.0):
        raise ValueError("density is negative at a quadrature node")
    out = np.zeros_like(values)
    np.log2(values, out=out, where=values > 0.0)
    return np.multiply(values, out, out=out)


def _entropy(values: np.ndarray, w: np.ndarray) -> np.ndarray:
    """-sum w p log2 p over the nodes, for each row of `values`."""
    return -np.sum(w * _plogp(values), axis=-1)


def _joint_entropy(left: np.ndarray, right: np.ndarray, mass: float, w: np.ndarray) -> float:
    """-sum w_i w_j p log2 p over the tensor grid for p = left @ right / mass.

    p is formed a strip of rows at a time, so no n x n array is allocated.
    einsum reduces each strip in a fixed order and the strips add up in
    ascending order, so the result does not depend on any parallel
    execution of the caller.
    """
    rows = max(1, _STRIP_BYTES // right[0].nbytes)
    total = 0.0
    for start in range(0, len(left), rows):
        strip = left[start:start + rows] @ right
        strip /= mass
        total += np.einsum("i,j,ij->", w[start:start + rows], w, _plogp(strip))
    return -float(total)


def _with_gains(
    scalars: dict[str, float], encoding, marginal, decode, failure, direct
) -> dict[str, float]:
    """Add the gains to `scalars` under their report names, each qubit's
    success and failure totals with them."""
    scalars["encoding_gain"] = encoding
    for a, m, d, f in zip((1, 2), marginal, decode, failure):
        scalars[f"marginal_encoding_gain_q{a}"] = m
        scalars[f"decode_gain_q{a}"] = d
        scalars[f"failure_gain_q{a}"] = f
        scalars[f"success_total_q{a}"] = m + d
        scalars[f"failure_total_q{a}"] = m + f
    scalars["direct_gain"] = direct
    return scalars


def gain_report(
    quad: QuadratureSpec,
    outcome: int = 0,
    target: int = 1,
    *,
    check_convergence: bool = False,
) -> dict[str, float]:
    """Every scalar of the gain accounting at the given resolution, by name.

    The keys are those of `normalizers`, then `encoding_gain`, then for each
    qubit a `marginal_encoding_gain_q{a}`, `decode_gain_q{a}`,
    `failure_gain_q{a}`, `success_total_q{a}` and `failure_total_q{a}`, then
    `direct_gain`. Per-qubit keys name the tracked qubit, not the decode
    target; the defaults are outcome 0 with qubit 1 as the decode target.
    The report is not checked here: `verify` compares it with
    `exact_report`, whose closed forms bound the quadrature error.
    """
    # accepted only while bench/run.py passes check_convergence=False
    if check_convergence:
        raise TypeError("node doubling is gone; compare with exact_report()")
    x, w = quad.nodes()
    densities = _bit_densities(x)
    bit_mass = _bit_masses(w, densities)
    survived = survivors(outcome)
    block = intact_block(outcome, target)
    # a failed decode collapses the qutrit onto the failure level's survivor
    failure = (survived[decode_levels(outcome, target)[1]],)
    # a plain basis measurement of one qubit reads bit 0 with its prior mass
    p_zero = bit_mass[0]

    # one pass over the nine 1-D densities: the prior, both marginals of the
    # encode, success and failure posteriors, and the two measured bits
    h_prior, *h_kept, h_zero, h_one = _entropy(np.stack([
        prior_theta(x),
        *(
            _kept_marginal(kept, a, densities, bit_mass)
            for kept in (survived, block, failure) for a in (1, 2)
        ),
        densities[0] / p_zero,
        densities[1] / (1.0 - p_zero),
    ]), w).tolist()
    h_posterior, h_success, h_failure = h_kept[0:2], h_kept[2:4], h_kept[4:6]

    # The encode posterior's joint entropy is the one scalar that does not
    # separate; the posterior is the rank-2 product (d.T @ K) @ d.
    mask = np.ones((2, 2))  # [b1, b2]: every index survives but the outcome
    mask[qubit_bit(outcome, 1), qubit_bit(outcome, 2)] = 0.0
    h_joint = _joint_entropy(densities.T @ mask, densities, _kept_mass(survived, bit_mass), w)
    return _with_gains(
        _normalizers(bit_mass),
        encoding=2.0 * h_prior - h_joint,
        marginal=[h_prior - h for h in h_posterior],
        decode=[h - h_s for h, h_s in zip(h_posterior, h_success)],
        failure=[h - h_f for h, h_f in zip(h_posterior, h_failure)],
        direct=h_prior - (p_zero * h_zero + (1.0 - p_zero) * h_one),
    )


def exact_report(outcome: int = 0, target: int = 1) -> dict[str, float]:
    """The scalars of `gain_report` in closed form, in bits, under its names.

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
    scalars = {f"outcome_prior_{j}": 0.25 for j in range(4)}
    for j, a in itertools.product(range(4), (1, 2)):
        scalars[f"success_probability_j{j}_target{a}"] = 2.0 / 3.0
    return _with_gains(
        scalars,
        encoding=(math.pi**2 / 9.0 - 4.0 / 3.0 + math.log(4.0 / 3.0)) / ln2,
        marginal=[marginal, marginal],
        decode=[-marginal if a == target else informative for a in (1, 2)],
        failure=[informative, informative],
        direct=1.0 - 0.5 / ln2,
    )
