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
d[bit](theta) = (bit factor) * prior(theta) and their masses m, a kept set
is a 2 x 2 mask K over (b1, b2) and its posterior d.T @ K @ d / (m @ K @ m);
integrating one qubit out leaves (K @ m) @ d or (m @ K) @ d. Every
normalizer and marginal comes from one read-only mask table over the eight
(outcome, target) pairs, built at import. Only the encode posterior's joint
entropy does not separate; a report forms that rank-2 posterior in strips of
rows, one log per node pair and no n x n array, and sums each row alone.

Gain conventions: the "encoding gain" compares the joint prior with the
posterior after observing an encoding outcome; marginal gains do the same
per qubit. Decode and failure gains fix one decoded qubit (a per-qubit
name such as `decode_gain_q2` names the qubit whose state is being
tracked, not the decode target) and compare the encode posterior with the
posterior after a successful or failed decoding.
"""

from __future__ import annotations

import functools
import math
import operator
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
        if operator.index(self.nodes_per_axis) < MIN_NODES:
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


def _bit_densities(theta) -> np.ndarray:
    """Rows d[0] = cos^2(theta/2) * prior and d[1] = sin^2(theta/2) * prior
    at the given angles."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    half = 0.5 * theta
    return np.stack([np.cos(half) ** 2, np.sin(half) ** 2]) * prior_theta(theta)


# rows of a stack of kept-set masks
_PRIOR, _ENCODE, _SUCCESS, _FAILURE, _READ_0, _READ_1 = range(6)


def _kept_masks(outcome: int, target: int) -> np.ndarray:
    """Stack of 2 x 2 indicator masks [b1, b2] of the kept sets of
    (outcome, target): the prior, the encode posterior, a successful decode,
    a failed decode, and qubit 1 measured as 0 and as 1."""
    survived = survivors(outcome)
    block = intact_block(outcome, target)
    # a failed decode collapses the qutrit onto the failure level's survivor
    failed = survived[decode_levels(outcome, target)[1]]
    masks = np.zeros((6, 2, 2))
    for k in range(4):
        b1, b2 = qubit_bit(k, 1), qubit_bit(k, 2)
        # which kept sets, in row order, hold register index k
        masks[:, b1, b2] = (True, k in survived, k in block, k == failed, b1 == 0, b1 == 1)
    return masks


# read-only table [outcome, target - 1, row, b1, b2] of every pair's kept sets
_MASKS = np.stack([[_kept_masks(j, a) for a in (1, 2)] for j in range(4)])
_MASKS.setflags(write=False)


def _marginals(masks: np.ndarray, bit_mass: np.ndarray, densities: np.ndarray):
    """Kept mass of each mask, and the qubit-1 marginal of each mask followed
    by each qubit-2 marginal; `densities` may be taken at any angles."""
    mass = masks @ bit_mass @ bit_mass
    coefficients = np.concatenate([masks @ bit_mass, bit_mass @ masks])
    return mass, coefficients @ densities / np.tile(mass, 2)[:, None]


# Bytes per strip of the encode posterior. A strip this small is served from
# the heap and reused, where a whole n x n array would be mapped and
# faulted in afresh on every report.
_STRIP_BYTES = 64 * 1024


def _plogp(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # fmin skips nan, so this is np.any(values < 0.0) in one pass
    if np.fmin.reduce(values, axis=None, initial=np.inf) < 0.0:
        raise ValueError("density is negative at a quadrature node")
    # 0 * log2 of the least normal double, 2**-1022, is exactly 0
    out = np.maximum(values, 2.0**-1022, out=out)
    np.log2(out, out=out)
    return np.multiply(values, out, out=out)


def _entropy(values: np.ndarray, w: np.ndarray) -> np.ndarray:
    """-sum w p log2 p over the nodes, for each row of `values`."""
    return -np.sum(w * _plogp(values), axis=-1)


def _joint_entropy(left: np.ndarray, right: np.ndarray, mass: float, w: np.ndarray) -> float:
    """-sum w_i w_j p log2 p over the tensor grid for p = left @ right / mass.

    p is formed a strip of rows at a time in two reused buffers, so no
    n x n array is allocated. Each row of p log2 p is reduced on its own, in
    an order that does not depend on the strip, and the row sums are added
    once at the end, so the result is that of the whole grid bit for bit.
    """
    rows = min(len(left), max(1, _STRIP_BYTES // right[0].nbytes))
    left = left / mass
    strip, plogp = np.empty((rows, len(w))), np.empty((rows, len(w)))
    row_sums = np.empty(len(left))
    for start in range(0, len(left), rows):
        p = np.matmul(left[start:start + rows], right, out=strip[:len(left) - start])
        np.einsum("ij,j->i", _plogp(p, out=plogp[:len(p)]), w, out=row_sums[start:start + rows])
    return -float(np.sum(w * row_sums))


def _with_gains(priors, success, encoding, marginal, decode, failure, direct) -> dict[str, float]:
    """Every scalar of a report under its name, from the outcome priors, the
    success probabilities [j][a - 1] and the gains; each qubit's success and
    failure totals come with its gains."""
    scalars = {f"outcome_prior_{j}": p for j, p in enumerate(priors)}
    for j, row in enumerate(success):
        for a, p in zip((1, 2), row):
            scalars[f"success_probability_j{j}_target{a}"] = p
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

    The keys are the outcome priors `outcome_prior_{j}` and the average
    success probabilities `success_probability_j{j}_target{a}`, then
    `encoding_gain`, then for each qubit a `marginal_encoding_gain_q{a}`,
    `decode_gain_q{a}`, `failure_gain_q{a}`, `success_total_q{a}` and
    `failure_total_q{a}`, then `direct_gain`. Per-qubit keys name the
    tracked qubit, not the decode target; the defaults are outcome 0 with
    qubit 1 as the decode target. The report is not checked here: `verify`
    compares it with `exact_report`, whose closed forms bound the
    quadrature error.
    """
    # accepted only while bench/run.py passes check_convergence=False
    if check_convergence:
        raise TypeError("node doubling is gone; compare with exact_report()")
    masks = _MASKS[_check_outcome(outcome), _check_target(target) - 1]
    x, w = quad.nodes()
    densities = _bit_densities(x)
    # prior mass of cos^2(theta/2) and sin^2(theta/2)
    bit_mass = np.sum(w * densities, axis=1)
    # Outcome j has likelihood (1 - |c_j|^2) / 3, the survivors' weight over
    # 3, and given j decoding succeeds with the intact block's share of the
    # survivors' weight, so both are ratios of kept masses.
    masses = _MASKS @ bit_mass @ bit_mass
    mass, marginals = _marginals(masks, bit_mass, densities)
    # rows [mask, qubit - 1]; measuring qubit 1 leaves qubit 2 at its prior
    (h_prior, _), h_posterior, h_success, h_failure, (h_zero, _), (h_one, _) = (
        _entropy(marginals, w).reshape(2, -1).T.tolist()
    )
    # The encode posterior's joint entropy is the one scalar that does not
    # separate; the posterior is the rank-2 product (d.T @ K) @ d.
    h_joint = _joint_entropy(densities.T @ masks[_ENCODE], densities, mass[_ENCODE], w)
    p_zero, p_one = (mass[[_READ_0, _READ_1]] / mass[_PRIOR]).tolist()
    return _with_gains(
        (masses[:, 0, _ENCODE] / 3.0).tolist(),
        (masses[..., _SUCCESS] / masses[..., _ENCODE]).tolist(),
        encoding=2.0 * h_prior - h_joint,
        marginal=[h_prior - h for h in h_posterior],
        decode=[h - h_s for h, h_s in zip(h_posterior, h_success)],
        failure=[h - h_f for h, h_f in zip(h_posterior, h_failure)],
        direct=h_prior - (p_zero * h_zero + p_one * h_one),
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
    target = _check_target(target)
    ln2 = math.log(2.0)
    m = 4.0 / 3.0 * math.log(4.0 / 3.0) - math.log(2.0 / 3.0) / 3.0 - 0.5
    marginal = m / ln2
    informative = (ln2 - 0.5 - m) / ln2
    return _with_gains(
        [0.25] * 4,
        [[2.0 / 3.0] * 2] * 4,
        encoding=(math.pi**2 / 9.0 - 4.0 / 3.0 + math.log(4.0 / 3.0)) / ln2,
        marginal=[marginal, marginal],
        decode=[-marginal if a == target else informative for a in (1, 2)],
        failure=[informative, informative],
        direct=1.0 - 0.5 / ln2,
    )
