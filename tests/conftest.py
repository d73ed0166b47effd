"""Shared helpers: `invoke`, which runs a command line in this process;
random, near-pole and unit-state strategies; and five oracles. The
explicit 12-dimensional encoding pipeline checks the codec's closed
forms, the conditional success probability checks the success
probability of `decode`, the scalar inverse-CDF sampler checks the Monte
Carlo kernel's preparations, brute-force quadrature checks the gain report,
and an extended-precision Gauss-Legendre rule checks the report's
quadrature weights.

The oracles import nothing from `qutritcodec.codec`. The pipeline is plain
numpy index arithmetic with its own projection, `project`, which weighs and
renormalizes in Python floats as the codec does; it takes a preparation or
any four-level register state, entangled ones included. `intact_pair` finds a
decode's intact register pair by searching its definition instead of reading
the codec's rule.
Joint states of ancilla and register use the slow-first tensor layout,
combined index = 4 * (ancilla level) + (register index), with register
index k = b1 + 2*b2. Encoding outcome j projects onto the indices that tie
ancilla level i to register index (i + j + 1) mod 4; the relabeling
permutation |i>|k> -> |i>|k - i mod 4> then moves every survivor to
register level (j + 1) mod 4, where the qutrit is read off.
"""

from __future__ import annotations

import contextlib
import io
import math
import operator
from dataclasses import dataclass
from typing import Iterable

try:
    import numpy as np
except ImportError:  # a child of test_golden renders the trace pins with numpy blocked
    np = None
import pytest
from hypothesis import assume
from hypothesis import strategies as st

from qutritcodec import BlochAngles, PureState, make_qubit_state
from qutritcodec.cli import main
from qutritcodec.states import NULL_BRANCH_EPS


@dataclass(frozen=True)
class Invocation:
    """One command line run by `invoke`."""

    exit_code: int
    stdout: str
    stderr: str
    exception: BaseException | None

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


def invoke(args: list[str]) -> Invocation:
    """`main(args, standalone_mode=False)` with stdout and stderr captured.
    An exception, `SystemExit` included, is recorded with exit code 1."""
    stdout, stderr = io.StringIO(), io.StringIO()
    status = exception = None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            status = main(args, standalone_mode=False)
        except (Exception, SystemExit) as error:
            exception = error
    code = 1 if exception is not None else status or 0
    return Invocation(code, stdout.getvalue(), stderr.getvalue(), exception)


# the relabeling permutation: joint index k moves to RELABEL[k]
RELABEL = [4 * level + (k - level) % 4 for level in range(3) for k in range(4)]


def random_pair(rng: np.random.Generator) -> tuple[BlochAngles, BlochAngles]:
    """Haar-marginal random preparation of both qubits."""
    u = rng.random(4)
    return (
        BlochAngles(theta=float(np.arccos(1 - 2 * u[0])), phi=float(2 * np.pi * u[1])),
        BlochAngles(theta=float(np.arccos(1 - 2 * u[2])), phi=float(2 * np.pi * u[3])),
    )


unit_interval = st.floats(0.0, 1.0, exclude_max=True)


def near_pole_theta() -> st.SearchStrategy[float]:
    """Polar angles 1e-9..1e-5 rad from 0 or from pi, log-uniform."""
    offsets = st.floats(-9.0, -5.0).map(lambda exponent: 10.0**exponent)
    return st.tuples(offsets, st.booleans()).map(
        lambda t: math.pi - t[0] if t[1] else t[0]
    )


def near_pole_pairs() -> st.SearchStrategy[tuple[BlochAngles, BlochAngles]]:
    """Qubit 1 near a pole; qubit 2 near a pole, on one, or anywhere."""
    phi = st.floats(0.0, 2 * math.pi, exclude_max=True)
    theta2 = st.one_of(
        near_pole_theta(), st.sampled_from([0.0, math.pi]), st.floats(0.0, math.pi)
    )
    return st.tuples(
        st.builds(BlochAngles, theta=near_pole_theta(), phi=phi),
        st.builds(BlochAngles, theta=theta2, phi=phi),
    )


def any_pairs() -> st.SearchStrategy[tuple[BlochAngles, BlochAngles]]:
    """Both qubits anywhere, with the poles, the smallest positive double,
    the double just below pi and near-pole angles drawn on purpose."""
    theta = st.one_of(
        st.floats(0.0, math.pi),
        st.sampled_from([0.0, math.pi, 1e-300, math.nextafter(math.pi, 0.0)]),
        near_pole_theta(),
    )
    angles = st.builds(BlochAngles, theta=theta, phi=st.floats(0.0, 2 * math.pi, exclude_max=True))
    return st.tuples(angles, angles)


@st.composite
def unit_states(draw, dims=(2, 3, 4, 12)):
    """Random unit states of a dimension drawn from `dims`."""
    dim = draw(st.sampled_from(dims))
    parts = draw(
        st.lists(
            st.tuples(
                st.floats(-1, 1, allow_nan=False), st.floats(-1, 1, allow_nan=False)
            ),
            min_size=dim,
            max_size=dim,
        )
    )
    vec = np.array([complex(re, im) for re, im in parts])
    norm = np.linalg.norm(vec)
    assume(norm > 1e-3)
    return PureState(vec / norm)


def ancilla() -> np.ndarray:
    """Uniform-superposition qutrit used as the encoding carrier."""
    return np.full(3, 1.0 / math.sqrt(3.0))


def register(pair: tuple[BlochAngles, BlochAngles]) -> np.ndarray:
    """Register amplitudes c_k; qubit 1 owns the low bit, so it is the fast factor."""
    q1, q2 = (make_qubit_state(angles).amplitudes for angles in pair)
    return np.kron(q2, q1)


def encoding_indices(outcome: int) -> list[int]:
    """Joint indices kept by the projector of encoding outcome j."""
    return [4 * level + (level + outcome + 1) % 4 for level in range(3)]


def project(state: PureState, levels: Iterable[int]) -> tuple[float, PureState | None]:
    """Born probability of a set of basis levels and the collapsed state.

    Returns (probability, collapsed). The collapsed state is None when the
    probability does not exceed NULL_BRANCH_EPS, since renormalizing a
    numerically null branch would only amplify rounding noise.
    """
    idx = sorted({operator.index(level) for level in levels})
    if not idx or idx[0] < 0 or idx[-1] >= state.dim:
        raise ValueError(f"levels must be a nonempty subset of 0..{state.dim - 1}, got {idx}")
    # plain Python floats, each square summed left to right, as the codec weighs
    probability = 0.0
    for k in idx:
        c = state.amplitudes[k]
        probability += c.real * c.real + c.imag * c.imag
    if probability <= NULL_BRANCH_EPS:
        return probability, None
    norm = math.sqrt(probability)
    collapsed = [state.amplitudes[k] / norm if k in idx else 0j for k in range(state.dim)]
    return probability, PureState(collapsed)


def permute(amplitudes: np.ndarray, image) -> np.ndarray:
    """Relabel basis indices: the amplitude at k moves to image[k]."""
    if sorted(image) != list(range(len(amplitudes))):
        raise ValueError("image must be a bijection of 0..dim-1")
    out = np.empty_like(amplitudes)
    out[list(image)] = amplitudes
    return out


def carrier(source: tuple[BlochAngles, BlochAngles] | PureState) -> PureState:
    """The 12-dim ancilla-register state of a preparation, or of a given
    four-level register state, which may be entangled."""
    c = source.amplitudes if isinstance(source, PureState) else register(source)
    return PureState(np.kron(ancilla(), c))


def pipeline_weights(pair: tuple[BlochAngles, BlochAngles] | PureState) -> list[float]:
    """Born weights of the four encoding projectors on the 12-dim state."""
    state = carrier(pair)
    return [project(state, encoding_indices(j))[0] for j in range(4)]


def pipeline_encode(pair: tuple[BlochAngles, BlochAngles] | PureState, outcome: int):
    """Encoding by explicit tensor, projection, relabeling and slicing."""
    probability, collapsed = project(carrier(pair), encoding_indices(outcome))
    if collapsed is None:
        return probability, None
    relabeled = permute(collapsed.amplitudes, RELABEL)
    return probability, PureState(relabeled[(outcome + 1) % 4 :: 4])


def intact_pair(outcome: int, target: int) -> tuple[int, int]:
    """The register pair (k, k | bit) that differs only in `target`'s bit, with
    that bit 0 in k, and does not hold the index j that outcome j removes."""
    bit = 1 << (target - 1)
    (pair,) = [(k, k | bit) for k in range(4) if not k & bit and outcome not in (k, k | bit)]
    return pair


def conditional_success_probability(
    pair: tuple[BlochAngles, BlochAngles], outcome: int, target: int
) -> float:
    """Probability that decoding `target` succeeds, given encoding outcome j.

    Closed form: the intact block's share of the surviving register weight,
    sum_{k in intact block} |c_k|^2 / sum_{k != j} |c_k|^2. Raises for degenerate
    preparations where outcome j cannot occur at all.
    """
    weights = np.abs(register(pair)) ** 2
    denominator = sum(weights[k] for k in range(4) if k != outcome)
    if denominator <= NULL_BRANCH_EPS:
        raise ValueError(
            f"outcome {outcome} cannot occur for this preparation; "
            "conditional success probability is undefined"
        )
    return float(sum(weights[k] for k in intact_pair(outcome, target)) / denominator)


def sample_bloch(u1: float, u2: float) -> BlochAngles:
    """Angles of a uniformly random qubit by inverse CDF. The Monte Carlo
    kernel reads each qubit's polar uniform u1 alone and draws no azimuth.

    sin^2(theta/2) = u1 gives the (1/2) sin(theta) polar density, and the
    half-angle arctangent keeps it to rounding at both poles; phi = 2 pi u2.
    """
    half = math.atan2(math.sqrt(u1), math.sqrt(1.0 - u1))
    return BlochAngles(theta=2.0 * half, phi=2.0 * math.pi * u2)


def phase_aligned_max_diff(a: PureState, b: PureState) -> float:
    """Largest componentwise deviation after aligning the global phase of b."""
    x, y = np.asarray(a.amplitudes), np.asarray(b.amplitudes)
    overlap = np.vdot(x, y)
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    return float(np.max(np.abs(x - y * np.conj(phase))))


def prior(theta):
    return 0.5 * np.sin(theta)


def bit_weight(bit: int, theta):
    return np.cos(theta / 2) ** 2 if bit == 0 else np.sin(theta / 2) ** 2


def register_weight(k: int, t1, t2):
    """|c_k|^2 at the given polar angles; qubit a owns bit (k >> (a - 1)) & 1."""
    return bit_weight(k & 1, t1) * bit_weight((k >> 1) & 1, t2)


def likelihood(outcome: int, t1, t2):
    """Probability (1 - |c_j|^2) / 3 of encoding outcome j at the given angles."""
    if outcome not in range(4):
        raise ValueError(f"outcome must be one of 0..3, got {outcome!r}")
    return (1.0 - register_weight(outcome, t1, t2)) / 3.0


def reference_report_scalars(quad, outcome: int, target: int) -> dict[str, float]:
    """Every scalar of `gain_report`, under its name and in its key order, by
    brute-force tensor-product quadrature.

    Builds each posterior as a closure over the prior and likelihood above,
    takes every normalizer, marginal and entropy by integrating those
    closures over the full n x n grid with einsum, and computes the
    conditional success probability from the register weights directly.
    """
    x, w = quad.nodes()
    grid = (x[:, None], x[None, :])

    def integrate(pdf) -> float:
        return float(np.einsum("i,j,ij->", w, w, pdf(*grid)))

    def entropy(values: np.ndarray) -> float:
        plogp = values * np.log2(np.where(values > 0.0, values, 1.0))
        if values.ndim == 1:
            return -float(np.sum(w * plogp))
        return -float(np.einsum("i,j,ij->", w, w, plogp))

    def marginal_entropies(pdf) -> tuple[float, float]:
        values = pdf(*grid)
        return entropy(values @ w), entropy(w @ values)

    def posterior(j):
        def joint(t1, t2):
            return likelihood(j, t1, t2) * prior(t1) * prior(t2)

        mass = integrate(joint)
        return mass, lambda t1, t2: joint(t1, t2) / mass

    def conditional_success(j, a, t1, t2):
        block = sum(register_weight(k, t1, t2) for k in intact_pair(j, a))
        return block / (1.0 - register_weight(j, t1, t2))

    scalars: dict[str, float] = {}
    success = {}
    for j in range(4):
        scalars[f"outcome_prior_{j}"], post = posterior(j)
        for a in (1, 2):
            success[j, a] = integrate(
                lambda t1, t2: conditional_success(j, a, t1, t2) * post(t1, t2)
            )
    for (j, a), value in success.items():
        scalars[f"success_probability_j{j}_target{a}"] = value

    _, post = posterior(outcome)
    p_success = success[outcome, target]
    h_prior = entropy(prior(x))
    scalars["encoding_gain"] = entropy(prior(grid[0]) * prior(grid[1])) - entropy(
        post(*grid)
    )
    h_post = marginal_entropies(post)
    h_success = marginal_entropies(
        lambda t1, t2: conditional_success(outcome, target, t1, t2)
        * post(t1, t2) / p_success
    )
    h_failure = marginal_entropies(
        lambda t1, t2: (1.0 - conditional_success(outcome, target, t1, t2))
        * post(t1, t2) / (1.0 - p_success)
    )
    for a in (1, 2):
        marginal = h_prior - h_post[a - 1]
        decode = h_post[a - 1] - h_success[a - 1]
        failure = h_post[a - 1] - h_failure[a - 1]
        scalars[f"marginal_encoding_gain_q{a}"] = marginal
        scalars[f"decode_gain_q{a}"] = decode
        scalars[f"failure_gain_q{a}"] = failure
        scalars[f"success_total_q{a}"] = marginal + decode
        scalars[f"failure_total_q{a}"] = marginal + failure

    joint_zero = bit_weight(0, x) * prior(x)
    p_zero = float(np.sum(w * joint_zero))
    joint_one = bit_weight(1, x) * prior(x)
    scalars["direct_gain"] = h_prior - (
        p_zero * entropy(joint_zero / p_zero)
        + (1.0 - p_zero) * entropy(joint_one / (1.0 - p_zero))
    )
    return scalars


def reference_gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1] in np.longdouble.

    leggauss's eigenvalue nodes are polished by two Newton steps on the
    plain three-term recurrence, and the weights are 2 / ((1 - x^2) P_n'^2)
    at the polished nodes. With x87 extended precision (11 more bits than a
    double) the weights are within 1e-14 (relative) of exact for n <= 1024.
    """
    x = np.polynomial.legendre.leggauss(n)[0].astype(np.longdouble)

    def legendre(x):
        previous, p = np.ones_like(x), x.copy()
        for k in range(1, n):
            previous, p = p, ((2 * k + 1) * x * p - k * previous) / (k + 1)
        return p, n * (x * p - previous) / ((x - 1) * (x + 1))

    for _ in range(2):
        p, dp = legendre(x)
        x -= p / dp
    _, dp = legendre(x)
    return x, 2 / ((1 - x) * (1 + x) * dp**2)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
