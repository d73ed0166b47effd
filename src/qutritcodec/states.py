"""Exact pure-state linear algebra for small fixed dimensions.

Everything here operates on plain complex statevectors. The only
measurements are projections onto sets of computational-basis levels and
complete measurements sampled from their outcome weights, so every
operation reduces to index arithmetic plus a handful of numpy reductions.
All values are immutable after construction and all operations are pure
functions. The 12-dimensional ancilla-register state of the encoding is not
built here: the codec works from its closed forms, and the test suite's
oracle (tests/conftest.py) spells that state out.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# Unit-norm tolerance enforced when a state is constructed.
NORM_ATOL = 1e-12
# Born weight at or below this is treated as an impossible branch: the
# projection returns no collapsed state instead of renormalized noise.
NULL_BRANCH_EPS = 1e-15
# The outcome weights of a sampled measurement must sum to 1 within this
# tolerance.
COMPLETENESS_ATOL = 1e-10

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class BlochAngles:
    """Polar and azimuthal angles (radians) of a single-qubit pure state."""

    theta: float
    phi: float = 0.0

    def __post_init__(self) -> None:
        theta = float(self.theta)
        phi = float(self.phi)
        if not math.isfinite(theta) or not (0.0 <= theta <= math.pi):
            raise ValueError(f"theta must lie in [0, pi], got {self.theta!r}")
        if not math.isfinite(phi):
            raise ValueError(f"phi must be finite, got {self.phi!r}")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi % TWO_PI)


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit-norm complex statevector of small fixed dimension.

    The amplitude array is copied and frozen at construction; the squared
    norm must already be 1 within NORM_ATOL. Global phase is never
    canonicalized, so comparisons should go through fidelity.
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=np.complex128, copy=True)
        if amps.ndim != 1 or amps.size < 1:
            raise ValueError("amplitudes must be a nonempty one-dimensional sequence")
        # a complex value is finite iff both of its parts are
        if not np.isfinite(amps).all():
            raise ValueError("amplitudes must all be finite")
        norm_sq = float(np.vdot(amps, amps).real)
        if abs(norm_sq - 1.0) > NORM_ATOL:
            raise ValueError(f"state must be unit norm, got squared norm {norm_sq!r}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.size


def _qubit_amplitudes(angles: BlochAngles) -> np.ndarray:
    """(cos(theta/2), e^{i phi} sin(theta/2)), unvalidated: unit norm by construction."""
    half = 0.5 * angles.theta
    return np.array([math.cos(half), np.exp(1j * angles.phi) * math.sin(half)])


def make_qubit_state(angles: BlochAngles) -> PureState:
    """Statevector (cos(theta/2), e^{i phi} sin(theta/2)) of one qubit."""
    return PureState(_qubit_amplitudes(angles))


def project(
    state: PureState, levels: Iterable[int]
) -> tuple[float, PureState | None]:
    """Born probability of a set of basis levels and the collapsed state.

    Returns (probability, collapsed). The collapsed state is None when the
    probability does not exceed NULL_BRANCH_EPS, since renormalizing a
    numerically null branch would only amplify rounding noise.
    """
    idx = sorted({operator.index(level) for level in levels})
    if not idx or idx[0] < 0 or idx[-1] >= state.dim:
        raise ValueError(f"levels must be a nonempty subset of 0..{state.dim - 1}, got {idx}")
    probability = float(np.sum(np.abs(state.amplitudes[idx]) ** 2))
    if probability <= NULL_BRANCH_EPS:
        return probability, None
    collapsed = np.zeros_like(state.amplitudes)
    collapsed[idx] = state.amplitudes[idx] / math.sqrt(probability)
    return probability, PureState(collapsed)


def sample_complete_measurement(weights: Sequence[float], u: float) -> int:
    """Sample one outcome of a complete measurement from its Born weights.

    The outcome is the smallest index m whose cumulative weight, scanned in
    ascending outcome order, strictly exceeds u. The strict comparison makes
    runs bit-reproducible for a given u, and a weight at or below
    NULL_BRANCH_EPS is never realized.
    """
    if not 0.0 <= u < 1.0:
        raise ValueError(f"u must lie in [0, 1), got {u!r}")
    # NaN fails this comparison too
    if not all(weight >= 0.0 for weight in weights):
        raise ValueError(f"weights must be nonnegative, got {tuple(weights)!r}")
    total = sum(weights)
    if abs(total - 1.0) > COMPLETENESS_ATOL:
        raise ValueError(f"measurement is not complete: total probability {total!r}")
    cumulative = 0.0
    for m, weight in enumerate(weights):
        cumulative += weight
        if cumulative > u and weight > NULL_BRANCH_EPS:
            return m
    # Reachable only when rounding leaves the total just below u; fall back
    # to the last realizable outcome.
    return max(m for m, weight in enumerate(weights) if weight > NULL_BRANCH_EPS)


def fidelity(a: PureState, b: PureState) -> float:
    """Squared overlap |<a|b>|^2 between two pure states."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch in fidelity: {a.dim} vs {b.dim}")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
