"""Exact pure-state linear algebra for small fixed dimensions.

Plain complex statevectors, a complete measurement sampled from its outcome
weights, and the fidelity of two states, all immutable values and pure
functions on Python floats and complex numbers, so that no BLAS kernel or SIMD
loop moves a printed digit. The 12-dimensional ancilla-register state of the
encoding is built and projected only by the test suite's oracle
(tests/conftest.py); the protocol's measurements are closed forms in the codec.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple, Sequence

# Unit-norm tolerance enforced when a state is constructed.
NORM_ATOL = 1e-12
# Born weight at or below this is treated as an impossible branch: it is
# never sampled, and no state is renormalized from its rounding noise.
NULL_BRANCH_EPS = 1e-15
# The outcome weights of a sampled measurement must sum to 1 within this
# tolerance.
COMPLETENESS_ATOL = 1e-10


class BlochAngles(NamedTuple("BlochAngles", [("theta", float), ("phi", float)])):
    """Polar and azimuthal angles (radians) of a single-qubit pure state."""

    __slots__ = ()

    def __new__(cls, theta: float, phi: float = 0.0) -> BlochAngles:
        checked_theta, checked_phi = float(theta), float(phi)
        if not 0.0 <= checked_theta <= math.pi:  # NaN fails this comparison too
            raise ValueError(f"theta must lie in [0, pi], got {theta!r}")
        if not math.isfinite(checked_phi):
            raise ValueError(f"phi must be finite, got {phi!r}")
        return super().__new__(cls, checked_theta, checked_phi % math.tau)

    _make = classmethod(lambda cls, fields: cls(*fields))  # `_replace` checks too


class PureState:
    """Unit-norm complex statevector of small fixed dimension.

    The amplitudes are kept as a tuple of Python complex numbers; the squared
    norm must already be 1 within NORM_ATOL. Global phase is never
    canonicalized, so comparisons should go through fidelity; `==` is identity.
    """

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes: Sequence[complex]) -> None:
        object.__setattr__(self, "amplitudes", amplitudes)
        self.__post_init__()  # the checks, under a name a tracer can wrap

    def __post_init__(self) -> None:
        try:
            amps = tuple(map(complex, self.amplitudes))
        except TypeError:  # a scalar, or rows of a matrix
            amps = ()
        if not amps:
            raise ValueError("amplitudes must be a nonempty one-dimensional sequence")
        if not all(map(cmath.isfinite, amps)):
            raise ValueError("amplitudes must all be finite")
        if abs((norm_sq := _weight(amps)) - 1.0) > NORM_ATOL:
            raise ValueError(f"state must be unit norm, got squared norm {norm_sq!r}")
        object.__setattr__(self, "amplitudes", amps)

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return f"PureState(amplitudes={self.amplitudes!r})"

    def __reduce__(self):
        return type(self), (self.amplitudes,)

    @property
    def dim(self) -> int:
        return len(self.amplitudes)


def _weight(amps) -> float:
    """Born weight sum |a|^2, summed left to right: `sum` compensates from Python 3.12."""
    total = 0.0
    for a in amps:
        total += a.real * a.real + a.imag * a.imag
    return total


def _qubit_amplitudes(angles: BlochAngles) -> tuple[complex, complex]:
    """(cos(theta/2), e^{i phi} sin(theta/2)), unvalidated: unit norm by construction."""
    half = 0.5 * angles.theta
    return complex(math.cos(half)), cmath.exp(1j * angles.phi) * math.sin(half)


def make_qubit_state(angles: BlochAngles) -> PureState:
    """Statevector (cos(theta/2), e^{i phi} sin(theta/2)) of one qubit."""
    return PureState(_qubit_amplitudes(angles))


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
    return abs(sum(x.conjugate() * y for x, y in zip(a.amplitudes, b.amplitudes))) ** 2
