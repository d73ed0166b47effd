"""Encode two product-state qubits into one qutrit and decode either one back.

Conventions used throughout:

* The two-qubit register index is k = b1 + 2*b2, so qubit 1 owns the low
  bit. Basis order: |0> = |0>|0>, |1> = |1>|0>, |2> = |0>|1>, |3> = |1>|1>.
* Encoding outcome j ties ancilla level i to register index
  (i + j + 1) mod 4; `survivors(j)` is the one place this map is written.
  The outcome occurs with weight (1 - |c_j|^2) / 3, and after the
  relabeling permutation qutrit level i carries the surviving register
  amplitude c_{(i+j+1) mod 4}, renormalized. Both are computed from these
  closed forms; the test suite's oracle builds the 12-dimensional
  ancilla-register state, projects and relabels it, and checks them.

Decoding either qubit is probabilistic: a two-outcome measurement on the
qutrit either lands in the two levels that carry the chosen qubit's intact
block (success, exact reconstruction) or collapses to the single remaining
level, which carries j's partner j ^ (1 << (a - 1)) in the damaged block
(failure). `decode_levels` finds these levels within `survivors(j)`. The
choice of qubit needs nothing but the stored qutrit and the two classical
bits recording the encoding outcome, so it can be deferred indefinitely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import (
    NULL_BRANCH_EPS,
    BlochAngles,
    PureState,
    make_qubit_state,
    project,
    sample_complete_measurement,
)

QUTRIT_DIM = 3
REGISTER_DIM = 4

# Register-index pairs that differ only in the chosen qubit's bit, the member
# with that bit 0 first. To read qubit `a` out of the register one needs both
# members of a block; losing one index therefore damages exactly one block
# per target.
TARGET_BLOCKS: dict[int, tuple[tuple[int, int], tuple[int, int]]] = {
    1: ((0, 1), (2, 3)),
    2: ((0, 2), (1, 3)),
}


def qubit_bit(index: int, target: int) -> int:
    """Bit of qubit `target` (1 or 2) inside register index k = b1 + 2*b2."""
    return (index >> (target - 1)) & 1


def _check_outcome(outcome: int) -> int:
    if outcome not in (0, 1, 2, 3):
        raise ValueError(f"outcome must be one of 0..3, got {outcome!r}")
    return outcome


def _check_target(target: int) -> int:
    if target not in (1, 2):
        raise ValueError(f"target qubit must be 1 or 2, got {target!r}")
    return target


def survivors(outcome: int) -> tuple[int, int, int]:
    """Register indices whose amplitudes outcome j leaves on qutrit levels 0, 1, 2."""
    _check_outcome(outcome)
    return tuple((level + outcome + 1) % REGISTER_DIM for level in range(QUTRIT_DIM))


def intact_block(outcome: int, target: int) -> tuple[int, int]:
    """The register-index pair for `target` that outcome j leaves untouched."""
    first, second = TARGET_BLOCKS[_check_target(target)]
    return second if outcome in first else first


@dataclass(frozen=True)
class QubitPair:
    """Independent preparations of the two qubits to be encoded."""

    q1: BlochAngles
    q2: BlochAngles


@dataclass(frozen=True)
class EncodeRecord:
    """Result of one sampled encoding: the qutrit plus the classical outcome.

    The outcome must be stored alongside the qutrit (two classical bits);
    decoding cannot infer it from the quantum state.
    """

    outcome: int
    weights: tuple[float, float, float, float]  # every outcome's, as sampled
    qutrit: PureState

    def __post_init__(self) -> None:
        _check_outcome(self.outcome)
        if not 0.0 <= self.probability <= 1.0 + 1e-12:
            raise ValueError(f"probability out of range: {self.probability!r}")
        if self.qutrit is None or self.qutrit.dim != QUTRIT_DIM:
            raise ValueError("encode record needs a qutrit state")

    @property
    def probability(self) -> float:
        """Weight of the recorded outcome."""
        return self.weights[self.outcome]

    @property
    def classical_bits(self) -> tuple[int, int]:
        """The stored measurement result as two bits, low bit first."""
        return (self.outcome & 1, (self.outcome >> 1) & 1)


@dataclass(frozen=True)
class DecodeRecord:
    """Result of one sampled decoding of a chosen qubit."""

    target: int
    success: bool
    success_probability: float
    reconstructed: PureState | None = None
    failure_level: int | None = None

    def __post_init__(self) -> None:
        _check_target(self.target)
        if not 0.0 <= self.success_probability <= 1.0 + 1e-12:
            raise ValueError(f"probability out of range: {self.success_probability!r}")
        if self.success:
            if self.reconstructed is None or self.failure_level is not None:
                raise ValueError("successful decode must carry only a reconstructed qubit")
            if self.reconstructed.dim != 2:
                raise ValueError("reconstructed state must be a qubit")
        else:
            if self.failure_level is None or self.reconstructed is not None:
                raise ValueError("failed decode must carry only the failure level")

    @property
    def probability(self) -> float:
        """Probability of the sampled result, success or failure."""
        return self.success_probability if self.success else 1.0 - self.success_probability


def joint_state(pair: QubitPair) -> PureState:
    """Product state of the two qubits on the four-level register."""
    a1 = make_qubit_state(pair.q1).amplitudes
    a2 = make_qubit_state(pair.q2).amplitudes
    amps = np.array([a1[k & 1] * a2[(k >> 1) & 1] for k in range(REGISTER_DIM)])
    # The squared norm is a product of two unit norms; rounding keeps it
    # within the construction tolerance.
    return PureState(amps)


def _branch(c: np.ndarray, outcome: int) -> tuple[float, np.ndarray]:
    """Weight of encoding outcome j and the amplitudes it leaves on levels 0..2."""
    levels = c[list(survivors(outcome))]
    # the survivors' weight: near a pole 1 - |c_j|^2 would lose every digit
    return float(np.vdot(levels, levels).real) / 3.0, levels


def _qutrit(probability: float, levels: np.ndarray) -> PureState | None:
    if probability <= NULL_BRANCH_EPS:
        return None
    return PureState(levels / math.sqrt(3.0 * probability))


def outcome_weights(pair: QubitPair) -> tuple[float, float, float, float]:
    """Probability (1 - |c_j|^2) / 3 of each encoding outcome j, as `encode` samples it."""
    c = joint_state(pair).amplitudes
    return tuple(_branch(c, j)[0] for j in range(REGISTER_DIM))


def encode_branch(pair: QubitPair, outcome: int) -> tuple[float, PureState | None]:
    """Probability of encoding outcome j and the resulting qutrit.

    The probability is (1 - |c_j|^2) / 3 where c_j is the register
    amplitude removed by the measurement; qutrit level i carries the
    register amplitude c_{(i+j+1) mod 4}, renormalized. When the branch is
    numerically impossible (|c_j| = 1) the qutrit is absent.
    """
    probability, levels = _branch(joint_state(pair).amplitudes, outcome)
    return probability, _qutrit(probability, levels)


def encode(pair: QubitPair, u: float) -> EncodeRecord:
    """Run the full encoding once, sampling the outcome with u in [0, 1).

    The outcome is sampled from the four branch weights of `encode_branch`
    by the strict cumulative rule, and only the chosen qutrit is built.
    """
    c = joint_state(pair).amplitudes
    branches = [_branch(c, j) for j in range(REGISTER_DIM)]
    weights = tuple(weight for weight, _ in branches)
    outcome = sample_complete_measurement(weights, u)
    return EncodeRecord(outcome=outcome, weights=weights, qutrit=_qutrit(*branches[outcome]))


def decode_levels(outcome: int, target: int) -> tuple[tuple[int, int], int]:
    """Qutrit levels read as logical |0> and |1> when decoding `target`, and
    the failure level.

    The success pair carries the block of `target` that the encoding outcome
    left intact, in the order of the target's bit in that index, so success
    reproduces the original qubit without any corrective rotation. The
    failure level carries the remaining survivor, j's partner in the damaged
    block.
    """
    kept = survivors(outcome)
    low, high = (kept.index(k) for k in intact_block(outcome, target))
    return (low, high), kept.index(outcome ^ (1 << (target - 1)))


def decode_branch(
    qutrit: PureState, outcome: int, target: int
) -> tuple[float, PureState | None]:
    """Success probability and reconstructed qubit (absent on null weight)
    for decoding `target` from a stored qutrit."""
    success_levels, _ = decode_levels(outcome, target)
    p_success, collapsed = project(qutrit, success_levels)
    if collapsed is None:
        return p_success, None
    return p_success, PureState(collapsed.amplitudes[list(success_levels)])


def decode(qutrit: PureState, outcome: int, target: int, u: float) -> DecodeRecord:
    """Sample the success/failure measurement and package the result.

    Success is scanned first, so the trial succeeds iff u < p_success. Only
    the stored qutrit, the recorded outcome and the chosen target enter
    here; nothing is re-encoded, which is what lets the choice of qubit be
    made long after encoding.
    """
    if not 0.0 <= u < 1.0:
        raise ValueError(f"u must lie in [0, 1), got {u!r}")
    p_success, reconstructed = decode_branch(qutrit, outcome, target)
    if u < p_success and reconstructed is not None:
        return DecodeRecord(
            target=target, success=True, success_probability=p_success,
            reconstructed=reconstructed,
        )
    return DecodeRecord(
        target=target, success=False, success_probability=p_success,
        failure_level=decode_levels(outcome, target)[1],
    )


def conditional_success_probability(
    pair: QubitPair, outcome: int, target: int
) -> float:
    """Probability that decoding `target` succeeds, given encoding outcome j.

    Closed form: the intact block's share of the surviving register weight,
    sum_{k in intact block} |c_k|^2 / sum_{k != j} |c_k|^2. Raises for degenerate
    preparations where outcome j cannot occur at all.
    """
    kept, block = sorted(survivors(outcome)), intact_block(outcome, target)
    c = joint_state(pair).amplitudes
    denominator = sum(abs(c[k]) ** 2 for k in kept)  # in ascending index order
    if denominator <= NULL_BRANCH_EPS:
        raise ValueError(
            f"outcome {outcome} cannot occur for this preparation; "
            "conditional success probability is undefined"
        )
    return float(sum(abs(c[k]) ** 2 for k in block) / denominator)
