"""Encode two product-state qubits into one qutrit and decode either one back.

Conventions used throughout:

* The two-qubit register index is k = b1 + 2*b2, so qubit 1 owns the low
  bit. Basis order: |0> = |0>|0>, |1> = |1>|0>, |2> = |0>|1>, |3> = |1>|1>.
* Joint states of ancilla and register use the slow-first tensor layout,
  combined index = 4 * (ancilla level) + (register index).
* Encoding outcome j ties ancilla level i to register index
  (i + j + 1) mod 4; after the relabeling permutation the register is left
  in a constant basis state and the three ancilla levels carry the
  surviving register amplitudes in cyclic order.

Decoding either qubit is probabilistic: a two-outcome measurement on the
qutrit either lands in the two levels that jointly carry the chosen qubit
(success, exact reconstruction) or collapses to the single remaining level
(failure). The choice of qubit needs nothing but the stored qutrit and the
two classical bits recording the encoding outcome, so it can be deferred
indefinitely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import (
    NULL_BRANCH_EPS,
    BlochAngles,
    DiagonalProjector,
    PermutationUnitary,
    PureState,
    apply_permutation,
    make_qubit_state,
    project,
    sample_complete_measurement,
    tensor_product,
)

QUTRIT_DIM = 3
REGISTER_DIM = 4
JOINT_DIM = QUTRIT_DIM * REGISTER_DIM

# Register-index pairs that differ only in the chosen qubit's bit. To read
# qubit `a` out of the register one needs both members of a block; losing
# one index therefore damages exactly one block per target.
TARGET_BLOCKS: dict[int, tuple[tuple[int, int], tuple[int, int]]] = {
    1: ((0, 1), (2, 3)),
    2: ((0, 2), (1, 3)),
}


def qubit_bit(index: int, target: int) -> int:
    """Bit of qubit `target` (1 or 2) inside register index k = b1 + 2*b2."""
    return (index >> (target - 1)) & 1


def carried_index(level: int, outcome: int) -> int:
    """Register index whose amplitude ends up on the given qutrit level."""
    return (level + outcome + 1) % REGISTER_DIM


def intact_block(outcome: int, target: int) -> tuple[int, int]:
    """The register-index pair for `target` that outcome j leaves untouched."""
    first, second = TARGET_BLOCKS[target]
    return second if outcome in first else first


def _check_outcome(outcome: int) -> int:
    if outcome not in (0, 1, 2, 3):
        raise ValueError(f"outcome must be one of 0..3, got {outcome!r}")
    return outcome


def _check_target(target: int) -> int:
    if target not in (1, 2):
        raise ValueError(f"target qubit must be 1 or 2, got {target!r}")
    return target


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
    probability: float
    qutrit: PureState

    def __post_init__(self) -> None:
        _check_outcome(self.outcome)
        if not 0.0 <= self.probability <= 1.0 + 1e-12:
            raise ValueError(f"probability out of range: {self.probability!r}")
        if self.qutrit is None or self.qutrit.dim != QUTRIT_DIM:
            raise ValueError("encode record needs a qutrit state")

    @property
    def classical_bits(self) -> tuple[int, int]:
        """The stored measurement result as two bits, low bit first."""
        return (self.outcome & 1, (self.outcome >> 1) & 1)


@dataclass(frozen=True)
class DecodeRecord:
    """Result of one sampled decoding of a chosen qubit."""

    target: int
    success: bool
    probability: float
    reconstructed: PureState | None = None
    failure_level: int | None = None

    def __post_init__(self) -> None:
        _check_target(self.target)
        if not 0.0 <= self.probability <= 1.0 + 1e-12:
            raise ValueError(f"probability out of range: {self.probability!r}")
        if self.success:
            if self.reconstructed is None or self.failure_level is not None:
                raise ValueError("successful decode must carry only a reconstructed qubit")
            if self.reconstructed.dim != 2:
                raise ValueError("reconstructed state must be a qubit")
        else:
            if self.failure_level is None or self.reconstructed is not None:
                raise ValueError("failed decode must carry only the failure level")


def joint_state(pair: QubitPair) -> PureState:
    """Product state of the two qubits on the four-level register."""
    a1 = make_qubit_state(pair.q1).amplitudes
    a2 = make_qubit_state(pair.q2).amplitudes
    amps = np.array([a1[k & 1] * a2[(k >> 1) & 1] for k in range(REGISTER_DIM)])
    # The squared norm is a product of two unit norms; rounding keeps it
    # within the construction tolerance.
    return PureState(amps)


def ancilla() -> PureState:
    """Uniform-superposition qutrit used as the encoding carrier."""
    return PureState(np.full(QUTRIT_DIM, 1.0 / math.sqrt(3.0)))


def encoding_projector(outcome: int) -> DiagonalProjector:
    """Projector P_j of the four-outcome encoding measurement.

    Outcome j pairs ancilla level i with register index (i + j + 1) mod 4.
    The four projectors partition all 12 joint indices.
    """
    _check_outcome(outcome)
    indices = {
        REGISTER_DIM * level + carried_index(level, outcome)
        for level in range(QUTRIT_DIM)
    }
    return DiagonalProjector(JOINT_DIM, frozenset(indices))


def relabel_unitary() -> PermutationUnitary:
    """Permutation |i>|k> -> |i>|k - i mod 4> that frees the register.

    After the encoding measurement with outcome j the register index always
    sits at (level + j + 1) mod 4, so this relabeling sends every surviving
    component to the same register state |j + 1 mod 4>.
    """
    image = [
        REGISTER_DIM * level + (k - level) % REGISTER_DIM
        for level in range(QUTRIT_DIM)
        for k in range(REGISTER_DIM)
    ]
    return PermutationUnitary(tuple(image))


def encode_branch(pair: QubitPair, outcome: int) -> tuple[float, PureState | None]:
    """Probability of encoding outcome j and the resulting qutrit.

    The probability is (1 - |c_j|^2) / 3 where c_j is the register
    amplitude removed by the measurement; qutrit level i carries the
    register amplitude c_{(i+j+1) mod 4}, renormalized. When the branch is
    numerically impossible (|c_j| = 1) the qutrit is absent.
    """
    _check_outcome(outcome)
    c = joint_state(pair).amplitudes
    levels = np.array([c[carried_index(i, outcome)] for i in range(QUTRIT_DIM)])
    # the survivors' weight: near a pole 1 - |c_j|^2 would lose every digit
    probability = float(np.vdot(levels, levels).real) / 3.0
    if probability <= NULL_BRANCH_EPS:
        return probability, None
    return probability, PureState(levels / math.sqrt(3.0 * probability))


def encode(pair: QubitPair, u: float) -> EncodeRecord:
    """Run the full encoding once, sampling the outcome with u in [0, 1).

    The outcome is sampled by projecting the ancilla-register product state
    onto the four encoding projectors; the stored qutrit comes from the
    closed-form branch, which the test suite checks against the explicit
    project-relabel-slice pipeline.
    """
    state = tensor_product(ancilla(), joint_state(pair))
    family = [encoding_projector(j) for j in range(REGISTER_DIM)]
    outcome, _ = sample_complete_measurement(state, family, u)
    probability, qutrit = encode_branch(pair, outcome)
    return EncodeRecord(outcome=outcome, probability=probability, qutrit=qutrit)


def decode_projectors(
    outcome: int, target: int
) -> tuple[DiagonalProjector, DiagonalProjector]:
    """Success and failure projectors on the qutrit for a chosen qubit.

    The success projector covers the two levels whose register indices form
    the block of `target` that the encoding outcome left intact; the
    failure projector is the single remaining level.
    """
    _check_outcome(outcome)
    _check_target(target)
    block = intact_block(outcome, target)
    success_levels = frozenset(
        level for level in range(QUTRIT_DIM) if carried_index(level, outcome) in block
    )
    failure_levels = frozenset(range(QUTRIT_DIM)) - success_levels
    return (
        DiagonalProjector(QUTRIT_DIM, success_levels),
        DiagonalProjector(QUTRIT_DIM, failure_levels),
    )


def decode_branch(
    qutrit: PureState, outcome: int, target: int
) -> tuple[float, PureState | None, float]:
    """Success probability, reconstructed qubit (absent on null weight), and
    failure probability for decoding `target` from a stored qutrit."""
    success_proj, _ = decode_projectors(outcome, target)
    p_success, collapsed = project(qutrit, success_proj)
    p_fail = 1.0 - p_success
    if collapsed is None:
        return p_success, None, p_fail
    # Order the two surviving levels so the one whose register index has the
    # target bit 0 becomes logical |0>; success then reproduces the original
    # qubit without any corrective rotation.
    low, high = sorted(
        success_proj.indices,
        key=lambda level: qubit_bit(carried_index(level, outcome), target),
    )
    amps = np.array([collapsed.amplitudes[low], collapsed.amplitudes[high]])
    return p_success, PureState(amps), p_fail


def decode(qutrit: PureState, outcome: int, target: int, u: float) -> DecodeRecord:
    """Sample the success/failure measurement and package the result.

    Success is scanned first, so the trial succeeds iff u < p_success. Only
    the stored qutrit, the recorded outcome and the chosen target enter
    here; nothing is re-encoded, which is what lets the choice of qubit be
    made long after encoding.
    """
    if not 0.0 <= u < 1.0:
        raise ValueError(f"u must lie in [0, 1), got {u!r}")
    p_success, reconstructed, p_fail = decode_branch(qutrit, outcome, target)
    if u < p_success and reconstructed is not None:
        return DecodeRecord(
            target=target, success=True, probability=p_success,
            reconstructed=reconstructed,
        )
    _, failure_proj = decode_projectors(outcome, target)
    (failure_level,) = failure_proj.indices
    return DecodeRecord(
        target=target, success=False, probability=p_fail,
        failure_level=failure_level,
    )


def conditional_success_probability(
    pair: QubitPair, outcome: int, target: int
) -> float:
    """Probability that decoding `target` succeeds, given encoding outcome j.

    Closed form: the intact block's share of the surviving register weight,
    sum_{k in intact block} |c_k|^2 / sum_{k != j} |c_k|^2. Raises for degenerate
    preparations where outcome j cannot occur at all.
    """
    _check_outcome(outcome)
    _check_target(target)
    c = joint_state(pair).amplitudes
    denominator = sum(abs(c[k]) ** 2 for k in range(REGISTER_DIM) if k != outcome)
    if denominator <= NULL_BRANCH_EPS:
        raise ValueError(
            f"outcome {outcome} cannot occur for this preparation; "
            "conditional success probability is undefined"
        )
    block = intact_block(outcome, target)
    return float(sum(abs(c[k]) ** 2 for k in block) / denominator)
