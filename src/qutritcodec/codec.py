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

A preparation is a pair (q1, q2) of `BlochAngles`. `encode` builds the
register state once and keeps it in `EncodeRecord.joint`, next to the
weights sampled from it, so that a trace prints the state that was measured
without building it again.

Decoding either qubit is probabilistic: a two-outcome measurement on the
qutrit either lands in the two levels that carry the chosen qubit's intact
block (success, exact reconstruction) or collapses to the single remaining
level, which carries j's partner j ^ (1 << (a - 1)) in the damaged block
(failure). `decode_levels` finds these levels within `survivors(j)`;
`decode` returns the success probability, the Born weight of the two
success levels, and the qubit they carry, renormalized, or None on failure.
The choice of qubit needs nothing but the stored qutrit and the two
classical bits recording the encoding outcome, so it can be deferred
indefinitely.

The success probability 2/3 holds for every preparation, not only on
average: for either target a, sum_j P(j) P(success | j, a) is the sum of
the four intact blocks' weights over 3. An intact block's weight is the
other qubit's weight at one bit value, and each bit value occurs for two
outcomes, so the sum is 2/3 for any angles.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

from .states import (
    NULL_BRANCH_EPS, BlochAngles, PureState, _qubit_amplitudes, _weight,
    sample_complete_measurement,
)

QUTRIT_DIM = 3
REGISTER_DIM = 4


def qubit_bit(index, target: int):
    """Bit of qubit `target` (1 or 2) inside register index k = b1 + 2*b2;
    elementwise on an integer array of indices."""
    return (index >> (target - 1)) & 1


def _check_outcome(outcome: int) -> int:
    if (checked := operator.index(outcome)) not in (0, 1, 2, 3):
        raise ValueError(f"outcome must be one of 0..3, got {outcome!r}")
    return checked


def _check_target(target: int) -> int:
    if (checked := operator.index(target)) not in (1, 2):
        raise ValueError(f"target qubit must be 1 or 2, got {target!r}")
    return checked


def survivors(outcome: int) -> tuple[int, int, int]:
    """Register indices whose amplitudes outcome j leaves on qutrit levels 0, 1, 2."""
    outcome = _check_outcome(outcome)
    return tuple((level + outcome + 1) % REGISTER_DIM for level in range(QUTRIT_DIM))


def intact_block(outcome: int, target: int) -> tuple[int, int]:
    """The register-index pair for `target` that outcome j leaves untouched,
    target bit 0 first.

    A block's two indices differ only in the target's bit; decoding needs
    both. Outcome j removes index j, so the intact block flips j's other bit.
    """
    bit = 1 << (_check_target(target) - 1)
    low = (REGISTER_DIM - 1) & ~(_check_outcome(outcome) | bit)
    return low, low | bit


class EncodeRecord(NamedTuple):
    """Result of one sampled encoding: the qutrit plus the classical outcome.

    The outcome must be stored alongside the qutrit (two classical bits);
    decoding cannot infer it from the quantum state. `joint` is the register
    state the outcome was sampled from. Only `encode` builds one, unchecked.
    """

    outcome: int
    weights: tuple[float, float, float, float]  # every outcome's, as sampled
    qutrit: PureState
    joint: PureState

    @property
    def probability(self) -> float:
        """Weight of the recorded outcome."""
        return self.weights[self.outcome]

    @property
    def classical_bits(self) -> tuple[int, int]:
        """The stored measurement result as two bits, low bit first."""
        return (qubit_bit(self.outcome, 1), qubit_bit(self.outcome, 2))


def joint_state(pair: tuple[BlochAngles, BlochAngles]) -> PureState:
    """Product state of the two qubits on the four-level register."""
    a1, a2 = _qubit_amplitudes(pair[0]), _qubit_amplitudes(pair[1])
    amps = [a1[qubit_bit(k, 1)] * a2[qubit_bit(k, 2)] for k in range(REGISTER_DIM)]
    # The squared norm is a product of two unit norms; rounding keeps it
    # within the construction tolerance, which this one validation checks.
    return PureState(amps)


def _branch(c: tuple[complex, ...], outcome: int) -> tuple[float, list[complex]]:
    """Weight of encoding outcome j and the amplitudes it leaves on levels 0..2."""
    levels = [c[k] for k in survivors(outcome)]
    # the survivors' weight: near a pole 1 - |c_j|^2 would lose every digit
    return _weight(levels) / 3.0, levels


def _qutrit(probability: float, levels: list[complex]) -> PureState | None:
    if probability <= NULL_BRANCH_EPS:
        return None
    norm = math.sqrt(3.0 * probability)
    return PureState([c / norm for c in levels])


def encode_branch(
    pair: tuple[BlochAngles, BlochAngles], outcome: int
) -> tuple[float, PureState | None]:
    """Probability of encoding outcome j and the resulting qutrit.

    The probability is (1 - |c_j|^2) / 3 where c_j is the register
    amplitude removed by the measurement; qutrit level i carries the
    register amplitude c_{(i+j+1) mod 4}, renormalized. When the branch is
    numerically impossible (|c_j| = 1) the qutrit is absent.
    """
    probability, levels = _branch(joint_state(pair).amplitudes, outcome)
    return probability, _qutrit(probability, levels)


def encode(pair: tuple[BlochAngles, BlochAngles], u: float) -> EncodeRecord:
    """Run the full encoding once, sampling the outcome with u in [0, 1).

    The outcome is sampled from the four branch weights of `encode_branch`
    by the strict cumulative rule, and only the chosen qutrit is built.
    """
    joint = joint_state(pair)
    branches = [_branch(joint.amplitudes, j) for j in range(REGISTER_DIM)]
    weights = tuple(weight for weight, _ in branches)
    outcome = sample_complete_measurement(weights, u)
    qutrit = _qutrit(*branches[outcome])
    return EncodeRecord(outcome=outcome, weights=weights, qutrit=qutrit, joint=joint)


def decode_levels(outcome: int, target: int) -> tuple[tuple[int, int], int]:
    """Qutrit levels read as logical |0> and |1> when decoding `target`, and
    the failure level.

    The success pair carries the block of `target` that the encoding outcome
    left intact, in the order of the target's bit in that index, so success
    reproduces the original qubit without any corrective rotation. The
    failure level is the third, which carries the remaining survivor, j's
    partner in the damaged block.
    """
    kept = survivors(outcome)
    low, high = (kept.index(k) for k in intact_block(outcome, target))
    return (low, high), 3 - low - high


def decode(
    qutrit: PureState, outcome: int, target: int, u: float
) -> tuple[float, PureState | None]:
    """Sample the success/failure measurement: the success probability and
    the reconstructed qubit, None on failure.

    Success is scanned first, so the trial succeeds iff u < p_success and
    the success branch is not null; only then is the reconstructed qubit
    built. Only the stored qutrit, the recorded outcome and the chosen
    target enter here; nothing is re-encoded, which is what lets the choice
    of qubit be made long after encoding.
    """
    if not 0.0 <= u < 1.0:
        raise ValueError(f"u must lie in [0, 1), got {u!r}")
    if qutrit.dim != QUTRIT_DIM:
        raise ValueError(f"decode needs a qutrit, got a {qutrit.dim}-level state")
    success_levels, _ = decode_levels(outcome, target)
    # the Born weight of the success branch, summed from its two levels alone
    kept = [qutrit.amplitudes[level] for level in success_levels]
    p_success = _weight(kept)
    if u < p_success and p_success > NULL_BRANCH_EPS:
        norm = math.sqrt(p_success)
        return p_success, PureState([c / norm for c in kept])
    return p_success, None
