"""Two non-entangled qubits encoded in one qutrit, with full gain accounting.

The package splits into small layers: exact statevector primitives
(states), the encode/decode protocol in closed form (codec), deterministic
quadrature for the Bayesian information gains (bayes), a reproducible
Monte Carlo harness (montecarlo), and a CLI with report emitters
(cli, report). The explicit 12-dimensional ancilla-register pipeline of the
paper is kept only as a test oracle, in tests/conftest.py.
"""

from .states import (
    BlochAngles,
    PureState,
    equal_up_to_global_phase,
    fidelity,
    make_qubit_state,
    project,
    sample_complete_measurement,
)
from .codec import (
    DecodeRecord,
    EncodeRecord,
    QubitPair,
    conditional_success_probability,
    decode,
    decode_branch,
    decode_levels,
    encode,
    encode_branch,
    joint_state,
    outcome_weights,
)
from .bayes import (
    QuadratureSpec,
    exact_report,
    gain_report,
    normalizers,
    prior_theta,
)
from .montecarlo import TrialConfig, TrialStats, run_trials, sample_bloch

__version__ = "0.1.0"

__all__ = [
    "BlochAngles",
    "PureState",
    "equal_up_to_global_phase",
    "fidelity",
    "make_qubit_state",
    "project",
    "sample_complete_measurement",
    "DecodeRecord",
    "EncodeRecord",
    "QubitPair",
    "conditional_success_probability",
    "decode",
    "decode_branch",
    "decode_levels",
    "encode",
    "encode_branch",
    "joint_state",
    "outcome_weights",
    "QuadratureSpec",
    "exact_report",
    "gain_report",
    "normalizers",
    "prior_theta",
    "TrialConfig",
    "TrialStats",
    "run_trials",
    "sample_bloch",
]
