"""Two non-entangled qubits encoded in one qutrit, with full gain accounting.

The package splits into small layers: exact statevector primitives
(states), the encode/decode protocol itself (codec), deterministic
quadrature for the Bayesian information gains (bayes), a reproducible
Monte Carlo harness (montecarlo), and a CLI with report emitters
(cli, report).
"""

from .states import (
    BlochAngles,
    DiagonalProjector,
    PermutationUnitary,
    PureState,
    apply_permutation,
    equal_up_to_global_phase,
    fidelity,
    make_qubit_state,
    project,
    sample_complete_measurement,
    tensor_product,
)
from .codec import (
    DecodeRecord,
    EncodeRecord,
    QubitPair,
    ancilla,
    conditional_success_probability,
    decode,
    decode_branch,
    decode_projectors,
    encode,
    encode_branch,
    encoding_projector,
    joint_state,
    relabel_unitary,
)
from .bayes import (
    Density1D,
    Density2D,
    GainReport,
    QuadratureSpec,
    average_success_probability,
    decode_posterior_failure,
    decode_posterior_success,
    direct_measurement_gain,
    encode_posterior,
    entropy_bits,
    exact_report,
    gain_report,
    outcome_likelihood,
    outcome_prior,
    prior_theta,
    report_scalars,
)
from .montecarlo import TrialConfig, TrialStats, run_trials, sample_bloch

__version__ = "0.1.0"

__all__ = [
    "BlochAngles",
    "DiagonalProjector",
    "PermutationUnitary",
    "PureState",
    "apply_permutation",
    "equal_up_to_global_phase",
    "fidelity",
    "make_qubit_state",
    "project",
    "sample_complete_measurement",
    "tensor_product",
    "DecodeRecord",
    "EncodeRecord",
    "QubitPair",
    "ancilla",
    "conditional_success_probability",
    "decode",
    "decode_branch",
    "decode_projectors",
    "encode",
    "encode_branch",
    "encoding_projector",
    "joint_state",
    "relabel_unitary",
    "Density1D",
    "Density2D",
    "GainReport",
    "QuadratureSpec",
    "average_success_probability",
    "decode_posterior_failure",
    "decode_posterior_success",
    "direct_measurement_gain",
    "encode_posterior",
    "entropy_bits",
    "exact_report",
    "gain_report",
    "outcome_likelihood",
    "outcome_prior",
    "prior_theta",
    "report_scalars",
    "TrialConfig",
    "TrialStats",
    "run_trials",
    "sample_bloch",
]
