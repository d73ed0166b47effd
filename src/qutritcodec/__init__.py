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
    fidelity,
    make_qubit_state,
    sample_complete_measurement,
)
from .codec import (
    EncodeRecord,
    decode,
    decode_levels,
    encode,
    encode_branch,
    joint_state,
)
from .bayes import (
    QuadratureSpec,
    exact_report,
    gain_report,
    prior_theta,
)
from .montecarlo import TrialStats, run_trials

__version__ = "0.1.0"

__all__ = [
    "BlochAngles",
    "PureState",
    "fidelity",
    "make_qubit_state",
    "sample_complete_measurement",
    "EncodeRecord",
    "decode",
    "decode_levels",
    "encode",
    "encode_branch",
    "joint_state",
    "QuadratureSpec",
    "exact_report",
    "gain_report",
    "prior_theta",
    "TrialStats",
    "run_trials",
]
