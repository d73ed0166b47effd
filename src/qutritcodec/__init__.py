"""Two non-entangled qubits encoded in one qutrit, with full gain accounting.

The package splits into small layers: exact statevector primitives
(states), the encode/decode protocol in closed form (codec), deterministic
quadrature for the Bayesian information gains (bayes), a reproducible
Monte Carlo harness (montecarlo) on a counter-based random stream (stream),
and a CLI with report emitters (cli, report). The explicit 12-dimensional
ancilla-register pipeline of the paper is kept only as a test oracle, in
tests/conftest.py. Only bayes and montecarlo import numpy; the module
`__getattr__` (PEP 562) imports them when one of their names is first read,
so `import qutritcodec` does not load numpy.
"""

import importlib

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

# the numpy layers and the names exported from them, imported on first read
_LAZY = {
    "bayes": (
        "QuadratureSpec",
        "exact_report",
        "gain_report",
        "prior_theta",
    ),
    "montecarlo": ("TrialStats", "run_trials"),
}

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


def __getattr__(name: str):
    for layer, names in _LAZY.items():
        if name == layer or name in names:
            module = importlib.import_module(f".{layer}", __name__)
            return module if name == layer else getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
