"""Reference values of the gain report from closed-form densities, by mpmath.

For encoding outcome 0 and either decode target every posterior has a
closed form. With the prior p(t) = sin(t) / 2 on each polar angle and the
bit densities cos^2(t/2) p(t) and sin^2(t/2) p(t), each of mass 1/2:

    encode posterior   (4/3) (1 - cos^2(t1/2) cos^2(t2/2)) p(t1) p(t2)
      its marginals    (4/3) (1 - cos^2(t/2) / 2) p(t), for either qubit
    target 1
      successful decode  qubit 1: p(t1); qubit 2: 2 sin^2(t2/2) p(t2)
      failed decode      qubit 1: 2 sin^2(t1/2) p(t1); qubit 2: 2 cos^2(t2/2) p(t2)
    target 2
      successful decode  qubit 1: 2 sin^2(t1/2) p(t1); qubit 2: p(t2)
      failed decode      qubit 1: 2 cos^2(t1/2) p(t1); qubit 2: 2 sin^2(t2/2) p(t2)

The encode posterior does not depend on the target. The prior entropy is
1/ln 2 bits and the direct measurement gain is 1 - 1/(2 ln 2) bits; both
are also integrated and checked against those forms. The joint entropy of
the encode posterior comes from one 2-D tanh-sinh quadrature. Everything is
computed with 30 significant digits and written, rounded to 20, to
tests/reference_gains.json, which the tests compare with the Gauss-Legendre
report and with `bayes.exact_report`.

Run from the repository root (needs mpmath, which the package does not):

    python scripts/reference_gains.py
"""

from __future__ import annotations

import json
from pathlib import Path

import mpmath as mp

DIGITS = 20
OUTPUT = Path(__file__).resolve().parent.parent / "tests" / "reference_gains.json"

mp.mp.dps = 30


def prior(t):
    return mp.sin(t) / 2


def cos2(t):
    return mp.cos(t / 2) ** 2


def sin2(t):
    return mp.sin(t / 2) ** 2


def plogp(p):
    return p * mp.log(p, 2) if p > 0 else mp.mpf(0)


def entropy(density) -> mp.mpf:
    """-integral p log2 p over [0, pi], in bits."""
    return -mp.quad(lambda t: plogp(density(t)), [0, mp.pi])


def joint_entropy(density) -> mp.mpf:
    """-integral p log2 p over [0, pi]^2, in bits."""
    return -mp.quad(lambda t1, t2: plogp(density(t1, t2)), [0, mp.pi], [0, mp.pi])


def check_agrees(name: str, integrated: mp.mpf, expected: mp.mpf) -> None:
    if abs(integrated - expected) > mp.mpf(10) ** (-25):
        raise SystemExit(f"{name}: quadrature gives {integrated}, expected {expected}")


def reference_gains() -> tuple[mp.mpf, dict[int, dict[str, mp.mpf]]]:
    """The prior entropy, and the report's gains for outcome 0 by target."""
    h_prior = entropy(prior)
    check_agrees("h_prior", h_prior, 1 / mp.log(2))

    h_zero = entropy(lambda t: 2 * cos2(t) * prior(t))  # a qubit left in |0>
    h_one = entropy(lambda t: 2 * sin2(t) * prior(t))  # a qubit left in |1>
    check_agrees("h_one", h_one, h_zero)
    direct_gain = h_prior - (h_zero + h_one) / 2
    check_agrees("direct_gain", direct_gain, 1 - 1 / (2 * mp.log(2)))

    h_joint = joint_entropy(
        lambda t1, t2: mp.mpf(4) / 3 * (1 - cos2(t1) * cos2(t2)) * prior(t1) * prior(t2)
    )
    h_posterior = entropy(lambda t: mp.mpf(4) / 3 * (1 - cos2(t) / 2) * prior(t))
    # (qubit 1, qubit 2) entropies after a successful and after a failed decode
    after_decode = {
        1: ((h_prior, h_one), (h_one, h_zero)),
        2: ((h_one, h_prior), (h_zero, h_one)),
    }

    reports = {}
    for target, (h_success, h_failure) in after_decode.items():
        values = {"direct_gain": direct_gain, "encoding_gain": 2 * h_prior - h_joint}
        for a in (1, 2):
            values[f"marginal_encoding_gain_q{a}"] = h_prior - h_posterior
            values[f"decode_gain_q{a}"] = h_posterior - h_success[a - 1]
            values[f"failure_gain_q{a}"] = h_posterior - h_failure[a - 1]
        reports[target] = values
    return h_prior, reports


def main() -> None:
    h_prior, reports = reference_gains()
    document = {
        "digits": DIGITS,
        "h_prior": mp.nstr(h_prior, DIGITS),
        "reports": [
            {
                "outcome": 0,
                "target": target,
                "values": {name: mp.nstr(value, DIGITS) for name, value in values.items()},
            }
            for target, values in reports.items()
        ],
    }
    OUTPUT.write_text(json.dumps(document, indent=2) + "\n")


if __name__ == "__main__":
    main()
