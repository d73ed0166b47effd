"""Reference values of the gain report from closed-form densities, by mpmath.

Every posterior has a closed form for each encoding outcome j and decode
target a. With the prior p(t) = sin(t) / 2 on each polar angle and the bit
weights w_0(t) = cos^2(t/2) and w_1(t) = sin^2(t/2), register index
k = b1 + 2 b2 has weight w_b1(t1) w_b2(t2), and the posterior that keeps a
set S of register indices is

    (4 / |S|) sum_{k in S} w_b1(t1) w_b2(t2) p(t1) p(t2),
    with qubit-q marginal  (2 / |S|) sum_{k in S} w_bq(t) p(t).

Outcome j keeps the three indices other than j, so its encode posterior is
(4/3) (1 - |c_j|^2) p(t1) p(t2), with |c_j|^2 = w_j1(t1) w_j2(t2). A
successful decode keeps the intact block, the two survivors that differ
only in the target's bit; a failed one keeps the third survivor. Both are
found from these definitions, not from the package.

The prior entropy is 1/ln 2 bits and the direct measurement gain is
1 - 1/(2 ln 2) bits; both are also integrated and checked against those
forms. Each outcome's encode joint entropy comes from its own 2-D tanh-sinh
quadrature, so no outcome's values are taken from another's by symmetry.
Everything is computed with 30 significant digits and written, rounded to
20, to tests/reference_gains.json, which the tests compare with the
Gauss-Legendre report and with `bayes.exact_report`.

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


def weight(bit: int, t):
    return mp.cos(t / 2) ** 2 if bit == 0 else mp.sin(t / 2) ** 2


def qubit_bit(k: int, qubit: int) -> int:
    return (k >> (qubit - 1)) & 1


def plogp(p):
    return p * mp.log(p, 2) if p > 0 else mp.mpf(0)


def entropy(density) -> mp.mpf:
    """-integral p log2 p over [0, pi], in bits."""
    return -mp.quad(lambda t: plogp(density(t)), [0, mp.pi])


def joint_entropy(density) -> mp.mpf:
    """-integral p log2 p over [0, pi]^2, in bits."""
    return -mp.quad(lambda t1, t2: plogp(density(t1, t2)), [0, mp.pi], [0, mp.pi])


def marginal_entropy(kept: list[int], qubit: int) -> mp.mpf:
    """Entropy of qubit `qubit`'s marginal of the posterior that keeps `kept`."""
    return entropy(
        lambda t: 2 * sum(weight(qubit_bit(k, qubit), t) for k in kept) / len(kept) * prior(t)
    )


def kept_sets(outcome: int, target: int) -> tuple[list[int], list[int], list[int]]:
    """The register indices kept by the encode posterior, a successful decode
    and a failed decode of (outcome, target)."""
    survivors = [k for k in range(4) if k != outcome]
    (block,) = [
        [k, l] for k in survivors for l in survivors
        if k < l and k ^ l == 1 << (target - 1)
    ]
    return survivors, block, [k for k in survivors if k not in block]


def check_agrees(name: str, integrated: mp.mpf, expected: mp.mpf) -> None:
    if abs(integrated - expected) > mp.mpf(10) ** (-25):
        raise SystemExit(f"{name}: quadrature gives {integrated}, expected {expected}")


def reference_gains() -> tuple[mp.mpf, dict[tuple[int, int], dict[str, mp.mpf]]]:
    """The prior entropy, and the report's gains by (outcome, target)."""
    h_prior = entropy(prior)
    check_agrees("h_prior", h_prior, 1 / mp.log(2))

    h_zero = entropy(lambda t: 2 * weight(0, t) * prior(t))  # a qubit left in |0>
    h_one = entropy(lambda t: 2 * weight(1, t) * prior(t))  # a qubit left in |1>
    check_agrees("h_one", h_one, h_zero)
    direct_gain = h_prior - (h_zero + h_one) / 2
    check_agrees("direct_gain", direct_gain, 1 - 1 / (2 * mp.log(2)))

    reports = {}
    for outcome in range(4):
        bits = [qubit_bit(outcome, qubit) for qubit in (1, 2)]
        h_joint = joint_entropy(
            lambda t1, t2: mp.mpf(4) / 3
            * (1 - weight(bits[0], t1) * weight(bits[1], t2)) * prior(t1) * prior(t2)
        )
        for target in (1, 2):
            encode, success, failure = kept_sets(outcome, target)
            values = {"direct_gain": direct_gain, "encoding_gain": 2 * h_prior - h_joint}
            for a in (1, 2):
                h_posterior = marginal_entropy(encode, a)
                values[f"marginal_encoding_gain_q{a}"] = h_prior - h_posterior
                values[f"decode_gain_q{a}"] = h_posterior - marginal_entropy(success, a)
                values[f"failure_gain_q{a}"] = h_posterior - marginal_entropy(failure, a)
            reports[outcome, target] = values
    return h_prior, reports


def main() -> None:
    h_prior, reports = reference_gains()
    document = {
        "digits": DIGITS,
        "h_prior": mp.nstr(h_prior, DIGITS),
        "reports": [
            {
                "outcome": outcome,
                "target": target,
                "values": {name: mp.nstr(value, DIGITS) for name, value in values.items()},
            }
            for (outcome, target), values in reports.items()
        ],
    }
    OUTPUT.write_text(json.dumps(document, indent=2) + "\n")


if __name__ == "__main__":
    main()
