"""Acceptance gate: every headline claim at its stated tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s or on failure)
and then asserts, so the suite doubles as a checklist. The tolerances are
the ones `verify` checks: a quoted constant's is that of its paper row, and
an exact claim's is `cli.IDENTITY_TOL`.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from qutritcodec import (
    QuadratureSpec,
    decode,
    encode_branch,
    exact_report,
    fidelity,
    gain_report,
    make_qubit_state,
    run_trials,
)
from qutritcodec.cli import IDENTITY_TOL, _verify_rows
from conftest import phase_aligned_max_diff, pipeline_encode, random_pair

TRIALS = 1_000_000
MC_SEED = 0


@pytest.fixture(scope="session")
def report_256():
    return gain_report(QuadratureSpec(256))


@pytest.fixture(scope="session")
def report_512():
    return gain_report(QuadratureSpec(512))


@pytest.fixture(scope="session")
def paper_rows(report_256):
    """`verify`'s paper rows at 256 nodes, by name."""
    rows = _verify_rows(report_256, exact_report(), 256)
    return {row["name"]: row for row in rows if row["source"] == "paper"}


@pytest.fixture(scope="session")
def mc_stats():
    return run_trials(TRIALS, master_seed=MC_SEED)


def check(label: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def quoted(paper_rows, value: float, name: str) -> bool:
    """Whether `value` is within the tolerance of paper row `name` of the
    constant the paper quotes."""
    row = paper_rows[name]
    return abs(value - row["reference"]) <= row["tolerance"]


def test_01_average_success_probability(report_256):
    deviations = [
        abs(report_256[f"success_probability_j{j}_target{a}"] - 2 / 3)
        for j in range(4)
        for a in (1, 2)
    ]
    ok = max(deviations) <= IDENTITY_TOL
    assert check(
        "01 success probability 2/3 for all outcomes and targets",
        ok,
        f"max deviation {max(deviations):.3e}, tol {IDENTITY_TOL:g}",
    )


def test_02_encoding_gain(report_256, paper_rows):
    computed, row = report_256["encoding_gain"], paper_rows["encoding_gain"]
    deviation = abs(computed - row["reference"])
    assert check(
        "02 encoding gain 0.0735 bits",
        deviation <= row["tolerance"],
        f"computed {computed:.7f}, deviation {deviation:.2e}, tol {row['tolerance']:g}",
    )


def test_03_marginal_encoding_gains(report_256, paper_rows):
    names = [f"marginal_encoding_gain_q{a}" for a in (1, 2)]
    gains = [report_256[name] for name in names]
    ok = (
        all(quoted(paper_rows, gain, name) for gain, name in zip(gains, names))
        and abs(gains[0] - gains[1]) <= IDENTITY_TOL
    )
    assert check(
        "03 marginal encoding gains 0.027 bits and equal",
        ok,
        f"computed {gains[0]:.6f}/{gains[1]:.6f}",
    )


def test_04_decode_gains(report_256, paper_rows):
    decode_q1, decode_q2 = (report_256[f"decode_gain_q{a}"] for a in (1, 2))
    total_q1, total_q2 = (report_256[f"success_total_q{a}"] for a in (1, 2))
    ok = (
        quoted(paper_rows, decode_q1, "decode_gain_q1")
        and abs(total_q1) <= IDENTITY_TOL
        and quoted(paper_rows, decode_q2, "decode_gain_q2")
        and quoted(paper_rows, total_q2, "success_total_q2")
    )
    assert check(
        "04 decode gains -0.027 / 0.252 with exact cancellation",
        ok,
        f"q1 {decode_q1:.6f} (total {total_q1:.2e}), q2 {decode_q2:.6f} (total {total_q2:.6f})",
    )


def test_05_failure_gains(report_256, paper_rows):
    failure = [report_256[f"failure_gain_q{a}"] for a in (1, 2)]
    totals = [report_256[f"failure_total_q{a}"] for a in (1, 2)]
    direct = report_256["direct_gain"]
    ok = all(
        quoted(paper_rows, g, f"failure_gain_q{a}") for g, a in zip(failure, (1, 2))
    ) and all(abs(t - direct) <= IDENTITY_TOL for t in totals)
    assert check(
        "05 failure gains 0.252 bits, totals equal the direct gain",
        ok,
        f"gains {failure[0]:.6f}/{failure[1]:.6f}, direct {direct:.6f}",
    )


def test_06_direct_measurement_identity(report_256):
    deviation = abs(report_256["success_total_q2"] - report_256["direct_gain"])
    assert check(
        "06 encode plus decode gain on the spectator equals the direct gain",
        deviation <= IDENTITY_TOL,
        f"deviation {deviation:.3e}, tol {IDENTITY_TOL:g}",
    )


def test_07_superadditivity(report_256):
    margin = report_256["encoding_gain"] - sum(
        report_256[f"marginal_encoding_gain_q{a}"] for a in (1, 2)
    )
    assert check(
        "07 joint encoding gain exceeds the sum of marginals",
        margin >= 0.015,
        f"margin {margin:.6f} bits, floor 0.015",
    )


def test_08_round_trip_and_pipeline_equivalence():
    rng = np.random.default_rng(8)
    worst_fidelity = 1.0
    worst_pipeline = 0.0
    collected = 0
    while collected < 1000:
        pair = random_pair(rng)
        outcome = int(rng.integers(4))
        target = int(rng.integers(1, 3))
        probability, qutrit = encode_branch(pair, outcome)
        if probability <= 1e-6:
            continue
        pipeline_probability, pipeline_qutrit = pipeline_encode(pair, outcome)
        worst_pipeline = max(
            worst_pipeline,
            abs(probability - pipeline_probability),
            phase_aligned_max_diff(qutrit, pipeline_qutrit),
        )
        p_success, reconstructed = decode(qutrit, outcome, target, 0.0)
        if p_success <= 1e-6:
            continue
        original = make_qubit_state(pair[target - 1])
        worst_fidelity = min(worst_fidelity, fidelity(reconstructed, original))
        collected += 1
    ok = worst_fidelity >= 1 - IDENTITY_TOL and worst_pipeline <= 1e-12
    assert check(
        "08 1000 seeded round trips are faithful and match the pipeline",
        ok,
        f"min fidelity 1-{1 - worst_fidelity:.2e}, max pipeline gap {worst_pipeline:.2e}",
    )


def test_09_monte_carlo(mc_stats):
    frequencies = [c / TRIALS for c in mc_stats.outcome_counts]
    freq_dev = max(abs(f - 0.25) for f in frequencies)
    rate_dev = abs(mc_stats.mean_success_rate - 2 / 3)
    rerun = run_trials(TRIALS, master_seed=MC_SEED)
    ok = freq_dev <= 0.0015 and rate_dev <= 0.0017 and rerun == mc_stats
    assert check(
        "09 a million seeded trials match the statistics bit for bit",
        ok,
        f"max freq dev {freq_dev:.2e} (tol 1.5e-3), rate dev {rate_dev:.2e} "
        f"(tol 1.7e-3), rerun identical: {rerun == mc_stats}",
    )


def test_10_quadrature_robustness(report_256, report_512):
    drift = max(abs(report_256[name] - report_512[name]) for name in report_256)
    completeness = abs(sum(report_256[f"outcome_prior_{j}"] for j in range(4)) - 1.0)
    ok = drift <= IDENTITY_TOL and completeness <= IDENTITY_TOL
    assert check(
        "10 node doubling moves no scalar and the outcome weights are complete",
        ok,
        f"max drift {drift:.3e} (tol {IDENTITY_TOL:g}), completeness gap {completeness:.2e}",
    )
