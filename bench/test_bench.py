"""Tests of the benchmark itself. Run with `python -m pytest bench` from the
repository root; the repository's own suite does not collect this file."""

from __future__ import annotations

import inspect
import json
import math
import re
import shutil
import subprocess
import sys
import tempfile

import pytest

import run
import spans
import workloads

NAME = re.compile(r"[A-Za-z0-9_.-]{1,64}")
CODEC = workloads.WORKLOADS["codec-roundtrip"]
VERIFY = workloads.WORKLOADS["verify-quadrature"]


@pytest.fixture(scope="module")
def package():
    return run.load_package()


@pytest.fixture(scope="module")
def probes(package):
    results, restored = run.run_probes(package)
    assert restored
    return results


def _bindings(package):
    """Every function bound in the package and layer namespaces, by identity."""
    owners = [package, *(getattr(package, layer) for layer in spans.LAYERS)]
    found = {
        (owner.__name__, attr): obj
        for owner in owners
        for attr, obj in vars(owner).items()
        if inspect.isfunction(obj)
    }
    found["PureState.__post_init__"] = vars(package.states.PureState)["__post_init__"]
    return found


def _distances_from_pole(args):
    thetas = [float(args[args.index(f"--theta{q}") + 1]) for q in (1, 2)]
    return [min(t, math.pi - t) for t in thetas]


def _output(invoke, args):
    buffer = run.io.StringIO()
    with run.contextlib.redirect_stdout(buffer):
        exit_code = invoke(args) or 0
    return exit_code, json.loads(buffer.getvalue())


def test_one_seed_gives_identical_inputs():
    for workload in workloads.WORKLOADS.values():
        first = [workload.args(7, i) for i in range(40)]
        assert first == [workload.args(7, i) for i in range(40)]
        assert first != [workload.args(8, i) for i in range(40)]


def test_probes_are_fixed_and_demo_inputs_stay_off_the_poles():
    for i in range(64):
        assert min(_distances_from_pole(workloads.demo_args(3, i))) > 1e-5
    near_pole = {probe.name: probe for probe in workloads.PROBES}["near_pole_demo"]
    assert near_pole.inputs == tuple(tuple(workloads.near_pole_args(i)) for i in range(64))
    for args in near_pole.inputs:
        assert all(1e-9 <= d <= 1e-5 for d in _distances_from_pole(args))


def test_emitted_names_match_the_contract(package, probes):
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    plain, traced, tracer, _ = run.measure_paired(CODEC, package, 3, 16)
    end_to_end = run.end_to_end_metrics(run.measure_plain(CODEC, package, 3, 16), setup_s=0.3)
    per_layer = run.per_layer_metrics(
        CODEC, tracer, plain, traced, imports=[[0.1, 0.01, 0.02]], reports={256: 0.03, 512: 0.2},
        probes=probes,
    )
    names = [*end_to_end, *per_layer, *workloads.WORKLOADS]
    assert all(NAME.fullmatch(name) for name in names)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {
        name: metric["unit"] for name, metric in end_to_end.items()
    }
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        name: metric["unit"] for name, metric in per_layer.items()
    }
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_no_workload_op_fails_at_the_seed(package):
    for workload, ops in ((CODEC, 64), (VERIFY, 3)):
        log = run.measure_plain(workload, package, 2, ops)
        assert log.attempted == ops and log.failed == 0, log.reasons


def test_raising_near_pole_probe_is_counted_not_fatal(package, probes):
    log, tracer = probes["near_pole_demo"]
    invoke = run.cli_invoker(package)
    raising = 0
    for i in range(workloads.NEAR_POLE_PROBES):
        try:
            with run.contextlib.redirect_stdout(run.io.StringIO()):
                invoke(workloads.near_pole_args(i))
        except Exception:
            raising += 1
    assert raising >= 1
    assert log.attempted == workloads.NEAR_POLE_PROBES and log.wrong == 0
    assert log.failed == raising
    assert log.reasons["raised ValueError: state must be unit norm"] == raising
    assert tracer.raised["codec.encode_branch"] == raising


def test_verify_probe_counts_the_vacuous_row(package, probes):
    log, _ = probes["verify_trials1"]
    invoke = run.cli_invoker(package)
    failing = 0
    for seed in range(workloads.VERIFY_PROBES):
        with run.contextlib.redirect_stdout(run.io.StringIO()):
            failing += invoke(["verify", "--trials", "1", "--seed", str(seed)]) != 0
    assert failing >= 1 and log.wrong == 0
    assert log.failed == failing
    assert log.reasons == {"rows failed: mc_min_success_fidelity": failing}


@pytest.mark.parametrize("workload, ops", [(CODEC, 24), (VERIFY, 2)])
def test_tracing_restores_originals_and_keeps_digest(package, workload, ops):
    before = _bindings(package)
    plain, traced, tracer, restored = run.measure_paired(workload, package, 5, ops)
    assert restored
    assert _bindings(package) == before
    assert plain.digest == traced.digest
    assert plain.digest_prefix == traced.digest_prefix
    assert tracer.ops == ops and tracer.calls["cli"] == ops


def test_tracer_sees_calls_through_every_binding(package):
    _, _, tracer, _ = run.measure_paired(CODEC, package, 5, 8)
    # codec calls project and sample_complete_measurement through its own names
    assert tracer.calls["states.project"] > 0
    assert tracer.calls["states.sample_complete_measurement"] > 0
    assert tracer.calls["states.pure_state"] > 0


@pytest.mark.parametrize("workload, ops", [(CODEC, 24), (VERIFY, 1)])
def test_traced_counts_repeat_exactly(package, workload, ops):
    _, _, first, _ = run.measure_paired(workload, package, 9, ops)
    _, _, second, _ = run.measure_paired(workload, package, 9, ops)
    assert first.calls == second.calls
    assert first.raised == second.raised


def test_scaled_walls_use_the_reference_timings_around_each_op():
    log = run.OpLog(digest_ops=1)
    log.walls = [1.0, 2.0, 3.0]
    log.references = [(0, run.REFERENCE_S), (2, 3 * run.REFERENCE_S), (3, run.REFERENCE_S)]
    assert log.scaled_walls() == pytest.approx([0.5, 1.0, 1.5])


def test_checks_reject_wrong_documents(package):
    invoke = run.cli_invoker(package)
    exit_code, document = _output(invoke, CODEC.args(1, 0))
    assert exit_code == 0
    assert workloads.check_demo(0, json.dumps(document)) == workloads.Outcome(failed=False)
    document["trace"]["outcome_probabilities"][0] += 1e-9
    assert workloads.check_demo(0, json.dumps(document)).wrong

    exit_code, document = _output(invoke, ["mc", "--trials", "1000", "--seed", "4"])
    assert not workloads.check_rows(exit_code, json.dumps(document), 1000).failed
    assert workloads.check_rows(exit_code, json.dumps(document), 1001).wrong
    assert workloads.check_rows(1 - exit_code, json.dumps(document), 1000).wrong


def _with_row(document, name, computed):
    """The document with one row's computed value replaced and its verdict redone."""
    document = json.loads(json.dumps(document))
    for row in document["rows"]:
        if row["name"] == name:
            row["computed"] = computed
            row["pass"] = abs(computed - row["reference"]) <= row["tolerance"]
    document["overall_pass"] = all(row["pass"] for row in document["rows"])
    return 0 if document["overall_pass"] else 1, json.dumps(document)


def test_statistical_rows_fail_only_far_outside_their_band(package):
    exit_code, document = _output(run.cli_invoker(package), VERIFY.args(0, 0))
    assert exit_code == 0
    rate = {row["name"]: row for row in document["rows"]}["mc_success_rate"]
    trials = workloads.VERIFY_TRIALS

    # a miss that chance produces: the program fails the row, the op is not failed
    code, text = _with_row(document, "mc_success_rate", rate["reference"] - 1.5 * rate["tolerance"])
    assert code == 1 and not workloads.check_rows(code, text, trials).failed
    code, text = _with_row(document, "mc_success_rate", rate["reference"] - 2.5 * rate["tolerance"])
    assert workloads.check_rows(code, text, trials).failed
    code, text = _with_row(document, "encoding_gain", 1.0)
    outcome = workloads.check_rows(code, text, trials)
    assert outcome.failed and not outcome.wrong and outcome.reason == "rows failed: encoding_gain"


def test_exits_nonzero_without_the_program():
    run.OUT.mkdir(exist_ok=True)
    # a directory inside the checkout holding only the benchmark's own files
    with tempfile.TemporaryDirectory(dir=run.OUT) as bare:
        shutil.copytree(run.ROOT / "bench", f"{bare}/bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "codec-roundtrip", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    assert proc.returncode != 0
    assert proc.stdout == ""
