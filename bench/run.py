"""Benchmark of the qutritcodec CLI, in one process with one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout; the package is imported from its `src/`. Each
op is one `qutritcodec` command called through `cli.main` with stdout
captured, and every op's document is checked. After one discarded warm-up
op the run is a closed loop: the next op starts when the last has ended.

--trace 0 times ops for S seconds, with a host-speed reference timed
between them, and prints the end-to-end metrics.
--trace 1 runs a fixed number of ops (set by S and the workload) twice,
untraced and with every layer function wrapped in a span, alternating in
blocks, then the fixed probe inputs of the known defects, and prints the
per-layer metrics. Its traced documents must equal the untraced ones.

The last stdout line is the result as JSON. The line before it, and
`.bench_out/<workload>-seed<N>-trace<T>.json`, hold the environment, the
output digests and, for a traced run, the spans of the first ops.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib.metadata
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_LAUNCHES = 9
IMPORT_LAUNCHES = 5
REPORT_REPEATS = 3
BLOCK_S = 0.5
# The host's speed swings by 40% and more over seconds and from run to run,
# and the program's ops slow down with it. So a run times a fixed reference
# computation every REFERENCE_EVERY_S between ops, and scales each op's wall
# time to the speed at which the reference takes REFERENCE_S (about its
# median on the 2-vCPU host the bounds were set on). The reference is the
# geometric mean of a Python integer loop and a numpy pass over 4 MB, as the
# ops mix interpreter work and memory-bound array work.
REFERENCE_LOOP = 10_000
REFERENCE_ARRAY = 1 << 19
REFERENCE_REPEATS = 3
REFERENCE_EVERY_S = 0.2
REFERENCE_S = 0.9e-3
BLAS_THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
)
IMPORT_TIMER = """\
import json, time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
import click
t2 = time.perf_counter()
import qutritcodec.cli
t3 = time.perf_counter()
print(json.dumps([t1 - t0, t2 - t1, t3 - t2]))
"""

END_TO_END = {
    "wall_s": "s",
    "wall_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# span names reported as calls per op, self time per op, time per call, share raised
CALLS = (
    "bayes.entropy_bits", "bayes.outcome_prior", "bayes.average_success_probability",
    "bayes.encode_posterior", "montecarlo.trial_uniforms", "codec.encode", "codec.decode",
    "codec.encode_branch", "codec.decode_branch", "codec.joint_state", "states.project",
    "states.pure_state", "report.make_row",
)
SELF = (
    "bayes.entropy_bits", "bayes.outcome_prior", "bayes.average_success_probability",
    "montecarlo.run_trials", "montecarlo.trial_uniforms", "states.project", "cli",
)
PER_CALL = (
    "bayes.gain_report", "montecarlo.run_trials", "codec.encode", "codec.decode",
    "states.sample_complete_measurement", "report.render",
)
# share of calls that raised, over the near-pole probe, where the defect raises
RAISED = ("codec.encode", "codec.encode_branch")


def load_package():
    """Import qutritcodec from the checkout's sources, once per process."""
    if not (SRC / "qutritcodec" / "cli.py").is_file():
        raise SystemExit(f"bench: no qutritcodec sources in {SRC}")
    sys.path.insert(0, str(SRC))
    import qutritcodec
    import qutritcodec.cli

    return qutritcodec


def launch(code, launches):
    """Wall time and stdout of fresh interpreters running `code`; the first of
    launches + 1 is discarded so that bytecode compilation is not counted."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), path])))
    results = []
    for _ in range(launches + 1):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env,
            capture_output=True, text=True, check=True, timeout=120,
        )
        results.append((time.perf_counter() - start, proc.stdout))
    return results[1:]


def _read(path):
    try:
        return Path(path).read_text()
    except OSError:
        return None


def git_commit():
    """The checkout's commit, read from .git without running git."""
    head = _read(ROOT / ".git" / "HEAD")
    if head is None:
        return None
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(ROOT / ".git" / ref)
    if loose is not None:
        return loose.strip()
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def source_digest():
    """sha256 of the package sources, which names the code when .git is absent."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "qutritcodec").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def host_counters():
    """(load average line, steal ticks, total ticks) from /proc, read only."""
    stat = _read("/proc/stat")
    if stat is None:
        return None
    ticks = [int(v) for v in stat.splitlines()[0].split()[1:]]
    loadavg = _read("/proc/loadavg")
    return {
        "loadavg": loadavg.strip() if loadavg else None,
        "steal_ticks": ticks[7] if len(ticks) > 7 else 0,
        "total_ticks": sum(ticks),
    }


def environment(before, after):
    env = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "click": importlib.metadata.version("click"),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "host_before": before,
        "host_after": after,
    }
    if before and after:
        total = after["total_ticks"] - before["total_ticks"]
        steal = after["steal_ticks"] - before["steal_ticks"]
        env["steal_s"] = steal / os.sysconf("SC_CLK_TCK")
        env["steal_frac"] = steal / total if total else 0.0
    return env


@functools.cache
def _reference_arrays():
    source = numpy.linspace(0.1, 1.0, REFERENCE_ARRAY)
    return source, numpy.empty_like(source)


def _time_loop():
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOP):
        total += i * i
    return time.perf_counter() - start


def _time_array_pass():
    source, out = _reference_arrays()
    start = time.perf_counter()
    numpy.sqrt(source, out=out)
    numpy.multiply(out, source, out=out)
    return time.perf_counter() - start


def reference_s():
    """Time of the reference computation, a measure of the host's speed."""
    loop = statistics.median(_time_loop() for _ in range(REFERENCE_REPEATS))
    array_pass = statistics.median(_time_array_pass() for _ in range(REFERENCE_REPEATS))
    return math.sqrt(loop * array_pass)


class OpLog:
    """Wall times, failures and the output digest of a sequence of ops."""

    def __init__(self, digest_ops):
        self.digest_ops = digest_ops
        self.walls = []
        self.references = []  # (index of the next op, reference seconds)
        self.failed = 0
        self.wrong = 0
        self.reasons = Counter()
        self._digest = hashlib.sha256()
        self.digest_prefix = None
        # one capture buffer for every op: click keeps a wrapper, and with it
        # the stream, alive for each stream object it has written to
        self.stdout = io.StringIO()

    @property
    def attempted(self):
        return len(self.walls)

    @property
    def digest(self):
        return self._digest.hexdigest()

    def time_reference(self):
        self.references.append((self.attempted, reference_s()))

    def scaled_walls(self):
        """Each op's wall time at the nominal host speed: times REFERENCE_S over
        the mean of the reference timings taken just before and just after it."""
        refs = self.references
        scaled = []
        k = 0
        for index, wall in enumerate(self.walls):
            while refs[k + 1][0] <= index:
                k += 1
            scaled.append(wall * 2.0 * REFERENCE_S / (refs[k][1] + refs[k + 1][1]))
        return scaled

    def record(self, index, wall, exit_code, text, error, outcome):
        self.walls.append(wall)
        ending = f"{type(error).__name__}: {error}" if error is not None else f"exit {exit_code}"
        self._digest.update(f"op {index} {ending}\n{text}".encode())
        if self.attempted == self.digest_ops:
            self.digest_prefix = self.digest
        if outcome.failed:
            self.failed += 1
            self.reasons[outcome.reason] += 1
        self.wrong += outcome.wrong


def run_op(workload, invoke, seed, index, log):
    args = workload.args(seed, index)
    buffer = log.stdout
    buffer.seek(0)
    buffer.truncate()
    error = exit_code = None
    with contextlib.redirect_stdout(buffer):
        start = time.perf_counter()
        try:
            exit_code = invoke(args) or 0
        except Exception as raised:  # an op that raises is a counted failure
            error = raised
        wall = time.perf_counter() - start
    text = buffer.getvalue()
    if error is not None:
        # the message up to its first comma names the failure without its numbers
        summary = str(error).split(",")[0]
        outcome = workloads.Outcome(failed=True, reason=f"raised {type(error).__name__}: {summary}")
    else:
        outcome = workload.check(exit_code, text)
    log.record(index, wall, exit_code, text, error, outcome)


def cli_invoker(package):
    main = package.cli.main
    return lambda args: main(args, standalone_mode=False)


def warm_up(workload, package, seed):
    invoke = cli_invoker(package)
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            invoke(workload.warmup_args(seed))
        except Exception:  # the same input is timed, checked and counted later
            pass


def measure_plain(workload, package, seed, ops, seconds=0.0):
    """Untraced closed loop of at least `ops` ops and at least `seconds`."""
    invoke = cli_invoker(package)
    log = OpLog(workload.digest_ops)
    log.time_reference()
    start = last_reference = time.perf_counter()
    index = 0
    while index < ops or time.perf_counter() - start < seconds:
        run_op(workload, invoke, seed, index, log)
        index += 1
        if time.perf_counter() - last_reference >= REFERENCE_EVERY_S:
            log.time_reference()
            last_reference = time.perf_counter()
    if log.references[-1][0] != index:
        log.time_reference()
    return log


def traced_op_count(workload, seconds):
    return max(workload.digest_ops, round(seconds / workload.traced_op_s))


def measure_paired(workload, package, seed, ops):
    """Ops 0..ops-1 twice, untraced and with every layer function traced.

    The two alternate in blocks of about BLOCK_S, so that a change in the
    host's speed during the run falls on both alike and cancels in
    trace.overhead_frac. The originals are restored after every traced block.
    """
    block = max(1, round(BLOCK_S / workload.traced_op_s))
    plain_invoke = cli_invoker(package)
    plain = OpLog(workload.digest_ops)
    traced = OpLog(workload.digest_ops)
    tracer = spans.Tracer(package)
    restored = True
    for first in range(0, ops, block):
        indices = range(first, min(first + block, ops))
        plain.time_reference()
        for index in indices:
            run_op(workload, plain_invoke, seed, index, plain)
        tracer.install()
        try:
            invoke = tracer.wrap("cli", cli_invoker(package))
            for index in indices:
                tracer.begin_op(index)
                run_op(workload, invoke, seed, index, traced)
                tracer.end_op()
        finally:
            restored = tracer.uninstall() and restored
    return plain, traced, tracer, restored


def run_probes(package):
    """Each probe's fixed inputs once, traced: {name: (OpLog, Tracer)}, and
    whether the originals were restored."""
    invoke = cli_invoker(package)
    results = {}
    restored = True
    for probe in workloads.PROBES:
        log = OpLog(len(probe.inputs))
        tracer = spans.Tracer(package)
        tracer.install()
        try:
            traced = tracer.wrap("cli", invoke)
            for index in range(len(probe.inputs)):
                tracer.begin_op(index)
                run_op(probe, traced, 0, index, log)
                tracer.end_op()
        finally:
            restored = tracer.uninstall() and restored
        results[probe.name] = (log, tracer)
    return results, restored


def gain_report_seconds(package, nodes):
    """Median time of a direct gain report without the convergence check."""
    bayes = package.bayes
    quad = bayes.QuadratureSpec(nodes)
    bayes.gain_report(quad, check_convergence=False)
    times = []
    for _ in range(REPORT_REPEATS):
        start = time.perf_counter()
        bayes.gain_report(quad, check_convergence=False)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end_metrics(log, setup_s):
    scaled = log.scaled_walls()
    values = {
        "wall_s": statistics.median(scaled),
        "wall_p90_s": p90(scaled),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer_metrics(workload, tracer, plain, traced, imports, reports, probes):
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for key, name in enumerate(("numpy", "click", "qutritcodec")):
        put(f"import.{name}_s", statistics.median(row[key] for row in imports), "s")
    put("bayes.report_256_s", reports[256], "s")
    put("bayes.report_512_s", reports[512], "s")
    for name in PER_CALL:
        put(f"{name}.s", tracer.median_call_s(name), "s")
    for name in CALLS:
        put(f"{name}.calls", tracer.calls_per_op(name), "count")
    for name in SELF:
        put(f"{name}.self_s", tracer.self_s_per_op(name), "s")
    near_pole = probes["near_pole_demo"][1]
    for name in RAISED:
        put(f"{name}.failed_frac", near_pole.raised_frac(name), "fraction")
    for name, (log, _) in probes.items():
        put(f"probe.{name}.failed_frac", log.failed / log.attempted, "fraction")
    trials = workload.trials_per_op * tracer.ops
    kernel_s = tracer.total_self_s("montecarlo.run_trials")
    put("montecarlo.ns_per_trial", kernel_s / trials * 1e9 if trials else 0.0, "ns")
    overhead = statistics.median(traced.walls) / statistics.median(plain.walls) - 1.0
    put("trace.overhead_frac", overhead, "fraction")
    put("host.reference_s", statistics.median(ref for _, ref in plain.references), "s")
    return metrics


def run(workload_name, seed, seconds, trace):
    workload = workloads.WORKLOADS[workload_name]
    package = load_package()
    before = host_counters()
    report = {"workload": workload_name, "seed": seed, "seconds": seconds, "trace": trace}
    if trace:
        imports = [json.loads(out) for _, out in launch(IMPORT_TIMER, IMPORT_LAUNCHES)]
        warm_up(workload, package, seed)
        ops = traced_op_count(workload, seconds)
        plain, traced, tracer, restored = measure_paired(workload, package, seed, ops)
        probes, probes_restored = run_probes(package)
        reports = {nodes: gain_report_seconds(package, nodes) for nodes in (256, 512)}
        metrics = per_layer_metrics(workload, tracer, plain, traced, imports, reports, probes)
        same_output = plain.digest == traced.digest
        correct = (
            plain.wrong == 0 and traced.wrong == 0 and same_output and restored
            and probes_restored and all(log.wrong == 0 for log, _ in probes.values())
        )
        report.update(
            probes={
                name: {"failed": log.failed, "attempted": log.attempted, "digest": log.digest,
                       "failure_reasons": dict(log.reasons.most_common())}
                for name, (log, _) in probes.items()
            },
            traced_digest=traced.digest, wrappers_restored=restored and probes_restored,
            calls={name: tracer.calls[name] for name in sorted(tracer.calls)},
            spans_first_ops=tracer.kept,
        )
    else:
        setup_s = statistics.median(t for t, _ in launch("import qutritcodec.cli", SETUP_LAUNCHES))
        warm_up(workload, package, seed)
        plain = measure_plain(workload, package, seed, workload.digest_ops, seconds)
        metrics = end_to_end_metrics(plain, setup_s)
        correct = plain.wrong == 0
    report.update(
        env=environment(before, host_counters()),
        ops=plain.attempted,
        digest=plain.digest,
        digest_prefix=plain.digest_prefix,
        digest_prefix_ops=workload.digest_ops,
        failure_reasons=dict(plain.reasons.most_common()),
        raw_wall_median_s=statistics.median(plain.walls),
        reference_median_s=statistics.median(ref for _, ref in plain.references),
    )
    result = {
        "correct": correct,
        "attempted": plain.attempted,
        "failed": plain.failed,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload_name}-seed{seed}-trace{trace}.json"
    path.write_text(
        json.dumps(dict(report, result=result, walls=plain.walls, references=plain.references)) + "\n"
    )
    summary = {
        key: report[key]
        for key in ("workload", "seed", "ops", "raw_wall_median_s", "reference_median_s", "digest_prefix", "env")
    }
    print(json.dumps(dict(summary, failure_reasons=report["failure_reasons"], file=str(path.relative_to(ROOT)))))
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    run(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()
