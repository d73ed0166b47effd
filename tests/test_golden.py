"""Byte-for-byte pins of CLI documents, kept as text in `tests/golden/`.

Each file is a command's stdout and its name is the case: `demo_generic.json`
is `demo` on the `generic` preparation, `verify_16_0.csv` is `verify --nodes 16
--seed 0 --format csv` and `mc_always-1.json` is `mc --target-policy always-1`.
A failing pin prints the changed lines as a unified diff, and `python
tests/test_golden.py` re-records the files that exist.

The documents were first pinned as sha256 digests, each equal to its file's,
recorded when the codec still sampled outcomes from the explicit
12-dimensional ancilla-register state. The CSV and Markdown pins of `verify`
and `mc` were recorded while each emitter still listed the six row fields by
hand. The four `verify 16` pins were re-recorded when the O(n^2)
Gauss-Legendre rule replaced `leggauss`: the rounding residue of
`decode_cancels_encoding_q1` went from 2.22044604925e-16 to 0.0, and no other
byte changed. The two JSON `mc` pins were re-recorded when `mc` lost its
`--nodes` option: the line `"nodes": 256` left `params` (with the comma that
closed the line before it), and no other byte changed. The three `nearpole`
pins (both qubits within 1e-9 rad of a pole, one outcome weight near 3e-19)
were recorded before `codec.encode` began handing its register state to
`demo` and before `PureState` checked finiteness and norm with one numpy call
each, so they hold those changes to the same bytes. The ten `mc` and
`verify` pins were re-recorded when the Monte Carlo kernel stopped computing
fidelities: each lost its `mc_min_success_fidelity` row, and each `verify`
pin gained `scalar_min_success_fidelity` after its `exact_*` rows and its
eight `success_probability_*` rows went from a tolerance of 1e-9 to 1e-12;
`params`, every frequency and every success rate kept their bytes. The six
`verify` pins were re-recorded when each tolerance came to follow from its
row (half a unit in the paper's last quoted place, the 1e-12 identity
floor, and the `exact_*` bound's n^-6 law): only `tolerance` values moved.
The four `verify 16` pins were re-recorded when the encode posterior's joint
entropy became a closed-form integral over qubit 2 at each qubit-1 node: the
`computed` value of `encoding_gain` and `exact_encoding_gain` went from
0.0735362586735 to 0.0735362586521, 2.6e-11 and 4.4e-12 from the exact
0.0735362586477, and no other byte changed. The ten `mc` and `verify` pins
were re-recorded when each Monte Carlo trial came to read one Philox block
as four raw words in place of eight uniforms from numpy's `Generator`: only
the `computed` values of `mc_*` rows moved, and every row kept its `pass`.
`demo_generic.json` also pins `python -m qutritcodec`, the entry point the
README advertises.

The two `decode` pins `blas` and `simd` hold preparations whose last printed
digit depended on the machine while `states` and `codec` computed on numpy
arrays: `blas`'s `outcome_probability` read 0.282861608956 with the native
OpenBLAS `zdotc` kernel and ...957 with `OPENBLAS_CORETYPE=Prescott`, and
`simd`'s `success_probability` read 0.949717734129 natively and ...13 with
numpy's baseline SIMD dispatch. They were recorded from the plain-Python codec,
which prints ...957 and ...129 in every one of those configurations, as
`test_trace_documents_do_not_depend_on_the_machine` checks.
"""

from __future__ import annotations

import ctypes
import difflib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import invoke

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = sorted(GOLDEN.iterdir())

# name -> (angle options, seed, decode options)
PREPARATIONS = {
    "degenerate": ([], "2", ["--outcome", "1", "--target", "1"]),
    "worked": (["--theta1", repr(math.pi / 2), "--theta2", repr(math.pi)], "4",
               ["--outcome", "0", "--target", "2"]),
    "generic": (["--theta1", "1.2", "--phi1", "0.4", "--theta2", "2.0", "--phi2", "5.1"], "8",
                ["--outcome", "2", "--target", "1"]),
    "nearpole": (["--theta1", "1e-9", "--phi1", "0.7", "--theta2", "3.141592652", "--phi2", "2.5"],
                 "3", ["--outcome", "0", "--target", "2"]),
    "blas": (["--theta1", "1.1646509872279889", "--phi1", "-6.973362444536171",
              "--theta2", "0.9693242930269216", "--phi2", "-1.3845451922181713"], "0",
             ["--outcome", "2", "--target", "1"]),
    "simd": (["--theta1", "2.4794670583225344", "--phi1", "-4.898521516950942",
              "--theta2", "1.4669209912100443", "--phi2", "5.301925329865387"], "0",
             ["--outcome", "0", "--target", "2"]),
}


def _args(path: Path) -> list[str]:
    command, *words = path.stem.split("_")
    if command == "mc":
        args = ["mc", "--trials", "20000", "--target-policy", *words]
    elif command == "verify":
        args = ["verify", "--trials", "1000", "--nodes", words[0], "--seed", words[1]]
    else:
        angles, seed, decode_options = PREPARATIONS[words[0]]
        args = [command, *angles, *(decode_options if command == "decode" else []), "--seed", seed]
    return [*args, "--format", path.suffix[1:]]


def _case_id(path: Path) -> str:
    """The name the pin had as a digest, which named JSON only for trace documents."""
    words = path.stem.split("_")
    if path.suffix != ".json" or words[0] not in ("mc", "verify"):
        words.append(path.suffix[1:])
    return " ".join(words)


def _printed(path: Path) -> bytes:
    result = invoke(_args(path))
    assert result.exit_code == 0, result.output
    return result.stdout.encode()


def _assert_pinned(path: Path, printed: bytes) -> None:
    pinned = path.read_bytes()
    if printed != pinned:
        diff = difflib.unified_diff(
            pinned.decode().splitlines(keepends=True), printed.decode().splitlines(keepends=True),
            f"{path.name} (pinned)", f"{path.name} (printed)", n=0,
        )
        pytest.fail("".join(diff), pytrace=False)


def test_every_pin_is_on_disk():
    assert len(CASES) == 42
    assert len(TRACE_CASES) == 32


@pytest.mark.parametrize("path", CASES, ids=_case_id)
def test_document_bytes_are_pinned(path):
    _assert_pinned(path, _printed(path))


def _python(args: list[str], **env: str) -> subprocess.CompletedProcess:
    """A fresh interpreter on this checkout's sources and tests."""
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(tests.parent / "src"), str(tests),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env={**os.environ, **env, "PYTHONPATH": path},
        capture_output=True, timeout=120,
    )


def _run_module(args: list[str]) -> subprocess.CompletedProcess:
    return _python(["-m", "qutritcodec", *args])


def test_module_entry_point_prints_the_pinned_document():
    path = GOLDEN / "demo_generic.json"
    result = _run_module(_args(path))
    assert result.returncode == 0, result.stderr
    _assert_pinned(path, result.stdout)


def test_module_entry_point_rejects_a_nan_angle_with_a_usage_error():
    result = _run_module(["demo", "--theta1", "nan"])
    assert result.returncode == 2
    assert b"Traceback" not in result.stderr


def _openblas_core() -> str | None:
    """The kernel family numpy's OpenBLAS runs, None where none is found."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for path in sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line}):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                     "openblas_get_corename"):
            if hasattr(lib, name):
                corename = getattr(lib, name)
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return corename().decode()
    return None


def _numpy_dispatch() -> list[str] | None:
    """The CPU features numpy's SIMD loops dispatch on, None where unreadable."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return None
    return sorted(name for name, on in __cpu_features__.items() if on)


def _libm_fma() -> bool | None:
    """Whether glibc lets its ifuncs pick FMA code, as libm's sin, cos and exp
    do; None off x86 glibc."""
    try:
        leaf = ctypes.CDLL(None).__x86_get_cpuid_feature_leaf
    except (AttributeError, OSError):
        return None
    leaf.argtypes, leaf.restype = [ctypes.c_uint], ctypes.POINTER(ctypes.c_uint32 * 8)
    # leaf 0 is CPUID 1: words 0-3 are what the CPU reports, 4-7 what glibc
    # lets code use; FMA is bit 12 of ECX
    return bool(leaf(0).contents[6] >> 12 & 1)


TRACE_CASES = [path for path in CASES if path.stem.split("_")[0] in ("demo", "encode", "decode")]
# leg -> (the environment of a child process, the probe that shows it took effect)
LEGS = {
    "openblas-prescott": ({"OPENBLAS_CORETYPE": "Prescott"}, _openblas_core),
    "numpy-baseline": ({"NPY_DISABLE_CPU_FEATURES": "X86_V4 X86_V3"}, _numpy_dispatch),
    "libm-without-fma": (
        {"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2_Usable,-FMA_Usable,-AVX2,-FMA,-AVX512F"},
        _libm_fma,
    ),
}


def _report_this_process() -> None:
    """Print, as JSON, every probe of this process and the trace pins it
    renders differently."""
    probes = {leg: probe() for leg, (_, probe) in LEGS.items()}
    moved = [path.name for path in TRACE_CASES if _printed(path) != path.read_bytes()]
    print(json.dumps({"probes": probes, "moved": moved}))


@pytest.mark.parametrize("leg", LEGS)
def test_trace_documents_do_not_depend_on_the_machine(leg):
    # one child renders every trace pin in-process: a child per command line
    # would cost about 0.25 s each
    env, probe = LEGS[leg]
    result = _python(["-c", "import test_golden; test_golden._report_this_process()"], **env)
    (variable,) = env
    if result.returncode != 0 and variable.encode() in result.stderr:
        pytest.skip(f"the child refused {variable}: {result.stderr.decode()[-200:]}")
    assert result.returncode == 0, result.stderr.decode()
    child = json.loads(result.stdout)
    if child["probes"][leg] is not None and child["probes"][leg] == probe():
        pytest.skip(f"{variable} left {probe.__name__[1:]} at {probe()!r}")
    assert child["moved"] == []


def test_trace_documents_need_no_numpy():
    # one child, whose every numpy and click import fails, renders every trace pin
    result = _python(["-c", "import sys; sys.modules['numpy'] = sys.modules['click'] = None; "
                            "import test_golden; test_golden._report_this_process()"])
    assert result.returncode == 0, result.stderr.decode()
    assert json.loads(result.stdout)["moved"] == []


if __name__ == "__main__":
    # re-record: rewrite each existing pin that no longer matches its command
    for path in CASES:
        printed = _printed(path)
        if printed != path.read_bytes():
            path.write_bytes(printed)
            print(f"rewrote {path.name}")
