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
each, so they hold those changes to the same bytes. `demo_generic.json` also
pins `python -m qutritcodec`, the entry point the README advertises.
"""

from __future__ import annotations

import difflib
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from qutritcodec.cli import main

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
    result = CliRunner().invoke(main, _args(path))
    assert result.exit_code == 0, result.output
    return result.output.encode()


def _assert_pinned(path: Path, printed: bytes) -> None:
    pinned = path.read_bytes()
    if printed != pinned:
        diff = difflib.unified_diff(
            pinned.decode().splitlines(keepends=True), printed.decode().splitlines(keepends=True),
            f"{path.name} (pinned)", f"{path.name} (printed)", n=0,
        )
        pytest.fail("".join(diff), pytrace=False)


def test_every_pin_is_on_disk():
    assert len(CASES) == 40


@pytest.mark.parametrize("path", CASES, ids=_case_id)
def test_document_bytes_are_pinned(path):
    _assert_pinned(path, _printed(path))


def _run_module(args: list[str]) -> subprocess.CompletedProcess:
    """`python -m qutritcodec` in a fresh interpreter on this checkout's sources."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "qutritcodec", *args], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, timeout=120,
    )


def test_module_entry_point_prints_the_pinned_document():
    path = GOLDEN / "demo_generic.json"
    result = _run_module(_args(path))
    assert result.returncode == 0, result.stderr
    _assert_pinned(path, result.stdout)


def test_module_entry_point_rejects_a_nan_angle_with_a_usage_error():
    result = _run_module(["demo", "--theta1", "nan"])
    assert result.returncode == 2
    assert b"Traceback" not in result.stderr


if __name__ == "__main__":
    # re-record: rewrite each existing pin that no longer matches its command
    for path in CASES:
        printed = _printed(path)
        if printed != path.read_bytes():
            path.write_bytes(printed)
            print(f"rewrote {path.name}")
