"""Byte-for-byte pins of CLI documents.

Each digest is the sha256 of a command's stdout as recorded when the codec
still sampled outcomes from the explicit 12-dimensional ancilla-register
state, so any change to the numbers, their order or their formatting shows
up here. The CSV and Markdown pins of `verify` and `mc` were recorded while
each emitter still listed the six row fields by hand. The four `verify 16`
pins were re-recorded when the O(n^2) Gauss-Legendre rule replaced
`leggauss`: the rounding residue of `decode_cancels_encoding_q1` went from
2.22044604925e-16 to 0.0, and no other byte changed. The two JSON `mc`
pins were re-recorded when `mc` lost its `--nodes` option: the line
`"nodes": 256` left `params` (with the comma that closed the line before
it), and no other byte changed. The three `nearpole` pins (both qubits
within 1e-9 rad of a pole, one outcome weight near 3e-19) were recorded
before `codec.encode` began handing its register state to `demo` and
before `PureState` checked finiteness and norm with one numpy call each,
so they hold those changes to the same bytes. One document is also
run through `python -m qutritcodec`, the entry point the README advertises.
"""

from __future__ import annotations

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from qutritcodec.cli import main

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

DIGESTS = {
    "demo degenerate json": "3a25275566874f4356893a22721c5e7bd2d51d6a3173410d09b9701aad716b43",
    "demo degenerate csv": "ff2be52d751f1d1aa7259d46b3c772c373fd017b4573cdd85a0aa5abc42d9181",
    "demo degenerate md": "a96e1cc0ed9e64dc22d4034562093b416434ab245b7c00adc6e6c2e5944786ef",
    "encode degenerate json": "739082b4980d12a90f03e73c494f182f1a80f6e9ec33cb22264efe54f597df08",
    "encode degenerate csv": "4fb8cbd37b06110231f06bde173af1d76bd0548ec95d09d74d090baf8a240818",
    "encode degenerate md": "92de7d032d145f94edb1c9bd2d6657fc7631f6a2fc562b7be5f0a51a63b4a18d",
    "decode degenerate json": "a978339e4743490d00ff8d97fe5df9226c3eec959e892b1d450568945e7dc1dc",
    "decode degenerate csv": "c8ccebb4c904cdad20e27c27733a937fada5cc806b7255b701b0695214816c00",
    "decode degenerate md": "f6aa74f6f0ec1b280d3c4c53bd0fc348b81a2510204175d3a62ddb869317f9bf",
    "demo worked json": "4d078fdb27461e017416db332d4616c9190d0667c3d315355f8f43f0e3cfe57f",
    "demo worked csv": "fc2a43b40f26baa73bee840a2ffd712c7c776dbf3bc32ac41af10e71eebb3392",
    "demo worked md": "a6d41589700102ea3a7d4c032ac57b5381685fc22249d47049f2dd8c7fcc1b11",
    "encode worked json": "f8ae4c35505523af84cd0f5565b62d4167952ebe97276a932f3c8acfd7d07651",
    "encode worked csv": "2d7a98771689117f45fc8f76e6599d6d0ac94146335e89ed650e47febcd9351a",
    "encode worked md": "e53320e8498ddda6a6163cd3c76f1ad58740379eff395ef4e594b044457fafd0",
    "decode worked json": "256d7e80ca788638732aeda38409991a81fbe0ef1c5617b5bd1aefef99b9a68a",
    "decode worked csv": "58c83cc0969ee96d084743120a029d0f6a49bba3257c00ca4e5a3600f878238c",
    "decode worked md": "4e8bd49e3020b9bac5c144a5ea07c2c4c340fafdb125c59883fb01f163b14fc7",
    "demo generic json": "fc0332ba96b3ff0ca370100e4a35686eade908c650deb7b496ab4d50b7a3c014",
    "demo generic csv": "723dc586341d51f36414af09c35614f0635c5041404ed6824c76df9ba0c2dffe",
    "demo generic md": "2e6d01f8d62359a94c05d3e9146eca220fdcd765686f660144500f75757a822b",
    "encode generic json": "8162d9e8c14a071abc4d7685b0ec25b232615e671e2598486fc2f831c88cb90a",
    "encode generic csv": "cf475c64065be9f87696b35e75ebd6ffea79ccd62a6ca5f8bd7d551a7cd76fee",
    "encode generic md": "c92bb54c847c009c6e66cc663370dab56239e60f770098009b68e0728f7223b4",
    "decode generic json": "f6d8c82539903cd6a17536be893f718da50f64a2ebb57a7325692f4e0540e650",
    "decode generic csv": "6b2b52ecb00706aad5a05dd5408c77726d930a66c615d9e23d781047390edfa4",
    "decode generic md": "2d145e12f1a17c61a066e4fc0c1540a83f123f343fb0440fd301b382a7886d26",
    "demo nearpole json": "c1a586460243d06a4ccc40b411f6deb1731a8b000d5beef89db7fbffea6c0cbf",
    "encode nearpole json": "0d4bca8aaefe6e00012e772026eb20b89630aa21907bbe165e97088bbfa1ec98",
    "decode nearpole json": "4895b5c30970122458de08ec2c3281b63d9cde669c5909e2b0135dac2686980f",
    "mc always-1": "eb1510fc4ccffcd13068cce65159ae45a7d22213163bad7e5c5508910860b085",
    "mc random": "570088dc77d79d3e649c1df3af6e5ca3572e1c70c255a60f8c75db0301370ebc",
    "verify 16 0": "721a2f53f366bb52cb97722becf3bd2556858667ebf3b18309a0ee93844f1813",
    "verify 16 3": "5a1c773522f27b8d1329d44595c4e1fb1f5c7259fd056d60ad8807534281bbf7",
    "verify 64 0": "408e89325f41adffa2e462e58a8a9e14ebb5968ddb75f9125ea51e6018d358c8",
    "verify 64 3": "aac2a3e7401410d524967addd95c7a79e77383e87dfe51d620e332dcdd1af60b",
    "mc random csv": "33dc209d8b2ff69d327d6e4cc111e02b36450c956f6dae62e45336fee1008382",
    "mc random md": "deb605c9bcf8b1959e20967bbf1e39013b93ca3083fa3529cd433c433fb3c7b3",
    "verify 16 0 csv": "d420731375ed9b538fc8b4439ea33d6268434edaf873b2238b48f3eee617800c",
    "verify 16 0 md": "97e61ce2b373d8ffd77f0262b80b1c73e10b35ea708f144695939b66768aa264",
}


def _args(case: str) -> list[str]:
    command, *rest = case.split()
    if command == "mc":
        args = ["mc", "--trials", "20000", "--target-policy", rest.pop(0)]
    elif command == "verify":
        args = ["verify", "--trials", "1000", "--nodes", rest.pop(0), "--seed", rest.pop(0)]
    else:
        angles, seed, decode_options = PREPARATIONS[rest.pop(0)]
        extra = decode_options if command == "decode" else []
        args = [command, *angles, *extra, "--seed", seed]
    # a trailing word names the format; without one the document is JSON
    return [*args, "--format", *rest] if rest else args


@pytest.mark.parametrize("case", DIGESTS)
def test_document_bytes_are_pinned(case):
    result = CliRunner().invoke(main, _args(case))
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.output.encode()).hexdigest() == DIGESTS[case]


def _run_module(args: list[str]) -> subprocess.CompletedProcess:
    """`python -m qutritcodec` in a fresh interpreter on this checkout's sources."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "qutritcodec", *args], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, timeout=120,
    )


def test_module_entry_point_prints_the_pinned_document():
    result = _run_module(_args("demo generic json"))
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(result.stdout).hexdigest() == DIGESTS["demo generic json"]


def test_module_entry_point_rejects_a_nan_angle_with_a_usage_error():
    result = _run_module(["demo", "--theta1", "nan"])
    assert result.returncode == 2
    assert b"Traceback" not in result.stderr
