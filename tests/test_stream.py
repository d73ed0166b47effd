"""The plain-Python Philox stream against numpy's, bit for bit."""

from __future__ import annotations

import random

import numpy as np
import pytest

from qutritcodec import codec, montecarlo, stream
from conftest import invoke

RNG = random.Random(32)
# and a 128-bit key, past any seed, that numpy's Philox also takes
SEEDS = [0, 1, 2**63, stream.MAX_SEED, *(RNG.getrandbits(64) for _ in range(12)), 2**128 - 1]


@pytest.mark.parametrize("seed", SEEDS)
def test_uniforms_are_numpys_philox_stream(seed):
    # 17 values span five blocks, the last one partly used
    expected = np.random.Generator(np.random.Philox(key=seed)).random(17).tolist()
    assert stream.uniforms(seed, 17) == expected


def test_uniforms_are_a_prefix_of_the_stream():
    assert stream.uniforms(5, 0) == []
    assert stream.uniforms(5, 3) == stream.uniforms(5, 8)[:3]


@pytest.mark.parametrize("command", [["demo"], ["encode"], ["decode", "--outcome", "1", "--target", "1"]],
                         ids=lambda command: command[0])
@pytest.mark.parametrize("seed", SEEDS[:-1])
def test_trace_commands_draw_the_first_uniforms_of_mc(monkeypatch, command, seed):
    # every u that codec.encode and codec.decode receive, in call order
    drawn = []
    for name in ("encode", "decode"):
        def spy(*args, original=getattr(codec, name)):
            drawn.append(args[-1])
            return original(*args)

        monkeypatch.setattr(codec, name, spy)
    args = [*command, "--theta1", "1.2", "--phi2", "0.3", "--seed", str(seed)]
    assert invoke(args).exit_code == 0
    # the words that mc's trial 0 reads: demo takes three uniforms, the others one
    words = montecarlo._philox(seed, 0).random_raw(len(drawn))
    assert drawn == ((words >> 11) * 2.0**-53).tolist()
    assert len(drawn) == (3 if command == ["demo"] else 1)

