"""Philox4x64-10 in plain Python, and the option limits the CLI builds its
commands from; nothing here imports numpy.

`uniforms(seed, count)` is numpy's `Generator(Philox(key=seed)).random(count)`
bit for bit: the counter is incremented before each block, a block yields
four 64-bit words, and a word w gives the double (w >> 11) * 2**-53 (Salmon,
Moraes, Dror and Shaw, "Parallel random numbers: as easy as 1, 2, 3", SC'11).
"""

MAX_SEED = 2**64 - 1
TARGET_POLICIES = ("always-1", "always-2", "alternate", "random")
MIN_NODES = 16  # the coarsest Gauss-Legendre rule of a gain report, per axis

_WORD = 2**64 - 1


def _block(index: int, key: int) -> tuple[int, int, int, int]:
    """Block `index` of the stream: the counter (index, 0, 0, 0) under `key`."""
    c0, c1, c2, c3 = index, 0, 0, 0
    k0, k1 = key & _WORD, key >> 64
    for _ in range(10):
        p0, p2 = 0xD2E7470EE14C6C93 * c0, 0xCA5A826395121157 * c2
        c0, c1, c2, c3 = (p2 >> 64) ^ c1 ^ k0, p2 & _WORD, (p0 >> 64) ^ c3 ^ k1, p0 & _WORD
        k0, k1 = (k0 + 0x9E3779B97F4A7C15) & _WORD, (k1 + 0xBB67AE8584CAA73B) & _WORD
    return c0, c1, c2, c3


def uniforms(seed: int, count: int) -> list[float]:
    """The first `count` doubles in [0, 1) keyed by `seed`: blocks 1, 2, ..."""
    values: list[float] = []
    index = 0
    while len(values) < count:
        index += 1
        values += [(word >> 11) * 2.0**-53 for word in _block(index, seed)]
    return values[:count]
