"""Keyed Philox streams: the one place where random keys are laid out.

Every random draw in the package comes from a counter-based Philox4x64-10
generator whose 128-bit key is (seed ^ role, index).  A stream depends
only on its key, so any sample, lane or trial can be redrawn on its own,
whatever the batch order.

Roles, one per consumer, so no two consumers share a key for any seeds
they are given:

* ROLE_TRAIN: the trainer's lanes, index 0 init, 1 batches, 2 noise.
* ROLE_SYNTH: the generator's rows, index = row.
* ROLE_PICK: the deviation trial's pick of support points (index 0).
* ROLE_C, ROLE_CBAR: Monte Carlo draws of the factual and the
  counterfactual representation, index = sample id.  Each row of a
  batch keeps its own stream; the risk estimators encode the batch
  once and draw row by row.

The roles are large odd constants, so seeds that differ only in their
low bits never map two roles onto one key word.

Two ways to read a stream, with the same values:

* keyed(seed, role, index) is a numpy Generator over it; use it when a
  row draws many values (the risk estimators draw 32 x 16 normals).
* keyed_uniforms(seed, role, indices, count) runs Philox as array code
  over many keys at once and gives, per index, the first count doubles
  keyed(seed, role, index).random() would give.  Use it when each row
  draws a few values (the generator draws tens per row).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ROLE_TRAIN",
    "ROLE_SYNTH",
    "ROLE_PICK",
    "ROLE_C",
    "ROLE_CBAR",
    "SEED_MAX",
    "keyed",
    "keyed_words",
    "keyed_uniforms",
]

ROLE_TRAIN = np.uint64(0x165667B19E3779F9)
ROLE_SYNTH = np.uint64(0x85EBCA77C2B2AE63)
ROLE_PICK = np.uint64(0x27D4EB2F165667C5)
ROLE_C = np.uint64(0x9E3779B97F4A7C15)
ROLE_CBAR = np.uint64(0xC2B2AE3D27D4EB4F)

# the largest seed a key word holds; the configs refuse seeds above it
SEED_MAX = 2**64 - 1


def keyed(seed, role, index):
    """A Generator over the Philox stream keyed by (seed ^ role, index)."""
    key = np.array([np.uint64(seed) ^ role, np.uint64(index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# Philox4x64 round multipliers and key increments (Salmon et al., SC'11)
_M0 = np.uint64(0xD2E7470EE14C6C93)
_M1 = np.uint64(0xCA5A826395121157)
_W0 = np.uint64(0x9E3779B97F4A7C15)
_W1 = np.uint64(0xBB67AE8584CAA73B)
_ROUNDS = 10
_LOW = np.uint64(0xFFFFFFFF)
_HALF = np.uint64(32)


def _mulhilo(m, a):
    """(hi, lo) words of the 128-bit product of the constant m and the
    uint64 array a, from 32-bit halves so no partial product overflows."""
    m_lo, m_hi = m & _LOW, m >> _HALF
    a_lo, a_hi = a & _LOW, a >> _HALF
    cross_a = a_hi * m_lo
    cross_m = a_lo * m_hi
    mid = ((a_lo * m_lo) >> _HALF) + (cross_a & _LOW) + (cross_m & _LOW)
    hi = a_hi * m_hi + (cross_a >> _HALF) + (cross_m >> _HALF) + (mid >> _HALF)
    return hi, a * m


def keyed_words(seed, role, indices, count):
    """The first count raw uint64 words of each stream (seed ^ role, i)
    for i in indices, shape (len(indices), count): the words
    np.random.Philox(key=...).random_raw(count) gives.

    numpy's Philox bumps its counter before each block, so block b of a
    stream (words 4b .. 4b + 3) is Philox4x64-10 of the counter
    (b + 1, 0, 0, 0).
    """
    k0 = np.uint64(seed) ^ role
    k1 = np.asarray(indices, dtype=np.uint64).reshape(-1, 1)
    blocks = -(-count // 4)
    shape = (len(k1), blocks)
    c0 = np.broadcast_to(np.arange(1, blocks + 1, dtype=np.uint64), shape)
    c1 = c2 = c3 = np.zeros(shape, dtype=np.uint64)
    with np.errstate(over="ignore"):  # the key schedule wraps mod 2**64
        for r in range(_ROUNDS):
            if r:
                k0 = k0 + _W0
                k1 = k1 + _W1
            hi0, lo0 = _mulhilo(_M0, c0)
            hi1, lo1 = _mulhilo(_M1, c2)
            c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return np.stack((c0, c1, c2, c3), axis=-1).reshape(len(k1), 4 * blocks)[:, :count]


def keyed_uniforms(seed, role, indices, count):
    """The first count doubles keyed(seed, role, i).random() gives, for
    each i in indices: (word >> 11) * 2**-53, shape (len(indices), count)."""
    return (keyed_words(seed, role, indices, count) >> np.uint64(11)) * 2.0**-53
