"""Keyed Philox streams: the one place where random keys are laid out.

Each consumer below draws from a counter-based Philox4x64-10 generator
whose 128-bit key is (seed ^ role, index).  A stream depends only on its
key, so any sample, lane or trial can be redrawn on its own, whatever the
batch order.

Roles, one per consumer, so no two consumers share a key for any seeds
they are given:

* ROLE_TRAIN: the trainer's lanes, index 0 init, 1 batches, 2 noise.
* ROLE_SYNTH: the generator's rows, index = row.
* ROLE_PICK: the deviation trial's pick of support points (index 0).
* ROLE_C, ROLE_CBAR: Monte Carlo draws of the logit of the factual and
  of the counterfactual representation, index = sample id.  Each row of a
  batch keeps its own stream; the risk estimators encode the batch
  once and draw a block of rows at a time.

The roles are large odd constants, so seeds that differ only in their
low bits never map two roles onto one key word.  Seeds and indices are
integers in [0, SEED_MAX]; keyed() refuses any other with a ValueError.

Two ways to read a stream, with the same values:

* keyed(seed, role, index) is a numpy Generator over it; use it for a
  few streams that each draw many values (the trainer's lanes).
* keyed_rows(seed, role, indices, method, shape) re-keys one Philox per
  index and fills that index's row with one call of a Generator method,
  so a stream costs a state write, not a new Generator; use it when
  many rows each draw from their own stream (the risk estimators'
  standard_normal, 32 per row; the generator's random, tens per row).
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = [
    "ROLE_TRAIN",
    "ROLE_SYNTH",
    "ROLE_PICK",
    "ROLE_C",
    "ROLE_CBAR",
    "SEED_MAX",
    "keyed",
    "keyed_rows",
]

ROLE_TRAIN = np.uint64(0x165667B19E3779F9)
ROLE_SYNTH = np.uint64(0x85EBCA77C2B2AE63)
ROLE_PICK = np.uint64(0x27D4EB2F165667C5)
ROLE_C = np.uint64(0x9E3779B97F4A7C15)
ROLE_CBAR = np.uint64(0xC2B2AE3D27D4EB4F)

# the largest seed a key word holds; the configs refuse seeds above it
SEED_MAX = 2**64 - 1

# rows per keyed_rows block: the generator's 4 + 2 ceil(5d / 2) uniforms a row
# are 0.5 MB a block at d = 100, where one buffer for 5000 rows is 20 MB
_BLOCK_ROWS = 128
_UNUSED_SEED = np.random.SeedSequence(0)


def integer(value, name, low=None, high=None):
    """value as an int, or a ValueError naming it unless it is an integer
    within the bounds given (operator.index refuses 2.5 and "5", and a bool
    is refused).  The package's one integer check: seeds, sample ids and
    config counts.  With high, low is needed, and refusals share a message."""
    try:
        word = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        word = None
    if high is not None and (word is None or not low <= word <= high):
        raise ValueError(f"{name} must be an integer in [{low}, {high}], got {value!r}")
    if word is None:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and word < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")
    return word


def _keys(seed, role, indices):
    """The Philox keys (seed ^ role, index) of the streams of one seed
    and role, one row per index."""
    index = np.asarray(indices, dtype=np.uint64).reshape(-1)
    return np.stack((np.full(len(index), np.uint64(seed) ^ role), index), axis=-1)


def keyed(seed, role, index):
    """A Generator over the Philox stream keyed by (seed ^ role, index)."""
    seed = integer(seed, "seed", 0, SEED_MAX)
    key = _keys(seed, role, integer(index, "index", 0, SEED_MAX))[0]
    return np.random.Generator(np.random.Philox(key=key))


def keyed_rows(seed, role, indices, method, shape):
    """Yield (start, block) for each run of at most _BLOCK_ROWS indices, where
    block[j] holds keyed(seed, role, indices[start + j]).<method>(shape) for
    the Generator method named ("standard_normal", "random"); seed and
    indices must be integers in [0, SEED_MAX], checked by the caller.  A
    counter-based stream depends only on its key, so one Philox set to each
    key with the counter and buffer at zero serves every stream; the seed it
    is built from, once per module, reaches no draw.  Each block overwrites the last.
    """
    keys = _keys(seed, role, list(indices))
    bits = np.random.Philox(_UNUSED_SEED)
    fill = getattr(np.random.Generator(bits), method)
    state = bits.state  # a new Philox's: its counter and buffer at zero
    inner = state["state"]
    buf = np.empty((min(_BLOCK_ROWS, len(keys)), *shape))
    for start in range(0, len(keys), _BLOCK_ROWS):
        block = buf[: len(keys) - start]
        for out, key in zip(block, keys[start : start + _BLOCK_ROWS]):
            inner["key"] = key
            bits.state = state
            fill(out=out)
        yield start, block
