"""Keyed Philox streams: the one place where random keys are laid out.

Every random draw in the package comes from a counter-based Philox
generator whose 128-bit key is (seed ^ role, index).  A stream depends
only on its key, so any sample, lane or trial can be redrawn on its own,
whatever the batch order.

Roles:

* ROLE_PLAIN (0): the trainer's lanes (index 0 init, 1 batches,
  2 noise), the generator's rows (index = row) and the deviation
  trial's pick (index 0).  These share the key space, so equal seeds
  give colliding streams (train lane k and synth row k); separating
  them changes every drawn value.
* ROLE_C, ROLE_CBAR: Monte Carlo draws of the factual and the
  counterfactual representation, index = sample id.  Each row of a
  batch keeps its own stream; the risk estimators encode the batch
  once and draw row by row.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ROLE_PLAIN", "ROLE_C", "ROLE_CBAR", "SEED_MAX", "keyed"]

ROLE_PLAIN = np.uint64(0)
ROLE_C = np.uint64(0x9E3779B97F4A7C15)
ROLE_CBAR = np.uint64(0xC2B2AE3D27D4EB4F)

# the largest seed a key word holds; the configs refuse seeds above it
SEED_MAX = 2**64 - 1


def keyed(seed, role, index):
    """A Generator over the Philox stream keyed by (seed ^ role, index)."""
    key = np.array([np.uint64(seed) ^ role, np.uint64(index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
