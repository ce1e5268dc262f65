import re

import numpy as np
import pytest

from pnsrisk import streams
from pnsrisk.streams import (
    ROLE_C,
    ROLE_CBAR,
    ROLE_PICK,
    ROLE_SYNTH,
    ROLE_TRAIN,
    SEED_MAX,
    integer,
    keyed,
    keyed_rows,
)
from pnsrisk.synth import SynthConfig, generate

ROLES = (ROLE_TRAIN, ROLE_SYNTH, ROLE_PICK, ROLE_C, ROLE_CBAR)


def philox_draws(key, n=4):
    gen = np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))
    return gen.random(n)


def test_key_is_seed_xor_role_and_index():
    seed = 12345
    for role in ROLES:
        for index in (0, 1, 17):
            want = philox_draws([np.uint64(seed) ^ role, index])
            assert np.array_equal(keyed(seed, role, index).random(4), want)


def test_roles_give_distinct_streams():
    draws = {int(role): keyed(3, role, 0).random() for role in ROLES}
    assert len(set(draws.values())) == len(ROLES)


def test_philox_is_looked_up_at_call_time(monkeypatch):
    # a wrapper installed on numpy.random after import sees every Philox
    # the package opens: the generator's one re-keyed Philox per call, and
    # the stream of each keyed() call
    created = []
    philox = np.random.Philox

    def counting(*args, **kwargs):
        created.append(kwargs.get("key"))
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    generate(SynthConfig(d=2, seed=4), 300)
    assert created == [None]
    created.clear()
    for index in range(3):
        keyed(4, ROLE_TRAIN, index)
    assert [list(key) for key in created] == [
        [np.uint64(4) ^ ROLE_TRAIN, i] for i in range(3)]


def drawn_rows(seed, role, indices, method, shape):
    """Every block keyed_rows yields, copied before the next overwrites it."""
    blocks = []
    for start, block in keyed_rows(seed, role, indices, method, shape):
        assert start == sum(len(b) for b in blocks) and 1 <= len(block) <= 128
        blocks.append(block.copy())
    return np.concatenate(blocks) if blocks else np.empty((0, *shape))


# the risk estimators' standard_normal rows and the generator's random rows
# of 1 to 30 doubles, across a 4-word Philox block edge
READS = [pytest.param("standard_normal", (1, 4), id="shape0"),
         pytest.param("standard_normal", (5, 3), id="shape1"),
         *(pytest.param("random", (count,), id=f"random{count}") for count in (1, 4, 5, 30))]


@pytest.mark.parametrize("seed", [0, 7, SEED_MAX])
@pytest.mark.parametrize("n", [0, 3, 128, 300])  # none, below, at and above the 128-row block
@pytest.mark.parametrize("method, shape", READS)
def test_keyed_normals_match_one_generator_per_stream(method, shape, seed, n):
    # keyed_rows gives each index what its own Generator's method gives;
    # non-contiguous and repeated ids, and the ends of the index range
    ids = ([0, SEED_MAX, 11, 11, 4, 1000, 3, 11, 2**63, 5] * 30)[:n]
    got = drawn_rows(seed, ROLE_C, ids, method, shape)
    want = np.array([getattr(keyed(seed, ROLE_C, i), method)(shape) for i in ids])
    assert got.shape == (n, *shape)
    assert got.tobytes() == want.reshape(got.shape).tobytes()


def test_keyed_normals_open_one_philox_per_call(monkeypatch):
    created = []
    philox = np.random.Philox

    def counting(*args, **kwargs):
        created.append(None)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    assert drawn_rows(3, ROLE_CBAR, range(300), "standard_normal", (32, 16)).shape == (
        300, 32, 16)
    assert len(created) == 1


@pytest.mark.parametrize("value", [-1, 2**64, 2.5, 2.0, "3", None])
def test_key_words_outside_the_range_are_refused(value):
    # one message for a fraction, a string and an out-of-range integer alike
    def refusal(name):
        message = f"{name} must be an integer in [0, 18446744073709551615], got {value!r}"
        return f"^{re.escape(message)}$"

    with pytest.raises(ValueError, match=refusal("seed")):
        integer(value, "seed", 0, SEED_MAX)
    with pytest.raises(ValueError, match=refusal("seed")):
        keyed(value, ROLE_TRAIN, 0)
    with pytest.raises(ValueError, match=refusal("index")):
        keyed(0, ROLE_TRAIN, value)


def test_key_words_accept_numpy_integers():
    assert integer(np.uint64(SEED_MAX), "seed", 0, SEED_MAX) == SEED_MAX
    assert integer(np.int64(5), "seed", 0, SEED_MAX) == 5


def test_no_two_consumers_share_a_key():
    # the acceptance pipeline: train seeds 0-4 (seed 1 among them), the
    # training split at synth seed 1 and the evaluation split at seed 2;
    # each trained model's risk report draws rows 0..1999 at its seed
    n_train, n_eval, report_n = 5000, 500, 2000
    uses = []
    for seed in range(5):
        uses.append(("train lanes", seed, ROLE_TRAIN, range(3)))
        uses.append(("risk c", seed, ROLE_C, range(report_n)))
        uses.append(("risk cbar", seed, ROLE_CBAR, range(report_n)))
        uses.append(("deviation pick", seed, ROLE_PICK, range(1)))
    uses.append(("synth train rows", 1, ROLE_SYNTH, range(n_train)))
    uses.append(("synth eval rows", 2, ROLE_SYNTH, range(n_eval)))

    declared = {name for name in streams.__all__ if name.startswith("ROLE_")}
    assert {int(getattr(streams, name)) for name in declared} == {
        int(role) for _, _, role, _ in uses}

    owner = {}
    for consumer, seed, role, indices in uses:
        word = int(np.uint64(seed) ^ role)
        for index in indices:
            other = owner.setdefault((word, index), (consumer, seed))
            assert other == (consumer, seed), (consumer, seed, index, other)
