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
    keyed,
    keyed_uniforms,
    keyed_words,
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
    # a wrapper installed on numpy.random after import sees every stream
    # keyed() opens; the generator's vectorized draws open none
    created = []
    philox = np.random.Philox

    def counting(*args, **kwargs):
        created.append(kwargs.get("key"))
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    generate(SynthConfig(d=2, seed=4), 5)
    assert created == []
    for index in range(3):
        keyed(4, ROLE_TRAIN, index)
    assert [list(key) for key in created] == [
        [np.uint64(4) ^ ROLE_TRAIN, i] for i in range(3)]


def random_keys(rng, seeds, per_seed):
    """Seeds with the ends of the range, each with random indices and
    the ends of the index range."""
    edge_seeds = [0, 1, SEED_MAX - 1, SEED_MAX]
    drawn = rng.integers(0, SEED_MAX, size=seeds - len(edge_seeds), dtype=np.uint64,
                         endpoint=True)
    for seed in edge_seeds + [int(s) for s in drawn]:
        indices = [0, 1, SEED_MAX] + [int(i) for i in rng.integers(
            0, SEED_MAX, size=per_seed - 3, dtype=np.uint64, endpoint=True)]
        yield seed, indices


def test_vectorized_words_match_numpy_philox():
    rng = np.random.default_rng(20)
    count = 0
    for role in (ROLE_SYNTH, ROLE_C):
        for seed, indices in random_keys(rng, seeds=25, per_seed=24):
            words = keyed_words(seed, role, indices, 18)
            assert words.shape == (len(indices), 18) and words.dtype == np.uint64
            for row, index in zip(words, indices):
                key = np.array([np.uint64(seed) ^ role, index], dtype=np.uint64)
                assert np.array_equal(row, np.random.Philox(key=key).random_raw(18)), (
                    seed, index)
                count += 1
    assert count >= 1000


@pytest.mark.parametrize("count", [1, 4, 5, 30])
def test_vectorized_uniforms_match_generator_random(count):
    rng = np.random.default_rng(21)
    for seed, indices in random_keys(rng, seeds=8, per_seed=10):
        got = keyed_uniforms(seed, ROLE_SYNTH, indices, count)
        want = np.array([keyed(seed, ROLE_SYNTH, i).random(count) for i in indices])
        assert got.tobytes() == want.tobytes()


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
