import numpy as np

from pnsrisk.streams import ROLE_C, ROLE_CBAR, ROLE_PLAIN, keyed
from pnsrisk.synth import SynthConfig, generate


def philox_draws(key, n=4):
    gen = np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))
    return gen.random(n)


def test_key_is_seed_xor_role_and_index():
    seed = 12345
    for role in (ROLE_PLAIN, ROLE_C, ROLE_CBAR):
        for index in (0, 1, 17):
            want = philox_draws([np.uint64(seed) ^ role, index])
            assert np.array_equal(keyed(seed, role, index).random(4), want)
    # the plain role leaves the seed as it is
    assert np.array_equal(keyed(seed, ROLE_PLAIN, 2).random(4), philox_draws([seed, 2]))


def test_roles_give_distinct_streams():
    draws = {int(role): keyed(3, role, 0).random() for role in (ROLE_PLAIN, ROLE_C, ROLE_CBAR)}
    assert len(set(draws.values())) == 3


def test_philox_is_looked_up_at_call_time(monkeypatch):
    # a wrapper installed on numpy.random after import sees every stream
    created = []
    philox = np.random.Philox

    def counting(*args, **kwargs):
        created.append(kwargs.get("key"))
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    generate(SynthConfig(d=2, seed=4), 5)
    assert [list(key) for key in created] == [[4, i] for i in range(5)]
