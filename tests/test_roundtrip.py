"""Property tests: checkpoint and dataset CSV files read back bit-exact,
and a checkpoint entry the line format cannot hold is refused."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from pnsrisk.model import load_checkpoint, save_checkpoint
from pnsrisk.synth import SynthData, read_csv, write_csv

FLOATS = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
SIGNED_ZEROS = st.sampled_from([0.0, -0.0])
# finite float64 arrays of 1-3 dims, rich in signed zeros and subnormals
ARRAYS = arrays(np.float64, array_shapes(min_dims=1, max_dims=3, max_side=4),
                elements=st.one_of(FLOATS, SIGNED_ZEROS,
                                   st.floats(min_value=-1e-307, max_value=1e-307)))
CHARS = st.characters(codec="utf-8")
TOKENS = st.text(CHARS.filter(lambda ch: not ch.isspace()), min_size=1, max_size=8)
# what the format holds: words joined by single spaces, possibly none
META_VALUES = st.lists(TOKENS, max_size=3).map(" ".join)

PROPERTY = settings(max_examples=60, deadline=None)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("roundtrip")


@PROPERTY
@given(params=st.dictionaries(TOKENS, ARRAYS, max_size=4),
       meta=st.dictionaries(TOKENS, META_VALUES, max_size=4))
def test_checkpoint_round_trip_is_bit_exact(workdir, params, meta):
    path = workdir / "model.ckpt"
    save_checkpoint(path, params, meta=meta)
    loaded, loaded_meta = load_checkpoint(path)
    assert loaded_meta == meta
    assert list(loaded) == list(params)
    for name, arr in params.items():
        assert loaded[name].shape == arr.shape
        assert loaded[name].tobytes() == arr.tobytes()


def _not_one_token(text):
    return text.split() != [text]


@PROPERTY
@given(bad=st.one_of(
    st.text(CHARS, max_size=8).filter(_not_one_token).map(lambda s: ({s: np.ones(1)}, {})),
    st.text(CHARS, max_size=8).filter(_not_one_token).map(lambda s: ({}, {s: "v"})),
    st.text(CHARS, max_size=12).filter(lambda s: " ".join(s.split()) != s)
    .map(lambda s: ({}, {"k": s})),
))
def test_checkpoint_refuses_what_it_could_not_read_back(workdir, bad):
    params, meta = bad
    path = workdir / "refused.ckpt"
    with pytest.raises(ValueError):
        save_checkpoint(path, params, meta=meta)
    assert not path.exists()


@st.composite
def datasets(draw):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 5))
    cells = st.one_of(FLOATS, SIGNED_ZEROS)
    bits = arrays(np.int64, n, elements=st.integers(0, 1))
    return SynthData(x=draw(arrays(np.float64, (n, 4 * d), elements=cells)),
                     y=draw(bits), sn=draw(bits), sf=draw(bits), nc=draw(bits),
                     sp=draw(arrays(np.float64, (n, d), elements=cells)))


@PROPERTY
@given(data=datasets())
def test_csv_round_trip_is_bit_exact(workdir, data):
    path = workdir / "data.csv"
    write_csv(path, data)
    back = read_csv(path)
    for field in ("x", "y", "sn", "sf", "nc", "sp"):
        want, got = getattr(data, field), getattr(back, field)
        assert got.dtype == want.dtype and got.shape == want.shape, field
        assert got.tobytes() == want.tobytes(), field
