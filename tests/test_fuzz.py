"""Fuzz tests for the text parsers: any text either parses or raises a
ValueError (a ConfigError for the config files), never another exception.
A config that parses reads back equal after it is serialized, and an SCM
table error names the file."""

from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnsrisk.cli import ConfigError, parse_config, parse_flat, serialize_config, serialize_flat
from pnsrisk.pns import DiscreteScm, read_scm
from pnsrisk.synth import SynthConfig
from pnsrisk.train import TrainConfig

FUZZ = settings(max_examples=300, deadline=None)
NOISE = st.text(st.characters(codec="utf-8"), max_size=12)
ODD = st.sampled_from(["-1", "-0.0", "nan", "inf", "1e400", "none", "true", "", "x",
                       "1,,2", "1.5"]) | NOISE
NUMBER = st.integers(0, 40).map(str) | st.floats(0.0, 2.0).map(repr)


def typed(default):
    """Values of a field's type, mostly in range."""
    if isinstance(default, bool):
        return st.sampled_from(["true", "false"])
    if isinstance(default, int):
        return st.integers(0, 40).map(str)
    if isinstance(default, float) or default is None:
        return st.floats(0.0, 1.0).map(repr) | st.just("none")
    if isinstance(default, tuple):
        return st.lists(st.integers(1, 9).map(str), max_size=3).map(", ".join)
    return st.sampled_from([default, "casn_minus_m", "x"])


def body(draw, schema):
    """``key = value`` lines for distinct keys of schema {key: values};
    now and then a line with an odd value, an unknown key, a broken
    separator or noise."""
    keys = draw(st.lists(st.sampled_from(sorted(schema)), unique=True, max_size=4))
    lines = [f"{key} = {draw(schema[key])}" for key in keys]
    if lines and draw(st.integers(0, 3)) == 0:
        odd = st.one_of(st.builds("{} = {}".format, st.sampled_from(keys), ODD),
                        st.builds("{} = {}".format, NOISE, ODD),
                        st.builds("{}{}1".format, st.sampled_from(keys),
                                  st.sampled_from(["", " ", " == "])),
                        NOISE)
        lines.insert(draw(st.integers(0, len(lines))), draw(odd))
    return lines


def config_schema(config_cls):
    return {f.name: typed(f.default) for f in fields(config_cls)}


SPEC_SCHEMA = {
    "experiment": {"name": st.text("abc_-. ", max_size=6)},
    "synth": config_schema(SynthConfig),
    "train": config_schema(TrainConfig),
    "grid": {"delta": NUMBER, "lam": NUMBER, "seed": st.integers(0, 9).map(str),
             "variant": st.sampled_from(["casn", "casn_minus_m", "casn, casn_irm"])},
    "acceptance": dict.fromkeys(["dcor_sn_min", "dcor_gap_min", "ablation_margin"],
                                NUMBER | st.sampled_from(["-0.5", "nan", "inf"])),
}


@st.composite
def flat_texts(draw, config_cls):
    return "\n".join(body(draw, config_schema(config_cls)))


@st.composite
def spec_texts(draw):
    """[section] blocks of their own keys; now and then an unknown or
    repeated header, or a key line before the first header."""
    names = draw(st.lists(st.sampled_from(sorted(SPEC_SCHEMA)), unique=True, max_size=5))
    lines = []
    for name in names:
        lines += [f"[{name}]", *body(draw, SPEC_SCHEMA[name])]
    if draw(st.integers(0, 4)) == 0:
        odd = draw(st.sampled_from(["[bogus]", "[", "[]", "name = x"] + [f"[{n}]" for n in names]))
        lines.insert(draw(st.integers(0, len(lines))), odd)
    return "\n".join(lines)


@FUZZ
@given(data=st.data(), config_cls=st.sampled_from([TrainConfig, SynthConfig]))
def test_flat_config_parses_or_raises_config_error(data, config_cls):
    text = data.draw(flat_texts(config_cls))
    try:
        config = parse_flat(text, config_cls)
    except ConfigError:
        return
    assert parse_flat(serialize_flat(config), config_cls) == config


@FUZZ
@given(text=spec_texts())
def test_spec_parses_or_raises_config_error(text):
    try:
        spec = parse_config(text)
    except ConfigError:
        return
    assert parse_config(serialize_config(spec)) == spec


SCM_TOKENS = st.sampled_from(["0", "1", "2", "0.5", "0.25", "1.0", "-0.5", "nan", "inf",
                              "x", "c_values", "y"])
SCM_LINES = st.builds(
    lambda key, args: " ".join([key, *args]),
    st.sampled_from(["c_values", "u_values", "u_probs", "c_probs", "c_probs_given_u", "y"]),
    st.lists(SCM_TOKENS, max_size=4),
)
# well-formed tables to edit, so that fuzzing reaches the later checks
MECHANISM = ["y 0 0 0", "y 0 1 1", "y 1 0 1", "y 1 1 1"]
GOOD_SCMS = (
    ["c_values 0 1", "u_values 0 1", "u_probs 0.5 0.5", "c_probs 0.5 0.5", *MECHANISM],
    ["c_values 0 1", "u_values 0 1", "u_probs 0.5 0.5", "c_probs_given_u 0 0.5 0.5",
     "c_probs_given_u 1 0.25 0.75", *MECHANISM],
)


@st.composite
def scm_texts(draw):
    """A good table with up to two edits: a token replaced, a line
    dropped, a directive line or noise inserted."""
    lines = [line.split() for line in draw(st.sampled_from(GOOD_SCMS))]
    for _ in range(draw(st.integers(0, 2))):
        edit = draw(st.integers(0, 3))
        at = draw(st.integers(0, len(lines) - 1)) if lines else 0
        if edit == 0 and lines:
            line = lines[at]
            line[draw(st.integers(0, len(line) - 1))] = draw(SCM_TOKENS)
        elif edit == 1 and lines:
            del lines[at]
        elif edit == 2:
            lines.insert(at, draw(SCM_LINES).split())
        else:
            lines.insert(at, [draw(NOISE)])
    return "\n".join(" ".join(line) for line in lines) + "\n"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(text=scm_texts())
def test_scm_table_parses_or_raises_value_error(workdir, text):
    path = workdir / "model.scm"
    path.write_text(text, encoding="utf-8")
    try:
        scm = read_scm(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}:")
        return
    assert isinstance(scm, DiscreteScm)
