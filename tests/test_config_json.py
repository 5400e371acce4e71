"""The seven config types (Tie, FitSpec, FixedActivation, TrainableUaf,
SgdConfig, AdamConfig, NetworkConfig) write every field with to_dict, read
back through JSON text to an equal config, and refuse a malformed nested
value naming the level it sits at."""

import dataclasses
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uafkit as uk
from uafkit import PARAM_NAMES

_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_PARAMS = st.builds(uk.UafParams, *[_FLOATS] * 5)
_KINDS = st.one_of(
    st.sampled_from([uk.PresetKind(name) for name in uk.PRESET_NAMES if name != "leaky_relu"]),
    st.builds(uk.leaky_relu, st.floats(0.0, 0.1, exclude_min=True)),
)


def _tie(draw, param, sources):
    """A tie on param of any kind, from one of sources (const when there is
    none); a same tie's value is 0."""
    kind = draw(st.sampled_from(("const", "same", "recip", "offset") if sources else ("const",)))
    source = None if kind == "const" else draw(st.sampled_from(sources))
    return uk.Tie(param, kind, source, 0.0 if kind == "same" else draw(_FLOATS))


@st.composite
def _ties(draw):
    param = draw(st.sampled_from(PARAM_NAMES))
    return _tie(draw, param, [n for n in PARAM_NAMES if n != param])


@st.composite
def _specs(draw):
    """Any free set, a tie on any of the other parameters, any interval."""
    free = tuple(n for n in PARAM_NAMES if draw(st.booleans()))
    ties = tuple(_tie(draw, n, free) for n in PARAM_NAMES if n not in free and draw(st.booleans()))
    lo, hi = sorted(draw(st.tuples(*[st.floats(-1e300, 1e300)] * 2).filter(lambda b: b[0] != b[1])))
    return uk.FitSpec(
        target=draw(_KINDS),
        free=draw(st.permutations(free)),
        init=draw(_PARAMS),
        ties=ties,
        interval=(lo, hi),
        n_samples=draw(st.integers(2, uk.core.MAX_POINTS // 5)),
        max_iters=draw(st.integers(0, 10**6)),
        tolerance=draw(st.floats(0.0, 1e300)),
    )


_ACTIVATIONS = st.one_of(
    st.builds(uk.FixedActivation, _KINDS, st.booleans()),
    st.builds(uk.TrainableUaf, _PARAMS),
)
_OPTIMIZERS = st.one_of(
    st.builds(uk.SgdConfig, _POSITIVE),
    st.builds(uk.AdamConfig, _POSITIVE, *[st.floats(0.0, 1.0, exclude_max=True)] * 2, _POSITIVE),
)
# a uaf_learning_rate only with a trainable activation, the one it steps
_CONFIGS = _ACTIVATIONS.flatmap(lambda activation: st.builds(
    uk.NetworkConfig,
    layer_sizes=st.lists(st.integers(1, 64), min_size=3, max_size=5).map(tuple),
    activation=st.just(activation),
    use_batch_norm=st.booleans(),
    seed=st.integers(0, 2**70),
    optimizer=_OPTIMIZERS,
    batch_size=st.integers(1, 10**6),
    epochs=st.integers(1, 10**6),
    uaf_learning_rate=(st.none() | _POSITIVE) if isinstance(activation, uk.TrainableUaf)
    else st.none(),
))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.one_of(_ties(), _specs(), _CONFIGS))
def test_configs_write_their_fields_and_read_back(config):
    data = config.to_dict()
    assert data == dataclasses.asdict(config)
    assert type(config).from_dict(json.loads(json.dumps(data, allow_nan=False))) == config
    if isinstance(config, uk.NetworkConfig):
        for member in (config.activation, config.optimizer):
            assert member.to_dict() == dataclasses.asdict(member)


def test_each_tag_is_the_first_field_and_no_argument():
    for cls, name, tag in ((uk.FixedActivation, "type", "fixed"),
                           (uk.TrainableUaf, "type", "trainable"),
                           (uk.SgdConfig, "kind", "sgd"), (uk.AdamConfig, "kind", "adam")):
        first = dataclasses.fields(cls)[0]
        assert (first.name, first.default, first.init) == (name, tag, False)
    # a const tie writes its null source, and a same tie its value
    assert uk.Tie("B", "const", None, 2.0).to_dict() == {
        "param": "B", "kind": "const", "source": None, "value": 2.0}
    assert uk.Tie("D", "same", "A").to_dict() == {
        "param": "D", "kind": "same", "source": "A", "value": 0.0}


_INIT = {"A": 1.0, "B": 0.0, "C": 0.0, "D": -1.0, "E": 0.0}
_SPEC = {"target": "sigmoid", "free": ["A"], "init": _INIT}
_TIE = {"param": "B", "kind": "const", "value": 0.0}
_TRAINABLE = {"type": "trainable", "init": _INIT}
_FIXED = {"type": "fixed", "kind": "relu"}
_CONFIG = {"layer_sizes": [2, 3, 1], "activation": _TRAINABLE}


@pytest.mark.parametrize("reader, data, message", [
    (uk.FitSpec, {**_SPEC, "z": 1}, "fit spec contains unknown field(s): z"),
    (uk.FitSpec, {**_SPEC, "target": {"name": "relu", "z": 1}},
     "preset kind contains unknown field(s): z"),
    (uk.FitSpec, {**_SPEC, "init": {**_INIT, "z": 1}}, "parameters contains unknown field(s): z"),
    (uk.FitSpec, {**_SPEC, "ties": [{**_TIE, "z": 1}]}, "tie contains unknown field(s): z"),
    (uk.FitSpec, {**_SPEC, "ties": {}}, "ties must be a list, got {}"),
    (uk.FitSpec, {**_SPEC, "ties": [1]}, "ties must be a dict, got 1"),
    (uk.NetworkConfig, {**_CONFIG, "z": 1}, "network config contains unknown field(s): z"),
    (uk.NetworkConfig, {**_CONFIG, "optimizer": {"kind": "sgd", "z": 1}},
     "optimizer contains unknown field(s): z"),
    (uk.NetworkConfig, {**_CONFIG, "optimizer": {"kind": "adam", "learning_rate": "1"}},
     "learning_rate must be a number, got '1'"),
    (uk.NetworkConfig, {**_CONFIG, "activation": {**_TRAINABLE, "z": 1}},
     "activation contains unknown field(s): z"),
    (uk.NetworkConfig, {**_CONFIG, "activation": {**_FIXED, "kind": {"name": "relu", "z": 1}}},
     "preset kind contains unknown field(s): z"),
    (uk.NetworkConfig, {**_CONFIG, "activation": {**_TRAINABLE, "init": {**_INIT, "z": 1}}},
     "parameters contains unknown field(s): z"),
    (uk.NetworkConfig, {**_CONFIG, "activation": {"type": "x"}},
     "activation type must be one of fixed, trainable, got 'x'"),
    (uk.NetworkConfig, {**_CONFIG, "activation": {"kind": "relu"}},
     "activation must be an object with a 'type' field"),
    (uk.NetworkConfig, {**_CONFIG, "activation": {"type": "fixed"}},
     "activation requires field(s): kind"),
    (uk.NetworkConfig, {**_CONFIG, "activation": _FIXED, "uaf_learning_rate": 0.5},
     "uaf_learning_rate needs a trainable activation, got a fixed one"),
])
def test_nested_refusals_name_their_level(reader, data, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        reader.from_dict(json.loads(json.dumps(data)))
