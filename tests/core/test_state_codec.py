"""Estimator-state codec and the atomic JSON writer.

``encode_state_value`` checks plain scalars and lists by exact type and
coalitions before its other branches.  The properties here pin it to a
frozen copy of the earlier encoder over generated payloads: same encoded
structure, same JSON text, and a lossless round-trip through
:func:`decode_state_value`.
"""

import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import monotone_game
from repro.core import IPSS
from repro.core.anytime import decode_state_value, encode_state_value
from repro.utils.jsonio import write_json_atomic


def _reference_encode(value):
    """``encode_state_value`` as it was before its branches were reordered."""
    if isinstance(value, np.ndarray):
        return {"__t": "nd", "dtype": str(value.dtype), "v": value.tolist()}
    if isinstance(value, frozenset):
        return {"__t": "fs", "v": sorted(int(m) for m in value)}
    if isinstance(value, dict):
        if all(isinstance(key, str) for key in value):
            return {key: _reference_encode(inner) for key, inner in value.items()}
        if all(isinstance(key, frozenset) for key in value):
            return {
                "__t": "fsmap",
                "v": [
                    [sorted(int(m) for m in key), _reference_encode(inner)]
                    for key, inner in value.items()
                ],
            }
        if all(isinstance(key, (int, np.integer)) for key in value):
            return {
                "__t": "imap",
                "v": [
                    [int(key), _reference_encode(inner)]
                    for key, inner in value.items()
                ],
            }
        raise TypeError(f"unsupported payload dict key types: {list(value)[:3]!r}")
    if isinstance(value, (list, tuple)):
        return [_reference_encode(inner) for inner in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    raise TypeError(f"unsupported payload value type: {type(value).__name__}")


def _dumps(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _identical(a, b):
    """Equal with exact types, dict key order, NaN == NaN and array dtypes."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(
            a, b, equal_nan=a.dtype.kind == "f"
        )
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_identical, a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(_identical(a[key], b[key]) for key in a)
    if isinstance(a, frozenset):
        return sorted(map(int, a)) == sorted(map(int, b))
    return a == b


def _decoded_form(value):
    """What ``decode(encode(value))`` must give back: tuples come back as
    lists, numpy scalars as Python numbers, str-keyed dicts in key order;
    coalition- and int-keyed tables keep their insertion order."""
    if isinstance(value, np.ndarray):
        return value
    if isinstance(value, frozenset):
        return frozenset(map(int, value))
    if isinstance(value, dict):
        if value and all(isinstance(key, frozenset) for key in value):
            return {
                frozenset(map(int, key)): _decoded_form(inner)
                for key, inner in value.items()
            }
        if value and all(isinstance(key, (int, np.integer)) for key in value):
            return {int(key): _decoded_form(inner) for key, inner in value.items()}
        # str keys are written with sort_keys, so they come back sorted
        return {key: _decoded_form(value[key]) for key in sorted(value)}
    if isinstance(value, (list, tuple)):
        return [_decoded_form(inner) for inner in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


_members = st.one_of(st.integers(0, 499), st.integers(0, 499).map(np.int64))
_coalitions = st.frozensets(_members, max_size=6)
_floats = st.floats(allow_nan=True, allow_infinity=True)
_scalars = st.one_of(
    _floats,
    st.sampled_from([math.nan, math.inf, -math.inf]),
    _floats.map(np.float64),
    st.integers(-(2**40), 2**40),
    st.integers(-1000, 1000).map(np.int64),
    st.booleans(),
    st.none(),
    st.text(max_size=5),
)
_arrays = st.one_of(
    st.lists(_floats, max_size=6).map(lambda xs: np.array(xs, dtype=np.float64)),
    st.lists(st.integers(-1000, 1000), max_size=6).map(
        lambda xs: np.array(xs, dtype=np.int64)
    ),
    st.lists(st.booleans(), max_size=6).map(lambda xs: np.array(xs, dtype=bool)),
)
_int_keys = st.one_of(st.integers(-50, 50), st.integers(-50, 50).map(np.int64))


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_coalitions, children, max_size=4),
        # int and np.int64 keys that compare equal collapse into one entry
        st.dictionaries(_int_keys, children, max_size=4),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
    )


_payloads = st.recursive(
    st.one_of(_scalars, _coalitions, _arrays, st.just({})),
    _containers,
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(_payloads)
def test_encoder_matches_the_reference_encoder(payload):
    encoded = encode_state_value(payload)
    reference = _reference_encode(payload)
    assert _identical(encoded, reference)
    assert _dumps(encoded) == _dumps(reference)

    decoded = decode_state_value(json.loads(_dumps(encoded)))
    assert _identical(decoded, _decoded_form(payload))


def test_mixed_key_dict_is_rejected():
    with pytest.raises(TypeError, match="key types"):
        encode_state_value({frozenset({1}): 0.5, "x": 1.0})


def test_live_ipss_state_encodes_as_before():
    # A real mid-run payload: coalition->utility table in evaluation order,
    # the phase-2 sample, running value/count arrays.
    game = monotone_game(12, seed=3)
    algorithm = IPSS(total_rounds=60, seed=0)
    for snapshot in algorithm.iter_run(game, 12):
        if snapshot.state is not None and not snapshot.done:
            encoded = snapshot.state.to_dict()
            payload = snapshot.state.payload
            assert _dumps(encoded["payload"]) == _dumps(_reference_encode(payload))
            decoded = decode_state_value(json.loads(_dumps(encoded["payload"])))
            assert list(decoded["utilities"]) == list(payload["utilities"])


class TestWriteJsonAtomic:
    def test_compact_sorted_single_line(self, tmp_path):
        path = str(tmp_path / "out.json")
        write_json_atomic(path, {"b": [1, 2.5], "a": {"y": None, "x": "s"}})
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        assert text == '{"a":{"x":"s","y":null},"b":[1,2.5]}'

    def test_nan_and_inf_round_trip(self, tmp_path):
        path = str(tmp_path / "out.json")
        write_json_atomic(path, {"stderr": [math.nan, math.inf, -math.inf, 0.1 + 0.2]})
        with open(path, "r", encoding="utf-8") as handle:
            stderr = json.load(handle)["stderr"]
        assert math.isnan(stderr[0])
        assert stderr[1:] == [math.inf, -math.inf, 0.1 + 0.2]

    def test_creates_parent_and_replaces_without_leftovers(self, tmp_path):
        path = str(tmp_path / "nested" / "dir" / "out.json")
        write_json_atomic(path, {"v": 1})
        write_json_atomic(path, {"v": 2})
        with open(path, "r", encoding="utf-8") as handle:
            assert json.load(handle) == {"v": 2}
        assert os.listdir(os.path.dirname(path)) == ["out.json"]

    def test_unencodable_payload_leaves_old_file(self, tmp_path):
        path = str(tmp_path / "out.json")
        write_json_atomic(path, {"v": 1})
        with pytest.raises(TypeError):
            write_json_atomic(path, {"v": object()})
        with open(path, "r", encoding="utf-8") as handle:
            assert json.load(handle) == {"v": 1}
        assert os.listdir(str(tmp_path)) == ["out.json"]

    def test_cyclic_payload_fails_before_touching_the_file(self, tmp_path):
        path = str(tmp_path / "out.json")
        write_json_atomic(path, {"v": 1})
        cyclic = {"v": []}
        cyclic["v"].append(cyclic)
        with pytest.raises(RecursionError):
            write_json_atomic(path, cyclic)
        with open(path, "r", encoding="utf-8") as handle:
            assert json.load(handle) == {"v": 1}
