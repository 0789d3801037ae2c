"""Estimator-state codec, IPSS checkpoints and the atomic JSON writer.

``state_format`` 2 writes coalition tables and coalition lists as flat int
arrays, and IPSS persists the generator state its phase-2 sample is drawn
from instead of the sample.  The properties here check that format 2
round-trips losslessly over generated payloads, that format-1 text (written
by a frozen copy of the format-1 encoder) still decodes to the same
payload, and that IPSS resumes bitwise from either format.
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
from repro.core.anytime import (
    STATE_FORMAT_VERSION,
    EstimatorState,
    decode_state_value,
    encode_state_value,
    restore_rng,
)
from repro.experiments.pipeline import execute_cell
from repro.utils.combinatorics import balanced_coalitions_of_size
from repro.utils.jsonio import write_json_atomic


def _reference_encode(value):
    """The format-1 encoder: one tagged object per coalition."""
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
    st.sampled_from(["fs", "fsarr", "fsmap", "imap", "nd", "smap"]),
)
_arrays = st.one_of(
    st.lists(_floats, max_size=6).map(lambda xs: np.array(xs, dtype=np.float64)),
    st.lists(st.integers(-1000, 1000), max_size=6).map(
        lambda xs: np.array(xs, dtype=np.int64)
    ),
    st.lists(st.booleans(), max_size=6).map(lambda xs: np.array(xs, dtype=bool)),
)
_int_keys = st.one_of(st.integers(-50, 50), st.integers(-50, 50).map(np.int64))


def _payloads_keyed_by(str_keys):
    def containers(children):
        return st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            st.dictionaries(_coalitions, children, max_size=4),
            # int and np.int64 keys that compare equal collapse into one entry
            st.dictionaries(_int_keys, children, max_size=4),
            st.dictionaries(str_keys, children, max_size=4),
        )

    return st.recursive(
        st.one_of(_scalars, _coalitions, _arrays, st.just({})),
        containers,
        max_leaves=25,
    )


_payloads = _payloads_keyed_by(st.one_of(st.text(max_size=4), st.just("__t")))
# format 1 wrote a str-keyed dict as is, so one with a "__t" key of its own
# reads back as a tagged record: such payloads were never format-1 text
_format_one_payloads = _payloads_keyed_by(
    st.text(max_size=4).filter(lambda key: key != "__t")
)


def _tags(value):
    """Every ``__t`` tag in an encoded value; the str-keyed dict inside an
    ``smap`` record is payload, so its own ``"__t"`` key is not a tag."""
    if isinstance(value, dict):
        found = {value["__t"]} if "__t" in value else set()
        inner_values = value["v"].values() if found == {"smap"} else value.values()
        for inner in inner_values:
            found |= _tags(inner)
        return found
    if isinstance(value, list):
        return set().union(*map(_tags, value)) if value else set()
    return set()


@settings(max_examples=300, deadline=None)
@given(_format_one_payloads)
def test_format_one_text_decodes_to_the_same_payload(payload):
    text = _dumps(_reference_encode(payload))
    assert _identical(decode_state_value(json.loads(text)), _decoded_form(payload))


@settings(max_examples=300, deadline=None)
@given(_payloads)
def test_format_two_round_trips_losslessly(payload):
    encoded = encode_state_value(payload)
    assert "fsmap" not in _tags(encoded)
    decoded = decode_state_value(json.loads(_dumps(encoded)))
    assert _identical(decoded, _decoded_form(payload))


@pytest.mark.parametrize(
    "payload",
    [
        {"__t": []},
        {"__t": "fs", "v": [1, 2]},
        {"__t": "nd", "dtype": "float64", "v": [0.5]},
        {"__t": "smap", "v": {"__t": "imap"}},
        {"a": [{"__t": None}], "__t": {"__t": "fsarr", "n": [], "m": []}},
    ],
)
def test_str_keyed_dicts_with_a_tag_key_round_trip(payload):
    encoded = encode_state_value(payload)
    assert encoded["__t"] == "smap"
    decoded = decode_state_value(json.loads(_dumps(encoded)))
    assert _identical(decoded, _decoded_form(payload))


def test_coalition_tables_encode_as_flat_arrays():
    table = {frozenset({3, 1}): 0.5, frozenset(): 0.25, frozenset({2}): np.float64(1.0)}
    assert encode_state_value(table) == {
        "__t": "fsarr",
        "n": [2, 0, 1],
        "m": [1, 3, 2],
        "v": [0.5, 0.25, 1.0],
    }
    assert encode_state_value([frozenset({4, 0}), frozenset({1})]) == {
        "__t": "fsarr",
        "n": [2, 1],
        "m": [0, 4, 1],
    }
    nested = {frozenset({0}): [1.0, 2.0]}
    assert decode_state_value(json.loads(_dumps(encode_state_value(nested)))) == nested


def test_mixed_key_dict_is_rejected():
    with pytest.raises(TypeError, match="key types"):
        encode_state_value({frozenset({1}): 0.5, "x": 1.0})


def _phase_two_states(n_clients, total_rounds, seed=0):
    """(game, every mid-run phase-2 state as checkpoint JSON, final values)."""
    game = monotone_game(n_clients, seed=3)
    states = []
    for snapshot in IPSS(total_rounds=total_rounds, seed=seed).iter_run(game, n_clients):
        if snapshot.done:
            final = snapshot.values
        elif snapshot.state.payload["partial_draw"] is not None:
            states.append(_dumps(snapshot.state.to_dict()))
    return game, states, final


def _format_one(state_text, n_clients):
    """Rewrite a phase-2 checkpoint the way format 1 wrote it: the sample
    itself in ``partial``, one tagged object per coalition."""
    state = json.loads(state_text)
    payload = decode_state_value(state["payload"])
    k_star = payload["k_star"]
    draw = payload.pop("partial_draw")
    payload["partial"] = balanced_coalitions_of_size(
        n_clients, k_star + 1, payload["partial_count"], restore_rng(draw)
    )
    state["state_format"] = 1
    state["payload"] = _reference_encode(payload)
    return state


def test_live_ipss_phase_two_checkpoint_holds_the_draw_state():
    _game, states, _final = _phase_two_states(12, 60)
    assert states
    for text in states:
        state = json.loads(text)
        assert state["state_format"] == STATE_FORMAT_VERSION == 2
        payload = state["payload"]
        assert "partial" not in payload
        assert payload["partial_draw"]["bit_generator"] == "PCG64"
        assert 0 < payload["partial_evaluated"] <= payload["partial_count"]
        # The only coalitions on disk are the evaluated ones: phase 1's
        # 13 plus the evaluated part of the sample.
        utilities = payload["utilities"]
        assert utilities["__t"] == "fsarr"
        assert len(utilities["n"]) == 13 + payload["partial_evaluated"]
        assert _tags(payload) == {"fsarr", "nd"}


def test_format_one_ipss_checkpoint_resumes_bitwise_through_execute_cell(tmp_path):
    game, states, final = _phase_two_states(12, 60)
    text = states[len(states) // 2]
    legacy = _format_one(text, 12)
    assert 0 < legacy["payload"]["partial_evaluated"] < legacy["payload"]["partial_count"]
    path = str(tmp_path / "cell.state.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(legacy, handle, indent=2, sort_keys=True)
    messages = []
    result, continued = execute_cell(
        IPSS(total_rounds=60, seed=0), game, path, "cell", messages.append
    )
    assert continued, messages
    assert np.array_equal(result.values, final)
    # The checkpoints it wrote on the way are format 2 and still carry the
    # format-1 sample: a payload that holds ``partial`` keeps it.
    rewritten = json.loads(open(path, encoding="utf-8").read())
    assert rewritten["state_format"] == 2
    assert rewritten["payload"]["partial"]["__t"] == "fsarr"


@pytest.mark.parametrize("n_clients, total_rounds", [(9, 40), (12, 60), (16, 150), (20, 400)])
def test_resume_from_every_chunk_with_a_fresh_instance_is_bitwise(n_clients, total_rounds):
    game = monotone_game(n_clients, seed=3)
    texts = []
    final = None
    for snapshot in IPSS(total_rounds=total_rounds, seed=0).iter_run(game, n_clients):
        if snapshot.done:
            final = snapshot.values
        else:
            texts.append(_dumps(snapshot.state.to_dict()))
    assert any('"partial_draw":{' in text for text in texts)
    for text in texts:
        state = EstimatorState.from_dict(json.loads(text))
        resumed = IPSS(total_rounds=total_rounds, seed=0).run(
            game, n_clients, state=state
        )
        assert np.array_equal(resumed.values, final)


@pytest.mark.parametrize("total_rounds", [10, 60])
def test_one_instance_across_federation_sizes_equals_fresh_instances(total_rounds):
    # Phase 1 draws nothing, so the draw state is the seed's initial state
    # for every n; at γ=10 both sizes also sample 9 singletons.  A sample
    # remembered for n=12 must not serve n=16.
    runs = {n_clients: _phase_two_states(n_clients, total_rounds) for n_clients in (12, 16)}
    assert all(texts for _game, texts, _final in runs.values())

    shared = IPSS(total_rounds=total_rounds, seed=0)
    for n_clients, other in ((12, 16), (16, 12)):
        game, _texts, final = runs[n_clients]
        assert np.array_equal(shared.run(game, n_clients).values, final)
        # resume the other size on the instance that just drew for this one
        game, texts, final = runs[other]
        for text in texts:
            state = EstimatorState.from_dict(json.loads(text))
            assert np.array_equal(shared.run(game, other, state=state).values, final)


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
