"""Tests for the canonical JSON encoder."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epioverlap import json_io


def test_control_characters_escaped():
    text = json_io.dumps({"a\nb": "\x00\x1f\t\r\b\f\x7f"})
    assert "\n" not in text and "\x00" not in text
    assert json.loads(text) == {"a\nb": "\x00\x1f\t\r\b\f\x7f"}


def test_lone_surrogate_escaped():
    text = json_io.dumps(["\ud800x\udfff", "é"])
    assert text == '["\\ud800x\\udfff","é"]'
    text.encode("utf-8")
    assert json.loads(text) == ["\ud800x\udfff", "é"]


def test_numpy_scalars():
    payload = {"i": np.int64(-7), "u": np.uint8(3), "t": np.bool_(True),
               "f": np.False_, "y": np.float64(0.1)}
    assert json_io.dumps(payload) == (
        '{"f":false,"i":-7,"t":true,"u":3,"y":0.10000000000000001}')


def test_numpy_bool_is_not_an_integer():
    assert json_io.dumps([np.bool_(True), np.bool_(False)]) == "[true,false]"


def test_non_finite_rejected():
    for value in (float("nan"), float("inf"), np.float64("-inf")):
        with pytest.raises(ValueError):
            json_io.dumps({"v": value})


def test_existing_payload_bytes():
    payload = {"command": "bound", "seed": 1234, "ok": True, "none": None,
               "report": {"exact_bound": 0.46650635094610965, "dim": 4},
               "rows": [[1.0, -0.0], [2.5e-300, 1e22]], "q": 'say "hi" \\ ψ'}
    assert json_io.dumps(payload) == (
        '{"command":"bound","none":null,"ok":true,"q":"say \\"hi\\" \\\\ ψ",'
        '"report":{"dim":4,"exact_bound":0.46650635094610965},'
        '"rows":[[1,-0],[2.5e-300,1e+22]],"seed":1234}')


@settings(max_examples=200, deadline=None)
@given(st.text(st.characters(codec="utf-8", exclude_characters="\\\"")
               .filter(lambda c: c >= " ")))
def test_plain_strings_keep_their_bytes(s):
    assert json_io.dumps(s) == '"' + s + '"'


@settings(max_examples=200, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_numpy_float_formats_like_float(x):
    assert json_io.dumps([np.float64(x)]) == "[" + format(x, ".17g") + "]"


@settings(max_examples=200, deadline=None)
@given(st.text(st.characters(blacklist_categories=())))
def test_any_string_round_trips(s):
    text = json_io.dumps({s: [s]})
    text.encode("utf-8")
    assert json.loads(text) == {s: [s]}


def test_repeated_keys_keep_their_bytes():
    doc = {"a\n": {"a\n": 1, "b": {"a\n": "x", "é": 2}}, "b": [{"b": 3}, {"é": None}],
           "é": {"b": {"b": True}}}
    assert json_io.dumps(doc) == json.dumps(doc, sort_keys=True, separators=(",", ":"),
                                            ensure_ascii=False)


def test_non_string_key_rejected_after_its_text_is_seen():
    with pytest.raises(TypeError, match="keys must be strings, got 1"):
        json_io.dumps({"1": {"1": 0}, "z": {1: 0}})


def test_keys_formatted_once_per_document(monkeypatch):
    """Each distinct key is quoted once per dumps call, and again in the
    next call: nothing is kept between documents."""
    quoted = []
    format_str = json_io._format_str

    def counted(s):
        quoted.append(s)
        return format_str(s)

    monkeypatch.setattr(json_io, "_format_str", counted)
    doc = {"x": {"x": 1, "y": 2.5}, "y": [{"x": 3}, {"y": 4}]}
    for _ in range(2):
        quoted.clear()
        assert json_io.dumps(doc) == '{"x":{"x":1,"y":2.5},"y":[{"x":3},{"y":4}]}'
        assert sorted(quoted) == ["x", "y"]
