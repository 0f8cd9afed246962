"""Canonical JSON output: sorted keys, floats at 17 significant digits,
and atomic file writes. Identical payloads serialize to identical bytes.
"""

from __future__ import annotations

import math
import os
import tempfile
from json.encoder import encode_basestring

import numpy as np


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x!r} cannot be serialized")
    return format(float(x), ".17g")


def _format_str(s: str) -> str:
    """Quoted string with quotes, backslashes and U+0000-U+001F escaped."""
    text = encode_basestring(s)
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:  # lone surrogates, possible in JSON input
            text = "".join(f"\\u{ord(c):04x}" if "\ud800" <= c <= "\udfff" else c
                           for c in text)
    return text


def _encode(obj, out: list) -> None:
    # common types first: each numpy abstract-type check costs ~0.2 us
    if isinstance(obj, str):
        out.append(_format_str(obj))
    elif isinstance(obj, float):
        out.append(_format_float(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for k, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            if k:
                out.append(",")
            _encode(key, out)
            out.append(":")
            _encode(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for k, item in enumerate(obj):
            if k:
                out.append(",")
            _encode(item, out)
        out.append("]")
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """Deterministic JSON text for a payload of plain Python values."""
    out: list = []
    _encode(obj, out)
    return "".join(out)


def write_atomic(path: str, text: str) -> None:
    """Write via a temporary file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
