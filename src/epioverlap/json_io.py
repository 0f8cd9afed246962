"""Canonical JSON output: sorted keys, floats at 17 significant digits,
and atomic file writes. Identical payloads serialize to identical bytes.
"""

from __future__ import annotations

import math
import os
import stat
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


def _encode(obj, heads: dict) -> str:
    # Each container is joined as soon as its members are encoded, so only
    # one container's pieces are alive at a time: a d = 4 simulate document
    # (38 KB) peaks at ~114 KB of temporaries, against ~277 KB for one list
    # of every scalar's text joined at the end.
    # heads memoizes each dict key's quoted text and colon for one document:
    # a d = 4 simulate document has 1,849 keys but 253 distinct ones (~21 KB).
    # common types first: each numpy abstract-type check costs ~0.2 us
    if isinstance(obj, str):
        return _format_str(obj)
    if isinstance(obj, float):
        return _format_float(obj)
    if isinstance(obj, dict):
        # a finite float member is formatted in place, without a call to _encode
        items = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            head = heads.get(key)
            if head is None:
                head = heads[key] = _format_str(key) + ":"
            value = obj[key]
            if type(value) is float and math.isfinite(value):
                items.append(f"{head}{value:.17g}")
            else:
                items.append(head + _encode(value, heads))
        return "{" + ",".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join([f"{item:.17g}" if type(item) is float and math.isfinite(item)
                               else _encode(item, heads) for item in obj]) + "]"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """Deterministic JSON text for a payload of plain Python values."""
    return _encode(obj, {})


def write_atomic(path: str, text: str) -> None:
    """Write via a temporary file in the target directory, then rename.

    The file keeps the mode of the target it replaces; a new one gets
    0o666 less the umask, as open() would give it (mkstemp creates 0o600).
    """
    directory = os.path.dirname(os.path.abspath(path))
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            os.fchmod(fd, mode)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
