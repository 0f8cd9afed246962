"""Canonical JSON through one stdlib C encoder, and atomic file writes:
sorted keys, compact separators, floats as repr (the shortest round trip),
the same bytes for the same payload. Checks around the encoder keep what it
alone would not: a dict key that is not a str raises TypeError (it would
print 1 as "1"), a non-finite float raises ValueError naming it, and lone
surrogates are escaped as \\uXXXX.
"""

from __future__ import annotations

import json
import math
import os
import stat
import tempfile

import numpy as np

_CONTAINERS = (dict, list, tuple)


def _default(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# no cycle check: _check_keys meets a cycle first, with RecursionError
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False,
                            ensure_ascii=False, check_circular=False, default=_default)


def _check_keys(obj) -> None:
    """Raise TypeError for a dict key, at any depth, that is not a str."""
    if isinstance(obj, dict):
        for key in obj:
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
        obj = obj.values()
    for item in obj:
        if type(item) is not float and isinstance(item, _CONTAINERS):  # floats: most leaves
            _check_keys(item)


def _non_finite(obj):
    """The first non-finite float in output order, or None."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else obj
    if isinstance(obj, dict):
        obj = [obj[key] for key in sorted(obj)]
    if isinstance(obj, (list, tuple)):
        return next((v for v in map(_non_finite, obj) if v is not None), None)


def dumps(obj) -> str:
    """Deterministic JSON text for a payload of plain Python values."""
    if isinstance(obj, _CONTAINERS):
        _check_keys(obj)
    try:
        if isinstance(obj, dict):
            # one encoder call per top-level member: the encoder holds every piece
            # of its output until it joins them, ~9 bytes per byte of output
            text = "{" + ",".join([_ENCODER.encode(key) + ":" + _ENCODER.encode(obj[key])
                                   for key in sorted(obj)]) + "}"
        else:
            text = _ENCODER.encode(obj)
    except ValueError:
        value = _non_finite(obj)
        if value is None:
            raise
        raise ValueError(f"non-finite value {value!r} cannot be serialized") from None
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:  # lone surrogates, possible in JSON input
            text = "".join(f"\\u{ord(c):04x}" if "\ud800" <= c <= "\udfff" else c
                           for c in text)
    return text


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
