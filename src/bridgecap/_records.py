"""One serialization path for the pipeline's record dataclasses.

The one rule: a record's JSON is its fields. ``plain`` gives that JSON
value for every document the CLI writes and for checkpoint metadata. A
list of flat records is ndjson: one compact object per line, keys
sorted, so equal records give equal bytes.
"""

import json
from dataclasses import MISSING, fields, is_dataclass

import numpy as np

from .errors import FormatError

_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def as_text(source, encoding: str) -> str:
    """The text of ``source``: bytes (decoded with ``encoding``), str, or
    a readable file object yielding either."""
    data = source if isinstance(source, (str, bytes)) else source.read()
    return data.decode(encoding) if isinstance(data, bytes) else data


def plain(value):
    """``value`` as a JSON value: a dataclass becomes an object of its
    fields, a tuple, list or ndarray a list, and every dict key a string;
    anything else is returned as it is."""
    if is_dataclass(value):
        return {f.name: plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {str(k): plain(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    return value


def to_ndjson(cls, records) -> str:
    """One line per record of type ``cls``."""
    names = [f.name for f in fields(cls)]
    return "".join(_encode({n: getattr(r, n) for n in names}) + "\n" for r in records)


def from_ndjson(cls, text: str) -> list:
    """Records of type ``cls``, one per non-blank line. A field with a
    default may be absent; a line that is not a parseable JSON object or
    lacks a required field raises FormatError naming its 1-based line."""
    # Dataclass fields without a default precede those with one, so the
    # values can be passed positionally in this order.
    required = [f.name for f in fields(cls) if f.default is MISSING]
    optional = [(f.name, f.default) for f in fields(cls) if f.default is not MISSING]
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            d = json.loads(line)
        except json.JSONDecodeError as exc:
            raise FormatError(f"line {lineno}: not valid JSON ({exc.msg})") from exc
        except RecursionError as exc:
            raise FormatError(f"line {lineno}: nested too deeply to parse") from exc
        if not isinstance(d, dict):
            raise FormatError(f"line {lineno}: expected a JSON object")
        try:
            out.append(cls(*[d[n] for n in required], *[d.get(n, v) for n, v in optional]))
        except KeyError as exc:
            raise FormatError(f"line {lineno}: missing required field {exc}") from exc
    return out
