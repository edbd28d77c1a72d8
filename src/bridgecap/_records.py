r"""One serialization path for the pipeline's record dataclasses.

The one rule: a record's JSON is its fields. ``plain`` gives that JSON
value for every document the CLI writes and for checkpoint metadata. A
list of flat records is ndjson: one compact object per line, keys
sorted, so equal records give equal bytes.

The JSON contract: ``loads`` is the package's one JSON decoder and
``dumps`` its one encoder (``to_ndjson`` fills its line template with
``json``'s own encoders), under one number rule: JSON has no ``NaN`` or
``Infinity`` (RFC 8259, section 6), and a literal beyond a double's range
would read as one. Reading either raises FormatError, and writing a
non-finite number DomainError.

The line rule, for ndjson and the fixed-width inventory (``iter_lines``)
and CSV (``iter_csv``): a line ends only at ``\n``, a ``\r\n`` at its
``\n``. A bare ``\r``, ``\f``, ``\x85`` or ``\u2028``, where
``str.splitlines`` would break, is part of its line. It is the rule of
the line iterator of ``io.StringIO`` and of a text file opened with
``newline="\n"``, as the CLI opens every input, so both readers iterate
the file itself, one line at a time.

The ndjson codec contract:

- ``to_ndjson`` writes, for each record, exactly the bytes of
  ``json.dumps(fields, sort_keys=True, separators=(",", ":"))``. Each
  class gets one line template filled by the encoders ``json`` itself
  uses for a ``str``, ``int``, finite ``float`` and ``None``; any other
  value goes through ``dumps``. A non-finite float has no JSON
  encoding, so it raises DomainError instead of writing ``NaN``.
- ``from_ndjson`` type-checks what it reads. Each value must have its
  field's annotated type (an ``int`` also fills a ``float`` field; a
  ``bool`` is never a number), and ``NaN``, ``Infinity`` and literals
  that overflow a double are rejected. A line that breaks any of this
  raises FormatError naming its 1-based line, so a record it returns
  holds only values ``to_ndjson`` writes back unchanged. So does a file
  that is not UTF-8, naming its path and the first line that is not.

The CSV contract, for ``to_csv`` and ``iter_csv``:

- Lines end under the line rule, so a bare ``\r`` in a cell must be
  quoted. ``csv.writer`` leaves it bare, so ``to_csv`` alone writes in
  blocks of rows: a block whose text holds one is written again, with
  each row holding one quoted.
- A row whose cells are all blank is skipped.
- A row the csv module cannot read, or that is not UTF-8, raises
  ``FormatError(f"{what} line {n}: {reason}")``, ``n`` its last line.
"""

import csv
import io
import json
import math
import types
from collections.abc import Callable
from dataclasses import MISSING, dataclass, fields, is_dataclass
from functools import cache
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from operator import attrgetter

import numpy as np

from .errors import DomainError, FormatError

# Rows per write of CSV: a file is never held whole.
_RECORDS_PER_BLOCK = 8192


def _blocks(items):
    """Consecutive lists of up to ``_RECORDS_PER_BLOCK`` of ``items``."""
    items = iter(items)
    while block := list(islice(items, _RECORDS_PER_BLOCK)):
        yield block


def _reject_constant(token: str):
    """A ``parse_constant`` hook: JSON has no ``NaN``, ``Infinity`` or
    ``-Infinity``, so each raises ValueError."""
    raise ValueError(f"{token} is not a JSON number")


def ascii_number(text: str) -> str:
    """``text`` stripped of whitespace, as ``int`` and ``float`` strip
    it, when they may read the rest: ASCII without ``_``. Else
    ValueError, since both also read ``_`` between digits and other
    scripts' digits (``1_0`` as 10, ``\u0663`` as 3)."""
    text = text.strip()
    if not text.isascii() or "_" in text:
        raise ValueError(f"not an ASCII number: {text!r}")
    return text


def _finite_float(token: str) -> float:
    value = float(token)
    if math.isinf(value):
        raise ValueError(f"{token} overflows a double")
    return value


_decoder = json.JSONDecoder(parse_float=_finite_float, parse_constant=_reject_constant)


def loads(text, what: str):
    """The JSON value of ``text``, a str or UTF-8 bytes, else FormatError
    naming ``what``. A syntax error in a text of more than one line also
    names its line and column; a one-line text (an ndjson line, a
    checkpoint block) is placed by ``what`` alone."""
    try:
        return _decoder.decode(text.decode("utf-8") if isinstance(text, bytes) else text)
    except json.JSONDecodeError as exc:
        where = f" at line {exc.lineno} column {exc.colno}" if "\n" in exc.doc else ""
        raise FormatError(f"{what}: not valid JSON ({exc.msg}{where})") from exc
    except ValueError as exc:  # from UTF-8 decoding, _reject_constant or _finite_float
        raise FormatError(f"{what}: not valid JSON ({exc})") from exc
    except RecursionError as exc:
        raise FormatError(f"{what}: nested too deeply to parse") from exc


def dumps(value, what: str, indent=None) -> str:
    """The JSON text of ``plain(value)``, keys sorted: compact, or with
    ``indent=2`` one item per line. A non-finite number raises
    DomainError naming ``what``."""
    try:
        return json.dumps(plain(value), sort_keys=True, allow_nan=False, indent=indent,
                          separators=(",", ": " if indent else ":"))
    except ValueError as exc:  # NaN or Infinity, which JSON lacks
        raise DomainError(f"cannot write {what}: {exc}") from exc


# The csv module's advice on a row error, which assumes a file opened
# with universal newlines: the contract above reads with ``\n`` alone.
_OPEN_HINT = " - do you need to open the file in universal-newline mode?"


def _undecodable(what: str, text, exc: UnicodeDecodeError) -> FormatError:
    """The FormatError for ``exc``, raised reading the text file ``text``,
    naming ``what`` and the first ``\n``-ended line that does not decode."""
    text.buffer.seek(0)
    for line, data in enumerate(text.buffer, 1):
        try:
            data.decode(exc.encoding)
        except UnicodeDecodeError as bad:
            return FormatError(f"{what} line {line}: not {exc.encoding} text ({bad.reason})")
    return FormatError(f"{what}: not {exc.encoding} text ({exc.reason})")


def iter_csv(source, what: str, rejects=None, delimiter=","):
    """(line where the row ends, row) for each row of ``source`` with a
    non-blank cell, its cells split at ``delimiter``. ``source`` is a str
    or an open text file, which is read row by row. When
    ``rejects`` is a list, an unreadable row is appended to it as ``(line,
    "unreadable row: <reason>")`` and reading resumes at the next line, in
    place of the FormatError naming ``what``."""
    if isinstance(source, str):
        source = io.StringIO(source)
    reader = csv.reader(source, delimiter=delimiter)
    while True:
        try:
            for row in reader:
                if "".join(row).strip():
                    yield reader.line_num, row
            return
        except csv.Error as exc:
            reason = str(exc).removesuffix(_OPEN_HINT)
            if rejects is None:
                raise FormatError(f"{what} line {reader.line_num}: {reason}") from exc
            rejects.append((reader.line_num, f"unreadable row: {reason}"))
        except UnicodeDecodeError as exc:
            raise _undecodable(what, source, exc) from exc


def to_csv(header, rows, out=None) -> str | None:
    """CSV text, each row ending in ``\\n``, that ``csv.reader`` reads
    back as ``header`` followed by ``rows``: returned as one str, or, when
    ``out`` is an open text file, written to it and None returned.

    ``csv.writer`` quotes a field holding its line terminator but not a
    bare ``\\r``, which the reader rejects unquoted. So every field of a
    row holding one is quoted; the other rows keep ``csv.writer``'s
    bytes. The rows are written ``_RECORDS_PER_BLOCK`` at a time, and only
    a block whose text holds a ``\\r`` is written again row by row. So
    one block of rows and its text are held at a time: holding every row
    of a 100k-row manifest at once made writing it take 0.30 s in place
    of 0.17 s (2-vCPU Xeon), as the cyclic collector walked them."""
    if out is None:
        out = io.StringIO()
        to_csv(header, rows, out)
        return out.getvalue()
    for block in chain([[header]], _blocks(rows)):
        text = io.StringIO()
        writer = csv.writer(text, lineterminator="\n")
        writer.writerows(block)
        if "\r" in text.getvalue():
            quoting = csv.writer(text, lineterminator="\n", quoting=csv.QUOTE_ALL)
            text.seek(0)
            text.truncate()
            for row in block:
                (quoting if "\r" in "".join(map(str, row)) else writer).writerow(row)
        out.write(text.getvalue())
    return None


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


def _encode_float(value: float) -> str:
    if math.isfinite(value):
        return float.__repr__(value)
    raise DomainError(f"ndjson cannot hold the non-finite number {value!r}")


def _encode_other(value) -> str:
    return dumps(value, f"ndjson value {value!r}")


# Exact type -> the encoder the json module applies to it.
_SCALAR_ENCODERS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _encode_float,
    type(None): lambda _: "null",
}

# Annotation -> the JSON value types a field of it accepts.
_JSON_TYPES = {str: (str,), int: (int,), float: (float, int), type(None): (type(None),)}


@dataclass(frozen=True)
class _Codec:
    sorted_values: Callable  # record -> tuple of its field values, in sorted-name order
    line: str  # "%s" template of one line, keys sorted
    names: frozenset
    required: tuple
    optional: tuple  # (name, default) pairs
    accepted: frozenset  # (name, value type) pairs
    annotations: dict  # name -> its annotation, as written


@cache
def _codec(cls) -> _Codec:
    accepted = set()
    for f in fields(cls):
        members = f.type.__args__ if isinstance(f.type, types.UnionType) else (f.type,)
        if not all(m in _JSON_TYPES for m in members):
            raise TypeError(f"{cls.__name__}.{f.name}: ndjson fields are JSON scalars")
        accepted.update((f.name, t) for m in members for t in _JSON_TYPES[m])
    names = sorted(f.name for f in fields(cls))
    getter = attrgetter(*names)
    return _Codec(
        sorted_values=getter if len(names) > 1 else lambda r: (getter(r),),
        line="{" + ",".join(f"{encode_basestring_ascii(n)}:%s" for n in names) + "}\n",
        names=frozenset(names),
        # Fields without a default precede those with one, so the values
        # can be passed positionally in this order.
        required=tuple(f.name for f in fields(cls) if f.default is MISSING),
        optional=tuple((f.name, f.default) for f in fields(cls) if f.default is not MISSING),
        accepted=frozenset(accepted),
        annotations={f.name: getattr(f.type, "__name__", str(f.type)) for f in fields(cls)},
    )


def to_ndjson(cls, records, out=None) -> str | None:
    """One line per record of type ``cls``: returned as one str, or, when
    ``out`` is an open text file, written to it one line at a time and
    None returned."""
    if out is None:
        out = io.StringIO()
        to_ndjson(cls, records, out)
        return out.getvalue()
    codec = _codec(cls)
    line, values, encoders = codec.line, codec.sorted_values, _SCALAR_ENCODERS
    out.writelines(
        line % tuple([encoders.get(type(v), _encode_other)(v) for v in values(r)])
        for r in records)
    return None


_JSON_NAMES = {str: "a string", int: "an integer", float: "a decimal number", bool: "a boolean",
               type(None): "null", list: "an array", dict: "an object"}


def _check_types(codec: _Codec, d: dict, lineno: int) -> None:
    """FormatError for the first field whose value has the wrong type;
    a key that names no field is not checked."""
    for name, value in d.items():
        if name in codec.names and (name, type(value)) not in codec.accepted:
            raise FormatError(
                f"line {lineno}: field {name!r} must be {codec.annotations[name]}, "
                f"got {_JSON_NAMES[type(value)]}"
            )


def iter_lines(source):
    """(line number, line) for each line of ``source``, a str or an open
    text file, without its end, under the line rule. A file its encoding
    cannot decode raises FormatError naming its path and the first line
    that does not decode."""
    if isinstance(source, str):
        source = io.StringIO(source)
    try:
        for lineno, line in enumerate(source, 1):
            if line[-1:] == "\n":
                line = line[:-2] if line[-2:-1] == "\r" else line[:-1]
            yield lineno, line
    except UnicodeDecodeError as exc:
        raise _undecodable(getattr(source, "name", "ndjson"), source, exc) from exc


def from_ndjson(cls, source) -> list:
    """Records of type ``cls``, one per non-blank line of ``source``: a
    str, or an open text file, which is read one line at a time, so the
    list of records is all that grows with the file.
    A field with a default may be absent and a key that names no field
    is ignored; a line that is not a parseable JSON object, lacks a
    required field or holds a value of the wrong type raises FormatError
    naming its 1-based line, the same line of a file as of its text."""
    codec = _codec(cls)
    scan, accepted, names = _decoder.scan_once, codec.accepted, codec.names
    out = []
    for lineno, line in iter_lines(source):
        # Fast path: a line that is exactly one JSON object and nothing
        # else. Every other line is parsed again below, which raises the
        # precise error or skips it when blank.
        try:
            d, end = scan(line, 0)
        except (StopIteration, ValueError, RecursionError):
            d = end = None
        if type(d) is not dict or end != len(line):
            if not line.strip():
                continue
            d = loads(line, f"line {lineno}")
            if not isinstance(d, dict):
                raise FormatError(f"line {lineno}: expected a JSON object")
        if not accepted.issuperset(zip(d, map(type, d.values()))):
            _check_types(codec, d, lineno)
        if d.keys() == names:
            out.append(cls(**d))
            continue
        try:
            out.append(cls(*[d[n] for n in codec.required],
                           *[d.get(n, v) for n, v in codec.optional]))
        except KeyError as exc:
            raise FormatError(f"line {lineno}: missing required field {exc}") from exc
    return out
