"""Checkpoint serialization.

Byte layout (all integers little-endian):

    offset 0   magic ``BCAP`` (4 bytes)
    offset 4   format version, uint32 (currently 1)
    offset 8   meta length M, uint64
    offset 16  meta: UTF-8 JSON of the architecture descriptor
               (input shape, layer specs, class labels, colour mode)
    16 + M     weights: float32 little-endian arrays concatenated in
               parameter order (conv/fc weight then bias, stack order);
               byte count must equal the descriptor's parameter shapes
    ...        history length H, uint64
    ...        history: UTF-8 JSON (per-epoch train/val accuracy and
               loss, best/stopped epoch)

Loading bounds-checks every length field against the file size and
verifies magic, version, and the exact weight byte count. Both JSON
blocks go through ``_records.dumps`` and ``loads``, whose number rule
holds: writing ``NaN`` or ``Infinity`` raises DomainError, and reading
one, or a literal that overflows a double, FormatError. It round-trips
bit-identically: save -> load -> forward matches at 32-bit precision.

The weights are held once at each step. Encoding joins views of the
weight arrays into the bytes it returns. ``load_checkpoint`` reads each
weight block from the open file straight into the array the checkpoint
keeps, and ``network_from_checkpoint`` makes those arrays the network's
parameters without copying them (see ``Network``), so an inference
process holds one copy of the weights.
"""

import io
import math
import struct
from dataclasses import dataclass

import numpy as np

from .._records import dumps, loads
from ..errors import DomainError, FormatError
from .network import ArchitectureDescriptor, Network, normalize_descriptor

MAGIC = b"BCAP"
VERSION = 1
_HEADER = struct.Struct("<4sIQ")  # magic, version, meta length


@dataclass(frozen=True)
class Checkpoint:
    descriptor: ArchitectureDescriptor
    weights: tuple[np.ndarray, ...]
    history: dict

    @property
    def class_labels(self) -> tuple[str, ...]:
        return self.descriptor.class_labels


def _validate_weights(descriptor, weights):
    shapes = descriptor.param_shapes()
    if len(weights) != len(shapes):
        raise DomainError(f"{len(weights)} weight arrays for {len(shapes)} parameters")
    out = []
    for arr, shape in zip(weights, shapes):
        arr = np.ascontiguousarray(arr, dtype="<f4")
        if arr.shape != shape:
            raise DomainError(f"weight shape {arr.shape} does not match descriptor {shape}")
        out.append(arr)
    return tuple(out)


def make_checkpoint(net: Network, history: dict | None = None) -> Checkpoint:
    return Checkpoint(
        descriptor=net.descriptor,
        weights=_validate_weights(net.descriptor, net.get_weights()),
        history=dict(history or {}),
    )


def checkpoint_to_bytes(ckpt: Checkpoint) -> bytes:
    """The checkpoint's bytes, joined from views of its weight arrays, so
    the result is the only copy of them that this makes."""
    weights = _validate_weights(ckpt.descriptor, ckpt.weights)
    meta = dumps(ckpt.descriptor, "checkpoint metadata").encode()
    hist = dumps(ckpt.history, "checkpoint history").encode()
    parts = [_HEADER.pack(MAGIC, VERSION, len(meta)), meta]
    parts.extend(memoryview(arr).cast("B") for arr in weights)
    parts.append(struct.pack("<Q", len(hist)))
    parts.append(hist)
    return b"".join(parts)


def _json_block(raw: bytes, what: str) -> dict:
    value = loads(raw, f"checkpoint {what}")
    if not isinstance(value, dict):
        raise FormatError(f"checkpoint {what} is not a JSON object")
    return value


def checkpoint_from_bytes(source) -> Checkpoint:
    """Decode a checkpoint from ``source``: bytes, or a binary file that
    holds one checkpoint, read from its start to its end. Malformed
    bytes raise ``FormatError``. A descriptor that fails validation, a
    missing field included (once a FormatError), raises ``ConfigError``
    as at construction. Both exit 2.

    Every length is checked against the size of ``source`` before the
    block it gives is read, so a forged one allocates nothing. Each
    weight array is a new aligned float32 array that its block is read
    straight into; a file is not held as bytes beside them, and one cut
    short while it is read raises FormatError too. A file that cannot
    seek, such as a pipe, has no size to check against and is read into
    bytes first."""
    if isinstance(source, bytes):
        source = io.BytesIO(source)
    elif not source.seekable():
        source = io.BytesIO(source.read())
    size = source.seek(0, io.SEEK_END)
    source.seek(0)
    head = source.read(_HEADER.size)
    if head[:4] != MAGIC:
        raise FormatError(f"bad checkpoint magic {head[:4]!r}")
    if size < _HEADER.size:
        raise FormatError(f"checkpoint header truncated at {size} of {_HEADER.size} bytes")
    _, version, meta_len = _HEADER.unpack(head)
    if version != VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    pos = _HEADER.size + meta_len
    if pos > size:
        raise FormatError(f"metadata of {meta_len} bytes runs past the end of the file")
    meta = _json_block(source.read(meta_len), "metadata")
    descriptor = normalize_descriptor(meta)

    weights = []
    for shape in descriptor.param_shapes():
        nbytes = 4 * math.prod(shape)
        if pos + nbytes > size:
            raise FormatError(f"weight block truncated: need {nbytes} bytes at offset {pos}")
        arr = np.empty(shape, dtype="<f4")
        if source.readinto(memoryview(arr).cast("B")) != nbytes:
            raise FormatError(f"weight block truncated: need {nbytes} bytes at offset {pos}")
        weights.append(arr)
        pos += nbytes

    rest = source.read()  # the history block: its length, then its JSON
    if len(rest) < 8:
        raise FormatError("missing history block")
    (hist_len,) = struct.unpack_from("<Q", rest)
    if 8 + hist_len != len(rest):
        raise FormatError(f"history length mismatch: expected end at {pos + 8 + hist_len}, "
                          f"file has {pos + len(rest)}")
    history = _json_block(rest[8:], "history")
    return Checkpoint(descriptor=descriptor, weights=tuple(weights), history=history)


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write ``ckpt`` to ``path``; a checkpoint that cannot be encoded
    raises before the file is opened, so an earlier one keeps its bytes."""
    data = checkpoint_to_bytes(ckpt)
    with open(path, "wb") as fh:
        fh.write(data)


def load_checkpoint(path) -> Checkpoint:
    """The checkpoint at ``path``, read from the open file."""
    with open(path, "rb") as fh:
        return checkpoint_from_bytes(fh)
