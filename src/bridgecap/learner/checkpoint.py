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
"""

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
    weights = _validate_weights(ckpt.descriptor, ckpt.weights)
    meta = dumps(ckpt.descriptor, "checkpoint metadata").encode()
    hist = dumps(ckpt.history, "checkpoint history").encode()
    parts = [_HEADER.pack(MAGIC, VERSION, len(meta)), meta]
    parts.extend(arr.tobytes() for arr in weights)
    parts.append(struct.pack("<Q", len(hist)))
    parts.append(hist)
    return b"".join(parts)


def _json_block(raw: bytes, what: str) -> dict:
    value = loads(raw, f"checkpoint {what}")
    if not isinstance(value, dict):
        raise FormatError(f"checkpoint {what} is not a JSON object")
    return value


def checkpoint_from_bytes(data: bytes) -> Checkpoint:
    """Decode checkpoint bytes. Malformed bytes raise ``FormatError``. A
    descriptor that fails validation, a missing field included (once a
    FormatError), raises ``ConfigError`` as at construction. Both exit 2."""
    if data[:4] != MAGIC:
        raise FormatError(f"bad checkpoint magic {data[:4]!r}")
    if len(data) < _HEADER.size:
        raise FormatError(f"checkpoint header truncated at {len(data)} of {_HEADER.size} bytes")
    _, version, meta_len = _HEADER.unpack_from(data)
    if version != VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    meta_end = _HEADER.size + meta_len
    if meta_end > len(data):
        raise FormatError(f"metadata of {meta_len} bytes runs past the end of the file")
    meta = _json_block(data[_HEADER.size : meta_end], "metadata")
    descriptor = normalize_descriptor(meta)

    weights = []
    pos = meta_end
    for shape in descriptor.param_shapes():
        count = math.prod(shape)
        if pos + 4 * count > len(data):
            raise FormatError(
                f"weight block truncated: need {4 * count} bytes at offset {pos}"
            )
        weights.append(np.frombuffer(data, dtype="<f4", count=count,
                                     offset=pos).reshape(shape).copy())
        pos += 4 * count

    if pos + 8 > len(data):
        raise FormatError("missing history block")
    (hist_len,) = struct.unpack_from("<Q", data, pos)
    pos += 8
    if pos + hist_len != len(data):
        raise FormatError(
            f"history length mismatch: expected end at {pos + hist_len}, file has {len(data)}"
        )
    history = _json_block(data[pos:], "history")
    return Checkpoint(descriptor=descriptor, weights=tuple(weights), history=history)


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write ``ckpt`` to ``path``; a checkpoint that cannot be encoded
    raises before the file is opened, so an earlier one keeps its bytes."""
    data = checkpoint_to_bytes(ckpt)
    with open(path, "wb") as fh:
        fh.write(data)


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        return checkpoint_from_bytes(fh.read())
