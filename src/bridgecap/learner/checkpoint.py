"""Checkpoint serialization and head surgery.

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
verifies magic, version, and the exact weight byte count. It
round-trips bit-identically: save -> load -> forward matches at 32-bit
precision.
"""

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from ..errors import DomainError, FormatError
from .network import ArchitectureDescriptor, Network, normalize_descriptor

MAGIC = b"BCAP"
VERSION = 1
_HEADER = struct.Struct("<4sIQ")  # magic, version, meta length

_HISTORY_SERIES = ("train_acc", "train_loss", "val_acc", "val_loss")


@dataclass(frozen=True)
class Checkpoint:
    descriptor: ArchitectureDescriptor
    weights: tuple[np.ndarray, ...]
    history: dict
    version: int = VERSION

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
    meta = json.dumps(ckpt.descriptor.to_dict(), sort_keys=True, separators=(",", ":")).encode()
    hist = json.dumps(ckpt.history, sort_keys=True, separators=(",", ":")).encode()
    parts = [_HEADER.pack(MAGIC, ckpt.version, len(meta)), meta]
    parts.extend(arr.tobytes() for arr in weights)
    parts.append(struct.pack("<Q", len(hist)))
    parts.append(hist)
    return b"".join(parts)


def _json_block(raw: bytes, what: str) -> dict:
    try:
        value = json.loads(raw.decode("utf-8"))
    # UnicodeDecodeError and JSONDecodeError are ValueErrors; nesting too
    # deep for the parser raises RecursionError.
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"checkpoint {what} is not UTF-8 JSON: {exc}") from exc
    if not isinstance(value, dict):
        raise FormatError(f"checkpoint {what} is not a JSON object")
    return value


def checkpoint_from_bytes(data: bytes) -> Checkpoint:
    """Decode checkpoint bytes. Malformed bytes raise ``FormatError``; a
    well-formed descriptor that fails validation raises ``ConfigError``,
    as it would at construction."""
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
    try:
        descriptor = ArchitectureDescriptor.from_dict(meta)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"checkpoint metadata: bad or missing field {exc}") from exc

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
    return Checkpoint(descriptor=descriptor, weights=tuple(weights), history=history,
                      version=version)


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    with open(path, "wb") as fh:
        fh.write(checkpoint_to_bytes(ckpt))


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        return checkpoint_from_bytes(fh.read())


def reinit_head(ckpt: Checkpoint, new_class_count: int, seed: int,
                class_labels=None) -> Checkpoint:
    """Replace the final fully-connected layer with a freshly initialized
    head of the requested width; every other layer's bytes are copied
    unchanged. Training history does not carry over."""
    if new_class_count < 2:
        raise DomainError(f"head needs at least 2 classes, got {new_class_count}")
    labels = tuple(str(c) for c in (class_labels or range(1, new_class_count + 1)))
    if len(labels) != new_class_count:
        raise DomainError(f"{len(labels)} labels for {new_class_count} classes")

    specs = [dict(s) for s in ckpt.descriptor.layers]
    fc_indices = [i for i, s in enumerate(specs) if s["op"] == "fc"]
    if not fc_indices:
        raise DomainError("descriptor has no fully-connected layer to reinitialize")
    last_fc = fc_indices[-1]
    specs[last_fc]["n_out"] = new_class_count

    descriptor = normalize_descriptor(
        ArchitectureDescriptor(
            input_shape=ckpt.descriptor.input_shape,
            layers=tuple(specs),
            class_labels=labels,
            colour_mode=ckpt.descriptor.colour_mode,
        )
    )

    # Parameter index of the last fc's weight: two arrays per param layer.
    param_layer = sum(1 for s in specs[:last_fc] if s["op"] in ("conv", "fc"))
    w_idx = 2 * param_layer

    n_in = specs[last_fc]["n_in"]
    rng = np.random.default_rng(seed)
    a = np.sqrt(6.0 / (n_in + new_class_count))
    new_w = rng.uniform(-a, a, size=(n_in, new_class_count)).astype("<f4")
    new_b = np.zeros(new_class_count, dtype="<f4")

    weights = list(ckpt.weights)
    weights[w_idx] = new_w
    weights[w_idx + 1] = new_b
    return Checkpoint(descriptor=descriptor,
                      weights=_validate_weights(descriptor, weights), history={})
