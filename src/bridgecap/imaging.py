"""Image decoding, colour conversion, resizing, and batch loading.

The canonical on-disk format is binary PNM (P6 colour / P5 grayscale,
maxval 255): it is dependency-free and byte-exact, which keeps the
pipeline's image handling testable down to the bit. JPEG/PNG files are
readable through an optional Pillow adapter behind the same interface.

An image is a uint8 array shaped (height, width, channels), with 3
channels for colour and 1 for grayscale. The functions here make images
in that form, and ``encode_pnm``, which takes images from outside,
checks it.

The pipeline holds prepared images as one batch: ``load_batch`` returns
a C-contiguous uint8 array shaped (n, 3, height, width), 1 byte per
value where a float32 tensor takes 4. Only the batch being forwarded, or
a few images of it at a time, is scaled to floats in [0, 1], by
``pixels_to_tensor``. The colour mode,
one of ``COLOUR_MODES``, is the single vocabulary shared by dataset
specs, the CLI and model descriptors: ``rgb`` keeps the colour channels,
``grayscale`` feeds BT.601 luminance copied into all three, so one
network shape serves both.

Memory along ``load_batch``'s path, per image: ``load_image`` reads the
file into one bytes object and ``decode_pnm`` views its payload without
copying it. ``resize_bilinear`` gathers the four corner samples it
needs, works in float64 buffers of the output's size and returns a view
of a new channel-first uint8 array. ``to_pixels`` writes that once into
the image's row of the batch.
"""

import re
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import DomainError, FormatError

COLOUR_MODES = ("rgb", "grayscale")

# BT.601 luma weights scaled by 1000; integer arithmetic keeps the
# conversion exact (the weights sum to exactly 1000).
_LUMA_R, _LUMA_G, _LUMA_B = 299, 587, 114


_HEADER_SKIP = re.compile(rb"(?:[ \t\r\n\x0b\x0c]|#[^\n]*)*")
_HEADER_TOKEN = re.compile(rb"[^ \t\r\n\x0b\x0c]+")


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """Return the next whitespace-delimited header token and the offset
    just past it, skipping ``#`` comments."""
    pos = _HEADER_SKIP.match(data, pos).end()
    token = _HEADER_TOKEN.match(data, pos)
    if token is None:
        raise FormatError(f"unexpected end of header at offset {pos}")
    return token.group(), token.end()


def decode_pnm(data: bytes) -> np.ndarray:
    """Decode binary PNM bytes (P5 grayscale or P6 colour, maxval 255).

    The image is a read-only view of ``data``'s payload, not a copy.
    Raises FormatError (citing the byte offset or the expected vs actual
    payload length) on bad magic, unsupported maxval, or truncation.
    """
    if len(data) < 2:
        raise FormatError("input too short to hold a PNM header (offset 0)")
    magic = data[:2]
    if magic not in (b"P5", b"P6"):
        raise FormatError(f"bad magic {magic!r} at offset 0; expected P5 or P6")
    channels = 1 if magic == b"P5" else 3

    pos = 2
    fields = []
    for _ in range(3):
        token, pos = _next_token(data, pos)
        if not token.isdigit():
            raise FormatError(f"non-numeric header token {token!r} at offset {pos - len(token)}")
        fields.append(int(token))
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise FormatError(f"invalid dimensions {width}x{height}")
    if maxval != 255:
        raise FormatError(f"unsupported maxval {maxval} at offset {pos - len(str(maxval))}; only 255 is handled")

    # Exactly one whitespace byte separates the header from the payload.
    if pos >= len(data) or data[pos : pos + 1] not in b" \t\r\n\x0b\x0c":
        raise FormatError(f"missing whitespace after maxval at offset {pos}")
    pos += 1

    expected = width * height * channels
    if len(data) - pos != expected:
        raise FormatError(
            f"payload length mismatch: expected {expected} bytes, got {len(data) - pos}"
        )
    return np.frombuffer(data, dtype=np.uint8, offset=pos).reshape(height, width, channels)


def encode_pnm(img: np.ndarray) -> bytes:
    """Encode to canonical binary PNM: ``P6\\n{w} {h}\\n255\\n`` + payload,
    P5 for one channel. DomainError unless ``img`` is a uint8 (h, w, 1)
    or (h, w, 3) array."""
    if img.dtype != np.uint8 or img.ndim != 3 or img.shape[2] not in (1, 3):
        raise DomainError(f"an image must be a uint8 (h, w, 1) or (h, w, 3) array, "
                          f"got {img.dtype} {img.shape}")
    height, width, channels = img.shape
    magic = b"P5" if channels == 1 else b"P6"
    return magic + b"\n%d %d\n255\n" % (width, height) + img.tobytes()


def load_image(path) -> np.ndarray:
    """Read an image file. PNM is decoded natively from one read of the
    file; anything else goes through Pillow when it is installed. A file
    that cannot be decoded raises FormatError naming ``path``, whose
    ``__cause__`` is the reason without the path."""
    path = str(path)
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] in (b"P5", b"P6"):
        try:
            return decode_pnm(data)
        except FormatError as exc:
            raise FormatError(f"{path}: {exc}") from exc
    try:
        from PIL import Image
    except ImportError:
        reason = FormatError("not a binary PNM file and Pillow is not installed")
        raise FormatError(f"{path}: {reason}") from reason
    with Image.open(path) as im:
        if im.mode == "L":
            return np.asarray(im, dtype=np.uint8)[:, :, None]
        return np.asarray(im.convert("RGB"), dtype=np.uint8)


def to_grayscale(img: np.ndarray) -> np.ndarray:
    """BT.601 luminance of a colour image, as a (h, w, 1) image: Y =
    0.299 R + 0.587 G + 0.114 B, rounded half away from zero. Computed in
    integers, so (v, v, v) maps to exactly v."""
    px = img.astype(np.int64)
    y = (_LUMA_R * px[:, :, :1] + _LUMA_G * px[:, :, 1:2] + _LUMA_B * px[:, :, 2:] + 500) // 1000
    return y.astype(np.uint8)


@lru_cache(maxsize=32)
def _axis_coords(n_in: int, n_out: int):
    """Half-pixel source coordinates with edge clamping: the lower and
    upper sample index and the upper sample's weight per output position.
    Memoised, so the three (n_out,) arrays are read-only."""
    x = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
    x = np.clip(x, 0.0, n_in - 1)
    i0 = np.floor(x).astype(np.int64)
    i1 = np.minimum(i0 + 1, n_in - 1)
    coords = i0, i1, x - i0
    for a in coords:
        a.flags.writeable = False
    return coords


@lru_cache(maxsize=32)
def _column_index(n_in: int, n_out: int, channels: int):
    """``_axis_coords`` for the columns of an image row flattened to
    ``n_in * channels`` interleaved values: the lower and upper sample
    indices as (channels, n_out) arrays, one row per channel, plus the
    (n_out,) weights. Memoised and read-only."""
    i0, i1, w = _axis_coords(n_in, n_out)
    lanes = np.arange(channels)[:, None]
    index = i0 * channels + lanes, i1 * channels + lanes
    for a in index:
        a.flags.writeable = False
    return (*index, w)


def resize_bilinear(img: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Bilinear resize (not aspect-preserving). Resizing to the source
    dimensions returns ``img`` itself; uniform images stay uniform.

    The result is the (out_h, out_w, channels) view of a new C-contiguous
    uint8 (channels, out_h, out_w) array, so ``to_pixels`` copies it out
    in one block. Only the four corner samples of each output value are
    read from the source and converted to float64; the lerps run in
    place in four buffers of the output's size, each row holding one
    run of ``out_w`` values per channel, against the (out_w,) weight row.
    """
    if out_w < 1 or out_h < 1:
        raise DomainError(f"output dimensions must be >= 1, got {out_w}x{out_h}")
    height, width, channels = img.shape
    if (out_w, out_h) == (width, height):
        return img
    rows = img.reshape(height, width * channels)

    x0, x1, wx = _column_index(width, out_w, channels)
    y0, y1, wy = _axis_coords(height, out_h)

    # Gather the source rows, then from each the (channels, out_w)
    # samples: (out_h, channels, out_w), still uint8 until the cast.
    top_rows, bot_rows = rows.take(y0, axis=0), rows.take(y1, axis=0)
    a, b = (top_rows.take(x, axis=1).astype(np.float64) for x in (x0, x1))
    c, d = (bot_rows.take(x, axis=1).astype(np.float64) for x in (x0, x1))

    # Lerp form a + w*(b - a) is exact when a == b, which keeps an axis
    # resized to its own length and uniform images bit-stable. Each step
    # is a float64 operation of that expression on the same operands
    # (IEEE + and * commute), so the bytes do not depend on the layout.
    b -= a
    b *= wx
    b += a  # top
    d -= c
    d *= wx
    d += c  # bottom
    d -= b
    d *= wy[:, None, None]
    d += b
    d += 0.5
    np.floor(d, out=d)
    np.clip(d, 0, 255, out=d)

    planar = np.empty((channels, out_h, out_w), dtype=np.uint8)
    np.copyto(planar.transpose(1, 0, 2), d, casting="unsafe")
    return planar.transpose(1, 2, 0)


def to_pixels(img: np.ndarray, colour_mode: str = "rgb", out=None) -> np.ndarray:
    """The image as a C-contiguous uint8 (3, height, width) array:
    written into ``out`` when one is given, else into a new array, and
    returned.

    ``rgb`` keeps the three colour channels (grayscale input is
    replicated); ``grayscale`` converts colour input to luminance and
    copies it into all three channels. Beside that conversion, the
    pixels are copied once, from the image into the result.
    """
    if colour_mode not in COLOUR_MODES:
        raise DomainError(f"unknown colour mode {colour_mode!r}")
    if colour_mode == "grayscale" and img.shape[2] == 3:
        img = to_grayscale(img)
    shape = (3, *img.shape[:2])
    if out is None:
        out = np.empty(shape, dtype=np.uint8)
    elif out.shape != shape or out.dtype != np.uint8:
        raise DomainError(f"out must be a uint8 {shape} array, got {out.dtype} {out.shape}")
    out[...] = img.transpose(2, 0, 1)  # one channel spreads over three
    return out


def pixels_to_tensor(pixels: np.ndarray, dtype=np.float32) -> np.ndarray:
    """uint8 pixels scaled to ``dtype`` floats in [0, 1]: each value is
    ``dtype(v) / dtype(255)``, computed in one new array."""
    return _scale_pixels(pixels, dtype)


def _scale_pixels(pixels, dtype):
    """``pixels_to_tensor``'s work, which the learner calls from per-image
    slices on any thread. It is private so that a tracer that wraps the
    public functions (``perfbench/spans.py``) opens no span on a helper
    thread, where it would nest in whatever the calling thread has open."""
    out = pixels.astype(dtype)
    out /= out.dtype.type(255)
    return out


def load_batch(paths, image_root, colour_mode: str, size, rejects=None) -> np.ndarray:
    """The images at ``paths`` as one C-contiguous uint8 (n, 3, height,
    width) batch for a network input of ``size`` = (height, width): each
    is decoded, resized and colour-converted straight into its row. Paths
    are taken relative to ``image_root`` when one is given.

    An image that cannot be read or decoded raises, unless ``rejects`` is
    a list: then ``(path, reason)`` is appended to it and the batch holds
    the other images in order. The reason does not repeat the path: it is
    an OSError's strerror, or the cause a decode error wraps. A call holds
    one file's bytes and the resize's float64 buffers at a time, beside
    the batch; a ``Network`` scales uint8 input itself, chunk by chunk.
    """
    root = Path(image_root) if image_root else None
    height, width = size
    batch = np.empty((len(paths), 3, height, width), dtype=np.uint8)
    n = 0
    for path in paths:
        try:
            img = load_image(root / path if root else Path(path))
        except (OSError, FormatError) as exc:
            if rejects is None:
                raise
            rejects.append((path, str(getattr(exc, "strerror", None) or exc.__cause__ or exc)))
            continue
        to_pixels(resize_bilinear(img, width, height), colour_mode, batch[n])
        n += 1
    return batch[:n]
