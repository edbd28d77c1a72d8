"""Image decoding, colour conversion, resizing, and tensor preparation.

The canonical on-disk format is binary PNM (P6 colour / P5 grayscale,
maxval 255): it is dependency-free and byte-exact, which keeps the
pipeline's image handling testable down to the bit. JPEG/PNG files are
readable through an optional Pillow adapter behind the same interface.

Tensors handed to the classifier are float32 arrays shaped (3, height,
width) with values in [0, 1]. The colour mode, one of ``COLOUR_MODES``,
is the single vocabulary shared by dataset specs, the CLI and model
descriptors: ``rgb`` keeps the colour channels, ``grayscale`` feeds BT.601
luminance copied into all three, so one network shape serves both.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError, FormatError

COLOUR_MODES = ("rgb", "grayscale")

# BT.601 luma weights scaled by 1000; integer arithmetic keeps the
# conversion exact (the weights sum to exactly 1000).
_LUMA_R, _LUMA_G, _LUMA_B = 299, 587, 114


@dataclass(frozen=True)
class RgbImage:
    """8-bit colour image; ``pixels`` is a (height, width, 3) uint8 array."""

    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=np.uint8)
        if px.ndim != 3 or px.shape[2] != 3:
            raise DomainError(f"RGB pixel array must be (h, w, 3), got {px.shape}")
        object.__setattr__(self, "pixels", px)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


@dataclass(frozen=True)
class GrayImage:
    """8-bit luminance image; ``pixels`` is a (height, width) uint8 array."""

    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=np.uint8)
        if px.ndim != 2:
            raise DomainError(f"gray pixel array must be (h, w), got {px.shape}")
        object.__setattr__(self, "pixels", px)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """Return the next whitespace-delimited header token and the offset
    just past it, skipping ``#`` comments."""
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c in b" \t\r\n\x0b\x0c":
            pos += 1
        elif c == b"#":
            while pos < n and data[pos : pos + 1] != b"\n":
                pos += 1
        else:
            break
    if pos >= n:
        raise FormatError(f"unexpected end of header at offset {pos}")
    start = pos
    while pos < n and data[pos : pos + 1] not in b" \t\r\n\x0b\x0c":
        pos += 1
    return data[start:pos], pos


def decode_pnm(data: bytes) -> RgbImage | GrayImage:
    """Decode binary PNM bytes (P5 grayscale or P6 colour, maxval 255).

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
    payload = data[pos:]
    if len(payload) != expected:
        raise FormatError(
            f"payload length mismatch: expected {expected} bytes, got {len(payload)}"
        )
    arr = np.frombuffer(payload, dtype=np.uint8)
    if channels == 1:
        return GrayImage(arr.reshape(height, width))
    return RgbImage(arr.reshape(height, width, 3))


def encode_pnm(img: RgbImage | GrayImage) -> bytes:
    """Encode to canonical binary PNM: ``P6\\n{w} {h}\\n255\\n`` + payload."""
    if isinstance(img, RgbImage):
        magic = b"P6"
    elif isinstance(img, GrayImage):
        magic = b"P5"
    else:
        raise DomainError(f"cannot encode {type(img).__name__}")
    header = magic + b"\n%d %d\n255\n" % (img.width, img.height)
    return header + img.pixels.tobytes()


def load_image(path) -> RgbImage | GrayImage:
    """Read an image file. PNM is decoded natively; anything else goes
    through Pillow when it is installed."""
    path = str(path)
    with open(path, "rb") as fh:
        head = fh.read(2)
        fh.seek(0)
        data = fh.read()
    if head in (b"P5", b"P6"):
        return decode_pnm(data)
    try:
        from PIL import Image
    except ImportError:
        raise FormatError(
            f"{path}: not a binary PNM file and Pillow is not installed"
        ) from None
    with Image.open(path) as im:
        if im.mode == "L":
            return GrayImage(np.asarray(im, dtype=np.uint8))
        return RgbImage(np.asarray(im.convert("RGB"), dtype=np.uint8))


def to_grayscale(img: RgbImage) -> GrayImage:
    """BT.601 luminance: Y = 0.299 R + 0.587 G + 0.114 B, rounded half
    away from zero. Computed in integers, so (v, v, v) maps to exactly v."""
    px = img.pixels.astype(np.int64)
    y = (_LUMA_R * px[:, :, 0] + _LUMA_G * px[:, :, 1] + _LUMA_B * px[:, :, 2] + 500) // 1000
    return GrayImage(y.astype(np.uint8))


def _axis_coords(n_in: int, n_out: int):
    """Half-pixel source coordinates with edge clamping."""
    x = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
    x = np.clip(x, 0.0, n_in - 1)
    i0 = np.floor(x).astype(np.int64)
    i1 = np.minimum(i0 + 1, n_in - 1)
    return i0, i1, x - i0


def resize_bilinear(img: RgbImage | GrayImage, out_w: int, out_h: int):
    """Bilinear resize (not aspect-preserving). Resizing to the source
    dimensions returns ``img`` itself; uniform images stay uniform."""
    if out_w < 1 or out_h < 1:
        raise DomainError(f"output dimensions must be >= 1, got {out_w}x{out_h}")
    if (out_w, out_h) == (img.width, img.height):
        return img
    gray = isinstance(img, GrayImage)
    px = img.pixels.astype(np.float64)
    if gray:
        px = px[:, :, None]

    x0, x1, wx = _axis_coords(img.width, out_w)
    y0, y1, wy = _axis_coords(img.height, out_h)
    wx = wx[None, :, None]
    wy = wy[:, None, None]

    # Lerp form a + w*(b - a) is exact when a == b, which keeps an axis
    # resized to its own length and uniform images bit-stable.
    top = px[y0][:, x0] + wx * (px[y0][:, x1] - px[y0][:, x0])
    bot = px[y1][:, x0] + wx * (px[y1][:, x1] - px[y1][:, x0])
    out = top + wy * (bot - top)

    out = np.clip(np.floor(out + 0.5), 0, 255).astype(np.uint8)
    return GrayImage(out[:, :, 0]) if gray else RgbImage(out)


def to_tensor(img: RgbImage | GrayImage, colour_mode: str = "rgb") -> np.ndarray:
    """Produce a float32 (3, height, width) tensor scaled to [0, 1].

    ``rgb`` keeps the three colour channels (grayscale input is
    replicated); ``grayscale`` converts colour input to luminance and
    copies it into all three channels.
    """
    if colour_mode not in COLOUR_MODES:
        raise DomainError(f"unknown colour mode {colour_mode!r}")
    if colour_mode == "grayscale" and isinstance(img, RgbImage):
        img = to_grayscale(img)
    if isinstance(img, GrayImage):
        chans = np.repeat(img.pixels[None, :, :], 3, axis=0)
    else:
        chans = np.moveaxis(img.pixels, 2, 0)
    return chans.astype(np.float32) / np.float32(255.0)


def make_loader(image_root, colour_mode: str, size):
    """Per-image tensor pipeline for a network input of ``size`` =
    (height, width): decode, resize, colour-convert, scale to [0, 1].
    Paths are taken relative to ``image_root`` when one is given."""
    root = Path(image_root) if image_root else None
    height, width = size

    def load(path: str) -> np.ndarray:
        img = load_image(root / path if root else Path(path))
        return to_tensor(resize_bilinear(img, width, height), colour_mode)

    return load
