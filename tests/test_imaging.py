import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bridgecap import imaging
from bridgecap.errors import DomainError, FormatError

# Reproducible property runs that leave no example database behind.
PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=150)


def rgb(rows):
    return np.array(rows, dtype=np.uint8)


class TestPnmCodec:
    def test_single_red_pixel(self):
        img = imaging.decode_pnm(b"P6\n1 1\n255\n\xff\x00\x00")
        assert img.dtype == np.uint8 and img.shape == (1, 1, 3)
        assert img.tolist() == [[[255, 0, 0]]]

    def test_round_trip_is_lossless(self):
        rng = np.random.default_rng(3)
        img = rng.integers(0, 256, (7, 5, 3)).astype(np.uint8)
        data = imaging.encode_pnm(img)
        assert imaging.encode_pnm(imaging.decode_pnm(data)) == data

        gray = rng.integers(0, 256, (4, 9, 1)).astype(np.uint8)
        data = imaging.encode_pnm(gray)
        decoded = imaging.decode_pnm(data)
        assert decoded.shape == (4, 9, 1)
        assert imaging.encode_pnm(decoded) == data

    def test_header_comments_and_whitespace(self):
        img = imaging.decode_pnm(b"P5 # comment\n# another\n 2\t1 \n255\n\x00\xff")
        assert img.tolist() == [[[0], [255]]]

    @pytest.mark.parametrize("img", [np.zeros((2, 3, 3), np.int64), np.zeros((2, 3), np.uint8),
                                     np.zeros((2, 3, 2), np.uint8), np.zeros((2, 3, 3, 1), np.uint8)],
                             ids=["int64", "no_channel_axis", "two_channels", "four_axes"])
    def test_encode_rejects_what_is_not_an_image(self, img):
        with pytest.raises(DomainError, match=r"uint8 \(h, w, 1\) or \(h, w, 3\)"):
            imaging.encode_pnm(img)

    def test_truncated_payload_cites_lengths(self):
        with pytest.raises(FormatError, match="expected 3 bytes, got 2"):
            imaging.decode_pnm(b"P6\n1 1\n255\n\xff\x00")

    def test_bad_magic(self):
        with pytest.raises(FormatError, match="magic"):
            imaging.decode_pnm(b"P3\n1 1\n255\n000")

    def test_bad_maxval(self):
        with pytest.raises(FormatError, match="maxval"):
            imaging.decode_pnm(b"P6\n1 1\n65535\n\x00\x00\x00\x00\x00\x00")


def random_image(seed, height, width, gray):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, (height, width, 1 if gray else 3)).astype(np.uint8)


class TestPnmRoundTrip:
    @PROPERTY
    @given(height=st.integers(1, 40), width=st.integers(1, 40), gray=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_encode_decode_round_trip(self, height, width, gray, seed):
        img = random_image(seed, height, width, gray)
        data = imaging.encode_pnm(img)
        decoded = imaging.decode_pnm(data)
        assert decoded.shape == img.shape
        assert decoded.tobytes() == img.tobytes()
        assert imaging.encode_pnm(decoded) == data


class TestGrayscale:
    def test_primaries(self):
        img = rgb([[[255, 0, 0], [0, 255, 0], [0, 0, 255]]])
        assert imaging.to_grayscale(img).tolist() == [[[76], [150], [29]]]

    def test_neutral_triple_passthrough(self):
        assert imaging.to_grayscale(rgb([[[100, 100, 100]]]))[0, 0, 0] == 100

    def test_identity_on_all_256_gray_levels(self):
        v = np.arange(256, dtype=np.uint8)
        img = np.stack([v, v, v], axis=1).reshape(1, 256, 3)
        assert (imaging.to_grayscale(img)[0, :, 0] == v).all()

    def test_rounding_half_away_from_zero(self):
        # 0.299*5 = 1.495 -> 1; 0.299*15 = 4.485 -> 4; 0.114*250 = 28.5 -> 29
        img = rgb([[[5, 0, 0], [15, 0, 0], [0, 0, 250]]])
        assert imaging.to_grayscale(img)[0, :, 0].tolist() == [1, 4, 29]


class TestResize:
    def test_same_dims_identity(self):
        rng = np.random.default_rng(11)
        img = rng.integers(0, 256, (64, 64, 3)).astype(np.uint8)
        out = imaging.resize_bilinear(img, 64, 64)
        assert (out == img).all()

    def test_monotone_upscale(self):
        img = np.array([[[0], [255]]], dtype=np.uint8)
        out = imaging.resize_bilinear(img, 4, 1)
        assert out.shape == (1, 4, 1)
        values = out[0, :, 0].astype(int)
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[0] == 0 and values[-1] == 255

    def test_uniform_preserved(self):
        img = np.full((5, 7, 3), 137, dtype=np.uint8)
        out = imaging.resize_bilinear(img, 13, 3)
        assert out.shape == (3, 13, 3) and (out == 137).all()

    def test_zero_dim_rejected(self):
        img = np.zeros((2, 2, 1), dtype=np.uint8)
        with pytest.raises(DomainError):
            imaging.resize_bilinear(img, 0, 2)


def float_first_resize(img, out_w, out_h):
    """The resize ``resize_bilinear`` replaced, kept as its oracle: it
    converts the whole image to float64 before gathering the corners."""
    px = img.astype(np.float64)
    x0, x1, wx = imaging._axis_coords(img.shape[1], out_w)
    y0, y1, wy = imaging._axis_coords(img.shape[0], out_h)
    wx = wx[None, :, None]
    wy = wy[:, None, None]
    top = px[y0][:, x0] + wx * (px[y0][:, x1] - px[y0][:, x0])
    bot = px[y1][:, x0] + wx * (px[y1][:, x1] - px[y1][:, x0])
    out = top + wy * (bot - top)
    return np.clip(np.floor(out + 0.5), 0, 255).astype(np.uint8)


class TestResizeOracle:
    @PROPERTY
    @given(height=st.integers(1, 80), width=st.integers(1, 80),
           out_h=st.integers(1, 80), out_w=st.integers(1, 80),
           gray=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @example(height=80, width=80, out_h=7, out_w=13, gray=False, seed=1)  # downscale
    @example(height=80, width=80, out_h=7, out_w=13, gray=True, seed=2)
    @example(height=3, width=5, out_h=80, out_w=64, gray=False, seed=3)  # upscale
    @example(height=3, width=5, out_h=80, out_w=64, gray=True, seed=4)
    def test_matches_float_first_bytes(self, height, width, out_h, out_w, gray, seed):
        img = random_image(seed, height, width, gray)
        out = imaging.resize_bilinear(img, out_w, out_h)
        expected = float_first_resize(img, out_w, out_h)
        assert out.shape == expected.shape and out.dtype == np.uint8
        assert out.tobytes() == expected.tobytes()


def to_tensor(img, mode):
    """The float32 tensor a network sees for ``img``: its pixels, scaled."""
    return imaging.pixels_to_tensor(imaging.to_pixels(img, mode))


class TestToTensor:
    def test_range_and_scale(self):
        img = rgb([[[255, 0, 128]]])
        t = to_tensor(img, "rgb")
        assert t.shape == (3, 1, 1)
        assert t.max() <= 1.0 and t.min() >= 0.0
        assert t[0, 0, 0] == pytest.approx(1.0)

    def test_grayscale_composes_luminance(self):
        t = to_tensor(rgb([[[255, 0, 0]]]), "grayscale")
        assert t.shape == (3, 1, 1)
        assert np.allclose(t, 76 / 255)

    def test_all_black(self):
        t = to_tensor(rgb([[[0, 0, 0]]]), "rgb")
        assert (t == 0).all()

    def test_tensor_range_random_images(self):
        rng = np.random.default_rng(5)
        for mode in imaging.COLOUR_MODES:
            img = rng.integers(0, 256, (9, 4, 3)).astype(np.uint8)
            t = to_tensor(img, mode)
            assert t.min() >= 0.0 and t.max() <= 1.0

    @PROPERTY
    @given(height=st.integers(1, 24), width=st.integers(1, 24), gray=st.booleans(),
           mode=st.sampled_from(imaging.COLOUR_MODES), seed=st.integers(0, 2**32 - 1))
    def test_is_the_scaled_pixels(self, height, width, gray, mode, seed):
        # Decoded from P5 or P6 bytes, so the pixels are a read-only view.
        img = imaging.decode_pnm(imaging.encode_pnm(random_image(seed, height, width, gray)))
        pixels = imaging.to_pixels(img, mode)
        assert pixels.dtype == np.uint8 and pixels.shape == (3, height, width)
        assert pixels.flags.c_contiguous and pixels.flags.writeable
        tensor = to_tensor(img, mode)
        assert tensor.dtype == np.float32
        assert tensor.tobytes() == imaging.pixels_to_tensor(pixels).tobytes()
        # The scaling the classifier has always seen: float32(v) / float32(255).
        assert tensor.tobytes() == (pixels.astype(np.float32) / np.float32(255.0)).tobytes()
        if gray or mode == "grayscale":
            expected = imaging.to_grayscale(img) if not gray else img
            assert (pixels == np.moveaxis(expected, 2, 0)).all()
        else:
            assert (pixels == np.moveaxis(img, 2, 0)).all()

    def test_pixels_to_tensor_in_float64(self):
        pixels = np.arange(256, dtype=np.uint8).reshape(1, 1, 256)
        out = imaging.pixels_to_tensor(pixels, np.float64)
        assert out.dtype == np.float64
        assert out.tobytes() == (np.arange(256, dtype=np.float64) / 255.0).tobytes()


class TestLoader:
    @pytest.mark.parametrize("mode", imaging.COLOUR_MODES)
    @pytest.mark.parametrize("gray", [False, True], ids=["P6", "P5"])
    @pytest.mark.parametrize("size", [(6, 5), (11, 14)], ids=["same", "resized"])
    def test_returns_contiguous_uint8_pixels(self, tmp_path, mode, gray, size):
        # The image between two of the other kind, so a batch mixes P5 and P6.
        paths = ["a.pnm", "i.pnm", "b.pnm"]
        for seed, path in enumerate(paths):
            img = random_image(9 + seed, 6, 5, gray if path == "i.pnm" else not gray)
            (tmp_path / path).write_bytes(imaging.encode_pnm(img))
        out = imaging.load_batch(paths, tmp_path, mode, size)
        assert out.dtype == np.uint8 and out.shape == (3, 3, *size)
        assert out.flags.c_contiguous
        height, width = size
        for row, path in zip(out, paths):
            img = imaging.load_image(tmp_path / path)
            expected = imaging.to_pixels(imaging.resize_bilinear(img, width, height), mode)
            assert row.tobytes() == expected.tobytes()


class TestLoaderIntoRow:
    @PROPERTY
    @given(height=st.integers(1, 80), width=st.integers(1, 80),
           out_h=st.integers(1, 80), out_w=st.integers(1, 80), gray=st.booleans(),
           mode=st.sampled_from(imaging.COLOUR_MODES), seed=st.integers(0, 2**32 - 1))
    @example(height=64, width=64, out_h=16, out_w=16, gray=False, mode="rgb", seed=1)
    @example(height=9, width=7, out_h=9, out_w=7, gray=True, mode="grayscale", seed=2)
    def test_row_holds_the_oracle_bytes_and_nothing_else_moves(
            self, tmp_path_factory, height, width, out_h, out_w, gray, mode, seed):
        img = random_image(seed, height, width, gray)
        root = tmp_path_factory.mktemp("loader")
        (root / "i.pnm").write_bytes(imaging.encode_pnm(img))
        (root / "u.pnm").write_bytes(imaging.encode_pnm(np.full((3, 2, 3), 0xA5, np.uint8)))
        batch = imaging.load_batch(["u.pnm", "i.pnm", "u.pnm"], root, mode, (out_h, out_w))
        expected = imaging.to_pixels(float_first_resize(img, out_w, out_h), mode)
        assert batch[1].tobytes() == expected.tobytes()
        for other in (0, 2):  # a uniform image resizes and converts to itself
            assert (batch[other] == 0xA5).all()


class TestAxisCoords:
    def test_memoised_arrays_are_read_only_and_equal_across_calls(self):
        first = imaging._axis_coords(256, 64)
        again = imaging._axis_coords(256, 64)
        for a, b in zip(first, again):
            assert not a.flags.writeable
            assert a.tobytes() == b.tobytes()
            with pytest.raises(ValueError):
                a[0] = 0

    def test_column_index_addresses_interleaved_values(self):
        i0, i1, w = imaging._axis_coords(10, 4)
        c0, c1, cw = imaging._column_index(10, 4, 3)
        assert c0.shape == c1.shape == (3, 4)
        assert (c0 == i0 * 3 + np.arange(3)[:, None]).all()
        assert (c1 == i1 * 3 + np.arange(3)[:, None]).all()
        assert cw is w and not c0.flags.writeable and not c1.flags.writeable


class TestToPixelsOut:
    @pytest.mark.parametrize("mode", imaging.COLOUR_MODES)
    @pytest.mark.parametrize("gray", [False, True], ids=["rgb", "gray"])
    def test_returns_out_holding_the_pixels(self, mode, gray):
        img = random_image(21, 6, 4, gray)
        out = np.zeros((3, 6, 4), dtype=np.uint8)
        assert imaging.to_pixels(img, mode, out=out) is out
        assert out.tobytes() == imaging.to_pixels(img, mode).tobytes()

    @pytest.mark.parametrize("out", [np.zeros((3, 4, 6), np.uint8), np.zeros((3, 6, 4)),
                                     np.zeros((1, 6, 4), np.uint8)])
    def test_out_of_another_shape_or_dtype_is_rejected(self, out):
        with pytest.raises(DomainError, match="out must be"):
            imaging.to_pixels(random_image(2, 6, 4, False), "rgb", out=out)


class TestLoadImage:
    def test_decode_error_names_the_file(self, tmp_path):
        path = tmp_path / "cut.pnm"
        path.write_bytes(imaging.encode_pnm(random_image(1, 3, 2, False))[:-1])
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: payload length"):
            imaging.load_image(path)


class TestLoadBatchRejects:
    PATHS = ["a.pnm", "cut.pnm", "b.pnm", "gone.pnm", "x.gif", "c.pnm"]

    def write(self, root):
        for seed, name in enumerate(("a.pnm", "b.pnm", "c.pnm")):
            (root / name).write_bytes(imaging.encode_pnm(random_image(seed, 5, 4, seed == 1)))
        (root / "cut.pnm").write_bytes(imaging.encode_pnm(random_image(3, 3, 2, False))[:-1])
        (root / "x.gif").write_bytes(b"GIF89a" + bytes(11))

    def test_rejects_keep_their_order_and_the_rest_fill_the_batch(self, tmp_path, monkeypatch):
        import errno
        import os

        monkeypatch.setitem(sys.modules, "PIL", None)  # as if Pillow were not installed
        self.write(tmp_path)
        rejects = []
        batch = imaging.load_batch(self.PATHS, tmp_path, "rgb", (6, 6), rejects)
        assert rejects == [
            ("cut.pnm", "payload length mismatch: expected 18 bytes, got 17"),
            ("gone.pnm", os.strerror(errno.ENOENT)),
            ("x.gif", "not a binary PNM file and Pillow is not installed"),
        ]
        assert batch.shape == (3, 3, 6, 6) and batch.flags.c_contiguous
        kept = imaging.load_batch(["a.pnm", "b.pnm", "c.pnm"], tmp_path, "rgb", (6, 6))
        assert batch.tobytes() == kept.tobytes()

    def test_without_a_reject_list_the_first_bad_image_raises(self, tmp_path):
        self.write(tmp_path)
        with pytest.raises(FormatError, match=f"^{re.escape(str(tmp_path / 'cut.pnm'))}: "):
            imaging.load_batch(self.PATHS, tmp_path, "rgb", (6, 6))


def mutate(data, ops):
    """``data`` after each (kind, position, byte) edit in turn: cut
    everything from the position on, xor the byte there with a non-zero
    mask, or insert a byte before it."""
    for kind, position, value in ops:
        at = position % (len(data) + 1)
        if kind == "cut":
            data = data[:at]
        elif kind == "flip" and at < len(data):
            data = data[:at] + bytes([data[at] ^ (value or 1)]) + data[at + 1:]
        elif kind == "insert":
            data = data[:at] + bytes([value]) + data[at:]
    return data


class TestPnmFuzz:
    @settings(derandomize=True, deadline=None, database=None, max_examples=1000)
    @given(height=st.integers(1, 6), width=st.integers(1, 6), gray=st.booleans(),
           seed=st.integers(0, 2**32 - 1),
           ops=st.lists(st.tuples(st.sampled_from(("cut", "flip", "insert")),
                                  st.integers(0, 2**16), st.integers(0, 255)),
                        min_size=1, max_size=4))
    @example(height=2, width=3, gray=False, seed=0, ops=[("insert", 2, ord("#"))])
    @example(height=2, width=3, gray=True, seed=0, ops=[("flip", 0, 0x05)])  # P5 -> P0
    @example(height=2, width=3, gray=True, seed=0, ops=[("cut", 3, 0)])  # header ends early
    def test_edited_file_decodes_or_is_format_error(self, height, width, gray, seed, ops):
        data = mutate(imaging.encode_pnm(random_image(seed, height, width, gray)), ops)
        try:
            img = imaging.decode_pnm(data)
        except FormatError:
            return
        assert img.dtype == np.uint8 and img.ndim == 3 and img.shape[2] in (1, 3)
        assert img.size <= len(data)


def looped_next_token(data, pos):
    """The byte-at-a-time header tokenizer ``_next_token`` replaced, kept
    as its oracle."""
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


def token_or_error(next_token, data, pos):
    try:
        return next_token(data, pos)
    except FormatError as exc:
        return str(exc)


# Mostly the bytes a header is made of, so comments, runs of whitespace
# and early ends are common.
HEADER_BYTES = st.binary(max_size=40) | st.lists(
    st.sampled_from(list(b" \t\r\n\x0b\x0c#P5 255\x00\xff")), max_size=40).map(bytes)


class TestHeaderTokens:
    @settings(PROPERTY, max_examples=1000)
    @given(data=HEADER_BYTES, start=st.integers(0, 40))
    @example(data=b"# no newline", start=0)
    @example(data=b"  #c\n#d\n12#x 3", start=0)
    @example(data=b"\x0b\x0c", start=1)
    def test_equals_the_byte_loop(self, data, start):
        start = min(start, len(data))
        assert (token_or_error(imaging._next_token, data, start)
                == token_or_error(looped_next_token, data, start))
