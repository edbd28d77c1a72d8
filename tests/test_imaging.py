import numpy as np
import pytest

from bridgecap import imaging
from bridgecap.errors import DomainError, FormatError


def rgb(rows):
    return imaging.RgbImage(np.array(rows, dtype=np.uint8))


class TestPnmCodec:
    def test_single_red_pixel(self):
        img = imaging.decode_pnm(b"P6\n1 1\n255\n\xff\x00\x00")
        assert isinstance(img, imaging.RgbImage)
        assert img.width == img.height == 1
        assert img.pixels.tolist() == [[[255, 0, 0]]]

    def test_round_trip_is_lossless(self):
        rng = np.random.default_rng(3)
        img = imaging.RgbImage(rng.integers(0, 256, (7, 5, 3)).astype(np.uint8))
        data = imaging.encode_pnm(img)
        assert imaging.encode_pnm(imaging.decode_pnm(data)) == data

        gray = imaging.GrayImage(rng.integers(0, 256, (4, 9)).astype(np.uint8))
        data = imaging.encode_pnm(gray)
        decoded = imaging.decode_pnm(data)
        assert isinstance(decoded, imaging.GrayImage)
        assert imaging.encode_pnm(decoded) == data

    def test_header_comments_and_whitespace(self):
        img = imaging.decode_pnm(b"P5 # comment\n# another\n 2\t1 \n255\n\x00\xff")
        assert img.pixels.tolist() == [[0, 255]]

    def test_truncated_payload_cites_lengths(self):
        with pytest.raises(FormatError, match="expected 3 bytes, got 2"):
            imaging.decode_pnm(b"P6\n1 1\n255\n\xff\x00")

    def test_bad_magic(self):
        with pytest.raises(FormatError, match="magic"):
            imaging.decode_pnm(b"P3\n1 1\n255\n000")

    def test_bad_maxval(self):
        with pytest.raises(FormatError, match="maxval"):
            imaging.decode_pnm(b"P6\n1 1\n65535\n\x00\x00\x00\x00\x00\x00")


class TestGrayscale:
    def test_primaries(self):
        img = rgb([[[255, 0, 0], [0, 255, 0], [0, 0, 255]]])
        assert imaging.to_grayscale(img).pixels.tolist() == [[76, 150, 29]]

    def test_neutral_triple_passthrough(self):
        assert imaging.to_grayscale(rgb([[[100, 100, 100]]])).pixels[0, 0] == 100

    def test_identity_on_all_256_gray_levels(self):
        v = np.arange(256, dtype=np.uint8)
        img = imaging.RgbImage(np.stack([v, v, v], axis=1).reshape(1, 256, 3))
        assert (imaging.to_grayscale(img).pixels[0] == v).all()

    def test_rounding_half_away_from_zero(self):
        # 0.299*5 = 1.495 -> 1; 0.299*15 = 4.485 -> 4; 0.114*250 = 28.5 -> 29
        img = rgb([[[5, 0, 0], [15, 0, 0], [0, 0, 250]]])
        assert imaging.to_grayscale(img).pixels[0].tolist() == [1, 4, 29]


class TestResize:
    def test_same_dims_identity(self):
        rng = np.random.default_rng(11)
        img = imaging.RgbImage(rng.integers(0, 256, (64, 64, 3)).astype(np.uint8))
        out = imaging.resize_bilinear(img, 64, 64)
        assert (out.pixels == img.pixels).all()

    def test_monotone_upscale(self):
        img = imaging.GrayImage(np.array([[0, 255]], dtype=np.uint8))
        out = imaging.resize_bilinear(img, 4, 1)
        values = out.pixels[0].astype(int)
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[0] == 0 and values[-1] == 255

    def test_uniform_preserved(self):
        img = imaging.RgbImage(np.full((5, 7, 3), 137, dtype=np.uint8))
        out = imaging.resize_bilinear(img, 13, 3)
        assert (out.pixels == 137).all()

    def test_zero_dim_rejected(self):
        img = imaging.GrayImage(np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(DomainError):
            imaging.resize_bilinear(img, 0, 2)


class TestToTensor:
    def test_range_and_scale(self):
        img = rgb([[[255, 0, 128]]])
        t = imaging.to_tensor(img, "rgb")
        assert t.shape == (3, 1, 1)
        assert t.max() <= 1.0 and t.min() >= 0.0
        assert t[0, 0, 0] == pytest.approx(1.0)

    def test_grayscale_composes_luminance(self):
        t = imaging.to_tensor(rgb([[[255, 0, 0]]]), "grayscale")
        assert t.shape == (3, 1, 1)
        assert np.allclose(t, 76 / 255)

    def test_all_black(self):
        t = imaging.to_tensor(rgb([[[0, 0, 0]]]), "rgb")
        assert (t == 0).all()

    def test_tensor_range_random_images(self):
        rng = np.random.default_rng(5)
        for mode in imaging.COLOUR_MODES:
            img = imaging.RgbImage(rng.integers(0, 256, (9, 4, 3)).astype(np.uint8))
            t = imaging.to_tensor(img, mode)
            assert t.min() >= 0.0 and t.max() <= 1.0
