"""PGM round trips, PNG input, clamping and rounding on export."""

import numpy as np
import pytest

from vtvrestore import VTVError, quantize, read_image, write_pgm
from vtvrestore.fileio import read_pgm


def test_pgm_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, size=(33, 17)).astype(np.float64)
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    back = read_pgm(path)
    assert back.dtype == np.float64
    assert np.array_equal(back, img)


def test_quantize_rounds_half_away_from_zero():
    vals = np.array([[126.5, 127.49, -3.0, 300.0, 0.5, 254.5]])
    assert np.array_equal(quantize(vals), np.array([[127, 127, 0, 255, 1, 255]], dtype=np.uint8))


def test_pgm_header_comments(tmp_path):
    path = tmp_path / "c.pgm"
    raster = bytes(range(6))
    path.write_bytes(b"P5\n# a comment\n3 # trailing\n2\n# more\n255\n" + raster)
    img = read_pgm(path)
    assert img.shape == (2, 3)
    assert np.array_equal(img.ravel(), np.arange(6, dtype=np.float64))


def test_pgm_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
    with pytest.raises(VTVError):
        read_pgm(path)


def test_pgm_rejects_truncated_raster(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
    with pytest.raises(VTVError):
        read_pgm(path)


def test_png_round_trip(tmp_path):
    pil_image = pytest.importorskip("PIL.Image")
    rng = np.random.default_rng(1)
    img = rng.integers(0, 256, size=(12, 20)).astype(np.float64)
    path = tmp_path / "img.png"
    pil_image.fromarray(img.astype(np.uint8)).save(path)
    assert np.array_equal(read_image(path), img)


def test_unknown_extension(tmp_path):
    with pytest.raises(VTVError):
        read_image(tmp_path / "img.bmp")
