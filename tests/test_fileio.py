"""PGM round trips, PNG input, clamping and rounding on export."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from vtvrestore import (
    SolveResult,
    VTVError,
    fileio,
    quantize,
    read_image,
    write_pgm,
    write_trace_csv,
)
from vtvrestore.fileio import atomic_open, read_pgm


def test_pgm_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, size=(33, 17)).astype(np.float64)
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    back = read_pgm(path)
    assert back.dtype == np.float64
    assert np.array_equal(back, img)


# Each example overwrites the same file, so one tmp_path serves them all.
_FILE_PROPERTY = settings(
    max_examples=100, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@_FILE_PROPERTY
@given(h=st.integers(1, 40), w=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
@example(h=1, w=37, seed=0)
@example(h=37, w=1, seed=0)
def test_pgm_round_trip_on_random_images(tmp_path, h, w, seed):
    img = np.random.default_rng(seed).integers(0, 256, size=(h, w)).astype(np.float64)
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    assert np.array_equal(read_pgm(path), img)


_HEADER_TOKENS = st.one_of(
    st.sampled_from([b"P5", b"P2", b"255", b"256", b"0", b"1", b"2", b"3", b"-1", b"+2", b"0x3"]),
    st.integers(1, 6000).map(lambda n: b"1" * n),
    st.binary(min_size=1, max_size=3),
)
_SEPARATORS = st.sampled_from([b" ", b"\n", b"\r\n", b"\t", b"# note\n", b"#", b""])


@_FILE_PROPERTY
@given(
    header=st.lists(st.tuples(_HEADER_TOKENS, _SEPARATORS), max_size=6),
    raster=st.binary(max_size=40),
    keep=st.integers(0, 100),
)
@example(header=[(b"P5", b"\n"), (b"1" * 5000, b" "), (b"4", b"\n"), (b"255", b"\n")],
         raster=bytes(16), keep=100)
@example(header=[(b"P5", b"\n"), (b"2", b" "), (b"2", b"\n"), (b"255", b"\n")],
         raster=bytes(4), keep=100)
def test_fuzzed_pgm_gives_an_image_or_a_library_error(tmp_path, header, raster, keep):
    data = b"".join(token + sep for token, sep in header) + raster
    path = tmp_path / "fuzz.pgm"
    path.write_bytes(data[: len(data) * keep // 100])
    try:
        img = read_pgm(path)
    except VTVError:
        return
    assert img.ndim == 2 and img.size >= 1 and img.dtype == np.float64


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


def test_write_pgm_rejects_a_3d_array(tmp_path):
    path = tmp_path / "stack.pgm"
    with pytest.raises(VTVError, match="2-D"):
        write_pgm(path, np.zeros((2, 3, 4)))
    assert not path.exists()


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


class _RasterThatFails(np.ndarray):
    def tobytes(self, order="C"):
        raise OSError("disk full")


def _write_json_that_fails(path):
    # json.dump writes the first keys before it meets the value it cannot encode
    with atomic_open(path, "w", encoding="utf-8") as fh:
        json.dump({"iterations": 3, "seconds": object()}, fh)


@pytest.mark.parametrize("artifact", ["pgm", "trace", "json"])
def test_a_write_that_fails_midway_leaves_no_partial_file(tmp_path, monkeypatch, artifact):
    path = tmp_path / f"out.{artifact}"
    if artifact == "pgm":
        # the header is written, then the raster fails
        raster = np.zeros((2, 3), np.uint8).view(_RasterThatFails)
        monkeypatch.setattr(fileio, "quantize", lambda image: raster)
        with pytest.raises(OSError, match="disk full"):
            write_pgm(path, np.zeros((2, 3)))
    elif artifact == "trace":
        # the header and the first row are written, then the second row fails
        with pytest.raises(TypeError):
            write_trace_csv(
                path,
                SolveResult(u=None, iterations=2, trace=[0.5, None], energy_trace=[1.0, 2.0]),
            )
    else:
        with pytest.raises(TypeError):
            _write_json_that_fails(path)
    assert list(tmp_path.iterdir()) == []


def test_a_failed_write_keeps_the_earlier_artifact(tmp_path):
    path = tmp_path / "out_run.json"
    path.write_text("earlier run")
    with pytest.raises(TypeError):
        _write_json_that_fails(path)
    assert path.read_text() == "earlier run"
    assert list(tmp_path.iterdir()) == [path]


def test_atomic_open_writes_through_a_temporary_file(tmp_path):
    path = tmp_path / "img.pgm"
    with atomic_open(path, "wb") as fh:
        fh.write(b"P5")
        assert not path.exists() and Path(fh.name).parent == tmp_path
    assert path.read_bytes() == b"P5"
    assert [p.name for p in tmp_path.iterdir()] == ["img.pgm"]
