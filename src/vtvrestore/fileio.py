"""Grayscale image and trace file I/O.

Binary PGM (P5, maxval 255) is read and written natively and round-trips
integer-valued images bit-exactly.  PNG input is optional and needs Pillow
(install the ``png`` extra); images are only written as PGM.

Export clamps intensities to [0, 255] and rounds half away from zero;
the solver itself never clamps.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import VTVError


def quantize(image) -> np.ndarray:
    """Clamp to [0, 255] and round half away from zero; returns uint8."""
    x = np.clip(np.asarray(image, dtype=np.float64), 0.0, 255.0)
    return np.floor(x + 0.5).astype(np.uint8)


def write_pgm(path, image) -> None:
    """Write an image as binary PGM (P5, maxval 255)."""
    q = quantize(image)
    if q.ndim != 2:
        raise VTVError(f"expected a 2-D image, got shape {q.shape}")
    h, w = q.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(q.tobytes())


def write_trace_csv(path, result) -> None:
    """Write a :class:`~vtvrestore.solver.SolveResult` trace as CSV:
    ``iter,rel_err,energy``.

    Floats carry 17 significant digits so the file round-trips exactly.
    The energy column is left empty when it was not recorded.
    """
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("iter,rel_err,energy\n")
        for j, rel in enumerate(result.trace, start=1):
            if result.energy_trace:
                fh.write(f"{j},{rel:.17g},{result.energy_trace[j - 1]:.17g}\n")
            else:
                fh.write(f"{j},{rel:.17g},\n")


def _pgm_header_tokens(data: bytes, count: int):
    """Yield `count` whitespace-separated header tokens, skipping comments.

    Returns the tokens and the offset of the first raster byte.
    """
    tokens = []
    i = 0
    while len(tokens) < count:
        if i >= len(data):
            raise VTVError("truncated PGM header")
        c = data[i : i + 1]
        if c == b"#":
            while i < len(data) and data[i : i + 1] not in (b"\n", b"\r"):
                i += 1
        elif c.isspace():
            i += 1
        else:
            j = i
            while j < len(data) and not data[j : j + 1].isspace() and data[j : j + 1] != b"#":
                j += 1
            tokens.append(data[i:j])
            i = j
    # exactly one whitespace byte separates the header from the raster
    if i >= len(data) or not data[i : i + 1].isspace():
        raise VTVError("malformed PGM header")
    return tokens, i + 1


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM (P5) file into a float64 image."""
    with open(path, "rb") as fh:
        data = fh.read()
    tokens, offset = _pgm_header_tokens(data, 4)
    if tokens[0] != b"P5":
        raise VTVError(f"not a binary PGM file: magic {tokens[0]!r}")
    if not all(t.isdigit() for t in tokens[1:]):
        fields = b" ".join(tokens[1:]).decode("ascii", "replace")
        raise VTVError(
            f"malformed PGM header: width, height and maxval must be integers, got {fields!r}"
        )
    w, h, maxval = (int(t) for t in tokens[1:])
    if w < 1 or h < 1:
        raise VTVError(f"PGM image must be at least 1x1, got {w}x{h}")
    if maxval != 255:
        raise VTVError(f"only maxval 255 is supported, got {maxval}")
    raster = data[offset : offset + w * h]
    if len(raster) != w * h:
        raise VTVError("truncated PGM raster")
    return np.frombuffer(raster, dtype=np.uint8).reshape(h, w).astype(np.float64)


def read_png(path) -> np.ndarray:
    """Read a PNG file into a float64 grayscale image (requires Pillow)."""
    pil = _require_pillow()
    with pil.open(path) as img:
        return np.asarray(img.convert("L"), dtype=np.float64)


def _require_pillow():
    try:
        from PIL import Image as pil_image
    except ImportError as exc:  # pragma: no cover
        raise VTVError(
            "PNG support needs Pillow; install the 'png' extra or use PGM"
        ) from exc
    return pil_image


def read_image(path) -> np.ndarray:
    """Read a grayscale image, dispatching on the file extension."""
    ext = os.path.splitext(str(path))[1].lower()
    if ext == ".pgm":
        return read_pgm(path)
    if ext == ".png":
        return read_png(path)
    raise VTVError(f"unsupported image format {ext!r} (use .pgm or .png)")
