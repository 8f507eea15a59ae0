"""Grayscale image and trace file I/O.

Images are binary PGM (P5, maxval 255), read and written natively; a
round trip keeps integer-valued images bit-exactly.

Export clamps intensities to [0, 255] and rounds half away from zero;
the solver itself never clamps.  Every file is written whole or not at all
(see :func:`atomic_open`).
"""

from __future__ import annotations

import contextlib
import os

import numpy as np

from .errors import VTVError
from .image import as_image, as_reals


def quantize(image) -> np.ndarray:
    """Clamp to [0, 255] and round half away from zero; returns uint8.

    ``image`` is real numbers of any shape (see
    :func:`~vtvrestore.image.as_reals`).
    """
    x = np.clip(as_reals(image, "image"), 0.0, 255.0)
    return np.floor(x + 0.5).astype(np.uint8)


@contextlib.contextmanager
def atomic_open(path, mode="w", **kwargs):
    """Open a temporary file next to ``path`` that replaces it when done.

    The temporary file lives in ``path``'s directory, so ``os.replace``
    renames it over ``path`` in one step once the block has written it.  If
    the block raises, the temporary file is removed and ``path`` is left as
    it was: a reader never sees a half-written file.
    """
    path = os.fspath(path)
    head, tail = os.path.split(path)
    temporary = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(temporary, mode, **kwargs) as fh:
            yield fh
        os.replace(temporary, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(temporary)
        raise


def write_pgm(path, image) -> None:
    """Write an image, checked by :func:`~vtvrestore.image.as_image`, as
    binary PGM (P5, maxval 255)."""
    q = quantize(as_image(image))
    h, w = q.shape
    with atomic_open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(q.tobytes())


def write_trace_csv(path, result) -> None:
    """Write a :class:`~vtvrestore.solver.SolveResult` trace as CSV:
    ``iter,rel_err,energy``, one row per iteration.

    The result must come from a solve with ``record_trace`` set, whose
    :meth:`~vtvrestore.solver.SplitBregman.advance` recorded one energy per
    iteration beside each relative change: a trace without one energy per
    iteration raises ``ValueError`` and leaves no file.  Floats carry 17
    significant digits so the file round-trips exactly.
    """
    rows = zip(result.trace, result.energy_trace, strict=True)
    with atomic_open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("iter,rel_err,energy\n")
        for j, (rel, energy) in enumerate(rows, start=1):
            fh.write(f"{j},{rel:.17g},{energy:.17g}\n")


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


def read_image(path) -> np.ndarray:
    """Read a binary PGM (P5, maxval 255) file into a float64 image.

    Any other extension than ``.pgm``, and any file that is not such a PGM,
    raises :class:`~vtvrestore.errors.VTVError`.
    """
    ext = os.path.splitext(str(path))[1].lower()
    if ext != ".pgm":
        raise VTVError(f"unsupported image format {ext!r} (use .pgm)")
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
    try:
        w, h, maxval = (int(t) for t in tokens[1:])
    except ValueError:  # more digits than Python converts
        digits = max(len(t) for t in tokens[1:])
        raise VTVError(f"malformed PGM header: a field has {digits} digits") from None
    if w < 1 or h < 1:
        raise VTVError(f"PGM image must be at least 1x1, got {w}x{h}")
    if maxval != 255:
        raise VTVError(f"only maxval 255 is supported, got {maxval}")
    raster = data[offset : offset + w * h]
    if len(raster) != w * h:
        raise VTVError("truncated PGM raster")
    return np.frombuffer(raster, dtype=np.uint8).reshape(h, w).astype(np.float64)
