"""Pixel-grid primitives: circular convolution, operator symbols, diagonal
FFT solves and the PSNR metric.

Images are 2-D float64 arrays indexed ``(row, column)``.  Intensities follow
the [0, 255] convention but are never clamped inside the library; clamping
happens only on export (see :mod:`vtvrestore.fileio`).  Every entry point
that takes an array from a caller converts it with :func:`as_stack`, the
one decision of what a real ``(..., h, w)`` stack is; those that take one
image check it with :func:`as_image`, built on it.  Both rest on
:func:`as_reals`, the one rule of what real numbers are, which also
converts the solver's weights and the shrinkage's values and thresholds.
:func:`is_integer` is the one rule of what an integer setting is.

A kernel is a small 2-D array with odd side lengths whose center tap sits at
the middle index: a ``(2*ry+1, 2*rx+1)`` array stores tap ``K(p, q)`` at
``[p + ry, q + rx]`` for ``p in [-ry, ry]``, ``q in [-rx, rx]``.

All boundary handling is periodic, so every operator built here is exactly
diagonal in the 2-D DFT basis.  The *symbol* of a kernel is its per-frequency
complex transfer function: multiplying an image's DFT by the symbol and
inverting reproduces the circular convolution.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError, NotRealError, SingularSymbolError

#: Frequency bins with modulus below this floor make a solve singular.
_EPS_DENOM = 1e-12


def as_reals(x, name="value") -> np.ndarray:
    """The one conversion of real numbers a caller passes in; returns them as float64.

    ``x`` must be a number, or an array (or nested sequence) of them, of
    bool, integer or floating type, of any shape, 0-D included.  Anything
    else, complex or object values, a string or a ragged list, is a
    :class:`~vtvrestore.errors.NotRealError`.  A float64 ndarray is
    returned itself, not a copy.  Only the dtype and the shape are read.
    ``name`` names ``x`` in the error.
    """
    try:
        a = np.asarray(x)
    except ValueError as exc:  # a ragged nested sequence
        raise NotRealError(f"expected real numbers for {name}: {exc}") from None
    if a.dtype.kind not in "biuf":
        raise NotRealError(f"expected real numbers for {name}, got {a.dtype} of shape {a.shape}")
    return a.astype(np.float64, copy=False)


def is_integer(value) -> bool:
    """``value`` is an integer, numpy's included, and not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def as_stack(x, name="image") -> np.ndarray:
    """The one conversion of an array a caller passes in; returns it as float64.

    ``x`` must be real numbers (see :func:`as_reals`) with at least two
    axes: one image or a stack of images, ``(..., h, w)``, empty grids
    included.  Fewer axes are a
    :class:`~vtvrestore.errors.DimensionMismatchError`.  A float64 ndarray
    is returned itself, not a copy.  ``name`` names ``x`` in the error.
    """
    a = as_reals(x, name)
    if a.ndim < 2:
        raise DimensionMismatchError(
            f"expected a real {name} of shape (..., h, w), got {a.dtype} of shape {a.shape}"
        )
    return a


def as_image(x, shape=None, name="image") -> np.ndarray:
    """The one check of an image a caller passes in; returns it as float64.

    ``x`` is converted by :func:`as_stack` and must also be a non-empty 2-D
    image, of ``shape`` where one is given; another shape is a
    :class:`~vtvrestore.errors.DimensionMismatchError`, and a NaN or Inf
    entry a :class:`~vtvrestore.errors.NonFiniteError`.  A float64 ndarray
    is returned itself, not a copy.  ``name`` names ``x`` in the error.
    """
    a = as_stack(x, name)
    if a.ndim != 2 or a.size == 0 or a.shape != (shape or a.shape):
        raise DimensionMismatchError(
            f"expected a non-empty real 2-D {name} of shape {shape or '(h, w)'}, got {a.shape}"
        )
    if not np.isfinite(a).all():
        raise NonFiniteError(f"{name} contains NaN or Inf")
    return a


def as_kernel(taps) -> np.ndarray:
    """Convolution taps checked by :func:`as_image`, as a float64 array.

    Both side lengths must also be odd, so that the kernel has a center tap.
    """
    k = as_image(taps, name="kernel")
    if k.shape[0] % 2 == 0 or k.shape[1] % 2 == 0:
        raise DimensionMismatchError(f"kernel must have odd side lengths, got shape {k.shape}")
    return k


def conv_circular(image, kernel) -> np.ndarray:
    """Circular (periodic) convolution of an image with a small kernel.

    ``out[k, l] = sum_{p, q} image[(k - p) % h, (l - q) % w] * K(p, q)``

    Parameters
    ----------
    image : array, shape (..., h, w)
        One image, or a stack of images on the leading axes (see
        :func:`as_stack`).
    kernel : array, odd-sized 2-D taps

    The wrap-around indexing makes this a total function for any image and
    kernel sizes >= 1.  The kernel is first folded onto the grid (see
    :func:`_wrapped_taps`), so there is one roll per distinct shift, at most
    ``h * w``, not one per tap, taken in the order the kernel first reaches
    the shifts.  Where the kernel fits the grid no two taps share a shift,
    and the sum is the tap-by-tap one.
    """
    f = as_stack(image)
    rows, cols, taps = _wrapped_taps(kernel, [max(n, 1) for n in f.shape[-2:]])
    out = np.zeros_like(f)
    for r, row in zip(rows.tolist(), taps.tolist()):
        for c, tap in zip(cols.tolist(), row):
            if tap != 0.0:
                out += tap * np.roll(f, (r, c), axis=(-2, -1))
    return out


def conv_adjoint(image, kernel) -> np.ndarray:
    """Adjoint of :func:`conv_circular` with the same kernel.

    Equals circular convolution with the point-reflected kernel
    ``K(p, q) -> K(-p, -q)``, so that
    ``<conv_circular(u, K), v> == <u, conv_adjoint(v, K)>`` holds for all
    ``u, v``.
    """
    return conv_circular(image, np.flip(as_kernel(kernel)))


def _wrapped_taps(kernel, shape):
    """``(rows, cols, taps)``: the kernel folded onto an ``shape`` grid.

    Tap ``K(p, q)`` lands on cell ``(p % h, q % w)``, so the center tap is
    at (0, 0) and negative offsets wrap; the taps that land on one cell are
    summed in the kernel's row-major order.  ``taps[i, j]`` is cell
    ``(rows[i], cols[j])``, and every other cell of the grid is zero.
    ``rows`` and ``cols`` are in the order the kernel first reaches them.
    (Row ``i`` of a ``ky``-row kernel has offset ``i - ky // 2``, so it
    lands on grid row ``(i - ky // 2) % h``, which row ``i % h`` reaches
    first; likewise for columns.)
    """
    h, w = int(shape[0]), int(shape[1])
    if h < 1 or w < 1:
        raise DimensionMismatchError(f"grid must be at least 1x1, got {(h, w)}")
    k = as_kernel(kernel)
    ky, kx = k.shape
    taps = np.zeros((min(ky, h), min(kx, w)))
    np.add.at(taps, (np.arange(ky)[:, None] % h, np.arange(kx) % w), k)
    rows = (np.arange(taps.shape[0]) - ky // 2) % h
    cols = (np.arange(taps.shape[1]) - kx // 2) % w
    return rows, cols, taps


def kernel_symbol(kernel, shape) -> np.ndarray:
    """Frequency-domain transfer function of ``conv_circular`` on a grid.

    The kernel is embedded circularly into an ``shape``-sized zero grid with
    its center tap at index (0, 0) and negative offsets wrapped, then the
    forward 2-D DFT is taken.  Overlapping taps accumulate, which keeps the
    symbol exact even when the kernel is larger than the grid.

    Returns a complex array of shape ``(h, w)``, one value per frequency bin.
    """
    rows, cols, taps = _wrapped_taps(kernel, shape)
    grid = np.zeros((int(shape[0]), int(shape[1])))
    grid[np.ix_(rows, cols)] = taps
    return np.fft.fft2(grid)


def half_symbol(kernel, shape) -> np.ndarray:
    """The ``rfft2`` half of :func:`kernel_symbol`, built without the full grid.

    Equals ``kernel_symbol(kernel, shape)[:, : w // 2 + 1]`` bit for bit: it
    runs the transforms :func:`numpy.fft.fft2` runs (rows first, then
    columns), but the row transform only on the rows the kernel's taps land
    on, since a zero row transforms to zeros, and the column transform only
    on the ``w // 2 + 1`` columns kept.  A real operator's symbol is
    Hermitian, ``symbol[-k] == conj(symbol[k])``, so these columns determine
    it; they are what :func:`solve_diagonal` divides by.
    """
    rows, cols, taps = _wrapped_taps(kernel, shape)
    w = int(shape[1])
    wide = np.zeros((len(rows), w))
    wide[:, cols] = taps
    half = np.zeros((int(shape[0]), w // 2 + 1), dtype=np.complex128)
    half[rows] = np.fft.fft(wide, axis=-1)[:, : w // 2 + 1]
    return np.fft.fft(half, axis=0, out=half)


def nonsingular(half) -> np.ndarray:
    """Return the half symbol ``half`` once no bin of it is singular.

    A solve inverts it then, once: :func:`solve_diagonal` multiplies by the
    reciprocal.

    Raises
    ------
    SingularSymbolError
        If any frequency bin has modulus below 1e-12, which signals an
        ill-posed solve (e.g. a blur with zero DC gain and no
        regularization), or is NaN.
    """
    smallest = np.min(np.abs(half))
    if not smallest >= _EPS_DENOM:
        raise SingularSymbolError(
            f"symbol has a bin with modulus {smallest:.3e}, not >= {_EPS_DENOM:.3e}"
        )
    return half


def _whole(fn, n: int) -> None:
    """``fn(0, n)``: one range, in the calling thread."""
    fn(0, n)


def solve_diagonal(numerator, inverse, spectrum, out=None, split=_whole) -> np.ndarray:
    """Solve ``Op u = numerator`` for an operator with the given symbol.

    Computes ``IFFT(FFT(numerator) * (1 / symbol))``, the exact inverse of any
    real circular-convolution operator, over the half spectrum: ``inverse``
    is the reciprocal of the ``rfft2`` half of the operator's symbol (see
    :func:`half_symbol`), checked once by :func:`nonsingular` and inverted
    once by the caller.  Runs the transforms of
    ``irfft2(rfft2(numerator) / half)`` in the complex ``spectrum`` buffer of
    ``inverse``'s shape, which it overwrites, so no other complex array is
    made.  numpy divides a complex ``a + bi`` by a real ``c`` as
    ``(a * (1/c), b * (1/c))``, so the result is bit for bit the same, but
    for the sign of a zero.  ``numerator`` is a non-empty 2-D array (see
    :func:`as_stack`).  Returns a new array, or writes the result into the
    float64 array ``out`` of ``numerator``'s shape and returns ``out``.
    ``out`` may share bytes with ``numerator``: the first pass reads all of
    it before ``out`` is written.

    After the first pass, the row transforms' DC column is checked: a DC
    bin is a row's sum, built from additions only, so it is NaN or Inf
    exactly when the row holds a NaN or Inf or its sum overflows.  Then the
    solve raises :class:`~vtvrestore.errors.NonFiniteError` before ``out``
    is written.  All three passes compute past the float range without
    warnings: a finite numerator whose solve overflows writes its Inf or
    NaN into ``out``, for the caller's own check to report (as
    :meth:`~vtvrestore.solver.SplitBregman.advance` does), never a warning.

    The solve is three passes: ``rfft`` over the rows; per range of columns,
    ``fft`` down them, the multiply and ``ifft`` back; ``irfft`` over the
    rows.  ``split(fn, n)`` runs each pass as ``fn(start, stop)`` over
    contiguous ranges that cover its ``n`` rows or columns, possibly on
    several threads, and returns once all have ended (a
    :meth:`~vtvrestore.frames.Sweep.split`); by default one range runs in
    the calling thread.  Every 1-D transform is the same however the passes
    are split, so no result depends on it.
    """
    num = as_stack(numerator, "numerator")
    inverse = np.asarray(inverse)
    if num.ndim != 2 or num.size == 0 or inverse.shape != (num.shape[0], num.shape[1] // 2 + 1):
        raise DimensionMismatchError(
            f"numerator {num.shape} is empty, not 2-D or unfit for half symbol {inverse.shape}"
        )
    h, w = num.shape
    if out is None:
        out = np.empty(num.shape)

    def columns(c0, c1):
        block = spectrum[:, c0:c1]
        np.fft.fft(block, axis=0, out=block)
        block *= inverse[:, c0:c1]
        np.fft.ifft(block, axis=0, out=block)

    with np.errstate(over="ignore", invalid="ignore"):  # the checks report them
        split(lambda r0, r1: np.fft.rfft(num[r0:r1], axis=-1, out=spectrum[r0:r1]), h)
        if not np.isfinite(spectrum[:, 0]).all():
            raise NonFiniteError("iterate contains NaN or Inf: a numerator row's sum is not finite")
        split(columns, w // 2 + 1)
        split(lambda r0, r1: np.fft.irfft(spectrum[r0:r1], n=w, axis=-1, out=out[r0:r1]), h)
    return out


def psnr(ref, test) -> float:
    """Peak signal-to-noise ratio in decibels against a 255 peak.

    ``10 * log10(255^2 * N / ||ref - test||^2)`` with ``N`` the pixel count.
    Returns ``math.inf`` when the images are identical and ``-math.inf``
    when the squared error overflows float64.
    """
    a = as_image(ref)
    b = as_image(test, a.shape)
    with np.errstate(over="ignore"):
        err = float(np.sum((a - b) ** 2))
    if err == 0.0:
        return math.inf
    if err == math.inf:
        return -math.inf
    return 10.0 * math.log10(255.0 * 255.0 * a.size / err)
