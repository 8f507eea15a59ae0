"""Pixel-grid primitives: circular convolution, operator symbols, diagonal
FFT solves and the PSNR metric.

Images are 2-D float64 arrays indexed ``(row, column)``.  Intensities follow
the [0, 255] convention but are never clamped inside the library; clamping
happens only on export (see :mod:`vtvrestore.fileio`).

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

import numpy as np

from .errors import DimensionMismatchError, SingularSymbolError

#: Frequency bins with modulus below this floor make a solve singular.
_EPS_DENOM = 1e-12


def as_kernel(taps) -> np.ndarray:
    """Validate convolution taps and return them as a float64 array.

    Both side lengths must be odd so that the kernel has a center tap.
    """
    k = np.asarray(taps, dtype=np.float64)
    if k.ndim != 2 or k.shape[0] % 2 == 0 or k.shape[1] % 2 == 0:
        raise DimensionMismatchError(
            f"kernel must be 2-D with odd side lengths, got shape {k.shape}"
        )
    return k


def conv_circular(image, kernel) -> np.ndarray:
    """Circular (periodic) convolution of an image with a small kernel.

    ``out[k, l] = sum_{p, q} image[(k - p) % h, (l - q) % w] * K(p, q)``

    Parameters
    ----------
    image : array, shape (..., h, w)
        One image, or a stack of images on the leading axes.
    kernel : array, odd-sized 2-D taps

    The wrap-around indexing makes this a total function for any image and
    kernel sizes >= 1.
    """
    f = np.asarray(image, dtype=np.float64)
    k = as_kernel(kernel)
    ry, rx = (k.shape[0] - 1) // 2, (k.shape[1] - 1) // 2
    out = np.zeros_like(f)
    for p in range(-ry, ry + 1):
        for q in range(-rx, rx + 1):
            tap = k[p + ry, q + rx]
            if tap != 0.0:
                out += tap * np.roll(f, (p, q), axis=(-2, -1))
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
    """``(rows, taps)``: the kernel embedded circularly in an ``shape`` grid.

    The center tap lands at index (0, 0) and negative offsets wrap;
    overlapping taps accumulate.  ``taps[i]`` is grid row ``rows[i]``; every
    other row of the grid is zero.
    """
    h, w = int(shape[0]), int(shape[1])
    if h < 1 or w < 1:
        raise DimensionMismatchError(f"grid must be at least 1x1, got {(h, w)}")
    k = as_kernel(kernel)
    ry, rx = (k.shape[0] - 1) // 2, (k.shape[1] - 1) // 2
    rows = sorted({p % h for p in range(-ry, ry + 1)})
    taps = np.zeros((len(rows), w))
    for p in range(-ry, ry + 1):
        for q in range(-rx, rx + 1):
            taps[rows.index(p % h), q % w] += k[p + ry, q + rx]
    return rows, taps


def kernel_symbol(kernel, shape) -> np.ndarray:
    """Frequency-domain transfer function of ``conv_circular`` on a grid.

    The kernel is embedded circularly into an ``shape``-sized zero grid with
    its center tap at index (0, 0) and negative offsets wrapped, then the
    forward 2-D DFT is taken.  Overlapping taps accumulate, which keeps the
    symbol exact even when the kernel is larger than the grid.

    Returns a complex array of shape ``(h, w)``, one value per frequency bin.
    """
    rows, taps = _wrapped_taps(kernel, shape)
    grid = np.zeros((int(shape[0]), int(shape[1])))
    grid[rows] = taps
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
    rows, taps = _wrapped_taps(kernel, shape)
    w = taps.shape[1]
    half = np.zeros((int(shape[0]), w // 2 + 1), dtype=np.complex128)
    half[rows] = np.fft.fft(taps, axis=-1)[:, : w // 2 + 1]
    return np.fft.fft(half, axis=0, out=half)


def nonsingular(half) -> np.ndarray:
    """Return the half symbol ``half`` once no bin of it is singular.

    Raises
    ------
    SingularSymbolError
        If any frequency bin has modulus below 1e-12, which signals an
        ill-posed solve (e.g. a blur with zero DC gain and no
        regularization).
    """
    smallest = np.min(np.abs(half))
    if smallest < _EPS_DENOM:
        raise SingularSymbolError(
            f"symbol has a bin with modulus {smallest:.3e} < {_EPS_DENOM:.3e}"
        )
    return half


def solve_diagonal(numerator, half, spectrum, out=None) -> np.ndarray:
    """Solve ``Op u = numerator`` for an operator with the given symbol.

    Computes ``IFFT(FFT(numerator) / symbol)``, the exact inverse of any real
    circular-convolution operator, over the half spectrum: ``half`` is the
    ``rfft2`` half of the operator's symbol (see :func:`half_symbol`),
    checked once by :func:`nonsingular`.  Runs the transforms of
    ``irfft2(rfft2(numerator) / half)`` in the complex ``spectrum`` buffer of
    ``half``'s shape, which it overwrites, so no other complex array is made
    and the result is bit for bit the same.  Returns a new array, or writes
    the result into the float64 array ``out`` of ``numerator``'s shape and
    returns ``out``.
    """
    num = np.asarray(numerator, dtype=np.float64)
    half = np.asarray(half)
    w = num.shape[-1]
    if half.shape != num.shape[:-1] + (w // 2 + 1,):
        raise DimensionMismatchError(
            f"half symbol shape {half.shape} does not fit numerator shape {num.shape}"
        )
    np.fft.rfft2(num, out=spectrum)
    spectrum /= half
    np.fft.ifft(spectrum, axis=-2, out=spectrum)
    return np.fft.irfft(spectrum, n=w, axis=-1, out=out)


def psnr(ref, test) -> float:
    """Peak signal-to-noise ratio in decibels against a 255 peak.

    ``10 * log10(255^2 * N / ||ref - test||^2)`` with ``N`` the pixel count.
    Returns ``math.inf`` when the images are identical and ``-math.inf``
    when the squared error overflows float64.
    """
    a = np.asarray(ref, dtype=np.float64)
    b = np.asarray(test, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shape mismatch: {a.shape} vs {b.shape}")
    with np.errstate(over="ignore"):
        err = float(np.sum((a - b) ** 2))
    if err == 0.0:
        return math.inf
    if err == math.inf:
        return -math.inf
    return 10.0 * math.log10(255.0 * 255.0 * a.size / err)
