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
EPS_DENOM = 1e-12


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


def kernel_flip(kernel) -> np.ndarray:
    """Point reflection ``K(p, q) -> K(-p, -q)``, i.e. the adjoint kernel."""
    return np.flip(as_kernel(kernel))


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

    Equals circular convolution with the flipped kernel, so that
    ``<conv_circular(u, K), v> == <u, conv_adjoint(v, K)>`` holds for all
    ``u, v``.
    """
    return conv_circular(image, kernel_flip(kernel))


def kernel_symbol(kernel, shape) -> np.ndarray:
    """Frequency-domain transfer function of ``conv_circular`` on a grid.

    The kernel is embedded circularly into an ``shape``-sized zero grid with
    its center tap at index (0, 0) and negative offsets wrapped, then the
    forward 2-D DFT is taken.  Overlapping taps accumulate, which keeps the
    symbol exact even when the kernel is larger than the grid.

    Returns a complex array of shape ``(h, w)``, one value per frequency bin.
    """
    h, w = int(shape[0]), int(shape[1])
    if h < 1 or w < 1:
        raise DimensionMismatchError(f"grid must be at least 1x1, got {(h, w)}")
    k = as_kernel(kernel)
    ry, rx = (k.shape[0] - 1) // 2, (k.shape[1] - 1) // 2
    grid = np.zeros((h, w))
    for p in range(-ry, ry + 1):
        for q in range(-rx, rx + 1):
            grid[p % h, q % w] += k[p + ry, q + rx]
    return np.fft.fft2(grid)


def identity_symbol(shape) -> np.ndarray:
    """Symbol of the identity operator: one at every frequency."""
    return np.ones((int(shape[0]), int(shape[1])), dtype=np.complex128)


def half_spectrum(symbol, eps: float = EPS_DENOM) -> np.ndarray:
    """The half of a real operator's symbol that :func:`solve_diagonal` divides by.

    A real operator's symbol is Hermitian, ``symbol[-k] == conj(symbol[k])``,
    so the columns ``0 .. w // 2`` that the real transforms
    ``rfft2``/``irfft2`` keep determine it.  Returns them as a new array.

    Raises
    ------
    SingularSymbolError
        If any frequency bin of ``symbol`` has modulus below ``eps``, which
        signals an ill-posed solve (e.g. a blur with zero DC gain and no
        regularization).
    """
    sym = np.asarray(symbol)
    half = sym[..., : sym.shape[-1] // 2 + 1].copy()
    smallest = np.min(np.abs(half))
    if smallest < eps:
        raise SingularSymbolError(
            f"symbol has a bin with modulus {smallest:.3e} < {eps:.3e}"
        )
    return half


def solve_diagonal(numerator, half_symbol) -> np.ndarray:
    """Solve ``Op u = numerator`` for an operator with the given symbol.

    Computes ``IFFT(FFT(numerator) / symbol)``, the exact inverse of any real
    circular-convolution operator, over the half spectrum: ``half_symbol`` is
    the operator's symbol as :func:`half_spectrum` returns it, checked there
    once.  Returns a new array.
    """
    num = np.asarray(numerator, dtype=np.float64)
    half = np.asarray(half_symbol)
    if half.shape != num.shape[:-1] + (num.shape[-1] // 2 + 1,):
        raise DimensionMismatchError(
            f"half symbol shape {half.shape} does not fit numerator shape {num.shape}"
        )
    spectrum = np.fft.rfft2(num)
    spectrum /= half
    return np.fft.irfft2(spectrum, s=num.shape)


def psnr(ref, test) -> float:
    """Peak signal-to-noise ratio in decibels against a 255 peak.

    ``10 * log10(255^2 * N / ||ref - test||^2)`` with ``N`` the pixel count.
    Returns ``math.inf`` when the images are identical.
    """
    a = np.asarray(ref, dtype=np.float64)
    b = np.asarray(test, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shape mismatch: {a.shape} vs {b.shape}")
    err = float(np.sum((a - b) ** 2))
    if err == 0.0:
        return math.inf
    return 10.0 * math.log10(255.0 * 255.0 * a.size / err)
