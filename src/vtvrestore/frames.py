"""Tight-frame feature operators from small convolution filter banks.

A filter bank maps an image to a stack of feature images, one circular
convolution per channel.  The piecewise-linear B-spline bank built here has
nine 3x3 kernels (one lowpass, eight detail) and satisfies the perfect
reconstruction identity: analysis followed by adjoint synthesis is the
identity, which :func:`verify_uep` checks in the frequency domain.

:class:`FrameGradient` fuses the bank with the forward-difference gradient
into one stencil, the form the solver iterates with, and a :class:`Sweep`
runs it over the row blocks of one grid; :func:`analyze` and the
:mod:`~vtvrestore.diffops` gradient stay the spatial references.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .diffops import FORWARD_DIFF_X, FORWARD_DIFF_Y
from .errors import ChannelMismatchError, DimensionMismatchError
from .image import as_kernel, conv_adjoint, conv_circular, kernel_symbol


@dataclass(eq=False)
class FilterBank:
    """An ordered, non-empty set of convolution kernels, one per channel.

    ``FilterBank(kernels)`` checks each kernel with
    :func:`~vtvrestore.image.as_kernel` and stores them as a tuple of
    float64 arrays.  Treated as immutable once constructed.  Banks compare
    and hash by identity: an element-wise comparison of the kernel arrays
    has no single truth value.
    """

    kernels: tuple

    def __post_init__(self):
        self.kernels = tuple(as_kernel(k) for k in self.kernels)
        if not self.kernels:
            raise ChannelMismatchError("a filter bank needs at least one kernel")

    @property
    def m(self) -> int:
        """Channel count."""
        return len(self.kernels)

    @functools.cached_property
    def frame_gradient(self) -> "FrameGradient":
        """The bank's fused gradient stencil, built on first use."""
        return FrameGradient(self)


def _offset_taps(kernel) -> dict:
    """``{(p, q): K(p, q)}`` over the kernel's centred offsets."""
    k = as_kernel(kernel)
    ry, rx = (k.shape[0] - 1) // 2, (k.shape[1] - 1) // 2
    return {
        (p - ry, q - rx): float(k[p, q])
        for p in range(k.shape[0])
        for q in range(k.shape[1])
    }


def _compose(outer, inner) -> dict:
    """Taps by offset of ``conv_circular(conv_circular(u, inner), outer)``."""
    taps: dict = {}
    for (p, q), a in _offset_taps(inner).items():
        for (s, t), b in _offset_taps(outer).items():
            taps[(p + s, q + t)] = taps.get((p + s, q + t), 0.0) + a * b
    return taps


#: Pixels per row block of a :class:`Sweep`: a block's 15 shifted planes
#: (about 2 MB for the B-spline bank) stay in cache while the caller
#: finishes the block.
BLOCK_PIXELS = 1 << 14


def _block_rows(h: int, w: int) -> int:
    """Rows per block of an ``(h, w)`` grid: about :data:`BLOCK_PIXELS` pixels."""
    return min(max(1, BLOCK_PIXELS // w), h)


def _wrap_rows(src, start: int, out) -> None:
    """``out[i] = src[(start + i) % len(src)]`` for every row ``i`` of ``out``.

    One slice copy per wrap, so a transposed view wraps columns the same way.
    (``np.take(..., mode="wrap")`` gathers element by element: with it a
    256x256 step took about 10% longer.)
    """
    n = src.shape[0]
    i = 0
    while i < out.shape[0]:
        r = (start + i) % n
        count = min(n - r, out.shape[0] - i)
        out[i : i + count] = src[r : r + count]
        i += count


def _fold(acc, top: int, left: int, h: int, w: int) -> np.ndarray:
    """Add the wrap padding of ``acc`` back onto the ``(h, w)`` image it pads.

    ``acc[top + r, left + c]`` stands for pixel ``(r mod h, c mod w)``, for
    pads of any width.  Returns the image as a view into ``acc``.
    """
    body = acc[top : top + h]
    for i in (*range(top), *range(top + h, acc.shape[0])):
        body[(i - top) % h] += acc[i]
    out = body[:, left : left + w]
    for j in (*range(left), *range(left + w, acc.shape[1])):
        out[:, (j - left) % w] += body[:, j]
    return out


class FrameGradient:
    """``grad(analyze(u, bank))`` as one circular stencil, and its adjoint.

    Each component ``grad(conv_circular(u, K_i))[c]`` is itself a circular
    convolution, with ``K_i`` composed with the forward difference
    ``FORWARD_DIFF_X`` or ``FORWARD_DIFF_Y``.  Over the union of the composed
    kernels' offsets (15 for the 3x3 B-spline bank), the whole operator is
    the dense ``(2m, n)`` matrix :attr:`taps` applied to the ``n`` shifted
    copies ``np.roll(u, offsets[j])``: a single matrix product, whose row
    ``2 i + c`` is the ``(m, 2, h, w)`` layout of :func:`analyze` followed by
    :func:`~vtvrestore.diffops.grad`.  The adjoint applies the transposed
    matrix and adds the planes back with the opposite shifts.

    Both directions run over row blocks of about :data:`BLOCK_PIXELS`
    pixels, so only one block's shifted planes exist at a time: a
    :class:`Sweep` holds one grid's scratch and runs the blocks, and
    :meth:`apply` and :meth:`adjoint` are its shortest users.

    Built once per bank (see :attr:`FilterBank.frame_gradient`); it holds no
    per-image state.
    """

    def __init__(self, bank: FilterBank):
        rows = [
            _compose(diff, k)
            for k in bank.kernels
            for diff in (FORWARD_DIFF_X, FORWARD_DIFF_Y)
        ]
        offsets = sorted({o for row in rows for o, tap in row.items() if tap != 0.0})
        taps = np.array([[row.get(o, 0.0) for o in offsets] for row in rows])
        taps.flags.writeable = False
        self.m = bank.m
        #: ``(dy, dx)`` shift of each column of :attr:`taps`.
        self.offsets = tuple(offsets)
        #: ``(2m, n)`` read-only tap matrix; row ``2 i + c`` is channel ``i``,
        #: gradient component ``c`` (0 for x, 1 for y).
        self.taps = taps
        # plane (dy, dx) at pixel (r, c) reads u[r - dy, c - dx], so the
        # padding is max(dy) rows above, -min(dy) below, likewise for columns
        dys, dxs = zip((0, 0), *offsets)
        self._pad = ((max(dys), -min(dys)), (max(dxs), -min(dxs)))

    def apply(self, u) -> np.ndarray:
        """``grad(analyze(u, bank))`` as a new ``(m, 2, h, w)`` stack."""
        f = np.asarray(u, dtype=np.float64)
        out = np.empty((self.m, 2) + f.shape)
        for rows, g in Sweep(self, f.shape).blocks(f):
            out[:, :, rows] = g
        return out

    def adjoint(self, p, weights=None) -> np.ndarray:
        """``sum_i weights[i] * conv_adjoint(grad_adjoint(p[i]), K_i)``.

        ``p`` is an ``(m, 2, h, w)`` field and ``weights`` default to ones.
        Returns a new ``(h, w)`` image.
        """
        q = np.asarray(p, dtype=np.float64)
        if q.ndim != 4 or q.shape[:2] != (self.m, 2):
            raise ChannelMismatchError(
                f"expected an ({self.m}, 2, h, w) field, got shape {q.shape}"
            )
        sweep = Sweep(self, q.shape[2:], weights)
        for rows in sweep.rows():
            sweep.add(rows, q[:, :, rows])
        return sweep.fold()

    def normal_kernel(self, weights) -> np.ndarray:
        """Kernel of ``sum_i weights[i] F_i* G* G F_i``, ``adjoint(apply(u), weights)``.

        The Gram matrix ``taps.T @ diag(repeat(weights, 2)) @ taps`` laid out
        by offset difference (7x7 for the B-spline bank).
        """
        gram = self.taps.T @ (np.repeat(weights, 2)[:, None] * self.taps)
        offsets = np.array(self.offsets, dtype=int).reshape(-1, 2)
        # entry (k, j) reads u[x - o_j] and adds it back at x - o_k
        diffs = offsets[None] - offsets[:, None]
        ry, rx = np.abs(diffs).reshape(-1, 2).max(axis=0, initial=0)
        kernel = np.zeros((2 * ry + 1, 2 * rx + 1))
        np.add.at(kernel, (ry + diffs[..., 0], rx + diffs[..., 1]), gram)
        return kernel


class Sweep:
    """Passes of a :class:`FrameGradient` over the row blocks of one grid.

    Holds all the stencil's scratch on an ``(h, w)`` grid, made once: the
    padded rows of one block, its shifted planes, its ``(m, 2, rows, w)``
    output, the taps and the ``weights``-weighted transposed taps of the
    adjoint (default weights one), all of ``dtype``, float64 or float32;
    and a float64 wrap-padded accumulator.  But for the accumulator, their
    size is set by :data:`BLOCK_PIXELS`, not by ``h``.

    :meth:`blocks` yields the stencil's output one block at a time, while it
    is still in cache; :meth:`add` applies the weighted transposed taps to
    one block of a field and scatter-adds the planes, with the opposite
    shifts, into the accumulator; :meth:`fold` adds its pad back modulo ``h``
    and ``w``, which is exact on any grid, 1x1 included.  So a caller can
    apply the stencil, finish each block in place and sum the adjoint of
    what it makes of it in one loop, never storing the field; sweeping the
    grid again, after :meth:`reset`, allocates nothing.
    """

    def __init__(self, stencil: FrameGradient, shape, weights=None, dtype=np.float64):
        if len(shape) != 2:
            raise DimensionMismatchError(f"expected a 2-D image, got {tuple(shape)}")
        h, w = self._shape = tuple(shape)
        (top, bottom), (left, right) = self._pad = stencil._pad
        rows = _block_rows(h, w)
        self._offsets = stencil.offsets
        self._halo = np.empty((top + rows + bottom, left + w + right), dtype)
        self._planes = np.empty((len(stencil.offsets), rows * w), dtype)
        self._block = np.empty((stencil.m, 2, rows, w), dtype)
        self._taps = stencil.taps.astype(dtype, copy=False)
        row_weights = np.repeat(np.ones(stencil.m) if weights is None else weights, 2)
        self._weighted = np.ascontiguousarray((stencil.taps * row_weights[:, None]).T, dtype)
        self._acc = np.zeros((top + h + bottom, left + w + right))

    def rows(self) -> list:
        """The slices of the row blocks, top to bottom."""
        h, step = self._shape[0], self._block.shape[2]
        return [slice(r0, min(r0 + step, h)) for r0 in range(0, h, step)]

    def blocks(self, u):
        """Yield ``(rows, g)`` for each row block of the stencil applied to ``u``.

        ``g`` is ``grad(analyze(u))[:, :, rows]`` at the sweep's dtype, in a
        buffer the next block overwrites; the caller may finish it in place
        and :meth:`add` it before asking for the next block.
        """
        f = np.asarray(u, dtype=np.float64)
        if f.shape != self._shape:
            raise DimensionMismatchError(f"expected a {self._shape} image, got {f.shape}")
        (top, bottom), (left, _) = self._pad
        w = self._shape[1]
        for rows in self.rows():
            n = rows.stop - rows.start
            # rows start - top .. stop + bottom of the image padded by wrap
            padded = self._halo[: top + n + bottom]
            body = padded[:, left : left + w]
            _wrap_rows(f, rows.start - top, body)
            _wrap_rows(body.T, -left, padded[:, :left].T)
            _wrap_rows(body.T, 0, padded[:, left + w :].T)
            # Every row of taps sums to zero (a gradient kills constants), so
            # removing a constant first changes nothing in exact arithmetic;
            # it maps constant images to exactly zero and shrinks the
            # cancellation error.  A pixel value is exact where the mean may
            # round.
            padded -= padded.dtype.type(f.flat[0])
            planes = self._planes[:, : n * w]
            for plane, (dy, dx) in zip(planes, self._offsets):
                np.copyto(
                    plane.reshape(n, w),
                    padded[top - dy : top - dy + n, left - dx : left - dx + w],
                )
            g = self._block[:, :, :n]
            np.matmul(self._taps, planes, out=g.reshape(len(self._taps), -1))
            yield rows, g

    def reset(self) -> None:
        """Start a new sum at zero."""
        self._acc.fill(0.0)

    def add(self, rows: slice, block) -> None:
        """Add the weighted adjoint of ``block``, rows ``rows`` of the field.

        ``block`` is ``(m, 2, rows, w)``; it is read, never written.  Its
        shifted planes go through the sweep's plane buffer, so a block that
        :meth:`blocks` yielded must be added before the next one is asked for.
        """
        (top, _), (left, _) = self._pad
        w = self._shape[1]
        r0, r1 = rows.start, rows.stop
        planes = self._planes[:, : (r1 - r0) * w]
        np.matmul(self._weighted, block.reshape(self._weighted.shape[1], -1), out=planes)
        # plane (dy, dx) at pixel (r, c) adds onto pixel (r - dy, c - dx)
        for plane, (dy, dx) in zip(planes, self._offsets):
            self._acc[top + r0 - dy : top + r1 - dy, left - dx : left - dx + w] += (
                plane.reshape(r1 - r0, w)
            )

    def fold(self) -> np.ndarray:
        """The sum as an ``(h, w)`` view of the accumulator.

        Folding changes the accumulator, so call it once per sum.
        """
        (top, _), (left, _) = self._pad
        return _fold(self._acc, top, left, *self._shape)


def bspline_bank() -> FilterBank:
    """The 9-channel piecewise-linear B-spline bank of 3x3 kernels.

    Built from the three filters

        h1 = [1, 2, 1] / 4,  h2 = sqrt(2)/4 * [1, 0, -1],  h3 = [-1, 2, -1] / 4

    as the outer products K_{3(i-1)+j} = outer(h_i, h_j) with h_i along rows.
    Channel 1 (K_1) is the lowpass; every other kernel has zero tap sum.
    """
    h1 = np.array([1.0, 2.0, 1.0]) / 4.0
    h2 = np.array([1.0, 0.0, -1.0]) * (math.sqrt(2.0) / 4.0)
    h3 = np.array([-1.0, 2.0, -1.0]) / 4.0
    filters = (h1, h2, h3)
    kernels = [np.outer(hi, hj) for hi in filters for hj in filters]
    return FilterBank(kernels)


def identity_bank() -> FilterBank:
    """Single-channel bank whose only kernel is the identity.

    Reduces the feature-space model to plain TV on the image itself.
    """
    return FilterBank([np.array([[1.0]])])


def analyze(u, bank: FilterBank) -> np.ndarray:
    """Feature stack of an image: channel i is ``conv_circular(u, K_i)``.

    Returns an ``(m, h, w)`` array.
    """
    f = np.asarray(u, dtype=np.float64)
    return np.stack([conv_circular(f, k) for k in bank.kernels])


def synthesize_adjoint(g, bank: FilterBank) -> np.ndarray:
    """Adjoint of :func:`analyze`: ``sum_i conv_adjoint(g_i, K_i)``.

    For a tight frame this inverts ``analyze`` exactly.
    """
    stack = np.asarray(g, dtype=np.float64)
    if stack.ndim != 3 or stack.shape[0] != bank.m:
        raise ChannelMismatchError(
            f"expected {bank.m} channels, got stack shape {stack.shape}"
        )
    out = np.zeros(stack.shape[1:], dtype=np.float64)
    for i, k in enumerate(bank.kernels):
        out += conv_adjoint(stack[i], k)
    return out


def verify_uep(bank: FilterBank, width: int, height: int) -> float:
    """Max frequency-domain deviation of ``sum_i K_i^* K_i`` from identity.

    Zero (up to rounding) certifies that the bank is a tight frame with
    frame bound one on the given periodic grid.
    """
    total = np.zeros((height, width))
    for k in bank.kernels:
        sym = kernel_symbol(k, (height, width))
        total += np.abs(sym) ** 2
    return float(np.max(np.abs(total - 1.0)))

