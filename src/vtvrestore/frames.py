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
import os
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


#: Pixels per row block of a :class:`Sweep`: a block's 16 shifted planes
#: (1 MB for the B-spline bank at double) stay in cache while the caller
#: finishes the block.  Two workers' scratch at 8K pixels is about one
#: worker's at 16K, and one worker ran 8K blocks 2% (1024x1024) to 13%
#: (256x256) faster than 16K.
BLOCK_PIXELS = 1 << 13


#: numpy's ufunc buffer size, in elements, on a :class:`Sweep`'s threads.
#: The sum of a block's adjoint planes (see :meth:`Sweep._add`) casts
#: nothing, but numpy still buffers a reduction over this strided view: at
#: the default 8192 elements one float32 sum of an 8K block allocates about
#: 29 KB, at 1024 about 1 KB, and it runs as fast.
_SUM_BUFFER = 1024


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


def _windows(padded, n: int, w: int) -> np.ndarray:
    """The ``(p, q, n, w)`` windows of the C-contiguous ``(p + n - 1, q + w - 1)``
    array ``padded``, as a view: ``[i, j]`` is
    ``padded[p - 1 - i : p - 1 - i + n, q - 1 - j : q - 1 - j + w]``.

    (Built from the strides: ``sliding_window_view(padded, (n, w))[::-1, ::-1]``
    is the same view, but takes about 20 us a call against 1 us.)
    """
    p, q = padded.shape[0] - n + 1, padded.shape[1] - w + 1
    row, col = padded.strides
    start = (p - 1) * row + (q - 1) * col
    return np.ndarray((p, q, n, w), padded.dtype, padded, start, (-row, -col, row, col))


def _gathered(bordered, n: int) -> np.ndarray:
    """The view ``[i, j, r, c] = bordered[i, j, r + i, c + j]`` of a
    C-contiguous ``(p, q, rows, cols)`` grid of planes, for ``n + p - 1`` rows
    and ``cols - q + 1`` columns.

    Summed over ``i`` and ``j``, a plane stored in ``bordered[i, j]`` from
    row ``p - 1`` and column ``q - 1`` on lands shifted by
    ``(p - 1 - i, q - 1 - j)``: that is how the planes of a block's adjoint
    add onto the accumulator.
    """
    p, q, _, cols = bordered.shape
    si, sj, sr, sc = bordered.strides
    shape = (p, q, n + p - 1, cols - q + 1)
    return np.ndarray(shape, bordered.dtype, bordered, 0, (si + sr, sj + sc, sr, sc))


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
    pixels, so only one block's shifted planes exist per worker at a time:
    a :class:`Sweep` holds one grid's scratch and runs the blocks on
    ``workers`` threads, and :meth:`apply` and :meth:`adjoint` are its
    shortest users.

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

        def copy(rows, g, add):
            out[:, :, rows] = g

        Sweep(self, f.shape).run(copy, f)
        return out

    def adjoint(self, p) -> np.ndarray:
        """``sum_i conv_adjoint(grad_adjoint(p[i]), K_i)`` of an ``(m, 2, h, w)``
        field ``p``, as a new ``(h, w)`` image.

        (A :class:`Sweep` with ``weights`` gives the weighted sum.)
        """
        q = np.asarray(p, dtype=np.float64)
        if q.ndim != 4 or q.shape[:2] != (self.m, 2):
            raise ChannelMismatchError(
                f"expected an ({self.m}, 2, h, w) field, got shape {q.shape}"
            )
        sweep = Sweep(self, q.shape[2:])
        sweep.run(lambda rows, g, add: add(q[:, :, rows]))
        return sweep.fold()

    def normal_kernel(self, weights) -> np.ndarray:
        """Kernel of ``sum_i weights[i] F_i* G* G F_i``: :meth:`apply`, then the
        ``weights``-weighted adjoint.

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

    Holds all the stencil's scratch on an ``(h, w)`` grid, made once: one
    wrap-padded copy of the image being swept; for each of its
    :attr:`workers`, a block's shifted planes, its ``(m, 2, rows, w)``
    output, the adjoint's planes on zero borders and their sum; the taps and
    the ``weights``-weighted transposed taps of the adjoint (default weights
    one), all of ``dtype``, float64 or float32; and one float64 wrap-padded
    accumulator.  But for the padded image and the accumulator, their size
    is set by :data:`BLOCK_PIXELS` and the worker count, not by ``h``.
    A block's adjoint planes are summed at ``dtype``, and the sum is added
    into the accumulator.

    :meth:`run` fills the padded copy of ``u`` once, in the calling thread,
    then hands a body the stencil's output one block at a time, while
    it is still in cache, with a function that applies the weighted
    transposed taps to a block of a field and scatter-adds the planes, with
    the opposite shifts, into the accumulator; :meth:`fold` adds its pad
    back modulo ``h`` and ``w``, which is exact on any grid, 1x1 included.
    So a caller can apply the stencil, finish each block in place and sum
    the adjoint of what it makes of it in one pass, never storing the field;
    sweeping the grid again, after :meth:`reset`, allocates no image.

    The blocks run in two phases, the even-indexed ones and then the odd
    ones, and each phase is split over the workers, one thread each.  A
    block adds onto its own rows of the accumulator and the ``top + bottom``
    rows of padding past them, so where a block has at least that many rows
    the blocks of one phase write disjoint rows and need no lock; where it
    has fewer (grids wider than about ``BLOCK_PIXELS / 3`` for the B-spline
    bank) one worker runs.  The block partition and the phase order do not
    depend on the worker count, so neither does any sum.  One worker runs
    in the calling thread.  The others run on a thread pool that the first
    :meth:`run` makes and whose threads wait between runs until
    :meth:`close`, the end of a ``with`` block or the sweep's collection
    ends them.
    """

    def __init__(
        self, stencil: FrameGradient, shape, weights=None, dtype=np.float64, workers: int = 1
    ):
        if len(shape) != 2:
            raise DimensionMismatchError(f"expected a 2-D image, got {tuple(shape)}")
        h, w = self._shape = tuple(shape)
        (top, bottom), (left, right) = self._pad = stencil._pad
        rows = _block_rows(h, w)
        self._rows = [slice(r0, min(r0 + rows, h)) for r0 in range(0, h, rows)]
        #: Threads a :meth:`run` splits each phase over: ``workers``, at most
        #: the blocks of a phase, and 1 where a block is shorter than the pads.
        self.workers = min(workers, (len(self._rows) + 1) // 2) if rows >= top + bottom else 1
        # A block's shifted planes are the windows of its padded rows at every
        # offset of the pads' (top + bottom + 1, left + right + 1) grid, in
        # (dy, dx) order, all copied in one call.  The taps run over the grid
        # offsets from the stencil's first to its last, with a zero column
        # where it has none: none for the B-spline bank, whose 15 offsets are
        # the last 15 of its 4x4 grid.
        p, q = top + bottom + 1, left + right + 1
        index = [(dy + bottom) * q + dx + right for dy, dx in stencil.offsets]
        first = index[0] if index else 0
        self._span = slice(first, index[-1] + 1 if index else 0)
        taps = np.zeros((2 * stencil.m, self._span.stop - first))
        taps[:, [i - first for i in index]] = stencil.taps
        #: The image being swept, less its first pixel, wrap-padded by the
        #: stencil's pads at ``dtype``: every block's windows are views of it.
        self._padded = np.empty((top + h + bottom, left + w + right), dtype)
        #: Per worker: a block's planes, its output, the adjoint's planes on
        #: zero borders (see :meth:`_add`) and their sum.
        self._scratch = [
            (
                np.empty((p * q, rows * w), dtype),
                np.empty((stencil.m, 2, rows, w), dtype),
                np.zeros((p, q, rows + 2 * (p - 1), w + 2 * (q - 1)), dtype),
                np.empty((rows + p - 1, w + q - 1), dtype),
            )
            for _ in range(self.workers)
        ]
        self._taps = taps.astype(dtype, copy=False)
        row_weights = np.repeat(np.ones(stencil.m) if weights is None else weights, 2)
        self._weighted = np.ascontiguousarray((taps * row_weights[:, None]).T, dtype)
        self._acc = np.zeros((top + h + bottom, left + w + right))
        #: The pool of ``workers - 1`` threads, made by the first :meth:`run`
        #: that needs it, and the process that made it.
        self._executor = None
        self._executor_pid = None

    def run(self, body, u=None) -> list:
        """``[body(rows, g, add) for each row block]``, in block order.

        ``rows`` is the block's slice of rows.  ``g`` is
        ``grad(analyze(u))[:, :, rows]`` at the sweep's dtype, in a buffer the
        worker's next block overwrites, or None without ``u``; the body may
        finish it in place.  ``add(block)`` adds the weighted adjoint of
        ``block``, rows ``rows`` of an ``(m, 2, h, w)`` field, into the
        accumulator; it reads ``block`` and overwrites the worker's adjoint
        buffers.  ``u`` is read once, before the first block.

        A body may run on a worker thread, under the caller's numpy error
        state and a ufunc buffer of :data:`_SUM_BUFFER` elements, so it may
        write only rows ``rows`` of an array another block writes.  An
        exception a body raises (``MemoryError`` included) is raised here
        once every block of its phase has ended, the first in worker order,
        and the threads are ended.
        """
        padded = None
        if u is not None:
            f = np.asarray(u, dtype=np.float64)
            if f.shape != self._shape:
                raise DimensionMismatchError(f"expected a {self._shape} image, got {f.shape}")
            padded = self._pad_image(f)
        results = [None] * len(self._rows)
        errstate = np.geterr()

        def work(blocks, scratch):
            # numpy keeps its error state and buffer size per thread
            with np.errstate(**errstate):
                np.setbufsize(_SUM_BUFFER)
                for k in blocks:
                    rows = self._rows[k]
                    g = None if padded is None else self._forward(scratch, padded, rows)
                    results[k] = body(rows, g, functools.partial(self._add, scratch, rows))

        try:
            for phase in (0, 1):
                blocks = range(phase, len(self._rows), 2)
                shares = [(blocks[j :: self.workers], s) for j, s in enumerate(self._scratch)]
                shares = [share for share in shares if share[0]]
                futures = [self._pool().submit(work, *share) for share in shares[1:]]
                try:
                    for share in shares[:1]:
                        work(*share)
                finally:
                    for future in futures:
                        future.exception()  # waits for it
                for future in futures:
                    future.result()
        except BaseException:
            self.close()
            raise
        return results

    def _pool(self):
        """The worker threads, made on first use in each process: a forked
        child has none of its parent's threads."""
        if self._executor is None or self._executor_pid != os.getpid():
            # imported here: it loads logging, about 0.5 MB of peak RSS that a
            # one-worker run does not need
            from concurrent.futures import ThreadPoolExecutor

            self._executor = ThreadPoolExecutor(self.workers - 1, "sweep")
            self._executor_pid = os.getpid()
        return self._executor

    def close(self) -> None:
        """End the worker threads, if any; the next :meth:`run` starts them again."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def __enter__(self) -> "Sweep":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _pad_image(self, f) -> np.ndarray:
        """Fill :attr:`_padded` with ``f``, less ``f``'s first pixel, wrapped."""
        (top, _), (left, _) = self._pad
        h, w = self._shape
        padded = self._padded
        body = padded[:, left : left + w]
        image = body[top : top + h]
        # Every row of taps sums to zero (a gradient kills constants), so
        # removing a constant first changes nothing in exact arithmetic; it
        # maps constant images to exactly zero and shrinks the cancellation
        # error.  A pixel value is exact where the mean may round.
        np.subtract(f, padded.dtype.type(f.flat[0]), out=image, dtype=padded.dtype)
        _wrap_rows(image, -top, body[:top])
        _wrap_rows(image, 0, body[top + h :])
        _wrap_rows(body.T, -left, padded[:, :left].T)
        _wrap_rows(body.T, 0, padded[:, left + w :].T)
        return padded

    def _forward(self, scratch, padded, rows: slice) -> np.ndarray:
        """``grad(analyze(u))[:, :, rows]`` in the block buffer of ``scratch``,
        read from ``padded``, ``u`` as :meth:`_pad_image` leaves it."""
        planes, block = scratch[:2]
        (top, bottom), _ = self._pad
        w = self._shape[1]
        n = rows.stop - rows.start
        windows = _windows(padded[rows.start : rows.stop + top + bottom], n, w)
        planes = planes[:, : n * w]
        np.copyto(planes.reshape(windows.shape), windows)
        g = block[:, :, :n]
        np.matmul(self._taps, planes[self._span], out=g.reshape(len(self._taps), -1))
        return g

    def _add(self, scratch, rows: slice, block) -> None:
        """Add the weighted adjoint of ``block``, rows ``rows`` of the field.

        Plane (dy, dx) at pixel (r, c) adds onto pixel (r - dy, c - dx).  So
        that this is one sum, not one add per plane, the matrix product
        writes the planes straight into the middle of the worker's
        zero-bordered ``(p, q)`` grid of planes, one row of the block at a
        time, and the accumulator's rows ``r0`` to ``r1 + p - 1`` get the
        sum over the grid of one strided view of it (see :func:`_gathered`),
        taken at the sweep's dtype.
        """
        bordered, sums = scratch[2:]
        p, q = bordered.shape[:2]
        w = self._shape[1]
        n = rows.stop - rows.start
        middle = bordered.reshape(p * q, *bordered.shape[2:])[self._span, p - 1 : p - 1 + n]
        np.matmul(
            self._weighted,
            block.reshape(self._weighted.shape[1], n, w).transpose(1, 0, 2),
            out=middle[:, :, q - 1 : q - 1 + w].transpose(1, 0, 2),
        )
        if n < bordered.shape[2] - 2 * (p - 1):
            # a short last block: the rows under it still hold a longer one's
            bordered[:, :, p - 1 + n : n + 2 * (p - 1)] = 0
        total = sums[: n + p - 1]
        np.add.reduce(_gathered(bordered, n), axis=(0, 1), out=total)
        self._acc[rows.start : rows.stop + p - 1] += total

    def reset(self) -> None:
        """Start a new sum at zero."""
        self._acc.fill(0.0)

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

