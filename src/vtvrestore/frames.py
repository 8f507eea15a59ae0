"""Tight-frame feature operators from small convolution filter banks.

A filter bank maps an image to a stack of feature images, one circular
convolution per channel.  The piecewise-linear B-spline bank built here has
nine 3x3 kernels (one lowpass, eight detail) and satisfies the perfect
reconstruction identity: analysis followed by adjoint synthesis is the
identity, which :func:`verify_uep` checks in the frequency domain.

:class:`FrameGradient` fuses the bank with the forward-difference gradient
into one stencil, the form the solver iterates with, and a :class:`Sweep`
runs it over the row blocks of one grid.  :func:`analyze` and the
:mod:`~vtvrestore.diffops` gradient stay the spatial references: the
stencil's taps are their response to a unit impulse.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .diffops import grad
from .errors import ChannelMismatchError, DimensionMismatchError
from .image import as_image, as_kernel, as_stack, conv_adjoint, conv_circular, kernel_symbol


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


def _fold(acc, top: int, left: int, h: int, w: int) -> None:
    """Add the wrap padding of ``acc`` back onto the ``(h, w)`` image it pads,
    ``acc[top : top + h, left : left + w]``.

    ``acc[top + r, left + c]`` stands for pixel ``(r mod h, c mod w)``, for
    pads of any width.
    """
    body = acc[top : top + h]
    for i in (*range(top), *range(top + h, acc.shape[0])):
        body[(i - top) % h] += acc[i]
    out = body[:, left : left + w]
    for j in (*range(left), *range(left + w, acc.shape[1])):
        out[:, (j - left) % w] += body[:, j]


class FrameGradient:
    """``grad(analyze(u, bank))`` as one circular stencil, and its adjoint.

    Each component ``grad(conv_circular(u, K_i))[c]`` is itself a circular
    convolution, so the whole operator is the dense ``(2m, n)`` matrix
    :attr:`taps` applied to the ``n`` copies of ``u`` shifted by the offsets
    the stencil reads: a single matrix product, whose row ``2 i + c`` is the
    ``(m, 2, h, w)`` layout of :func:`analyze` followed by
    :func:`~vtvrestore.diffops.grad`.  The taps are those references'
    response to a unit impulse, so they are built by the code they stand
    for.  The adjoint applies the transposed matrix and adds the planes back
    with the opposite shifts, and :meth:`normal_kernel` is the response of
    the one followed by the other to a unit impulse.

    Both directions run over row blocks of about :data:`BLOCK_PIXELS`
    pixels, so only one block's shifted planes exist per worker at a time:
    a :class:`Sweep` holds one grid's scratch and runs the blocks on
    ``workers`` threads, and :meth:`apply` and :meth:`adjoint` are its
    shortest users.

    Built once per bank (see :attr:`FilterBank.frame_gradient`); it holds no
    per-image state.
    """

    def __init__(self, bank: FilterBank):
        # The impulse's grid is one pixel wider than the largest kernel on
        # each side, so the forward differences of its response wrap onto
        # zeros.
        ry = max(k.shape[0] // 2 for k in bank.kernels) + 1
        rx = max(k.shape[1] // 2 for k in bank.kernels) + 1
        impulse = np.zeros((2 * ry + 1, 2 * rx + 1))
        impulse[ry, rx] = 1.0
        # plane (dy, dx) at pixel (r, c) reads u[r - dy, c - dx], so the
        # response at (ry + dy, rx + dx) is the tap of offset (dy, dx)
        response = grad(analyze(impulse, bank)).reshape(2 * bank.m, *impulse.shape)
        rows, cols = np.nonzero(response.any(axis=0))
        # the padding is max(dy, 0) rows above, max(-dy, 0) below, likewise
        # for columns
        top, bottom = int(rows.max(initial=ry)) - ry, ry - int(rows.min(initial=ry))
        left, right = int(cols.max(initial=rx)) - rx, rx - int(cols.min(initial=rx))
        self._pad = ((top, bottom), (left, right))
        # The planes of a Sweep are the pads' (top + bottom + 1,
        # left + right + 1) grid of offsets in (dy, dx) order; the taps run
        # from its first live offset to its last, with a zero column where
        # the stencil has none (the B-spline bank's 15 offsets are the last
        # 15 of its 4x4 grid, with none).
        grid = response[:, ry - bottom : ry + top + 1, rx - right : rx + left + 1]
        live = np.flatnonzero(grid.any(axis=0)).tolist()
        #: The planes of a :class:`Sweep`'s grid that :attr:`taps` multiply.
        self._span = slice(live[0], live[-1] + 1) if live else slice(0, 0)
        taps = np.ascontiguousarray(grid.reshape(2 * bank.m, -1)[:, self._span])
        taps.flags.writeable = False
        self.m = bank.m
        #: ``(2m, n)`` read-only tap matrix; row ``2 i + c`` is channel ``i``,
        #: gradient component ``c`` (0 for x, 1 for y).
        self.taps = taps

    def apply(self, u) -> np.ndarray:
        """``grad(analyze(u, bank))`` of an image ``u`` (see
        :func:`~vtvrestore.image.as_image`) as a new ``(m, 2, h, w)`` stack."""
        f = as_image(u)
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
        q = as_stack(p, "field")
        if q.ndim != 4 or q.shape[:2] != (self.m, 2):
            raise ChannelMismatchError(
                f"expected an ({self.m}, 2, h, w) field, got shape {q.shape}"
            )
        sweep = Sweep(self, q.shape[2:])
        sweep.run(lambda rows, g, add: add(q[:, :, rows]))
        return sweep.total

    def normal_kernel(self, weights) -> np.ndarray:
        """Kernel of ``sum_i weights[i] F_i* G* G F_i``: :meth:`apply`, then the
        ``weights``-weighted adjoint, applied to a unit impulse.

        The operator reaches ``top + bottom`` rows and ``left + right``
        columns each way (7x7 for the B-spline bank), so on a grid of twice
        that plus one the impulse's response does not wrap and is the
        kernel.
        """
        (top, bottom), (left, right) = self._pad
        ry, rx = top + bottom, left + right
        impulse = np.zeros((2 * ry + 1, 2 * rx + 1))
        impulse[ry, rx] = 1.0
        sweep = Sweep(self, impulse.shape, weights)
        sweep.run(lambda rows, g, add: add(g), impulse)
        return sweep.total


class Sweep:
    """Passes of a :class:`FrameGradient` over the row blocks of one grid.

    Holds all the stencil's scratch on a non-empty ``(h, w)`` grid (any
    other ``shape`` is a
    :class:`~vtvrestore.errors.DimensionMismatchError`), made once: one
    wrap-padded copy of the image being swept; for each of its
    :attr:`workers`, a block's ``(rows, p * q, w)`` shifted planes (for
    the pads' ``(p, q)`` grid of offsets), its ``(rows, m, 2, w)`` output,
    the adjoint's planes on zero borders and their sum; the taps and
    the ``weights``-weighted transposed taps of the adjoint (default weights
    one), all of ``dtype``, float64 or float32; and its own float64
    wrap-padded accumulator, ``(top + h + bottom, left + w + right)`` for
    the stencil's pads.  But for the padded image and the accumulator, their
    size is set by :data:`BLOCK_PIXELS` and the worker count, not by ``h``.
    A block's adjoint planes are summed at ``dtype``, and the sum is added
    into the accumulator.

    The padded image and the workers' buffers are views of one byte buffer,
    each starting on a 64-byte offset, and the buffer is at least as long as
    the grid's complex half spectrum, ``(h, w // 2 + 1)`` complex128.  Its
    head is :attr:`spectrum`, which a caller may use between runs: a solver
    runs its FFT there, so that scratch which is never live at the same time
    is held once.  Nothing the scratch holds outlives a run but the zero
    borders, so before its first block a run zeroes again the bordered
    planes that share bytes with :attr:`spectrum`.

    :meth:`run` zeroes an accumulator, the sweep's own or one of its shape
    that the caller names, fills the padded copy of ``u`` once, then hands a
    body the stencil's output one block at a time, while it is still in
    cache, with a function that applies the weighted transposed taps to a
    block of a field and scatter-adds the planes, with the opposite shifts,
    into the accumulator.  After the last block it adds the accumulator's
    pad back modulo ``h`` and ``w``, which is exact on any grid, 1x1
    included, so each run leaves one whole sum in the accumulator's
    ``(h, w)`` interior: :attr:`total`, for the sweep's own.  So a caller
    can apply the stencil, finish each block in place and sum the adjoint
    of what it makes of it in one pass, never storing the field; sweeping
    the grid again allocates no image.

    The planes and the output are stored row by row, so the forward's
    per-row matrix product reads a row's planes and writes its ``(2m, w)``
    output as contiguous matrices, and the adjoint's reads that output so.
    Stored plane by plane instead, their rows lie ``rows * w`` elements
    apart, 32 KiB for a float32 block of 8K pixels, and rows a power of two
    apart alias in cache.

    The blocks run in two phases, the even-indexed ones and then the odd
    ones, and each phase is split over the workers, one thread each.  A
    block adds onto its own rows of the accumulator and the ``top + bottom``
    rows of padding past them, so where a block has at least that many rows
    the blocks of one phase write disjoint rows and need no lock; where it
    has fewer (grids wider than about ``BLOCK_PIXELS / 3`` for the B-spline
    bank) one worker runs.  The block partition and the phase order do not
    depend on the worker count, so neither does any sum.

    Every pass of a run over the workers, the two phases and the image-sized
    zeroing and cast before them, goes through :meth:`split`, which a
    caller can use too for passes of its own over the grid (a solver's FFT
    solve, say).  One worker runs in the calling thread.  The others run on
    a thread pool that the first :meth:`split` over more than one range
    makes and whose threads wait between calls until :meth:`close`, the end
    of a ``with`` block or the sweep's collection ends them.
    """

    def __init__(
        self, stencil: FrameGradient, shape, weights=None, dtype=np.float64, workers: int = 1
    ):
        if len(shape) != 2 or min(shape) < 1:
            raise DimensionMismatchError(f"expected a non-empty 2-D grid, got {tuple(shape)}")
        h, w = self._shape = tuple(shape)
        (top, bottom), (left, right) = self._pad = stencil._pad
        rows = _block_rows(h, w)
        self._rows = [slice(r0, min(r0 + rows, h)) for r0 in range(0, h, rows)]
        #: Threads a :meth:`run` splits each phase over: ``workers``, at most
        #: the blocks of a phase, and 1 where a block is shorter than the pads.
        self.workers = min(workers, (len(self._rows) + 1) // 2) if rows >= top + bottom else 1
        # A block's shifted planes are the windows of its padded rows at every
        # offset of the pads' grid, in (dy, dx) order, all copied in one call;
        # the taps multiply the stencil's span of them.
        p, q = top + bottom + 1, left + right + 1
        self._span = stencil._span
        # The padded image, then per worker a block's planes, its output, the
        # adjoint's planes on zero borders (see _add) and their sum, one after
        # another in one zeroed buffer, each on a 64-byte offset.
        layout = [(top + h + bottom, left + w + right)] + [
            (rows, p * q, w),
            (rows, stencil.m, 2, w),
            (p, q, rows + 2 * (p - 1), w + 2 * (q - 1)),
            (rows + p - 1, w + q - 1),
        ] * self.workers
        offsets, itemsize = [0], np.dtype(dtype).itemsize
        for dims in layout:
            offsets.append(-(-(offsets[-1] + math.prod(dims) * itemsize) // 64) * 64)
        half = (h, w // 2 + 1)
        #: The scratch's bytes: at least the half spectrum's.
        self._buffer = np.zeros(max(offsets[-1], 16 * math.prod(half)), np.uint8)
        #: The buffer's head as the grid's ``(h, w // 2 + 1)`` complex half
        #: spectrum, which a caller may use between runs (a solver's FFT,
        #: say): a run overwrites it.
        self.spectrum = np.ndarray(half, np.complex128, self._buffer)
        arrays = [np.ndarray(dims, dtype, self._buffer, at) for dims, at in zip(layout, offsets)]
        #: The image being swept, less its first pixel, wrap-padded by the
        #: stencil's pads at ``dtype``: every block's windows are views of it.
        self._padded = arrays[0]
        #: Per worker: a block's planes, its output, the adjoint's planes on
        #: zero borders and their sum.
        self._scratch = [tuple(arrays[k : k + 4]) for k in range(1, len(arrays), 4)]
        #: The zero-bordered planes that share bytes with :attr:`spectrum`,
        #: which :meth:`run` zeroes again before its first block.
        self._spectrum_zeros = [
            s[2] for s in self._scratch if np.shares_memory(s[2], self.spectrum)
        ]
        self._taps = stencil.taps.astype(dtype)
        row_weights = np.repeat(np.ones(stencil.m) if weights is None else weights, 2)
        self._weighted = np.ascontiguousarray((stencil.taps * row_weights[:, None]).T, dtype)
        self._acc = np.zeros((top + h + bottom, left + w + right))
        #: The index of the ``(h, w)`` image in an accumulator, past its pads.
        self._interior = np.s_[top : top + h, left : left + w]
        #: The ``(h, w)`` sum of the last :meth:`run` into the sweep's own
        #: accumulator, a view of it: the next such run overwrites it.
        self.total = self._acc[self._interior]
        #: The pool of ``workers - 1`` threads, made by the first :meth:`split`
        #: that needs it, and the process that made it.
        self._executor = None
        self._executor_pid = None

    def run(self, body, u=None, acc=None) -> list:
        """``[body(rows, g, add) for each row block]``, in block order.

        ``rows`` is the block's slice of rows.  ``g`` is
        ``grad(analyze(u))[:, :, rows]`` at the sweep's dtype, an
        ``(m, 2, n, w)`` view of the worker's row-major ``(n, m, 2, w)``
        block buffer, which its next block overwrites, or None without
        ``u``; the body may finish it in place.  ``add(block)`` adds the
        weighted adjoint of ``block``, rows ``rows`` of an ``(m, 2, h, w)``
        field, into the accumulator; it reads ``block`` and overwrites the
        worker's adjoint buffers.  ``u`` is read once, before the first
        block.  The accumulator is ``acc``, a float64 array of the shape of
        the sweep's own, or by default that one; ``u`` must not share bytes
        with it.  It starts at zero and, once the last block has ended,
        holds the sum of every ``add`` of this run in its ``(h, w)``
        interior, which for the sweep's own is :attr:`total`.  Whatever a
        caller left in :attr:`spectrum` is overwritten.

        A body may run on a worker thread, under the caller's numpy error
        state and a ufunc buffer of :data:`_SUM_BUFFER` elements, so it may
        write only rows ``rows`` of an array another block writes.  An
        exception a body raises (``MemoryError`` included) is raised here
        once every block of its phase has ended, the first in worker order,
        and the threads are ended.
        """
        f = None if u is None else as_stack(u)
        if f is not None and f.shape != self._shape:
            raise DimensionMismatchError(f"expected a {self._shape} image, got {f.shape}")
        acc = self._acc if acc is None else acc
        self.split(lambda r0, r1: acc[r0:r1].fill(0.0), acc.shape[0])
        for zeros in self._spectrum_zeros:
            zeros.fill(0)
        padded = None if f is None else self._pad_image(f)
        results = [None] * len(self._rows)

        def work(blocks, scratch):
            for k in blocks:
                rows = self._rows[k]
                g = None if padded is None else self._forward(scratch, padded, rows)
                results[k] = body(rows, g, functools.partial(self._add, scratch, rows, acc))

        for phase in (0, 1):
            blocks = range(phase, len(self._rows), 2)
            # range j is worker j: every workers-th block of the phase from the j-th
            self.split(
                lambda j, _: work(blocks[j :: self.workers], self._scratch[j]),
                min(self.workers, len(blocks)),
            )
        (top, _), (left, _) = self._pad
        _fold(acc, top, left, *self._shape)
        return results

    def split(self, fn, n: int) -> None:
        """``fn(start, stop)`` over contiguous ranges that cover ``range(n)``,
        one per worker: at most :attr:`workers` ranges, as even as ``n``
        allows.

        The first range runs in the calling thread, the others on the
        sweep's thread pool, each under the caller's numpy error state and a
        ufunc buffer of :data:`_SUM_BUFFER` elements.  So ``fn`` may write
        only the part of an array that its range names.  An exception
        ``fn`` raises (``MemoryError`` included) is raised here once every
        range has ended, the first in range order, and the threads are
        ended.  One worker, or ``n`` of 1, runs ``fn(0, n)`` in the calling
        thread and starts no thread.
        """
        if n < 1:
            return
        parts = min(self.workers, n)
        bounds = [n * j // parts for j in range(parts + 1)]
        errstate = np.geterr()

        def part(j):
            # numpy keeps its error state and buffer size per thread
            with np.errstate(**errstate):
                np.setbufsize(_SUM_BUFFER)
                fn(bounds[j], bounds[j + 1])

        try:
            futures = [self._pool().submit(part, j) for j in range(1, parts)]
            part(0)
            for future in futures:
                future.result()
        except BaseException:
            self.close()  # waits for the ranges still running
            raise

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
        """Fill :attr:`_padded` with ``f``, less ``f``'s first pixel, wrapped:
        the cast-and-subtract split over the workers, the four wrap copies in
        the calling thread."""
        (top, _), (left, _) = self._pad
        h, w = self._shape
        padded = self._padded
        body = padded[:, left : left + w]
        image = body[top : top + h]
        # Every row of taps sums to zero (a gradient kills constants), so
        # removing a constant first changes nothing in exact arithmetic; it
        # maps constant images to exactly zero and shrinks the cancellation
        # error.  A pixel value is exact where the mean may round.
        first = padded.dtype.type(f.flat[0])
        self.split(
            lambda r0, r1: np.subtract(f[r0:r1], first, out=image[r0:r1], dtype=padded.dtype), h
        )
        _wrap_rows(image, -top, body[:top])
        _wrap_rows(image, 0, body[top + h :])
        _wrap_rows(body.T, -left, padded[:, :left].T)
        _wrap_rows(body.T, 0, padded[:, left + w :].T)
        return padded

    def _forward(self, scratch, padded, rows: slice) -> np.ndarray:
        """``grad(analyze(u))[:, :, rows]`` in the block buffer of ``scratch``,
        read from ``padded``, ``u`` as :meth:`_pad_image` leaves it, as an
        ``(m, 2, n, w)`` view of the buffer's first ``n`` rows."""
        planes, block = scratch[:2]
        (top, bottom), _ = self._pad
        w = self._shape[1]
        n = rows.stop - rows.start
        windows = _windows(padded[rows.start : rows.stop + top + bottom], n, w)
        planes = planes[:n]
        np.copyto(planes.reshape(n, *windows.shape[:2], w).transpose(1, 2, 0, 3), windows)
        g = block[:n]
        # one product per row of the block, as in _add
        np.matmul(self._taps, planes[:, self._span], out=g.reshape(n, -1, w))
        return g.transpose(1, 2, 0, 3)

    def _add(self, scratch, rows: slice, acc, block) -> None:
        """Add the weighted adjoint of ``block``, rows ``rows`` of the field,
        into the accumulator ``acc``.  ``block`` is read as ``(n, 2m, w)``
        through a transpose, which copies nothing for a block output's view.

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
            block.transpose(2, 0, 1, 3).reshape(n, -1, w),
            out=middle[:, :, q - 1 : q - 1 + w].transpose(1, 0, 2),
        )
        if n < bordered.shape[2] - 2 * (p - 1):
            # a short last block: the rows under it still hold a longer one's
            bordered[:, :, p - 1 + n : n + 2 * (p - 1)] = 0
        total = sums[: n + p - 1]
        np.add.reduce(_gathered(bordered, n), axis=(0, 1), out=total)
        acc[rows.start : rows.stop + p - 1] += total


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

    Returns an ``(m, h, w)`` array; an ``(..., h, w)`` stack of images (see
    :func:`~vtvrestore.image.as_stack`) gives ``(m, ..., h, w)``.
    """
    return np.stack([conv_circular(u, k) for k in bank.kernels])


def synthesize_adjoint(g, bank: FilterBank) -> np.ndarray:
    """Adjoint of :func:`analyze`: ``sum_i conv_adjoint(g_i, K_i)``.

    For a tight frame this inverts ``analyze`` exactly.
    """
    stack = as_stack(g, "stack")
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

