"""Split Bregman solver for the feature-space vector-TV restoration model.

The objective over images ``u`` is

    sum_i lam_i * ||grad(F_i u)||_1  +  1/2 * ||A u - f||_2^2

where ``F_i`` is circular convolution with bank kernel ``K_i`` and ``A`` is
the identity or a circular blur.  Splitting ``d_i = grad(F_i u)`` with
Bregman multipliers ``b_i`` yields three alternating updates per iteration:

* **u-update** - an exactly FFT-diagonalized quadratic solve of
  ``(A*A + sum_i w_i F_i* G* G F_i) u = A* f + sum_i gamma_i F_i* G* (d_i - b_i)``
  (``G`` the gradient).  The variant only picks the denominator weights
  ``w``: ``full13`` uses ``w = gamma``, the true normal operator;
  ``reduced17`` uses ``w_i = gamma_1`` for every channel, which for a tight
  frame (``sum_i F_i* F_i = I``) is ``A*A + gamma_1 G*G`` and coincides with
  ``full13`` whenever all ``gamma_i`` are equal.
* **d-update** - closed-form shrinkage of ``grad(F_i u) + b_i`` at threshold
  ``lam_i / gamma_i``.
* **b-update** - ``b_i += grad(F_i u) - d_i``.

The loop stops when the relative change ``||u_new - u|| / ||u||`` falls to
``tol`` or after ``max_iter`` iterations.

Both directions of the operator run through the bank's fused stencil
(:class:`~vtvrestore.frames.FrameGradient`), one row block at a time:
``grad(F_i u)`` for all channels is one matrix product over the block's
shifted copies of ``u``, and the u-update numerator
``sum_i gamma_i F_i* G* (d_i - b_i)`` is the gamma-weighted transposed
product followed by shifted adds.  The denominator is the symbol of the
stencil's :meth:`~vtvrestore.frames.FrameGradient.normal_kernel`, the
response of those two passes to a unit impulse, plus that of ``A*A``, built
once per solve; only their ``rfft2`` halves are
built (:func:`~vtvrestore.image.half_symbol`), and the smallest bin of the
sum is checked once, when the solve is set up, which then inverts the sum in
place: the FFT solve multiplies by the reciprocal.  The spatial-domain
primitives (:func:`~vtvrestore.frames.analyze`,
:func:`~vtvrestore.diffops.grad`, ...) remain the references the tests check
against, the u-update's KKT residual among them.

:class:`SplitBregman` builds its whole state when it is constructed: one
stack, the multipliers ``b``, stored row by row as an ``(h, m, 2, w)``
array whose ``(m, 2, h, w)`` transposed view is ``SplitBregman.b``, so a
row block's rows of ``b`` are one contiguous slab, as is the block's
``(rows, m, 2, w)`` stencil output that the sweep hands on as an
``(m, 2, rows, w)`` view; a
:class:`~vtvrestore.frames.Sweep`, which holds the block buffers and a
wrap-padded accumulator; and one more float64 image of the accumulator's
shape, ``(h + 3, w + 3)`` for the B-spline bank.  The two padded images
hold the numerator and the iterate between them: the ``numerator`` of the
next u-update is the ``(h, w)`` interior of one, and from the first step
on ``u`` is the contiguous ``(h, w)`` head of the other.  The FFT solve's
first pass reads the whole numerator, so :meth:`~SplitBregman.step` writes
``u_new`` into the head of the image that does not hold ``u``, the
numerator's; once
``||u_new - u||`` is taken the old ``u`` is dead, and the sweep sums the
next numerator into its image.  A numerator that holds a NaN or Inf is
caught after that first pass, before anything is written (see
:func:`~vtvrestore.image.solve_diagonal`).  One work buffer, the sweep's,
holds two things in the same bytes, which are never live at the same
time: the complex half spectrum, in which the FFT solve runs and which
:meth:`~SplitBregman.advance` then reuses for ``u_new - u``, live from the
solve's ``rfft`` pass to that difference's norm; and the sweep's padded
image and block buffers, live only inside the sweep that follows.  The
observation ``f`` is read, never written, and not copied: ``u`` starts as
``f`` itself, and ``A* f``, which every numerator adds, is ``f`` itself for
the identity, so a caller must not change ``f`` during the solve.  The
splits ``d`` are never stored:
:meth:`~SplitBregman.advance` checks that ``||u_new - u||`` is finite,
then makes one sweep over row blocks and, while a block of the stencil's
output is still in cache, shrinks it, updates ``b`` and adds the block's
``d - b`` to the next numerator, all in one loop.  It overwrites ``b`` **in
place** and sums the next numerator over an image it reuses: a caller that
keeps ``b``, ``numerator`` or ``u`` across a step must copy it.  The
u-update is one FFT solve into a fresh array, or into ``out``; it never
writes ``b`` or the numerator but through ``out``.
:meth:`~SplitBregman.advance` is
also the one place an iteration is recorded: it appends the relative change
to ``SplitBregman.trace`` and, with ``record_trace``, the new iterate's
energy to ``SplitBregman.energy_trace``, whose TV part the same sweep sums,
so a traced iteration runs the stencil once.  :meth:`~SplitBregman.step` is
one FFT solve into the head of the numerator's image and one sweep into
the other image, so an untraced step allocates no image; :func:`solve` is
a loop over it.  Every iteration runs the same sweep body, which sums the
TV terms when traced and otherwise updates ``b`` and the numerator.  No
u-update follows a solve's last, the one whose relative change reaches
``tol`` or the ``max_iter``-th, so :func:`solve` has that step install and
record ``u_new`` but update neither ``b`` nor the numerator: the body then
only sums the TV terms, and an untraced last step runs no sweep.  A caller
that steps by hand gets both updated every time.

A step has one rule for values past the float range: it computes on
without warnings, and its two checks report it, each by raising
:class:`~vtvrestore.errors.NonFiniteError`: the DC check of the FFT solve
(:func:`~vtvrestore.image.solve_diagonal`) and the check that
``||u_new - u||`` is finite in :meth:`~SplitBregman.advance`.  So an
overflow is never reported by a warning; :func:`energy` follows the same
rule and returns an Inf or NaN.

``SolverConfig.workers`` runs each sweep on that many threads: the even
row blocks, then the odd ones, each phase split over the workers, which
write disjoint rows of ``b`` and of the image summed into (see
:class:`~vtvrestore.frames.Sweep`).  The rest of a step's image-sized work
runs on the same workers, through :meth:`~vtvrestore.frames.Sweep.split`:
the FFT solve's three passes (``rfft`` over row ranges; ``fft``, the
multiply and ``ifft`` over column ranges; ``irfft`` over row ranges),
``u_new - u`` and ``numerator += A* f``.  The two norms of ``rel_err``
stay in the calling thread.  The blocks, every 1-D transform and the order
of every sum are the same for any worker count, so no result depends on
it.  The threads are the one part of a solve its construction does not
make: they start with the first step, wait between steps and end with
:func:`solve` or :meth:`SplitBregman.close`; one worker starts none.  A
block's body reaches :mod:`~vtvrestore.diffops` through its module, never
through a name of this one, so a wrapper put on a name of this module (as
a profiler does) is only ever called by the calling thread.

``SolverConfig.precision`` sets the dtype of the splitting state, single by
default.  At ``"single"``, ``b``, the thresholds and the sweep's padded
copy of ``u``, block buffers, taps and gamma-weighted transposed taps are
float32: the sweep reads and writes half the bytes and its matrix products
run in single precision.  The adjoint's planes of a block are summed in
float32 too, and the sum is added into a float64 image.  The iterate ``u``
and the numerator, which the two images hold, the denominator, the FFT
solve and ``rel_err`` stay float64, as do the references :func:`energy`
and ``FrameGradient.apply``/``adjoint``.  A single solve whose observation,
gamma-weighted taps or thresholds exceed :data:`SINGLE_BOUND` runs at
double; :attr:`SplitBregman.precision` and :attr:`SolveResult.precision`
say which ran.  Otherwise ``"double"`` runs only where a caller asks for
it: one that matches iterates against a float64 oracle, as the selftest's
ROF check does.
"""

from __future__ import annotations

import contextlib
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import diffops
# grad, grad_adjoint and analyze have no caller here: they stay as the names
# perfbench/traced.py wraps, until the benchmark's spans are redone
from .diffops import grad, grad_adjoint
from .errors import ConfigError, DimensionMismatchError, NonFiniteError, NotRealError
from .frames import FilterBank, Sweep, analyze
from .image import (
    as_image,
    as_kernel,
    as_reals,
    as_stack,
    conv_adjoint,
    conv_circular,
    half_symbol,
    is_integer,
    nonsingular,
    solve_diagonal,
)

FULL13 = "full13"
REDUCED17 = "reduced17"
ANISO = "aniso"
ISO = "iso"
DOUBLE = "double"
SINGLE = "single"

#: Guard for the relative-error denominator ||u^j||.
_NORM_FLOOR = 1e-12

#: Largest magnitude a single-precision solve casts to float32: of the
#: observation, a gamma-weighted tap and a threshold.  The largest float32
#: values are the adjoint's: a plane of a block is the product of the 2m
#: gamma-weighted taps with the block's ``d - b``, whose entries are of the
#: observation's and the thresholds' size, and a block's 16 planes (for the
#: B-spline bank) are summed in float32.  That is about
#: ``16 * 18 * 1e15 * 1e15``, 3e32, some six decades below float32's
#: largest value (3.4e38), which leaves room for the iterate to grow past
#: the observation.  Past it a single solve runs at double.
SINGLE_BOUND = 1e15


class DegradationOp:
    """The observation operator A: identity or circular blur with a PSF.

    Holds no per-image state: :meth:`gram_symbol` computes the symbol of
    ``A*A`` afresh for any grid, and a solve reads it once, to build its
    denominator.  :meth:`apply` and :meth:`adjoint` take an image or a stack
    of them (see :func:`~vtvrestore.image.as_stack`); the identity's return
    a float64 ndarray itself, not a copy.
    """

    def __init__(self, psf=None):
        self.psf = None if psf is None else as_kernel(psf)

    @classmethod
    def identity(cls) -> "DegradationOp":
        return cls(None)

    @classmethod
    def blur(cls, psf) -> "DegradationOp":
        return cls(psf)

    def apply(self, u) -> np.ndarray:
        """A u."""
        if self.psf is None:
            return as_stack(u)
        return conv_circular(u, self.psf)

    def adjoint(self, u) -> np.ndarray:
        """A* u."""
        if self.psf is None:
            return as_stack(u)
        return conv_adjoint(u, self.psf)

    def gram_symbol(self, shape):
        """The ``rfft2`` half of the symbol of ``A*A`` on a ``shape`` grid.

        ``|symbol of A|^2`` as a new real array, or the exact scalar ``1.0``
        for the identity.
        """
        if self.psf is None:
            return 1.0
        return np.abs(half_symbol(self.psf, shape)) ** 2


def _reals(name: str, value) -> tuple:
    """``value``, a real number or a flat sequence of them (see
    :func:`~vtvrestore.image.as_reals`), as a tuple of floats."""
    with contextlib.suppress(NotRealError):
        values = np.atleast_1d(as_reals(value, name))
        if values.ndim == 1:
            return tuple(values.tolist())
    raise ConfigError(f"{name} must be a real number or a flat sequence of them, got {value!r}")


@dataclass
class SolverConfig:
    """Per-channel weights and loop controls for :func:`solve`.

    ``lam`` weights the per-channel TV terms; ``gamma`` are the splitting
    penalties (also the u-update damping).  Lengths must equal the bank's
    channel count.  ``precision`` is the dtype of the splitting state:
    ``"single"`` (float32, the default; see the module notes) or
    ``"double"`` (float64), for a caller that matches iterates against a
    float64 oracle.
    ``workers`` is the number of threads each sweep over the row blocks and
    each FFT solve run on (see :class:`~vtvrestore.frames.Sweep`); no result
    depends on it.
    """

    lam: tuple
    gamma: tuple
    tol: float = 5e-4
    max_iter: int = 200
    u_update: str = REDUCED17
    shrinkage: str = ANISO
    record_trace: bool = False
    precision: str = SINGLE
    workers: int = 1

    def __post_init__(self):
        self.lam, self.gamma = _reals("lam", self.lam), _reals("gamma", self.gamma)
        if len(self.lam) != len(self.gamma):
            raise ConfigError(
                f"lam has {len(self.lam)} entries but gamma has {len(self.gamma)}"
            )
        if not all(math.isfinite(v) and v >= 0 for v in self.lam):
            raise ConfigError(f"lam entries must be finite and nonnegative, got {self.lam}")
        if not all(math.isfinite(v) and v > 0 for v in self.gamma):
            raise ConfigError(f"gamma entries must be finite and positive, got {self.gamma}")
        if not (isinstance(self.tol, numbers.Real) and math.isfinite(self.tol) and self.tol > 0):
            raise ConfigError(f"tol must be a finite positive number, got {self.tol!r}")
        if self.u_update not in (FULL13, REDUCED17):
            raise ConfigError(f"unknown u_update variant {self.u_update!r}")
        if self.shrinkage not in (ANISO, ISO):
            raise ConfigError(f"unknown shrinkage flavor {self.shrinkage!r}")
        if self.precision not in (DOUBLE, SINGLE):
            raise ConfigError(f"unknown precision {self.precision!r}")
        for name in ("max_iter", "workers"):
            value = getattr(self, name)
            if not (is_integer(value) and value >= 1):
                raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
            # a Python int: json cannot write numpy's into a run record
            setattr(self, name, int(value))

    @classmethod
    def head_rest(
        cls,
        m: int,
        lam_head: float,
        lam_rest: float,
        gamma_head: float,
        gamma_rest: float,
        **kwargs,
    ) -> "SolverConfig":
        """Weights with a distinguished first (lowpass) channel."""
        return cls(
            lam=(lam_head,) + (lam_rest,) * (m - 1),
            gamma=(gamma_head,) + (gamma_rest,) * (m - 1),
            **kwargs,
        )


@dataclass
class SolveResult:
    """Final iterate plus per-iteration bookkeeping.

    ``u`` is the solver's last iterate, a C-contiguous ``(h, w)`` view of
    one of its padded images (see :class:`SplitBregman`).

    ``trace`` and ``energy_trace`` are the solve's :attr:`SplitBregman.trace`
    and :attr:`SplitBregman.energy_trace`: ``trace[j]`` is the relative
    change after u-update ``j+1``, one entry per iteration, and
    ``energy_trace[j]`` the energy of that iterate, filled only when
    ``record_trace`` is set.  ``converged`` is true iff the last trace entry
    reached ``tol``.  ``precision`` is the one the solve ran at (see
    :attr:`SplitBregman.precision`) and ``threads`` the number of sweep
    workers that ran (:attr:`~vtvrestore.frames.Sweep.workers`).
    """

    u: np.ndarray
    iterations: int
    trace: list = field(default_factory=list)
    energy_trace: list = field(default_factory=list)
    converged: bool = False
    precision: str = SINGLE
    threads: int = 1


def energy(u, f, op: DegradationOp, bank: FilterBank, cfg: SolverConfig) -> float:
    """Objective value: weighted vector TV of the features plus fidelity."""
    uu = as_image(u)
    ff = as_image(f, uu.shape)
    _check_channels(bank, cfg)
    lam, isotropic = cfg.lam, cfg.shrinkage == ISO
    sweep = Sweep(bank.frame_gradient, uu.shape, workers=cfg.workers)
    # past the float range the energy is inf or NaN, without warnings
    with sweep, np.errstate(over="ignore", invalid="ignore"):
        terms = sweep.run(lambda rows, g, add: diffops.vtv(g, weights=lam, isotropic=isotropic), uu)
        return sum(terms) + _fidelity(uu, ff, op)


def _check_channels(bank: FilterBank, cfg: SolverConfig) -> None:
    """Raise ConfigError unless ``cfg`` has one weight per channel of ``bank``."""
    if len(cfg.lam) != bank.m:
        raise ConfigError(f"config has {len(cfg.lam)} channels, bank has {bank.m}")


def _fidelity(u, f, op: DegradationOp) -> float:
    """``1/2 ||A u - f||^2``; ``inf`` past the float range, which a caller
    computes past without warnings."""
    return 0.5 * float(np.sum((op.apply(u) - f) ** 2))


def _norm(x) -> float:
    """``||x||``, rescaled by the largest entry where the squares overflow,
    which a caller computes past without warnings."""
    norm = float(np.linalg.norm(x))
    if norm == math.inf:
        peak = float(np.max(np.abs(x)))
        if peak < math.inf:
            norm = peak * float(np.linalg.norm(x / peak))
    return norm


class SplitBregman:
    """One restoration problem with explicit per-iteration control.

    :func:`solve` drives this class; it is public so tests and callers can
    step the iteration manually and inspect ``u``, ``b`` and ``numerator``,
    and read each iteration's record from ``trace`` and ``energy_trace``.
    Both grow by one entry per step, so a caller that steps without end
    should clear them.
    :attr:`precision` is the precision the solve runs at: the configured one,
    or ``"double"`` where a single solve would cast a value past
    :data:`SINGLE_BOUND` to float32.
    """

    def __init__(self, f, op: DegradationOp, bank: FilterBank, cfg: SolverConfig):
        self.f = as_image(f)
        _check_channels(bank, cfg)
        if cfg.u_update == REDUCED17 and len(set(cfg.gamma[1:])) > 1:
            raise ConfigError(f"reduced17 needs gamma_2 .. gamma_m all equal, got {cfg.gamma}")
        self.op = op
        self.bank = bank
        self.cfg = cfg

        h, w = self.f.shape
        m = bank.m
        with np.errstate(over="ignore"):  # an inf threshold zeroes every d
            thresholds = np.asarray(cfg.lam) / np.asarray(cfg.gamma)
        stencil = bank.frame_gradient
        self.precision = cfg.precision
        if self.precision == SINGLE and max(
            float(self.f.max()),
            -float(self.f.min()),
            max(cfg.gamma) * float(np.abs(stencil.taps).max(initial=0.0)),
            float(thresholds.max()),
        ) > SINGLE_BOUND:
            self.precision = DOUBLE
        dtype = np.float32 if self.precision == SINGLE else np.float64
        self._thresholds = thresholds.astype(dtype).reshape(-1, 1, 1, 1)

        #: ``w`` of the normal operator ``A*A + sum_i w_i F_i* G* G F_i``.
        self._weights = cfg.gamma if cfg.u_update == FULL13 else (cfg.gamma[0],) * m
        denominator = np.ascontiguousarray(
            half_symbol(stencil.normal_kernel(self._weights), (h, w)).real
        )
        denominator += op.gram_symbol((h, w))
        #: The reciprocal of the denominator's half symbol, which the FFT
        #: solve multiplies by: inverted in place once it is nonsingular.
        self._denominator = np.reciprocal(nonsingular(denominator), out=denominator)
        #: The stencil's :class:`~vtvrestore.frames.Sweep` over this grid:
        #: the block buffers and the first of the two images below.  Its
        #: scratch, live only inside a sweep, also holds the spectrum.
        self._sweep = Sweep(stencil, (h, w), cfg.gamma, dtype, cfg.workers)
        #: Two padded float64 images of the accumulator's shape, the sweep's
        #: own first.  One holds the numerator in its ``(h, w)`` interior;
        #: from the first step on, the other holds ``u`` in its contiguous
        #: ``(h, w)`` head (see :meth:`step`).
        self._images = (self._sweep._acc, np.zeros_like(self._sweep._acc))

        self._atf = op.adjoint(self.f)
        self.u = self.f
        # stored row by row: a block's rows of b are one contiguous slab
        self.b = np.zeros((h, m, 2, w), dtype).transpose(1, 2, 0, 3)
        #: ``A* f + sum_i gamma_i F_i* G* (d_i - b_i)``, the right-hand side of
        #: the next u-update, the interior of one of the two images, first the
        #: sweep's :attr:`~vtvrestore.frames.Sweep.total`: ``A* f`` while
        #: ``d = b = 0``.  :meth:`advance` sums the next one into the image
        #: that does not hold ``u_new``, and :meth:`step` spends it.
        self.numerator = self._sweep.total
        self.numerator += self._atf
        #: One entry per iterate :meth:`advance` installed since construction:
        #: its relative change, and, when ``cfg.record_trace`` is set, its
        #: energy (else ``energy_trace`` stays empty).
        self.trace, self.energy_trace = [], []
        #: A relative change of at most this ends the solve: :meth:`advance`
        #: then installs and records ``u_new`` but leaves ``b`` and the
        #: numerator as they were; its sweep body only sums a traced
        #: energy's TV terms.  Only :func:`solve` raises it.
        self._stop = -math.inf

    # -- u-updates ---------------------------------------------------------

    def u_update(self, out=None) -> np.ndarray:
        """Next u from the current numerator, per the configured variant.

        Returns a new array, or fills the float64 image ``out`` and returns
        it.  ``b`` is left untouched, and so is the numerator unless ``out``
        shares its bytes, as :meth:`step`'s does: the solve reads all of it
        before it writes ``out``.  A numerator that holds a NaN or Inf raises
        :class:`~vtvrestore.errors.NonFiniteError` before ``out`` is written.
        """
        return solve_diagonal(
            self.numerator, self._denominator, self._sweep.spectrum, out, self._sweep.split
        )

    # -- d/b updates and stepping -------------------------------------------

    def advance(self, u_new) -> float:
        """Run the d and b updates for ``u_new``, install it, return rel. err.

        One sweep over row blocks, with one body for every iteration,
        overwrites ``b`` in place and sums the next numerator into
        whichever of the two images does not hold ``u_new``, over the old
        ``u`` or numerator there; ``u_new`` is never written.  Appends the
        relative change to :attr:`trace` and, when ``cfg.record_trace`` is
        set, ``u_new``'s energy (the sweep's TV terms plus the fidelity) to
        :attr:`energy_trace`.  All of its numeric work runs under one numpy
        error state that lets values pass the float range without
        warnings: the norm check below reports them.

        ``u_new`` is converted by :func:`~vtvrestore.image.as_stack` (a
        float64 array is used as it is) and must have ``u``'s shape; other
        values raise :class:`~vtvrestore.errors.NotRealError` or
        :class:`~vtvrestore.errors.DimensionMismatchError`.  Raises
        :class:`~vtvrestore.errors.NonFiniteError` when ``||u_new - u||`` is
        not finite: ``u_new`` holds a NaN or Inf, or lies so far from ``u``
        that the difference overflows.  These errors change and record
        nothing.  An exception raised inside the sweep (a ``MemoryError`` on a
        worker, say) leaves ``b``, the numerator and ``u`` partly written.
        """
        u_new = as_stack(u_new, "iterate")
        if u_new.shape != self.u.shape:
            raise DimensionMismatchError(
                f"expected an iterate of shape {self.u.shape}, got {u_new.shape}"
            )
        # u_new - u in a contiguous (h, w) view of the spent spectrum buffer,
        # which the sweep below then overwrites; a fresh difference image
        # would raise the solve's peak by one image
        change = self._sweep.spectrum.view(np.float64).ravel()[: self.u.size].reshape(self.u.shape)
        u, split = self.u, self._sweep.split
        # Per block, with v = grad(F u_new) + b and d = shrink(v):
        # b <- v - d, which is clip(v, -T, T) for the anisotropic shrink, and
        # the block becomes d - b = v - 2 b, which is added into the next
        # numerator; all in place (a fresh result array costs 2-4x).  A block
        # writes only its own rows of b; the TV terms come back in block order.
        t = self._thresholds
        lam, isotropic, traced = self.cfg.lam, self.cfg.shrinkage == ISO, self.cfg.record_trace

        def update(rows, v, add):
            regularization = diffops.vtv(v, weights=lam, isotropic=isotropic) if traced else None
            if not last:
                b = self.b[:, :, rows]
                v += b
                if isotropic:
                    diffops.shrink_iso(v, t[..., 0], out=b)
                    np.subtract(v, b, out=b)
                else:
                    np.clip(v, -t, t, out=b)
                v -= b
                v -= b
                add(v)
            return regularization

        # past the float range a step computes on; the norm check reports it
        with np.errstate(over="ignore", invalid="ignore"):
            split(lambda r0, r1: np.subtract(u_new[r0:r1], u[r0:r1], out=change[r0:r1]), len(u))
            norm = _norm(change)
            if not math.isfinite(norm):
                raise NonFiniteError("iterate contains NaN or Inf; parameters look divergent")
            rel = norm / max(_norm(self.u), _NORM_FLOOR)
            # the solve's last u-update: no later one reads b or the numerator
            last = rel <= self._stop
            # the image that does not hold u_new: its numerator was spent, or
            # its head held the old u, dead once the change's norm is taken
            acc = self._images[np.may_share_memory(u_new, self._images[0])]
            terms = self._sweep.run(update, u_new, acc) if traced or not last else []
            if not last:
                num, atf = acc[self._sweep._interior], self._atf
                split(lambda r0, r1: np.add(num[r0:r1], atf[r0:r1], out=num[r0:r1]), len(u))
                self.numerator = num
            if traced:
                self.energy_trace.append(sum(terms) + _fidelity(u_new, self.f, self.op))
        self.trace.append(rel)
        self.u = u_new
        return rel

    def step(self) -> float:
        """One full iteration; returns the relative change of u.

        The next iterate is written into the contiguous ``(h, w)`` head of
        the image that does not hold ``u``, which holds the numerator that
        the FFT solve's first pass has read whole, so it is never written
        into ``f`` or an array a caller passed to :meth:`advance`.  The
        sweep then sums the next numerator into the other image, over the
        old ``u``: a caller that keeps ``u`` across a step must copy it.

        A numerator that holds a NaN or Inf is caught by the FFT solve
        before it writes (see :func:`~vtvrestore.image.solve_diagonal`), so
        the :class:`~vtvrestore.errors.NonFiniteError` leaves the state as
        it was.  A finite numerator whose solve overflows, past about
        1e308, raises in :meth:`advance` instead: ``u``, ``b`` and the
        traces are kept, but the numerator is spent.  Neither prints a
        warning.
        """
        image = self._images[np.may_share_memory(self.u, self._images[0])]
        return self.advance(self.u_update(out=image.ravel()[: self.u.size].reshape(self.u.shape)))

    def close(self) -> None:
        """End the sweep's worker threads; a later step starts them again."""
        self._sweep.close()


def solve(f, op: DegradationOp, bank: FilterBank, cfg: SolverConfig) -> SolveResult:
    """Run the split Bregman loop to tolerance or the iteration cap.

    Starts from ``u = f`` with zero splits and multipliers and calls
    :meth:`SplitBregman.step` until a relative change reaches ``tol``, or
    ``max_iter`` times; the last step updates neither ``b`` nor the
    numerator.  The result carries the solver's own trace lists.
    Deterministic: identical inputs produce bit-identical results.
    """
    sb = SplitBregman(f, op, bank, cfg)
    try:
        for k in range(1, cfg.max_iter + 1):
            sb._stop = cfg.tol if k < cfg.max_iter else math.inf
            if sb.step() <= cfg.tol:
                break
    finally:
        sb.close()
    return SolveResult(
        u=sb.u,
        iterations=len(sb.trace),
        trace=sb.trace,
        energy_trace=sb.energy_trace,
        converged=sb.trace[-1] <= cfg.tol,
        precision=sb.precision,
        threads=sb._sweep.workers,
    )
