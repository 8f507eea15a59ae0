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
stencil's :meth:`~vtvrestore.frames.FrameGradient.normal_kernel` plus
that of ``A*A``, built once per solve; only their ``rfft2`` halves are
built (:func:`~vtvrestore.image.half_symbol`), and the smallest bin of the
sum is checked once, when the solve is set up.  The spatial-domain primitives
(:func:`~vtvrestore.frames.analyze`, :func:`~vtvrestore.diffops.grad`, ...)
remain the references the tests check against, the u-update's KKT
residual among them.

:class:`SplitBregman` builds its whole state when it is constructed: one
``(m, 2, h, w)`` stack, the multipliers ``b``; a
:class:`~vtvrestore.frames.Sweep`, which holds the block buffers and the
wrap-padded accumulator whose ``(h, w)`` view is the ``numerator`` of the
next u-update; a pair of iterates; and one complex buffer the size of the
half spectrum, in which the FFT solve runs and which
:meth:`~SplitBregman.advance` then reuses for ``u_new - u``.  The
observation ``f`` is read, never written, and not copied: ``u`` starts as
``f`` itself, and ``A* f``, which every numerator adds, is ``f`` itself for
the identity, so a caller must not change ``f`` during the solve.  The
splits ``d`` are never stored:
:meth:`~SplitBregman.advance` checks that ``||u_new - u||`` is finite,
then makes one sweep over row blocks and, while a block of the stencil's
output is still in cache, shrinks it, updates ``b`` and adds the block's
``d - b`` to the next numerator, all in one loop.  It overwrites ``b`` and
``numerator`` **in place**: a caller that keeps either across a step must
copy it.  The u-update is one FFT solve; it returns a fresh array and
never touches ``b`` or the numerator.  With ``record_trace``, the same sweep
also sums the TV part of the energy, so a traced iteration runs the stencil
once.  :meth:`~SplitBregman.step` is one FFT solve into whichever iterate
array is not ``u``, and one sweep, so a step allocates no image.

``SolverConfig.workers`` runs each sweep on that many threads: the even
row blocks, then the odd ones, each phase split over the workers, which
write disjoint rows of ``b`` and of the accumulator (see
:class:`~vtvrestore.frames.Sweep`).  The blocks and the order of every sum
are the same for any worker count, so no result depends on it.  The
threads are the one part of a solve its construction does not make: they
start with the first step, wait between steps and end with
:func:`solve` or :meth:`SplitBregman.close`; one worker starts none.  A
block's body reaches :mod:`~vtvrestore.diffops` through its module, never
through a name of this one, so a wrapper put on a name of this module (as
a profiler does) is only ever called by the calling thread.

``SolverConfig.precision`` sets the dtype of the splitting state.  At
``"single"``, ``b``, the thresholds and the sweep's padded copy of ``u``,
block buffers, taps and gamma-weighted transposed taps are float32: the
sweep reads and writes half the bytes and its matrix products run in single
precision.  The adjoint's planes of a block are summed in float32 too, and
the sum is added into the float64 accumulator.  The iterate ``u``, the
numerator the accumulator holds, the denominator, the FFT solve and
``rel_err`` stay float64, as do the references :func:`energy` and
``FrameGradient.apply``/``adjoint``.  A single solve whose observation,
gamma-weighted taps or thresholds exceed :data:`SINGLE_BOUND` runs at
double; :attr:`SplitBregman.precision` and :attr:`SolveResult.precision`
say which ran.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import diffops
# grad, grad_adjoint and analyze have no caller here: they stay as the names
# perfbench/traced.py wraps, until the benchmark's spans are redone
from .diffops import grad, grad_adjoint
from .errors import (
    ConfigError,
    DimensionMismatchError,
    NonFiniteError,
)
from .frames import FilterBank, Sweep, analyze
from .image import (
    as_kernel,
    conv_adjoint,
    conv_circular,
    half_symbol,
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
    denominator.  The identity's :meth:`apply` and :meth:`adjoint` return
    their argument itself (as float64), not a copy.
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
            return np.asarray(u, dtype=np.float64)
        return conv_circular(u, self.psf)

    def adjoint(self, u) -> np.ndarray:
        """A* u."""
        if self.psf is None:
            return np.asarray(u, dtype=np.float64)
        return conv_adjoint(u, self.psf)

    def gram_symbol(self, shape):
        """The ``rfft2`` half of the symbol of ``A*A`` on a ``shape`` grid.

        ``|symbol of A|^2`` as a new real array, or the exact scalar ``1.0``
        for the identity.
        """
        if self.psf is None:
            return 1.0
        return np.abs(half_symbol(self.psf, shape)) ** 2


@dataclass
class SolverConfig:
    """Per-channel weights and loop controls for :func:`solve`.

    ``lam`` weights the per-channel TV terms; ``gamma`` are the splitting
    penalties (also the u-update damping).  Lengths must equal the bank's
    channel count.  ``precision`` is the dtype of the splitting state:
    ``"double"`` (float64) or ``"single"`` (float32; see the module notes).
    ``workers`` is the number of threads each sweep over the row blocks runs
    on (see :class:`~vtvrestore.frames.Sweep`); no result depends on it.
    """

    lam: tuple
    gamma: tuple
    tol: float = 5e-4
    max_iter: int = 200
    u_update: str = REDUCED17
    shrinkage: str = ANISO
    record_trace: bool = False
    precision: str = DOUBLE
    workers: int = 1

    def __post_init__(self):
        self.lam = tuple(float(v) for v in np.atleast_1d(self.lam))
        self.gamma = tuple(float(v) for v in np.atleast_1d(self.gamma))
        if len(self.lam) != len(self.gamma):
            raise ConfigError(
                f"lam has {len(self.lam)} entries but gamma has {len(self.gamma)}"
            )
        if not all(math.isfinite(v) and v >= 0 for v in self.lam):
            raise ConfigError(f"lam entries must be finite and nonnegative, got {self.lam}")
        if not all(math.isfinite(v) and v > 0 for v in self.gamma):
            raise ConfigError(f"gamma entries must be finite and positive, got {self.gamma}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ConfigError(f"tol must be finite and positive, got {self.tol}")
        if self.u_update not in (FULL13, REDUCED17):
            raise ConfigError(f"unknown u_update variant {self.u_update!r}")
        if self.shrinkage not in (ANISO, ISO):
            raise ConfigError(f"unknown shrinkage flavor {self.shrinkage!r}")
        if self.precision not in (DOUBLE, SINGLE):
            raise ConfigError(f"unknown precision {self.precision!r}")
        for name in ("max_iter", "workers"):
            value = getattr(self, name)
            if isinstance(value, bool) or not (isinstance(value, int) and value >= 1):
                raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")

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

    ``trace[j]`` is the relative change after u-update ``j+1``; it always has
    one entry per iteration.  ``energy_trace`` is filled only when
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
    precision: str = DOUBLE
    threads: int = 1


def energy(u, f, op: DegradationOp, bank: FilterBank, cfg: SolverConfig) -> float:
    """Objective value: weighted vector TV of the features plus fidelity."""
    uu = np.asarray(u, dtype=np.float64)
    ff = np.asarray(f, dtype=np.float64)
    if uu.shape != ff.shape:
        raise DimensionMismatchError(f"u {uu.shape} vs f {ff.shape}")
    if len(cfg.lam) != bank.m:
        raise ConfigError(f"config has {len(cfg.lam)} channels, bank has {bank.m}")
    isotropic = cfg.shrinkage == ISO
    with Sweep(bank.frame_gradient, uu.shape, workers=cfg.workers) as sweep:
        terms = sweep.run(
            lambda rows, g, add: diffops.vtv(g, weights=cfg.lam, isotropic=isotropic), uu
        )
    return sum(terms) + _fidelity(uu, ff, op)


def _fidelity(u, f, op: DegradationOp) -> float:
    """``1/2 ||A u - f||^2``; ``inf`` past the float range."""
    with np.errstate(over="ignore"):
        return 0.5 * float(np.sum((op.apply(u) - f) ** 2))


def _norm(x) -> float:
    """``||x||``, rescaled by the largest entry where the squares overflow."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(x))
        if norm == math.inf:
            peak = float(np.max(np.abs(x)))
            if peak < math.inf:
                norm = peak * float(np.linalg.norm(x / peak))
    return norm


class SplitBregman:
    """One restoration problem with explicit per-iteration control.

    :func:`solve` drives this class; it is public so tests and callers can
    step the iteration manually and inspect ``u``, ``b`` and ``numerator``.
    :attr:`precision` is the precision the solve runs at: the configured one,
    or ``"double"`` where a single solve would cast a value past
    :data:`SINGLE_BOUND` to float32.
    """

    def __init__(self, f, op: DegradationOp, bank: FilterBank, cfg: SolverConfig):
        self.f = np.asarray(f, dtype=np.float64)
        if self.f.ndim != 2:
            raise DimensionMismatchError(f"expected a 2-D image, got {self.f.shape}")
        if not np.isfinite(self.f).all():
            raise NonFiniteError("observed image contains NaN or Inf")
        if len(cfg.lam) != bank.m:
            raise ConfigError(
                f"config has {len(cfg.lam)} channels, bank has {bank.m}"
            )
        if cfg.u_update == REDUCED17 and bank.m >= 2:
            rest = cfg.gamma[1:]
            if any(g != rest[0] for g in rest):
                raise ConfigError(
                    "reduced17 needs gamma_2 .. gamma_m all equal, got "
                    f"{cfg.gamma}"
                )
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
            max(cfg.gamma) * float(np.abs(stencil.taps).max()),
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
        self._denominator = nonsingular(denominator)
        #: Complex scratch of the denominator's shape: the FFT solve runs in
        #: it, and :meth:`advance` reuses it once the solve is spent.
        self._spectrum = np.empty(denominator.shape, dtype=np.complex128)

        #: The stencil's :class:`~vtvrestore.frames.Sweep` over this grid:
        #: the block buffers and the accumulator the numerator is summed in.
        self._sweep = Sweep(stencil, (h, w), cfg.gamma, dtype, cfg.workers)
        #: The two arrays :meth:`step` writes iterates into.
        self._iterates = (np.empty((h, w)), np.empty((h, w)))

        self._atf = op.adjoint(self.f)
        self.u = self.f
        self.b = np.zeros((m, 2, h, w), dtype)
        #: ``A* f + sum_i gamma_i F_i* G* (d_i - b_i)``, the right-hand side of
        #: the next u-update, as the sweep's folded ``(h, w)`` view of its
        #: accumulator: ``A* f`` while ``d = b = 0``.  Overwritten in place
        #: by :meth:`advance`.
        self.numerator = self._sweep.fold()
        self.numerator += self._atf
        #: The weighted vector TV ``vtv(grad(F u), lam)`` of the last iterate
        #: :meth:`advance` installed, when ``cfg.record_trace`` is set; else None.
        self.regularization = None

    # -- u-updates ---------------------------------------------------------

    def u_update(self, out=None) -> np.ndarray:
        """Next u from the current numerator, per the configured variant.

        Returns a new array, or fills the float64 image ``out`` and returns
        it; ``b`` and the numerator are left untouched.
        """
        return solve_diagonal(self.numerator, self._denominator, self._spectrum, out)

    # -- d/b updates and stepping -------------------------------------------

    def advance(self, u_new) -> float:
        """Run the d and b updates for ``u_new``, install it, return rel. err.

        One sweep over row blocks overwrites ``b`` and the numerator in
        place.  Raises :class:`~vtvrestore.errors.NonFiniteError`, changing
        nothing, when ``||u_new - u||`` is not finite: ``u_new`` holds a NaN
        or Inf, or lies so far from ``u`` that the difference overflows.
        """
        # u_new - u in a contiguous (h, w) view of the spent spectrum buffer;
        # a fresh difference image would raise the solve's peak by one image
        change = self._spectrum.view(np.float64).ravel()[: self.u.size].reshape(self.u.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            np.subtract(u_new, self.u, out=change)
        norm = _norm(change)
        if not math.isfinite(norm):
            raise NonFiniteError("iterate contains NaN or Inf; parameters look divergent")
        rel = norm / max(_norm(self.u), _NORM_FLOOR)
        # Per block, with v = grad(F u_new) + b and d = shrink(v):
        # b <- v - d, which is clip(v, -T, T) for the anisotropic shrink, and
        # the block becomes d - b = v - 2 b, which is added into the next
        # numerator; all in place (a fresh result array costs 2-4x).  A block
        # writes only its own rows of b; the TV terms come back in block order.
        t = self._thresholds
        lam, isotropic, traced = self.cfg.lam, self.cfg.shrinkage == ISO, self.cfg.record_trace

        def update(rows, v, add):
            regularization = diffops.vtv(v, weights=lam, isotropic=isotropic) if traced else None
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

        self._sweep.reset()
        terms = self._sweep.run(update, u_new)
        self._sweep.fold()  # into the view that is the numerator
        self.numerator += self._atf
        if traced:
            self.regularization = sum(terms)
        self.u = u_new
        return rel

    def step(self) -> float:
        """One full iteration; returns the relative change of u.

        The next iterate is written into whichever of the two iterate arrays
        is not ``u``, never into ``f`` or an array a caller passed to
        :meth:`advance`; a caller that keeps ``u`` across two steps must copy
        it.
        """
        return self.advance(self.u_update(out=self._iterates[self.u is self._iterates[0]]))

    def close(self) -> None:
        """End the sweep's worker threads; a later step starts them again."""
        self._sweep.close()


def solve(f, op: DegradationOp, bank: FilterBank, cfg: SolverConfig) -> SolveResult:
    """Run the split Bregman loop to tolerance or the iteration cap.

    Starts from ``u = f`` with zero splits and multipliers.  Deterministic:
    identical inputs produce bit-identical results.
    """
    sb = SplitBregman(f, op, bank, cfg)
    trace: list = []
    energy_trace: list = []
    converged = False
    try:
        for _ in range(cfg.max_iter):
            rel = sb.step()
            trace.append(rel)
            if cfg.record_trace:
                energy_trace.append(sb.regularization + _fidelity(sb.u, sb.f, op))
            if rel <= cfg.tol:
                converged = True
                break
    finally:
        sb.close()
    return SolveResult(
        u=sb.u,
        iterations=len(trace),
        trace=trace,
        energy_trace=energy_trace,
        converged=converged,
        precision=sb.precision,
        threads=sb._sweep.workers,
    )
